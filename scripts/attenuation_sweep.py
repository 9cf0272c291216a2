#!/usr/bin/env python3
"""Sweep the feasibility boundary of the synthesis LMIs for the OPO example.

Solves the synthesis problem on a geometric grid of attenuation levels and
prints feasibility plus the verified LMI margin for each, then the minimal
level from one gamma-minimisation solve.  A level whose solve spent its
Newton budget, or whose controller could not be rebuilt, prints as
"undecided", with the margin when the solve returned a point and a dash
when it did not.  Useful for eyeballing how sharp the boundary is and how
the interior-point margins degrade near it.
"""

import argparse

import numpy as np

from qhinf import demo, synthesis


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g-min", type=float, default=0.01)
    parser.add_argument("--g-max", type=float, default=0.5)
    parser.add_argument("--points", type=int, default=12)
    args = parser.parse_args(argv)

    plant = demo.reference_plant()
    print(f"{'g':>10s}  {'feasible':>9s}  {'margin':>12s}")
    for g in np.geomspace(args.g_min, args.g_max, args.points):
        try:
            result = synthesis.synthesize(plant, float(g))
            print(f"{g:10.5f}  {'yes':>9s}  {result.solution.margin:12.3e}")
        except synthesis.LmiInfeasibleError as exc:
            print(f"{g:10.5f}  {'no':>9s}  {exc.solution.margin:12.3e}")
        except synthesis.SynthesisError as exc:
            # a spent budget or a failed reconstruction decides nothing
            margin = "\u2014" if exc.solution is None else f"{exc.solution.margin:.3e}"
            print(f"{g:10.5f}  {'undecided':>9s}  {margin:>12s}")

    try:
        g_star, result = synthesis.min_attenuation(plant, args.g_min, args.g_max, tol_g=1e-3)
    except synthesis.SynthesisError as exc:
        print(f"\nminimised level: undecided ({exc})")
    else:
        print(f"\nminimised level: g* = {g_star:.5f} "
              f"(margin {result.solution.margin:.3e})")


if __name__ == "__main__":
    raise SystemExit(main())
