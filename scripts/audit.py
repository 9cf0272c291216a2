#!/usr/bin/env python3
"""Audit fixed-level synthesis: design, augment and certify 45 cases.

    PYTHONPATH=src python scripts/audit.py [--out FILE]

Each case is a plant and a level g (``cases()``): the reference plant at six
levels, a one-mode plant, a two-mode plant whose second mode is absorbing,
and the seeded jump plants of perfbench/plants.py.  For each, it runs
``synthesize(plant, g)`` and, when that gives a controller, augments it and
certifies the augmented design twice: by the closed-form storage certificate
``certify_design`` and by ``verify_closed_loop`` (the coupled certificate,
from the coupled Lyapunov storage or else the barrier solve).  One line per
case prints the synthesis verdict, its Newton steps and verified margin, the
largest condition number of Y_i^-1 - X_i (which the rebuild inverts), the
storage verdict and the coupled verdict with its route and Newton steps, and
the synthesis seconds (one wall-clock run).  With ``--out``, the records are
also written as a JSON list.  All run on one BLAS thread.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def two_state_plant(drifts, rates):
    """Plant with A_i = drifts[i] I, B1 = B2 = C1 = C2 = I, D1 = D2 = -I and
    the given transition rates."""
    import numpy as np

    from qhinf.qmodel import JumpPlant, TransitionRateMatrix, make_commutation_matrix

    eye = np.eye(2)
    return JumpPlant(a_modes=tuple(d * eye for d in drifts), b1=eye, b2=eye, c1=eye, d1=-eye,
                     c2=eye, d2=-eye, theta=make_commutation_matrix(2),
                     rates=TransitionRateMatrix(np.array(rates, dtype=float)))


def single_mode_plant():
    """One mode, A = -I, zero rates."""
    return two_state_plant((-1.0,), [[0.0]])


def absorbing_mode_plant():
    """A_1 = 0.1 I (unstable, left at rate 0.5) and A_2 = -I (absorbing)."""
    return two_state_plant((0.1, -1.0), [[-0.5, 0.5], [0.0, 0.0]])


def cases():
    """(label, plant factory, g) of every audited case."""
    from plants import random_plant

    from qhinf import demo

    out = [("reference", demo.reference_plant, g) for g in (0.037, 0.040, 0.048, 0.05, 0.1, 1.0)]
    out += [("single-mode", single_mode_plant, g) for g in (1.5, 2.0, 5.0, 1000.0)]
    out += [("absorbing-mode", absorbing_mode_plant, g) for g in (2.2, 3.0, 10.0)]
    out += [("random 36 2x2", lambda: random_plant(36, 2, 2, 0), g) for g in (0.45, 0.53)]
    out += [(f"random {s} {n}x{m}", lambda s=s, n=n, m=m: random_plant(s, n, m, 0), 5.0)
            for n, m in ((2, 2), (2, 3), (4, 2), (4, 3), (6, 3)) for s in range(6)]
    return out


def audit(plant, g):
    """Record of one case: the synthesis solve's ``LmiSolution.record()`` and
    seconds, the largest coupling condition number, and both certificates
    of the augmented design (None where no controller was produced)."""
    from qhinf import analysis, realizability, synthesis

    t0 = time.perf_counter()
    try:
        result = synthesis.synthesize(plant, g)
    except synthesis.SynthesisError as exc:
        solution = exc.solution
        return {"g": g, "seconds": round(time.perf_counter() - t0, 4),
                **(solution.record() if solution is not None else {"status": str(exc)}),
                "coupling_condition": None, "storage_certified": None, "coupled": None}
    seconds = time.perf_counter() - t0
    aug = realizability.augment_jump_controller(result.controller)
    storage = synthesis.certify_design(plant, result, aug, g)
    coupled = analysis.verify_closed_loop(plant, aug, g)
    return {"g": g, "seconds": round(seconds, 4), **result.solution.record(),
            "coupling_condition": max(result.coupling_condition_numbers),
            "storage_certified": storage.certified, "storage_margin": storage.margin,
            "coupled": {"certified": coupled.attenuation_ok, "route": coupled.route,
                        **coupled.solution.record()}}


def line(label, record):
    text = f"{label:15s} g={record['g']:<7g} {record['status']}"
    if "newton_steps" in record:
        text += f", {record['newton_steps']} steps, margin {record['margin']:.3e}"
    if record["coupling_condition"] is not None:
        coupled = record["coupled"]
        text += (f", cond {record['coupling_condition']:.2e}; storage "
                 f"{'certified' if record['storage_certified'] else 'REJECTED'}; coupled "
                 f"{'certified' if coupled['certified'] else 'REJECTED'} ({coupled['route']}, "
                 f"{coupled['newton_steps']} steps)")
    return text + f"; {record['seconds']:.3f} s"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="also write the records as a JSON list")
    args = parser.parse_args(argv)

    # one BLAS thread, as in perfbench: a second one does not speed up these small matrices
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(PERFBENCH))

    records = []
    for label, make_plant, g in cases():
        record = {"case": label, **audit(make_plant(), g)}
        print(line(label, record), flush=True)
        records.append(record)
    total = sum(r["seconds"] for r in records)
    print(f"{len(records)} cases, synthesis {total:.3f} s in all")
    if args.out:
        args.out.write_text(json.dumps(records, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
