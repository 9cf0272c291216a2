#!/usr/bin/env python3
"""Time synthesis on an (n, modes) scaling grid, the reference level search,
its closed-loop certification and one simulation path of each kind.

    PYTHONPATH=src python scripts/bench.py [--grid 2x3 4x3 ...] [--out-dir DIR]

For each grid point, times ``synthesize(random_plant(0, n, modes, 0), 5.0)``
on the seeded jump plants of perfbench/plants.py; then times the reference
``min_attenuation(reference_plant(), 0.01, 1.0, tol_g=5e-3)`` and
``verify_closed_loop`` of its augmented controller at g*, the two LMI solves
of ``qhinf demo-paper --quick``.  On the reference plant closed with
``reference_controller()`` it times one ``propagate_moments`` path (sin:0.5,
t_end 100, dt 0.05, validated, as perfbench's fault-sim) and one mean-probe
path (default family, t_end 120).  Each figure is one wall-clock run
(``time.perf_counter``) on one BLAS thread.  Writes BENCH_<date>.json with,
per solve, the seconds, Newton steps, milliseconds per step and verdict (the
LMI status), whether the certification passed, the simulation seconds, plus
the numpy and scipy versions and the live BLAS thread count.  The default
grid leaves out (8, 6), which takes minutes.
"""

import argparse
import datetime
import json
import os
import platform
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DEFAULT_GRID = ("2x3", "4x3", "6x3", "8x3", "4x6")
LEVEL = 5.0


def grid_point(text):
    try:
        n, modes = (int(part) for part in text.split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid point {text!r} is not NxMODES") from None
    if n <= 0 or n % 2 or modes <= 0:
        raise argparse.ArgumentTypeError(f"grid point {text!r} needs even n > 0 and modes > 0")
    return n, modes


def timed(solve):
    """(seconds, level, LmiSolution) of ``solve() -> (level, SynthesisResult)``;
    the level is None when the solve ended infeasible or with its Newton step
    budget spent."""
    from qhinf import synthesis

    t0 = time.perf_counter()
    try:
        g, result = solve()
    except synthesis.SynthesisError as exc:
        if exc.solution is None:
            raise
        return time.perf_counter() - t0, None, exc.solution
    return time.perf_counter() - t0, g, result.solution


def record(seconds, solution, **fields):
    steps = solution.iterations
    return {**fields, "seconds": round(seconds, 4), "newton_steps": steps,
            "step_ms": round(1e3 * seconds / steps, 3) if steps else None,
            "verdict": solution.status}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", nargs="+", type=grid_point,
                        default=[grid_point(p) for p in DEFAULT_GRID],
                        help=f"(n, modes) points as NxMODES (default: {' '.join(DEFAULT_GRID)})")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)

    # one BLAS thread, as in perfbench: a second one does not speed up these small matrices
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(PERFBENCH))
    import numpy
    import scipy
    from plants import random_plant
    from run import blas_info

    from qhinf import analysis, demo, jumpsim, realizability, synthesis

    blas, blas_threads = blas_info(numpy)
    grid = []
    for n, modes in args.grid:
        plant = random_plant(0, n, modes, 0)
        seconds, _, solution = timed(lambda: (LEVEL, synthesis.synthesize(plant, LEVEL)))
        grid.append(record(seconds, solution, n=n, modes=modes, g=LEVEL))
        print(f"n={n} modes={modes}: {seconds:.3f} s, {solution.iterations} steps, "
              f"{solution.status}", flush=True)

    search = dict(g_lo=0.01, g_hi=1.0, tol_g=5e-3)
    designed = []  # the level search's SynthesisResult, for the certification

    def level_search():
        g, result = synthesis.min_attenuation(demo.reference_plant(), **search)
        designed.append(result)
        return g, result

    seconds, g_star, solution = timed(level_search)
    reference = record(seconds, solution, **search, g_star=g_star)
    print(f"reference min_attenuation: {seconds:.3f} s, {solution.iterations} steps, "
          f"{solution.status}, g*={g_star}", flush=True)

    aug = realizability.augment_jump_controller(designed[0].controller)
    t0 = time.perf_counter()
    report = analysis.verify_closed_loop(demo.reference_plant(), aug, g_star)
    seconds = time.perf_counter() - t0
    solution = report.coupled.solution  # every mode of the reference loop is Hurwitz
    certification = record(seconds, solution, g=g_star, certified=report.attenuation_ok)
    print(f"reference verify_closed_loop: {seconds:.3f} s, {solution.iterations} steps, "
          f"{solution.status}, certified={report.attenuation_ok}", flush=True)

    loop = analysis.assemble_closed_loop(demo.reference_plant(), demo.reference_controller())
    dist = jumpsim.Disturbance("sin:0.5", numpy.eye(loop.n_w)[0], "sin", 0.5)
    sim = {"disturbance": dist.label, "t_end": 100.0, "dt": 0.05}
    path = jumpsim.sample_markov_path(loop.rates, sim["t_end"], seed=jumpsim.path_seed(0, 0))
    t0 = time.perf_counter()
    traj = jumpsim.propagate_moments(loop, path, dist, numpy.zeros(loop.n), numpy.eye(loop.n),
                                     sim["dt"], validate=True)
    seconds = time.perf_counter() - t0
    simulation = {"propagate_moments": {**sim, "seconds": round(seconds, 4),
                                        "grid_steps": len(traj.times) - 1,
                                        "jumps": len(path.jump_times)}}
    t0 = time.perf_counter()
    jumpsim.estimate_attenuation(loop, 0.1, t_end=120.0, n_paths=1, seed=0)
    simulation["mean_probe"] = {"t_end": 120.0, "seconds": round(time.perf_counter() - t0, 4)}
    print(f"propagate_moments path: {seconds:.4f} s; mean-probe path: "
          f"{simulation['mean_probe']['seconds']:.4f} s", flush=True)

    doc = {
        "date": datetime.datetime.now().isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "cpu_count": os.cpu_count(),
        "grid": grid,
        "reference": reference,
        "certification": certification,
        "simulation": simulation,
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_{datetime.date.today().isoformat()}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
