#!/usr/bin/env python3
"""Time synthesis on an (n, modes) scaling grid, the reference level search,
its closed-loop certification, one simulation path of each kind and the
end-to-end ``qhinf demo-paper --quick``.

    PYTHONPATH=src python scripts/bench.py [--grid 2x3 4x3 ...] [--out-dir DIR]

For each grid point, times ``synthesize(random_plant(0, n, modes, 0), 5.0)``
on the seeded jump plants of perfbench/plants.py and, when the solve gives a
controller, certifies its augmentation at 5.0 (the point's
``certification``, None without a controller); then times the reference
``min_attenuation(reference_plant(), 0.01, 1.0, tol_g=5e-3)`` and certifies
its augmented controller at g*.  Each certification times both checks:
``verify_closed_loop``, which certifies from the coupled Lyapunov storage,
from Kleinman steps on the coupled Riccati equations or else by the coupled
LMI's barrier solve and records which as ``route`` (``lyapunov``,
``riccati`` or ``barrier``), and the closed-form storage certificate
``synthesis.certify_design`` that ``qhinf demo-paper`` and ``qhinf synth``
use.  On the reference plant closed with
``reference_controller()`` it times one ``propagate_moments`` path (sin:0.5,
t_end 100, dt 0.05, validated, as perfbench's fault-sim) and one mean-probe
path (default family, t_end 120), each as the median of 15 runs
(``SIM_RUNS``) of the same path, since one such run takes milliseconds.  One
more, untimed, run of the same ``propagate_moments`` path at dt 1e-3
(``MEMORY_DT``) under ``tracemalloc`` gives its peak traced bytes per
sample.  Last, it runs
``cli.main(["demo-paper", "--quick", "--out-dir", <temporary dir>])`` in
process, its printed report discarded.  Every other figure is one wall-clock
run (``time.perf_counter``); all run on one BLAS thread.  Writes
BENCH_<date>.json with, per solve, the seconds and milliseconds per Newton
step beside the solve's ``LmiSolution.record()`` (status, Newton steps in all
and per phase, verified margin, final shift t, objective gap, notes), for
each grid point and the reference search the largest condition number of
Y_i^-1 - X_i that the controller rebuild inverted
(``max_coupling_condition``, None without a controller), whether
the coupled certification passed and by which route, the storage
certificate's verdict, least margin and seconds, each simulation path's
median seconds and run count, the propagation's peak traced bytes per
sample, the demo's seconds and exit code, plus the
numpy and scipy versions and the live BLAS thread count.
The default grid leaves out (8, 6), which takes minutes.
"""

import argparse
import contextlib
import datetime
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DEFAULT_GRID = ("2x3", "4x3", "6x3", "8x3", "4x6")
LEVEL = 5.0
SIM_RUNS = 15
MEMORY_DT = 1e-3


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
    return {**fields, "seconds": round(seconds, 4),
            "step_ms": round(1e3 * seconds / steps, 3) if steps else None,
            **solution.record()}


def max_condition(designed):
    """The largest coupling condition number of the ``SynthesisResult`` in
    ``designed``, or None when it is empty."""
    return max(designed[0].coupling_condition_numbers) if designed else None


def median_seconds(run):
    """Median wall time of SIM_RUNS calls of ``run()``, and its last result."""
    seconds = []
    for _ in range(SIM_RUNS):
        t0 = time.perf_counter()
        result = run()
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds), result


def certify(plant, result, g, label):
    """Record of ``verify_closed_loop`` of the augmented controller of the
    ``SynthesisResult`` at level g, with ``certified`` its verdict and
    ``route`` the route that decided it, and of
    ``certify_design`` of the same design as ``storage_certified``,
    ``storage_margin`` and ``storage_seconds``; printed after ``label``.
    Only the two certifications are timed."""
    from qhinf import analysis, realizability, synthesis

    aug = realizability.augment_jump_controller(result.controller)
    t0 = time.perf_counter()
    report = analysis.verify_closed_loop(plant, aug, g)
    seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    storage = synthesis.certify_design(plant, result, aug, g)
    storage_seconds = time.perf_counter() - t0
    print(f"{label}: {seconds:.3f} s, {report.solution.summary()}, "
          f"certified={report.attenuation_ok} ({report.route}); "
          f"storage {storage_seconds * 1e3:.2f} ms, "
          f"{storage.summary()}, certified={storage.certified}", flush=True)
    return record(seconds, report.solution, g=g, certified=report.attenuation_ok,
                  route=report.route, storage_certified=storage.certified,
                  storage_margin=storage.margin, storage_seconds=round(storage_seconds, 6))


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

    from qhinf import analysis, cli, demo, jumpsim, synthesis

    blas, blas_threads = blas_info(numpy)
    grid = []
    for n, modes in args.grid:
        plant = random_plant(0, n, modes, 0)
        designed = []  # the SynthesisResult, when the solve produced a controller

        def design():
            designed.append(synthesis.synthesize(plant, LEVEL))
            return LEVEL, designed[0]

        seconds, _, solution = timed(design)
        print(f"n={n} modes={modes}: {seconds:.3f} s, {solution.summary()}", flush=True)
        point = record(seconds, solution, n=n, modes=modes, g=LEVEL,
                       max_coupling_condition=max_condition(designed))
        point["certification"] = (certify(plant, designed[0], LEVEL, "  certification")
                                  if designed else None)
        grid.append(point)

    search = dict(g_lo=0.01, g_hi=1.0, tol_g=5e-3)
    designed = []  # the level search's SynthesisResult, for the certification

    def level_search():
        g, result = synthesis.min_attenuation(demo.reference_plant(), **search)
        designed.append(result)
        return g, result

    seconds, g_star, solution = timed(level_search)
    reference = record(seconds, solution, **search, g_star=g_star,
                       max_coupling_condition=max_condition(designed))
    print(f"reference min_attenuation: {seconds:.3f} s, {solution.summary()}, g*={g_star}",
          flush=True)

    certification = certify(demo.reference_plant(), designed[0], g_star,
                            "reference certification")

    loop = analysis.assemble_closed_loop(demo.reference_plant(), demo.reference_controller())
    dist = jumpsim.Disturbance("sin:0.5", numpy.eye(loop.n_w)[0], "sin", 0.5)
    sim = {"disturbance": dist.label, "t_end": 100.0, "dt": 0.05}
    path = jumpsim.sample_markov_path(loop.rates, sim["t_end"], seed=jumpsim.path_seed(0, 0))

    def propagate(dt):
        return jumpsim.propagate_moments(loop, path, dist, numpy.zeros(loop.n),
                                         numpy.eye(loop.n), dt, validate=True)

    seconds, traj = median_seconds(lambda: propagate(sim["dt"]))
    tracemalloc.start()
    samples = len(propagate(MEMORY_DT).times)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    simulation = {"propagate_moments": {**sim, "seconds": round(seconds, 5), "runs": SIM_RUNS,
                                        "grid_steps": len(traj.times) - 1,
                                        "jumps": len(path.jump_times),
                                        "memory": {"dt": MEMORY_DT, "samples": samples,
                                                   "peak_bytes_per_sample":
                                                       round(peak / samples, 1)}}}
    probe_seconds, _ = median_seconds(
        lambda: jumpsim.estimate_attenuation(loop, 0.1, t_end=120.0, n_paths=1, seed=0))
    simulation["mean_probe"] = {"t_end": 120.0, "seconds": round(probe_seconds, 5),
                                "runs": SIM_RUNS}
    print(f"propagate_moments path: {seconds * 1e3:.2f} ms; mean-probe path: "
          f"{probe_seconds * 1e3:.2f} ms (medians of {SIM_RUNS} runs); propagation peak "
          f"{peak / samples:.1f} B per sample at dt {MEMORY_DT:g}", flush=True)

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(["demo-paper", "--quick", "--out-dir", tmp])
        seconds = time.perf_counter() - t0
    end_to_end = {"seconds": round(seconds, 4), "exit_code": code}
    print(f"demo-paper --quick: {seconds:.3f} s, exit code {code}", flush=True)

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
        "demo": end_to_end,
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_{datetime.date.today().isoformat()}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
