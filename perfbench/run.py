#!/usr/bin/env python3
"""qhinf benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload opo-design --seed 1 --seconds 30 --trace 0

Runs from a source checkout (qhinf is imported from ``src/`` next to this
directory) in one process with one BLAS thread.  Operations run in
a closed loop, one caller: the next starts when the last returns, until
``--seconds`` have passed (at least one always runs).  Every operation's
output is checked outside its timed interval.  The bounded timings
``op_s`` and ``setup_s`` are wall times in reference seconds: each is scaled
by the machine-speed factor measured right after it (see speed.py).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each input
twice, untraced then traced, and reports the per-layer metrics from the
traced spans plus ``trace.overhead``.  Metric names and units are those of
``BENCHMARK.json`` at the repository root.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  See
README.md in this directory for the metrics and workloads.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def blas_info(numpy):
    """OpenBLAS build string and live thread count of numpy's bundled library."""
    import ctypes

    libs_dir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs_dir.glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        get_config = getattr(lib, "scipy_openblas_get_config64_", None)
        if get_threads and get_config:
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            return get_config().decode(), get_threads()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}", None


def timed_op(wl, k, tracer):
    """Run operation k (traced when a tracer is given); return (seconds, result, error)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = wl.run(k)
        else:
            result = tracer.run_op(k, wl.root_span, wl.run, k)
    except Exception as exc:  # a raising operation is a failed operation
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return seconds, None, f"op {k} raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    try:
        error = wl.check(k, result)
    except Exception as exc:
        error = f"check of op {k} raised {type(exc).__name__}: {exc}"
    return seconds, result, error


def measure(wl, seconds, speed, tracer=None):
    """Closed loop until the deadline.

    Returns the untraced records, the machine-speed factor measured right
    after each of them, and the traced records.  With a tracer each input
    runs twice, untraced and traced, the traced run first on odd inputs so
    that warm-cache effects cancel in the overhead.
    """
    plain, factors, traced = [], [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while not plain or time.perf_counter() < deadline:
        if tracer is not None and k % 2:
            traced.append(timed_op(wl, k, tracer))
        plain.append(timed_op(wl, k, None))
        factors.append(speed.factor())
        if tracer is not None and not k % 2:
            traced.append(timed_op(wl, k, tracer))
        k += 1
    return plain, factors, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread: a second one does not speed up these small matrices
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    try:
        import numpy
        import scipy
        import qhinf
    except ImportError as exc:
        print(f"cannot import qhinf and its dependencies from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(qhinf.__file__).resolve().parent.parent != SRC:
        print(f"qhinf was imported from {qhinf.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import spans
    import speed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = (time.perf_counter() - _T0) * speed.factor()

    openblas, blas_threads = blas_info(numpy)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "openblas": openblas,
        "blas_threads": blas_threads, "nproc": os.cpu_count(), "qhinf": qhinf.__version__,
    }
    print("env " + json.dumps(env, sort_keys=True))

    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    tracer = spans.Tracer() if args.trace else None
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl = WORKLOADS[args.workload](args.seed, workdir)
            setup_times.append((time.perf_counter() - t0) * speed.factor())
        if tracer is not None:
            tracer.install()
        try:
            plain, factors, traced = measure(wl, args.seconds, speed, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it

    runs = plain + traced
    errors = wl.setup_problems + [err for _, _, err in runs if err]
    for err in errors[:10]:
        print(f"FAILED: {err}", file=sys.stderr)
    n_failed = sum(1 for _, _, err in runs if err)
    ref_times = [s * f for (s, _, err), f in zip(plain, factors) if not err] or [
        s * f for (s, _, _), f in zip(plain, factors)]

    if tracer is None:
        values = {
            "op_s": statistics.median(ref_times),
            "ok_frac": 1.0 - n_failed / len(runs),
            "setup_s": import_s + statistics.median(setup_times),
        }
    else:
        values = spans.layer_metrics(tracer.spans, len(traced))
        values["trace.overhead"] = sum(s for s, _, _ in traced) / sum(s for s, _, _ in plain)
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        span_file.write_text(json.dumps([s.as_doc() for s in tracer.spans]), encoding="utf-8")
        print(f"spans written to {span_file.relative_to(HERE.parent)}")
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = bench["end_to_end" if tracer is None else "per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}

    summary = wl.summary(plain)
    summary["failed_frac"] = (n_failed / len(runs), "1")
    summary["speed_factor"] = (statistics.median(factors), "1")
    print(f"{args.workload}: {len(plain)} operations measured"
          + (f", {len(traced)} traced" if traced else ""))
    for name, (value, unit) in summary.items():
        print(f"  {name} = {value} {unit}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    result = {
        "correct": not errors,
        "attempted": len(runs),
        "failed": n_failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
