"""Command-line surface.

Commands: synth, check-pr, augment, analyze, simulate, optics, demo-paper.
Every command accepts --out.  The commands that print a report (check-pr,
analyze, simulate, optics realize, demo-paper) also take --format
{text,doc}; synth and augment write documents only.  Machine-readable
output is canonical JSON so documents round-trip byte for byte.  A run
that writes any file writes one manifest, next to the first file it wrote;
the command's own files (controller document and cert, plot data, the
demo's --out-dir documents) are written before the --out report.  The
manifest records the digest of every file the run wrote, input digests,
every parsed option, the seed and the tool version.  No command sets a
solver value: every LMI solve and certificate uses ``lmi.EPS_STRICT`` and
``lmi.MAX_ITER``, and synth's cert records the threshold as "eps_strict".

Exit codes: 0 success / verification pass (and --help, --version), 1
verification failure (including a realizability augmentation that leaves
a commutation defect above 1e-9, a synth design that its own storage
certificate does not certify, after both files are written, and a
simulate run whose moments overflow or lose dominance, with
"simulation failed" on stderr and no file written), 2 infeasible
or undecided synthesis, 3 input or usage error (a malformed document or
value, an unknown option, a missing subcommand, a path that cannot be read
or written).  Every LMI solve has three outcomes (``lmi.LmiSolution``):
``feasible``, ``infeasible-at-tolerance`` ("infeasible:" on stderr) and
``undecided`` ("synthesis failed:" with the solve's notes, such as a spent
Newton step budget); both of the latter exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, demo, jumpsim, lmi, optics, realizability, serialize, synthesis
from .serialize import DocumentError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_INPUT_ERROR = 3


def _finish(args, inputs, doc=None, text=None, files=(), seed=None):
    """Write this run's report and its one manifest.

    A command that prints a report passes it as ``doc`` and ``text``; it goes
    by --format to --out, or to stdout.  ``files`` are the files the command
    wrote itself, in write order.  If the run wrote any file, one manifest
    goes next to the first and lists them all, the --out report among them;
    its params are every parsed option."""
    outputs = list(files)
    if doc is not None:
        payload = serialize.dumps_doc(doc) if args.format == "doc" else text + "\n"
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(payload, encoding="utf-8")
            outputs.append(args.out)
        else:
            sys.stdout.write(payload)
    if outputs:
        params = {k: v for k, v in vars(args).items() if k not in ("func", "argv")}
        serialize.write_manifest(
            outputs[0], command=args.argv, inputs=inputs, params=params,
            outputs=outputs, seed=seed,
        )


def _load_system(path, *sections):
    """(plant, controller, rates) of the system document at ``path``; raises
    ``DocumentError`` naming each of ``sections`` ("plant", "controller")
    the document lacks.  A plant section needs a rates section."""
    plant, ctrl, rates = serialize.parse_system_doc(serialize.read_doc(path))
    found = {"plant": plant, "controller": ctrl}
    missing = [repr(name) for name in sections if found[name] is None]
    if missing:
        raise DocumentError(f"{path}: the document has no {' and no '.join(missing)} section")
    return plant, ctrl, rates


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with EXIT_INPUT_ERROR, not 2,
    which this command line reserves for infeasible or undecided synthesis.
    Options must be spelled out: an abbreviation could silently name another
    option (``--tol`` for ``--tol-g``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _add_report_flags(parser):
    parser.add_argument("--out", help="write the report to this file instead of stdout")
    parser.add_argument("--format", choices=("text", "doc"), default="text")


def _cmd_synth(args):
    plant, _, _ = _load_system(args.plant, "plant")
    if args.min_g:
        g_star, result = synthesis.min_attenuation(plant, args.g_lo, args.g_hi, tol_g=args.tol_g)
    else:
        g_star = args.g
        result = synthesis.synthesize(plant, args.g)
    ctrl = result.controller
    if args.augment:
        ctrl = realizability.augment_jump_controller(ctrl)
    certificate = synthesis.certify_design(plant, result, ctrl, g_star)
    out = Path(args.out) if args.out else Path("controller.json")
    serialize.write_doc(out, serialize.system_to_doc(controller=ctrl, rates=plant.rates))
    cert = {
        "g": float(g_star),
        **{f"lmi_{k}": v for k, v in result.solution.record().items()},
        "eps_strict": lmi.EPS_STRICT,
        "coupling_condition_numbers": list(result.coupling_condition_numbers),
        "augmented": bool(args.augment),
        "certified": certificate.certified,
        "certificate_margin": certificate.margin,
    }
    cert_path = out.with_suffix(".cert.json")
    serialize.write_doc(cert_path, cert)
    _finish(args, [args.plant], files=[out, cert_path])
    print(f"synthesized controller at g = {g_star:.6g} -> {out}")
    if not certificate.certified:
        print(f"verification failed: the written controller does not certify at "
              f"g = {g_star:.6g} ({certificate.summary()})", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _cmd_check_pr(args):
    _, ctrl, _ = _load_system(args.controller, "controller")
    report = realizability.check_controller_realizability(ctrl, tol=args.tol)
    doc = {
        "tol": args.tol,
        "realizable": report.realizable,
        "cr_residuals": list(report.cr_residuals),
        "output_residuals": list(report.output_residuals),
    }
    lines = [f"physical realizability at tolerance {args.tol:g}",
             f"  {'mode':4s}  {'commutation defect':20s}  {'output defect':16s}"]
    for i, (cr, outr) in enumerate(zip(report.cr_residuals, report.output_residuals)):
        lines.append(f"  {i + 1:4d}  {cr:20.3e}  {outr:16.3e}")
    lines.append(f"  verdict: {'realizable' if report.realizable else 'NOT realizable'}")
    _finish(args, [args.controller], doc, "\n".join(lines))
    return EXIT_OK if report.realizable else EXIT_VERIFY_FAIL


def _cmd_augment(args):
    _, ctrl, rates = _load_system(args.controller, "controller")
    augmented = realizability.augment_jump_controller(ctrl)
    out = Path(args.out) if args.out else Path("controller_augmented.json")
    serialize.write_doc(out, serialize.system_to_doc(controller=augmented, rates=rates))
    _finish(args, [args.controller], files=[out])
    report = realizability.check_controller_realizability(augmented)
    print(f"augmented controller ({augmented.n_nu} noise channels, "
          f"worst residual {report.worst():.2e}) -> {out}")
    return EXIT_OK


def _cmd_analyze(args):
    plant, _, _ = _load_system(args.plant, "plant")
    _, ctrl, _ = _load_system(args.controller, "controller")
    report = analysis.verify_closed_loop(plant, ctrl, args.g)
    residual = realizability.check_controller_realizability(ctrl).worst()
    solution = report.solution
    doc = {
        "g": args.g,
        **{f"coupled_{k}": v for k, v in solution.record().items()},
        "noise_offset": report.noise_offset,
        "realizability_residual": residual,
        "passed": report.attenuation_ok,
    }
    lines = [f"closed-loop verification at g = {args.g:g}",
             f"  coupled certificate: {solution.summary()} ({report.route} route)"]
    if report.noise_offset is not None:
        lines.append(f"  noise offset constant: {report.noise_offset:.4g}")
    lines.append(f"  controller realizability residual: {residual:.3e}")
    lines.append(f"  verdict: {'PASS' if report.attenuation_ok else 'FAIL'}")
    _finish(args, [args.plant, args.controller], doc, "\n".join(lines))
    return EXIT_OK if report.attenuation_ok else EXIT_VERIFY_FAIL


def _parse_disturbance(spec, n_w):
    if spec == "step":
        return jumpsim.Disturbance("step", np.ones(n_w) / np.sqrt(n_w), "step")
    if spec.startswith("sin:"):
        omega = float(spec.split(":", 1)[1])
        direction = np.zeros(n_w)
        direction[0] = 1.0
        return jumpsim.Disturbance(spec, direction, "sin", omega)
    raise DocumentError(f"unknown disturbance spec {spec!r}; use sin:<omega> or step")


def _cmd_simulate(args):
    plant, ctrl, _ = _load_system(args.system, "plant", "controller")
    if args.paths < 1:
        raise ValueError("--paths must be at least 1")
    loop = analysis.assemble_closed_loop(plant, ctrl)
    disturbance = _parse_disturbance(args.disturbance, loop.n_w) if args.disturbance else None
    paths_doc = []
    for p in range(args.paths):
        path = jumpsim.sample_markov_path(loop.rates, args.t_end,
                                          seed=jumpsim.path_seed(args.seed, p))
        # only path 0's trajectory is reported; the others report energies,
        # which the exact propagation gives at one step per fault segment
        try:
            traj = jumpsim.propagate_moments(
                loop, path, disturbance, np.zeros(loop.n), np.eye(loop.n),
                args.dt if p == 0 else args.t_end,
            )
        except ArithmeticError as exc:
            print(f"simulation failed: path {p}: {exc}", file=sys.stderr)
            return EXIT_VERIFY_FAIL
        if p == 0:
            first_traj = traj
        paths_doc.append({
            "path_index": p,
            "jump_times": list(path.jump_times),
            "modes": list(path.modes),
            "output_energy": traj.output_energy,
            "input_energy": traj.input_energy,
        })
    stride = max(1, len(first_traj.times) // 400)
    columns = {  # path 0's trajectory at every stride-th sample, for the doc and the plot
        "time": first_traj.times[::stride],
        "mean": first_traj.mean[::stride],
        "second_moment_diag": np.diagonal(first_traj.second_moment[::stride], axis1=1, axis2=2),
        "z_energy": first_traj.z_energy[::stride],
        "w_energy": first_traj.w_energy[::stride],
    }
    doc = {
        "t_end": args.t_end,
        "dt": args.dt,
        "seed": args.seed,
        "disturbance": args.disturbance,
        "paths": paths_doc,
        "trajectory": {k: v.tolist() for k, v in columns.items()},
    }
    files = []
    if args.plot_data:
        n = first_traj.mean.shape[1]
        header = (["time"] + [f"mean_{k + 1}" for k in range(n)]
                  + [f"q_{k + 1}{k + 1}" for k in range(n)] + ["z_energy", "w_energy"])
        Path(args.plot_data).parent.mkdir(parents=True, exist_ok=True)
        np.savetxt(args.plot_data, np.column_stack(list(columns.values())), fmt="%.12g",
                   header=" ".join(header))
        files.append(args.plot_data)
    mean_e = float(np.mean([p["output_energy"] for p in paths_doc]))
    text = (f"simulated {args.paths} fault paths to t = {args.t_end:g} "
            f"(dt = {args.dt:g}, seed {args.seed})\n"
            f"  mean output energy {mean_e:.6g}")
    _finish(args, [args.system], doc, text, files, seed=args.seed)
    return EXIT_OK


def _cmd_optics_realize(args):
    _, ctrl, _ = _load_system(args.controller, "controller")
    modes_doc = []
    lines = [f"optical realization (static squeezer kappa' = {args.kappa_prime:g})"]
    for i, mode in enumerate(ctrl.modes):
        real, fit = optics.controller_fit_report(mode, kappa_prime=args.kappa_prime)
        modes_doc.append({"mode": i + 1, **dataclasses.asdict(real), "fit": fit})
        lines.append(
            f"  mode {i + 1}: kappa={real.kappa:.4f} chi={real.chi:.4f} "
            f"kappa1={real.kappa1:.4f} kappa2={real.kappa2:.4f} kappa3={real.kappa3:.4f} "
            f"chi'={real.chi_prime:.4f} (product gap {fit['product_gap']:.1e})"
        )
    _finish(args, [args.controller], {"modes": modes_doc}, "\n".join(lines))
    return EXIT_OK


def _cmd_demo(args):
    report = demo.run_paper_demo(
        out_dir=args.out_dir, tol_g=args.tol_g, n_paths=args.paths, quick=args.quick
    )
    files = [Path(args.out_dir) / name for name in demo.DEMO_DOCUMENTS] if args.out_dir else []
    _finish(args, [], report, demo.format_demo_report(report), files, seed=demo.PROBE_SEED)
    return EXIT_OK if report["ok"] else EXIT_VERIFY_FAIL


def build_parser():
    parser = _Parser(
        prog="qhinf",
        description="coherent H-infinity synthesis and verification for jump quantum systems",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a controller from a plant document")
    p.add_argument("--plant", required=True)
    level = p.add_mutually_exclusive_group(required=True)
    level.add_argument("--g", type=float, help="attenuation level to synthesize at")
    level.add_argument("--min-g", action="store_true",
                       help="minimise the level over [--g-lo, --g-hi] in one LMI solve")
    p.add_argument("--g-lo", type=float, default=0.01)
    p.add_argument("--g-hi", type=float, default=1.0)
    p.add_argument("--tol-g", type=float, default=1e-3)
    p.add_argument("--augment", action="store_true",
                   help="attach realizability noise channels to the result")
    p.add_argument("--out", help="controller document to write (default controller.json)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("check-pr", help="check physical realizability of a controller")
    p.add_argument("--controller", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_report_flags(p)
    p.set_defaults(func=_cmd_check_pr)

    p = sub.add_parser("augment", help="add noise channels making a controller realizable")
    p.add_argument("--controller", required=True)
    p.add_argument("--out",
                   help="controller document to write (default controller_augmented.json)")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("analyze", help="verify a closed loop at a given attenuation level")
    p.add_argument("--plant", required=True)
    p.add_argument("--controller", required=True)
    p.add_argument("--g", type=float, required=True)
    _add_report_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="propagate closed-loop moments along fault paths")
    p.add_argument("--system", required=True,
                   help="document with plant, controller and rates sections")
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--t-end", type=float, default=100.0)
    p.add_argument("--dt", type=float, default=0.01,
                   help="grid step of path 0's propagation, which is exact; the "
                        "report keeps every floor(N/400)-th of its N samples (about 400)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--disturbance", help="sin:<omega> or step (default: none)")
    p.add_argument("--plot-data", help="write plain-text trajectory columns to this file")
    _add_report_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("optics", help="optical component realization tools")
    optics_sub = p.add_subparsers(dest="optics_command", required=True)
    pr = optics_sub.add_parser("realize", help="invert a controller into component parameters")
    pr.add_argument("--controller", required=True)
    pr.add_argument("--kappa-prime", type=float, default=10.0)
    _add_report_flags(pr)
    pr.set_defaults(func=_cmd_optics_realize)

    p = sub.add_parser("demo-paper", help="run the bundled design example end to end")
    p.add_argument("--out-dir", help="directory for plant/controller/report documents")
    p.add_argument("--tol-g", type=float, default=5e-3)
    p.add_argument("--paths", type=int, default=20)
    p.add_argument("--quick", action="store_true", help="skip the simulation probe")
    _add_report_flags(p)
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)  # recorded in manifests
    try:
        return args.func(args)
    except synthesis.LmiInfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DocumentError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except synthesis.SynthesisError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except realizability.RealizabilityError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
