"""Bundled three-mode OPO design example and its end-to-end reproduction.

The reference design is a dynamical squeezer whose pump amplitude jumps
between three levels.  Alongside the plant data this module carries an
independently tabulated controller for the same plant (matrices rounded to
four decimals) together with its optical component parameters; the demo
pipeline re-derives everything from scratch and compares against the
tabulated values with PASS / FLAG / FAIL marks.

One known discrepancy is reported as a FLAG rather than a failure: the
tabulated static-squeezer pump values are inconsistent with the gain ratio
implied by the tabulated measurement matrices (0.5155 / 1.0133 / 1.5624
versus 0.6237 / 1.1953 / 1.7650 at kappa' = 10); both numbers appear in
the report.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import analysis, jumpsim, optics, realizability, serialize, synthesis
from .qmodel import Controller, ControllerMode, TransitionRateMatrix, make_commutation_matrix

__all__ = [
    "OPO_KAPPA1",
    "OPO_KAPPA2",
    "OPO_CHI_MODES",
    "OPO_RATES",
    "reference_plant",
    "reference_controller",
    "REFERENCE_MODE_PARAMS",
    "REFERENCE_EXTRA_NOISE",
    "DEMO_DOCUMENTS",
    "PROBE_SEED",
    "run_paper_demo",
]

# Documents run_paper_demo writes into its output directory, in write order:
# tabulated controller, synthesized controller, plant, report.
DEMO_DOCUMENTS = ("controller_reference.json", "controller_synthesized.json",
                  "plant.json", "report.json")

# Master seed of the demo's simulation probe, recorded in its manifest.
PROBE_SEED = 2024

# Plant: mirror decay rates from the measured transmissivities, pump
# coefficients chosen so the tabulated drift matrices are reproduced exactly.
OPO_KAPPA1 = 0.8264
OPO_KAPPA2 = 0.0011
OPO_CHI_MODES = (0.04135, 0.08275, 0.12415)
OPO_RATES = (
    (-0.02, 0.01, 0.01),
    (0.01, -0.01, 0.0),
    (0.01, 0.0, -0.01),
)

# Tabulated controller for the reference plant, one mode per pump level.
_REF_A = (
    np.diag([-1.7535, -2.1226]),
    np.diag([-1.5796, -2.2738]),
    np.diag([-1.3992, -2.4340]),
)
_REF_B = (
    np.diag([1.2524, 1.8944]),
    np.diag([0.9713, 2.2099]),
    np.diag([0.7024, 2.5600]),
)
_REF_C = tuple(np.diag([-0.0331, -0.0331]) for _ in range(3))

# Tabulated realizability noise blocks: first block carries the output,
# the second repairs the commutation defect.
REFERENCE_EXTRA_NOISE = (
    (np.diag([0.0331, 0.0331]), np.diag([1.2258, 1.2258])),
    (np.diag([0.0331, 0.0331]), np.diag([1.3057, 1.3057])),
    (np.diag([0.0331, 0.0331]), np.diag([1.4262, 1.4262])),
)

# Tabulated optical parameters per controller mode.
REFERENCE_MODE_PARAMS = (
    {"kappa": 3.8761, "chi": -0.1846, "kappa1": 2.3724, "kappa2": 0.0011,
     "kappa3": 1.5026, "kappa_prime": 10.0, "chi_prime": 0.6237},
    {"kappa": 3.8534, "chi": -0.3471, "kappa1": 2.1475, "kappa2": 0.0011,
     "kappa3": 1.7046, "kappa_prime": 10.0, "chi_prime": 1.1953},
    {"kappa": 3.8332, "chi": -0.5174, "kappa1": 1.7981, "kappa2": 0.0011,
     "kappa3": 2.0340, "kappa_prime": 10.0, "chi_prime": 1.7650},
)


def reference_plant():
    return optics.opo_plant(
        OPO_KAPPA1, OPO_KAPPA2, OPO_CHI_MODES, TransitionRateMatrix(np.array(OPO_RATES))
    )


def reference_controller() -> Controller:
    """Tabulated controller with its tabulated noise blocks, in the layout
    D = [I 0]."""
    modes = []
    for a, b, c, (e1, e2) in zip(_REF_A, _REF_B, _REF_C, REFERENCE_EXTRA_NOISE):
        e = np.hstack([e1, e2])
        modes.append(ControllerMode(a, b, c, np.eye(2, e.shape[1]), e))
    return Controller(tuple(modes), make_commutation_matrix(2))


def _value_check(name, computed, expected, tol, detail=""):
    ok = abs(computed - expected) <= tol
    return {"name": name, "computed": float(computed), "expected": float(expected),
            "tol": tol, "status": "PASS" if ok else "FAIL", "detail": detail}


def _bool_check(name, ok, detail=""):
    return {"name": name, "computed": bool(ok), "expected": True, "tol": None,
            "status": "PASS" if ok else "FAIL", "detail": detail}


def run_paper_demo(out_dir=None, tol_g: float = 5e-3, n_paths: int = 20,
                   quick: bool = False):
    """Reproduce the full design pipeline on the bundled example.

    Stages: build the plant, minimise the attenuation level, synthesize and
    augment a controller, certify the loop, cross-check the tabulated
    controller (realizability, coupled certificate, noise augmentation,
    optical inversion) and write report + documents to ``out_dir`` when given.

    Returns the report dict; the overall verdict is in report["ok"].  Raises
    ``ValueError`` when the probe is to run (not ``quick``) on n_paths < 1.
    """
    if not quick and n_paths < 1:
        raise ValueError(f"n_paths must be at least 1 for the simulation probe, got {n_paths}")
    checks = []
    plant = reference_plant()

    # drift matrices against the tabulated four-decimal values
    expected_a = (
        np.diag([-0.4551, -0.3724]),
        np.diag([-0.4965, -0.3310]),
        np.diag([-0.5379, -0.2896]),
    )
    for i, (a, exp) in enumerate(zip(plant.a_modes, expected_a)):
        checks.append(
            _value_check(
                f"plant drift mode {i + 1} max deviation",
                float(np.max(np.abs(a - exp))), 0.0, 5e-4,
            )
        )

    # synthesis: minimal attenuation level with certificate
    g_hi = 1.0
    g_star, syn = synthesis.min_attenuation(plant, g_lo=0.01, g_hi=g_hi, tol_g=tol_g)
    # min_attenuation raises unless g_star is within tol_g of the least level,
    # so the search is reported as data, not as a check that cannot fail
    level_search = syn.solution.record()

    # augmentation raises unless the commutation defect is within 1e-9 and
    # builds the output conditions exactly, so its residual is reported as data
    aug = realizability.augment_jump_controller(syn.controller)
    residual = realizability.check_controller_realizability(aug).worst()

    # the level search's own storage certifies the loop: no second LMI solve
    cert = synthesis.certify_design(plant, syn, aug, g_star)
    checks.append(_bool_check("closed loop certified at minimised level",
                              cert.certified, cert.summary()))

    # simulation probe of the certified loop
    if not quick:
        loop = analysis.assemble_closed_loop(plant, aug)
        probe = jumpsim.estimate_attenuation(
            loop, g_star, t_end=120.0, n_paths=n_paths, seed=PROBE_SEED
        )
        checks.append(_bool_check(
            "simulated energy ratios stay below the certified level",
            probe.passed, f"largest mean ratio {probe.mean_ratio:.6g} (max single path "
                          f"{probe.max_ratio:.6g}) vs g^2 = {g_star**2:.6g}"
        ))

    # tabulated controller cross-checks
    ref = reference_controller()
    pr_ref = realizability.check_controller_realizability(ref, tol=5e-3)
    checks.append(_bool_check("tabulated controller realizable at table precision",
                              pr_ref.realizable, f"worst residual {pr_ref.worst():.2e}"))
    # the coupled certificate at the bracket's upper level proves the jump
    # loop mean-square stable, which Hurwitz drifts per mode neither imply
    # nor need
    ref_report = analysis.verify_closed_loop(plant, ref, g_hi)
    checks.append(_bool_check(f"tabulated controller certified at g = {g_hi:g}",
                              ref_report.attenuation_ok,
                              f"{ref_report.solution.summary()} ({ref_report.route} route)"))

    # noise augmentation reproduces the tabulated repair channels
    for i, (mode, (_, e2)) in enumerate(zip(ref.modes, REFERENCE_EXTRA_NOISE)):
        _, e_extra = realizability.noise_channels(
            realizability.augment_controller(mode, ref.theta_k))
        coeff = float(e_extra[0, 0])
        off = float(np.max(np.abs(e_extra - coeff * np.eye(2))))
        checks.append(_value_check(
            f"repair channel gain mode {i + 1}", coeff, float(e2[0, 0]), 2e-3,
            detail=f"off-identity deviation {off:.1e}",
        ))

    # optical inversion of the tabulated controller
    kappa_list, chi_prime_computed = [], []
    for i, mode in enumerate(ref.modes):
        real, fit = optics.controller_fit_report(mode, kappa_prime=10.0)
        ref_params = REFERENCE_MODE_PARAMS[i]
        kappa_list.append(real.kappa)
        chi_prime_computed.append(real.chi_prime)
        checks.append(_value_check(f"total decay mode {i + 1}", real.kappa,
                                   ref_params["kappa"], 2e-3))
        checks.append(_value_check(f"pump coefficient mode {i + 1}", real.chi,
                                   ref_params["chi"], 2e-3))
        checks.append(_value_check(f"first mirror decay mode {i + 1}", real.kappa1,
                                   ref_params["kappa1"], 2e-3))
        checks.append(_value_check(f"second mirror decay mode {i + 1}", real.kappa2,
                                   ref_params["kappa2"], 1e-3))
        checks.append(_value_check(f"third mirror decay mode {i + 1}", real.kappa3,
                                   ref_params["kappa3"], 1e-3))
        checks.append(_bool_check(
            f"measurement gain product consistent mode {i + 1}", fit["consistent"],
            f"gap {fit['product_gap']:.2e}",
        ))
        # known discrepancy: tabulated pump of the static squeezer
        gap = abs(real.chi_prime - ref_params["chi_prime"])
        checks.append({
            "name": f"static squeezer pump mode {i + 1}",
            "computed": float(real.chi_prime), "expected": ref_params["chi_prime"],
            "tol": None, "status": "FLAG",
            "detail": (
                f"gain-ratio fit gives {real.chi_prime:.4f}, table lists "
                f"{ref_params['chi_prime']:.4f} (gap {gap:.4f}); known inconsistency, reported not failed"
            ),
        })

    ok = all(c["status"] != "FAIL" for c in checks)
    report = {
        "ok": ok,
        "g_star": float(g_star),
        "level_search": level_search,
        "realizability_residual": residual,
        "kappa_list": [float(k) for k in kappa_list],
        "chi_prime_computed": [float(x) for x in chi_prime_computed],
        "checks": checks,
    }

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        docs = (
            serialize.system_to_doc(controller=ref, rates=plant.rates),
            serialize.system_to_doc(controller=aug, rates=plant.rates),
            serialize.system_to_doc(plant=plant),
            report,
        )
        for name, doc in zip(DEMO_DOCUMENTS, docs):
            serialize.write_doc(out_dir / name, doc)
    return report


def format_demo_report(report) -> str:
    search = report["level_search"]
    gap = "none" if search["gap"] is None else f"{search['gap']:.3e} on g^2"
    lines = [
        "design example reproduction",
        f"  minimised attenuation level g = {report['g_star']:.6g}",
        f"  level search: {search['status']}, {search['newton_steps']} Newton steps, "
        f"margin {search['margin']:.3e}, gap bound {gap}",
        f"  realizability residual after augmentation: {report['realizability_residual']:.3e}",
        "",
        f"  {'status':6s}  check",
        "  " + "-" * 72,
    ]
    for c in report["checks"]:
        line = f"  {c['status']:6s}  {c['name']}"
        if c["tol"] is not None:
            line += f"  ({c['computed']:.6g} vs {c['expected']:.6g}, tol {c['tol']:g})"
        if c["detail"]:
            line += f"  [{c['detail']}]"
        lines.append(line)
    lines.append("")
    lines.append(f"overall: {'PASS' if report['ok'] else 'FAIL'}")
    return "\n".join(lines)
