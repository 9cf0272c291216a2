#!/usr/bin/env python3
"""Audit synthesis: design, augment and certify 45 fixed-level cases and 35
level searches, and check each search against an oracle.

    PYTHONPATH=src python scripts/audit.py [--out FILE]

Each fixed-level case is a plant and a level g (``cases()``): the reference
plant at six levels, a one-mode plant, a two-mode plant whose second mode is
absorbing, and the seeded jump plants of perfbench/plants.py.  For each, it
runs ``synthesize(plant, g)`` and, when that gives a controller, augments it
and certifies the augmented design twice: by the closed-form storage
certificate ``certify_design`` and by ``verify_closed_loop`` (the coupled
certificate: the coupled Lyapunov storage, Kleinman steps on the coupled
Riccati equations from it, or else the barrier solve).  One line per case
prints the synthesis verdict, its Newton steps and verified margin, the
largest condition number of Y_i^-1 - X_i (which the rebuild inverts), the
storage verdict and the coupled verdict with its route and barrier Newton
steps, and the synthesis seconds (one wall-clock run).  The summary line
counts the coupled certificates per route (``ROUTES``).

Each level search is a plant, a bracket [g_lo, g_hi] and a tolerance tol_g
(``searches()``), run by ``min_attenuation``.  Its record holds the search
solve's verdict and Newton steps per phase, g*, whether the fixed-level
fallback built the design, whether the design augments, and both
certificates of the design (augmented, else raw).  The oracle: for every
g* above ``ORACLE_MIN_LEVEL`` one fixed-level ``synthesize`` runs at
``ORACLE_FACTOR`` g*.  A design there that ``certify_design`` certifies is a
verified point below the claimed least level, so g* is not within tol_g of
it.  The last line prints how many searches the oracle caught.

With ``--out``, the records are also written as a JSON object with the
lists ``fixed_level`` and ``searches`` and the fixed-level route counts
``fixed_level_routes``.  All run on one BLAS thread.
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


RANDOM_SHAPES = ((2, 2), (2, 3), (4, 2), (4, 3), (6, 3))  # (n, modes) of the seeded plants


def _random_plants():
    """(label, factory) of ``random_plant(s, n, m, 0)`` for s = 0-5 and every
    shape of RANDOM_SHAPES."""
    from plants import random_plant

    return [(f"random {s} {n}x{m}", lambda s=s, n=n, m=m: random_plant(s, n, m, 0))
            for n, m in RANDOM_SHAPES for s in range(6)]


def cases():
    """(label, plant factory, g) of every audited fixed-level case."""
    from plants import random_plant

    from qhinf import demo

    out = [("reference", demo.reference_plant, g) for g in (0.037, 0.040, 0.048, 0.05, 0.1, 1.0)]
    out += [("single-mode", single_mode_plant, g) for g in (1.5, 2.0, 5.0, 1000.0)]
    out += [("absorbing-mode", absorbing_mode_plant, g) for g in (2.2, 3.0, 10.0)]
    out += [("random 36 2x2", lambda: random_plant(36, 2, 2, 0), g) for g in (0.45, 0.53)]
    out += [(label, make, 5.0) for label, make in _random_plants()]
    return out


def searches():
    """(label, plant factory, g_lo, g_hi, tol_g) of every audited level search."""
    from qhinf import demo

    out = [("reference", demo.reference_plant, 0.01, 1.0, tol) for tol in (5e-3, 1e-3)]
    out += [("absorbing-mode", absorbing_mode_plant, 0.1, 10.0, tol) for tol in (5e-3, 1e-3)]
    out += [("single-mode", single_mode_plant, 0.1, 10.0, 5e-3)]
    out += [(label, make, 0.01, 10.0, 5e-3) for label, make in _random_plants()]
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


ROUTES = ("lyapunov", "riccati", "barrier")  # the routes of a coupled certificate


def route_counts(records):
    """{route: how many of ``records`` the coupled certificate certified by
    that route}, for every route of ROUTES."""
    counts = dict.fromkeys(ROUTES, 0)
    for r in records:
        if r["coupled"] is not None and r["coupled"]["certified"]:
            counts[r["coupled"]["route"]] += 1
    return counts


ORACLE_MIN_LEVEL = 0.02  # searches with g* at most this get no oracle solve
ORACLE_FACTOR = 0.9  # the oracle solves at this fraction of g*


def _recording_solves(call):
    """(call()'s result or the ``SynthesisError`` it raised, every
    ``LmiSolution`` that ``lmi.solve_feasibility`` returned during it)."""
    from qhinf import lmi, synthesis

    solve, solutions = lmi.solve_feasibility, []

    def recording(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    lmi.solve_feasibility = recording
    try:
        return call(), solutions
    except synthesis.SynthesisError as exc:
        return exc, solutions
    finally:
        lmi.solve_feasibility = solve


def search_audit(plant, g_lo, g_hi, tol_g):
    """Record of one level search: the search solve's ``record()``, g*, the
    seconds, whether the fixed-level fallback built the design, whether the
    design augments, its storage and coupled certificates (of the augmented
    design, else the raw one), and the oracle's fixed-level solve at
    ORACLE_FACTOR g* with the storage certificate of its design."""
    from qhinf import analysis, realizability, synthesis

    t0 = time.perf_counter()
    outcome, solutions = _recording_solves(
        lambda: synthesis.min_attenuation(plant, g_lo, g_hi, tol_g=tol_g))
    record = {"g_lo": g_lo, "g_hi": g_hi, "tol_g": tol_g,
              "seconds": round(time.perf_counter() - t0, 4), **solutions[0].record(),
              "g_star": None, "fallback": len(solutions) > 1, "augmented": None,
              "augment_error": None, "storage_certified": None, "coupled": None, "oracle": None}
    if isinstance(outcome, synthesis.SynthesisError):
        return {**record, "error": str(outcome)}
    g_star, result = outcome
    design = result.controller
    try:
        design = realizability.augment_jump_controller(design)
    except realizability.RealizabilityError as exc:
        record["augment_error"] = str(exc)
    storage = synthesis.certify_design(plant, result, design, g_star)
    coupled = analysis.verify_closed_loop(plant, design, g_star)
    record.update(g_star=g_star, augmented=record["augment_error"] is None,
                  storage_certified=storage.certified, storage_margin=storage.margin,
                  coupled={"certified": coupled.attenuation_ok, "route": coupled.route,
                           **coupled.solution.record()})
    if g_star > ORACLE_MIN_LEVEL:
        g = ORACLE_FACTOR * g_star
        try:
            below = synthesis.synthesize(plant, g)
        except synthesis.SynthesisError as exc:
            status = exc.solution.status if exc.solution is not None else str(exc)
            record["oracle"] = {"g": g, "status": status, "certified": False}
        else:
            check = synthesis.certify_design(plant, below, below.controller, g)
            record["oracle"] = {"g": g, "status": below.solution.status,
                                "certified": check.certified, "storage_margin": check.margin}
    return record


def search_line(label, record):
    text = (f"{label:15s} [{record['g_lo']:g}, {record['g_hi']:g}] tol_g={record['tol_g']:g} "
            f"{record['status']}, {record['shift_steps']}+{record['objective_steps']} steps")
    if record["g_star"] is None:
        return text + f"; {record['error']}; {record['seconds']:.3f} s"
    coupled, oracle = record["coupled"], record["oracle"]
    text += (f", g*={record['g_star']:.7g}{' (fallback)' if record['fallback'] else ''}; "
             f"{'augmented' if record['augmented'] else 'NOT AUGMENTED'}; storage "
             f"{'certified' if record['storage_certified'] else 'REJECTED'}; coupled "
             f"{'certified' if coupled['certified'] else 'REJECTED'} ({coupled['route']})")
    if oracle is not None:
        text += (f"; oracle at {oracle['g']:.7g}: "
                 + ("CERTIFIED BELOW g*" if oracle["certified"] else oracle["status"]))
    return text + f"; {record['seconds']:.3f} s"


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
    routes = route_counts(records)
    print(f"{len(records)} cases, synthesis {total:.3f} s in all; coupled certificates by route: "
          + ", ".join(f"{route} {count}" for route, count in routes.items()))
    search_records = []
    for label, make_plant, g_lo, g_hi, tol_g in searches():
        record = {"case": label, **search_audit(make_plant(), g_lo, g_hi, tol_g)}
        print(search_line(label, record), flush=True)
        search_records.append(record)
    total = sum(r["seconds"] for r in search_records)
    caught = [r for r in search_records if r["oracle"] is not None and r["oracle"]["certified"]]
    print(f"{len(search_records)} searches, {total:.3f} s in all")
    print(f"oracle: {len(caught)} of {len(search_records)} searches have a certified design "
          f"at {ORACLE_FACTOR:g} g*, below their claimed least level")
    if args.out:
        doc = {"fixed_level": records, "searches": search_records, "fixed_level_routes": routes}
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
