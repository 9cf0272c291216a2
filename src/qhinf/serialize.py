"""System-description documents and run manifests.

A system-description document is UTF-8 JSON with the top-level keys
``plant``, ``controller`` and ``rates`` (each optional, unknown keys are
rejected).  Matrices are row-major nested arrays of real numbers.  Writing
is canonical (sorted keys, two-space indent, trailing newline) so that
write -> read -> write round-trips byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__
from .qmodel import (
    Controller,
    ControllerMode,
    JumpPlant,
    TransitionRateMatrix,
    make_commutation_matrix,
)

__all__ = [
    "DocumentError",
    "encode_matrix",
    "decode_matrix",
    "plant_to_doc",
    "plant_from_doc",
    "controller_to_doc",
    "controller_from_doc",
    "system_to_doc",
    "parse_system_doc",
    "dumps_doc",
    "write_doc",
    "read_doc",
    "file_digest",
    "write_manifest",
]


class DocumentError(ValueError):
    """Malformed or unknown content in a system-description document."""


def encode_matrix(m) -> list:
    return [[float(x) for x in row] for row in np.atleast_2d(np.asarray(m, dtype=float))]


def decode_matrix(obj, label: str) -> np.ndarray:
    try:
        m = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"{label}: not a numeric matrix") from exc
    if m.ndim != 2:
        raise DocumentError(f"{label}: expected a nested array of numbers")
    if not np.all(np.isfinite(m)):
        raise DocumentError(f"{label}: entries must be finite numbers")
    return m


def _require_keys(obj: dict, allowed: set, label: str):
    if not isinstance(obj, dict):
        raise DocumentError(f"{label}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise DocumentError(f"{label}: unknown keys {sorted(unknown)}")


def _theta_to_doc(theta: np.ndarray) -> dict:
    return {"n": theta.shape[0], "kind": "canonical"}


def _theta_from_doc(obj, label: str) -> np.ndarray:
    """The canonical commutation matrix a document's ``{"n", "kind"}`` names."""
    _require_keys(obj, {"n", "kind"}, label)
    n = obj.get("n")
    if isinstance(n, bool) or not isinstance(n, int):
        raise DocumentError(f"{label}.n: expected an integer, got {n!r}")
    if obj.get("kind") != "canonical":
        raise DocumentError(f"{label}.kind: expected \"canonical\", got {obj.get('kind')!r}")
    try:
        return make_commutation_matrix(n)
    except ValueError as exc:
        raise DocumentError(f"{label}: {exc}") from exc


def plant_to_doc(plant: JumpPlant) -> dict:
    return {
        "A_modes": [encode_matrix(a) for a in plant.a_modes],
        "B1": encode_matrix(plant.b1),
        "B2": encode_matrix(plant.b2),
        "C1": encode_matrix(plant.c1),
        "D1": encode_matrix(plant.d1),
        "C2": encode_matrix(plant.c2),
        "D2": encode_matrix(plant.d2),
        "theta": _theta_to_doc(plant.theta),
    }


_PLANT_KEYS = {"A_modes", "B1", "B2", "C1", "D1", "C2", "D2", "theta"}


def plant_from_doc(obj, rates: TransitionRateMatrix) -> JumpPlant:
    _require_keys(obj, _PLANT_KEYS, "plant")
    missing = _PLANT_KEYS - set(obj)
    if missing:
        raise DocumentError(f"plant: missing keys {sorted(missing)}")
    if not isinstance(obj["A_modes"], list) or not obj["A_modes"]:
        raise DocumentError("plant.A_modes: expected a nonempty list of matrices")
    a_modes = tuple(decode_matrix(a, f"plant.A_modes[{k}]") for k, a in enumerate(obj["A_modes"]))
    blocks = {key.lower(): decode_matrix(obj[key], f"plant.{key}")
              for key in ("B1", "B2", "C1", "D1", "C2", "D2")}
    theta = _theta_from_doc(obj["theta"], "plant.theta")
    try:
        return JumpPlant(a_modes=a_modes, theta=theta, rates=rates, **blocks)
    except ValueError as exc:
        raise DocumentError(f"plant: {exc}") from exc


def controller_to_doc(ctrl: Controller) -> dict:
    return {
        "modes": [
            {
                "A": encode_matrix(m.a),
                "B": encode_matrix(m.b),
                "C": encode_matrix(m.c),
                "D": encode_matrix(m.d),
                "E": encode_matrix(m.e),
            }
            for m in ctrl.modes
        ],
        "theta": _theta_to_doc(ctrl.theta_k),
    }


def controller_from_doc(obj) -> Controller:
    _require_keys(obj, {"modes", "theta"}, "controller")
    if "modes" not in obj or "theta" not in obj:
        raise DocumentError("controller: needs 'modes' and 'theta'")
    if not isinstance(obj["modes"], list) or not obj["modes"]:
        raise DocumentError("controller.modes: expected a nonempty list of mode objects")
    modes = []
    for k, mode in enumerate(obj["modes"]):
        label = f"controller.modes[{k}]"
        _require_keys(mode, {"A", "B", "C", "D", "E"}, label)
        missing = {"A", "B", "C", "D", "E"} - set(mode)
        if missing:
            raise DocumentError(f"{label}: missing keys {sorted(missing)}")
        modes.append(
            ControllerMode(
                a=decode_matrix(mode["A"], f"{label}.A"),
                b=decode_matrix(mode["B"], f"{label}.B"),
                c=decode_matrix(mode["C"], f"{label}.C"),
                d=decode_matrix(mode["D"], f"{label}.D"),
                e=decode_matrix(mode["E"], f"{label}.E"),
            )
        )
    try:
        return Controller(tuple(modes), _theta_from_doc(obj["theta"], "controller.theta"))
    except ValueError as exc:
        raise DocumentError(f"controller: {exc}") from exc


def rates_from_doc(obj) -> TransitionRateMatrix:
    pi = decode_matrix(obj, "rates")
    try:
        return TransitionRateMatrix(pi)
    except ValueError as exc:
        raise DocumentError(f"rates: {exc}") from exc


def system_to_doc(plant: JumpPlant | None = None, controller: Controller | None = None,
                  rates: TransitionRateMatrix | None = None) -> dict:
    doc: dict = {}
    if plant is not None:
        doc["plant"] = plant_to_doc(plant)
        rates = plant.rates if rates is None else rates
    if controller is not None:
        doc["controller"] = controller_to_doc(controller)
    if rates is not None:
        doc["rates"] = encode_matrix(rates.pi)
    return doc


def parse_system_doc(doc):
    """Split a document into (plant, controller, rates); absent parts are None."""
    _require_keys(doc, {"plant", "controller", "rates"}, "document")
    rates = rates_from_doc(doc["rates"]) if "rates" in doc else None
    plant = None
    if "plant" in doc:
        if rates is None:
            raise DocumentError("a plant section requires a top-level 'rates' section")
        plant = plant_from_doc(doc["plant"], rates)
    controller = controller_from_doc(doc["controller"]) if "controller" in doc else None
    return plant, controller, rates


def dumps_doc(doc) -> str:
    """Canonical JSON text of ``doc``; raises ``ValueError`` on a NaN or
    infinite float, which standard JSON cannot carry."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_doc(path, doc) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_doc(doc), encoding="utf-8")
    return path


def read_doc(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON ({exc})") from exc


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(out_path, command, inputs, params, outputs, seed=None) -> Path:
    """Record what a CLI run consumed and produced, next to its first output."""
    manifest = {
        "command": list(command),
        "inputs": {str(p): file_digest(p) for p in inputs},
        "params": params,
        "seed": seed,
        "tool_version": __version__,
        "outputs": {str(p): file_digest(p) for p in outputs},
    }
    path = Path(str(out_path) + ".manifest.json")
    path.write_text(dumps_doc(manifest), encoding="utf-8")
    return path
