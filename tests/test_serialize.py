import json
from dataclasses import replace

import numpy as np
import pytest

from qhinf import demo, serialize
from qhinf.serialize import (
    DocumentError,
    controller_from_doc,
    dumps_doc,
    parse_system_doc,
    plant_from_doc,
    system_to_doc,
)


def test_plant_roundtrip():
    plant = demo.reference_plant()
    doc = system_to_doc(plant=plant)
    back, _, rates = parse_system_doc(json.loads(dumps_doc(doc)))
    assert np.array_equal(back.b1, plant.b1)
    for a, b in zip(back.a_modes, plant.a_modes):
        assert np.array_equal(a, b)
    assert np.array_equal(rates.pi, plant.rates.pi)
    assert doc["plant"]["theta"] == {"n": 2, "kind": "canonical"}
    assert np.array_equal(back.theta, plant.theta)


def test_controller_roundtrip_including_empty_noise():
    ref = demo.reference_controller()
    bare = replace(ref, modes=tuple(replace(m, d=m.d[:, :0], e=m.e[:, :0]) for m in ref.modes))
    for ctrl in (ref, bare):
        doc = system_to_doc(controller=ctrl, rates=demo.reference_plant().rates)
        _, back, _ = parse_system_doc(json.loads(dumps_doc(doc)))
        assert back.n_nu == ctrl.n_nu
        for m1, m2 in zip(back.modes, ctrl.modes):
            assert np.array_equal(m1.a, m2.a)
            assert np.array_equal(m1.e, m2.e)


def test_write_read_write_byte_identical(tmp_path):
    plant = demo.reference_plant()
    ctrl = demo.reference_controller()
    path = tmp_path / "system.json"
    serialize.write_doc(path, system_to_doc(plant=plant, controller=ctrl))
    first = path.read_bytes()
    doc = serialize.read_doc(path)
    serialize.write_doc(path, doc)
    assert path.read_bytes() == first


def test_unknown_keys_rejected():
    doc = system_to_doc(plant=demo.reference_plant())
    doc["extra"] = 1
    with pytest.raises(DocumentError, match="unknown keys"):
        parse_system_doc(doc)
    doc2 = system_to_doc(plant=demo.reference_plant())
    doc2["plant"]["B3"] = [[1.0]]
    with pytest.raises(DocumentError, match="unknown keys"):
        parse_system_doc(doc2)
    with pytest.raises(DocumentError, match="unknown keys"):
        controller_from_doc({"modes": [], "theta": {"n": 2, "kind": "canonical"}, "x": 0})


@pytest.mark.parametrize("modes", [5, None, {}, []])
def test_controller_modes_must_be_nonempty_list(modes):
    with pytest.raises(DocumentError, match=r"controller\.modes:"):
        controller_from_doc({"modes": modes, "theta": {"n": 2, "kind": "canonical"}})


@pytest.mark.parametrize("rates", ["x", [1.0, 2.0], [[0.0, 1.0]]])
def test_rates_error_names_rates_once(rates):
    with pytest.raises(DocumentError, match="^rates: ") as info:
        serialize.rates_from_doc(rates)
    assert "rates: rates" not in str(info.value)


def test_plant_block_error_names_block_once():
    doc = system_to_doc(plant=demo.reference_plant())
    doc["plant"]["B1"] = "x"
    with pytest.raises(DocumentError, match=r"^plant\.B1: not a numeric matrix"):
        parse_system_doc(doc)


def test_plant_requires_rates():
    doc = system_to_doc(plant=demo.reference_plant())
    del doc["rates"]
    with pytest.raises(DocumentError, match="rates"):
        parse_system_doc(doc)


def test_missing_plant_key_rejected():
    doc = system_to_doc(plant=demo.reference_plant())
    del doc["plant"]["B1"]
    with pytest.raises(DocumentError, match="missing"):
        plant_from_doc(doc["plant"], demo.reference_plant().rates)


@pytest.mark.parametrize("null_dim", [2.0, "2"])
def test_non_integer_null_dim_rejected(null_dim):
    # the degenerate kind's null block size is no longer part of the format
    with pytest.raises(DocumentError, match=r"^plant\.theta: unknown keys \['null_dim'\]$"):
        serialize._theta_from_doc({"n": 4, "kind": "degenerate", "null_dim": null_dim},
                                  "plant.theta")


@pytest.mark.parametrize("kind", ["degenerate", "Canonical", None, 2])
def test_non_canonical_theta_kind_rejected(kind):
    with pytest.raises(DocumentError, match=r"^controller\.theta\.kind: expected \"canonical\""):
        serialize._theta_from_doc({"n": 2, "kind": kind}, "controller.theta")


@pytest.mark.parametrize("n", [True, 4.7, "4", None])
def test_non_integer_theta_n_rejected(n):
    with pytest.raises(DocumentError, match=r"plant\.theta\.n:"):
        serialize._theta_from_doc({"n": n, "kind": "canonical"}, "plant.theta")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_matrix_entry_rejected(value):
    with pytest.raises(DocumentError, match=r"^controller\.modes\[0\]\.B: entries must be finite"):
        serialize.decode_matrix([[1.0, value]], "controller.modes[0].B")
    doc = system_to_doc(controller=demo.reference_controller(), rates=demo.reference_plant().rates)
    doc["controller"]["modes"][0]["B"][0][0] = value
    # dumps_doc refuses such a value, so the document comes from another writer
    with pytest.raises(DocumentError, match=r"modes\[0\]\.B: entries must be finite"):
        parse_system_doc(json.loads(json.dumps(doc)))
    doc = system_to_doc(plant=demo.reference_plant())
    doc["rates"][0][1] = value
    with pytest.raises(DocumentError, match="^rates: entries must be finite"):
        parse_system_doc(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_documents_are_standard_json(value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        dumps_doc({"worst": value})


def test_large_finite_matrix_entry_accepted():
    # finite data that overflows later is the LMI engine's to name
    assert serialize.decode_matrix([[1e200]], "big")[0, 0] == 1e200


def test_malformed_matrix_rejected():
    with pytest.raises(DocumentError, match="numeric"):
        serialize.decode_matrix([["a"]], "bad")
    with pytest.raises(DocumentError, match="nested"):
        serialize.decode_matrix([1.0, 2.0], "flat")


def test_manifest_contents(tmp_path):
    src = tmp_path / "in.json"
    out = tmp_path / "out.json"
    serialize.write_doc(src, {"rates": [[0.0]]})
    serialize.write_doc(out, {"result": 1})
    manifest_path = serialize.write_manifest(
        out, command=["check"], inputs=[src], params={"tol": 1e-9}, outputs=[out], seed=7
    )
    manifest = json.loads(manifest_path.read_text())
    assert manifest["seed"] == 7
    assert str(src) in manifest["inputs"]
    assert str(out) in manifest["outputs"]
    assert manifest["inputs"][str(src)] == serialize.file_digest(src)


def _reference_system_doc():
    """The reference plant and controller as one document, and its rates."""
    doc = system_to_doc(plant=demo.reference_plant(), controller=demo.reference_controller())
    return json.loads(dumps_doc(doc)), parse_system_doc(doc)[2]


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def _read_text_as_doc(path, text):
    path.write_text(text)
    return serialize.read_doc(path)


@pytest.mark.parametrize("read, message", [
    pytest.param(lambda doc, rates, tmp: plant_from_doc([], rates),
                 "plant: expected an object", id="plant not an object"),
    pytest.param(lambda doc, rates, tmp: plant_from_doc({**doc["plant"], "A_modes": []}, rates),
                 r"plant\.A_modes: expected a nonempty list", id="no drift modes"),
    pytest.param(lambda doc, rates, tmp: plant_from_doc({**doc["plant"], "D1": [[1.0]]}, rates),
                 r"plant: D1 has shape \(1, 1\), expected \(2, 2\)", id="plant block shape"),
    pytest.param(lambda doc, rates, tmp: controller_from_doc(
        _without(doc["controller"], "theta")),
                 "controller: needs 'modes' and 'theta'", id="controller without theta"),
    pytest.param(lambda doc, rates, tmp: controller_from_doc(
        {**doc["controller"], "modes": [_without(doc["controller"]["modes"][0], "E")]}),
                 r"controller\.modes\[0\]: missing keys \['E'\]", id="controller mode key"),
    pytest.param(lambda doc, rates, tmp: _read_text_as_doc(tmp / "bad.json", "{"),
                 "bad.json: invalid JSON", id="invalid JSON"),
])
def test_malformed_documents_are_named(read, message, tmp_path):
    doc, rates = _reference_system_doc()
    with pytest.raises(DocumentError, match=message):
        read(doc, rates, tmp_path)
