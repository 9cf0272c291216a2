"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import inspect
import pkgutil

import pytest

import qhinf
from qhinf import qmodel

MODULES = sorted(m.name for m in pkgutil.iter_modules(qhinf.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"qhinf.{name}")
    exported = list(getattr(module, "__all__", ()))
    assert len(set(exported)) == len(exported), f"duplicate names in qhinf.{name}.__all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"qhinf.{name}.__all__ names missing attributes: {missing}"


def test_package_names_are_qmodel_exports():
    public = [n for n, v in vars(qhinf).items()
              if not n.startswith("_") and not inspect.ismodule(v)]
    assert public
    for n in public:
        assert n in qmodel.__all__ and getattr(qhinf, n) is getattr(qmodel, n), n
