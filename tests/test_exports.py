"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import pytest

import contact9

MODULES = [contact9.__name__] + [
    f"{contact9.__name__}.{info.name}" for info in pkgutil.iter_modules(contact9.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []
