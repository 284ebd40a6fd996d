"""Every name a ``repro.*`` package lists in ``__all__`` resolves, once."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = sorted(m.name for m in pkgutil.iter_modules(repro.__path__, "repro.") if m.ispkg)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    assert [n for n in package.__all__ if not hasattr(package, n)] == []
    assert len(set(package.__all__)) == len(package.__all__)
