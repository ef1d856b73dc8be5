"""Every name a ``repro`` package lists in ``__all__`` resolves.

A deleted function whose re-export stayed behind in a package
``__init__`` would otherwise surface only as an ``AttributeError`` in a
caller (or as a failing ``from repro.x import *``).
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = sorted(
    ["repro"]
    + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg and hasattr(importlib.import_module(info.name), "__all__")
    ]
)


def test_packages_are_discovered():
    assert {"repro.machines", "repro.qfa", "repro.quantum"} <= set(PACKAGES)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_listed_name_resolves(package_name):
    package = importlib.import_module(package_name)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing, f"{package_name}.__all__ lists missing names: {missing}"
