"""Every name a ``repro`` module exports in ``__all__`` resolves.

A deletion that leaves a stale re-export behind fails here, in the same
test run, rather than only under a linter's undefined-export check."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _modules() -> list[str]:
    walk = pkgutil.walk_packages(repro.__path__, prefix="repro.")
    return sorted(["repro", *(info.name for info in walk)])


@pytest.mark.parametrize("module_name", _modules())
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


def test_the_walk_reaches_every_subpackage():
    packages = ("broker", "core", "matching", "metrics", "model", "ontology", "webapp", "workload")
    assert {f"repro.{package}" for package in packages} <= set(_modules())
