"""Every name a ``driftmon`` module exports in ``__all__`` exists."""

from __future__ import annotations

import importlib
import pkgutil

import driftmon


def test_every_exported_name_resolves() -> None:
    names = ["driftmon"] + [
        f"driftmon.{info.name}" for info in pkgutil.iter_modules(driftmon.__path__)
    ]
    stale = []
    for name in names:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            if not hasattr(module, attr):
                stale.append(f"{name}.{attr}")
    assert len(names) > 1
    assert not stale, f"__all__ names that do not exist: {stale}"
