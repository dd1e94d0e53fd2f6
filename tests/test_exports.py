"""Every name a module lists in ``__all__`` resolves on that module."""

import importlib
import pkgutil

import otspec


def test_all_names_resolve():
    exporting = []
    for info in pkgutil.iter_modules(otspec.__path__):
        mod = importlib.import_module(f"otspec.{info.name}")
        names = getattr(mod, "__all__", ())
        missing = [name for name in names if not hasattr(mod, name)]
        assert not missing, f"otspec.{info.name}.__all__ names missing attributes: {missing}"
        if names:
            exporting.append(info.name)
    assert len(exporting) >= 7, exporting
