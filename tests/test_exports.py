"""The package's public surface: every name a module lists in ``__all__``
resolves on that module, and every public method of a transport map kind
has a caller in the package."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import otspec
from otspec.brenier import TransportMap


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


def test_transport_map_methods_have_callers():
    # a public method of a map kind that nothing in the package reads,
    # outside its own body, backs no claim: the scan reads each method name
    # as an attribute anywhere in the package's source
    modules = [
        importlib.import_module(f"otspec.{info.name}") for info in pkgutil.iter_modules(otspec.__path__)
    ]
    trees = {mod: ast.parse(pathlib.Path(mod.__file__).read_text()) for mod in modules}
    methods = []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            cls = getattr(mod, node.name, None) if isinstance(node, ast.ClassDef) else None
            if inspect.isclass(cls) and issubclass(cls, TransportMap):
                methods += [
                    (f"{mod.__name__}.{node.name}.{fn.name}", fn)
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                ]
    assert len(methods) >= 10, [name for name, _ in methods]
    reads = [
        node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    ]
    unread = []
    for name, fn in methods:
        own = {id(node) for node in ast.walk(fn)}
        if not any(node.attr == fn.name and id(node) not in own for node in reads):
            unread.append(name)
    assert not unread, f"public transport map methods with no caller in otspec: {unread}"
