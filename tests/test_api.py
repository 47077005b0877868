"""The package's public surface: each module's ``__all__`` names exactly
the functions and classes that the module defines without a leading
underscore, so a name left behind by a deletion, or a new public
definition left out of ``__all__``, fails here.  ``spectral`` is the
one eigensolver chokepoint: no other module imports scipy or calls an
eigensolver.  ``cli`` reads no private name of another module.  And
``experiment`` and ``cli`` ask ``embed_2d.METHODS`` what a method name
means instead of parsing it or comparing it with a literal name."""

import ast
import importlib
import inspect
import pkgutil

import repel2d
from repel2d.embed_2d import METHODS


def test_all_lists_exactly_the_public_definitions():
    checked, problems = [], []
    for info in pkgutil.iter_modules(repel2d.__path__):
        module = importlib.import_module(f"repel2d.{info.name}")
        if not hasattr(module, "__all__"):
            continue
        checked.append(info.name)
        listed = set(module.__all__)
        problems += [f"{info.name}.{name} is listed but not defined" for name in sorted(listed) if not hasattr(module, name)]
        for name, obj in vars(module).items():
            public = not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            if public and obj.__module__ == module.__name__ and name not in listed:
                problems.append(f"{info.name}.{name} is public but not in __all__")
    assert "spectral" in checked
    assert problems == []


EIGENSOLVERS = {"eigh", "eigvalsh", "eig", "eigvals"}


def test_eigensolves_stay_in_spectral():
    scanned, problems = [], []
    for info in pkgutil.iter_modules(repel2d.__path__):
        if info.name == "spectral":
            continue
        path = importlib.import_module(f"repel2d.{info.name}").__file__
        scanned.append(info.name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                imported = []
            problems += [f"{info.name}:{node.lineno} imports {name}" for name in imported if name.split(".")[0] == "scipy"]
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in EIGENSOLVERS:
                    problems.append(f"{info.name}:{node.lineno} calls {name}")
    assert "embed_2d" in scanned and "embed_1d" in scanned
    assert problems == []


def test_cli_reads_only_public_names_of_other_modules():
    path = importlib.import_module("repel2d.cli").__file__
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    modules = {info.name for info in pkgutil.iter_modules(repel2d.__path__)} - {"cli"}
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("repel2d")):
            problems += [f"cli:{node.lineno} imports {alias.name}" for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if node.attr.startswith("_"):
                problems.append(f"cli:{node.lineno} reads {node.value.id}.{node.attr}")
    assert problems == []


NAME_PARSERS = {"endswith", "removeprefix", "removesuffix"}
NAME_TESTS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def _method_literals(node) -> bool:
    """Whether ``node`` is a string literal naming a method, or a tuple,
    list or set of such literals."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(_method_literals(elt) for elt in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in METHODS


def test_experiment_and_cli_read_method_names_from_the_table():
    problems = []
    for name in ("experiment", "cli"):
        path = importlib.import_module(f"repel2d.{name}").__file__
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in NAME_PARSERS:
                problems.append(f"{name}:{node.lineno} calls {node.func.attr}")
            elif isinstance(node, ast.Compare) and any(isinstance(op, NAME_TESTS) for op in node.ops):
                if any(_method_literals(operand) for operand in [node.left, *node.comparators]):
                    problems.append(f"{name}:{node.lineno} compares with a method name")
    assert problems == []
