"""The package's public surface: each module's ``__all__`` names exactly
the functions and classes that the module defines without a leading
underscore, so a name left behind by a deletion, or a new public
definition left out of ``__all__``, fails here.  ``spectral`` is the
one eigensolver chokepoint: no other module imports scipy or calls an
eigensolver.  And ``cli`` reads no private name of another module."""

import ast
import importlib
import inspect
import pkgutil

import repel2d


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
