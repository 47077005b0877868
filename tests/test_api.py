"""The package's public surface: each module's ``__all__`` names exactly
the functions and classes that the module defines without a leading
underscore, so a name left behind by a deletion, or a new public
definition left out of ``__all__``, fails here."""

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
