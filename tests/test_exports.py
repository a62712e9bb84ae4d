"""Each layer module's `__all__` lists only what that module defines.

A name left in `__all__` after its definition moved or was deleted either
fails to resolve or re-exports another module's object; both are caught
here. The package `__init__` re-exports on purpose and is not checked.
Every public annotation must also resolve from its module's own names, so
an import moved into a function leaves no annotation behind.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import qdeny

LAYER_MODULES = sorted(info.name for info in pkgutil.iter_modules(qdeny.__path__))


@pytest.mark.parametrize("layer", LAYER_MODULES)
def test_all_names_are_defined_in_their_module(layer):
    module = importlib.import_module(f"qdeny.{layer}")
    for name in module.__all__:
        assert hasattr(module, name), f"{layer}.__all__ names missing {name}"
        obj = getattr(module, name)
        if isinstance(obj, type) or callable(obj):
            assert obj.__module__ == module.__name__, (
                f"{layer}.__all__ re-exports {name} from {obj.__module__}"
            )


@pytest.mark.parametrize("layer", LAYER_MODULES)
def test_public_annotations_resolve(layer):
    module = importlib.import_module(f"qdeny.{layer}")
    for name in module.__all__:
        obj = getattr(module, name)
        if not callable(obj):
            continue
        typing.get_type_hints(obj)
        if isinstance(obj, type):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                    typing.get_type_hints(member)
