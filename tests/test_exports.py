"""Each layer module's `__all__` lists only what that module defines.

A name left in `__all__` after its definition moved or was deleted either
fails to resolve or re-exports another module's object; both are caught
here. The package `__init__` re-exports on purpose and is not checked.
"""

import importlib
import pkgutil

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
