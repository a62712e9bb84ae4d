"""Every span the benchmark's per-layer report names must still exist.

`perfbench/spans.py` traces qdeny by name: a module-level public function
defined in its layer module, or a method looked up in its class's own
namespace. A function renamed or deleted in qdeny would leave its span
reading zero calls, so each name is resolved here the way the tracer
resolves it. The file is read and compiled here, not imported, so no
bytecode cache is written next to it.
"""

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
HARNESS_SPANS = {"games.decide"}  # opened by the benchmark's own harness, not by qdeny


def _load_spans():
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


_spans = _load_spans()
_NAMES = sorted(
    set(_spans.REPORTED) - HARNESS_SPANS
    | {f"{layer}.{qualname}" for layer, names in _spans.METHODS.items() for qualname in names}
)


@pytest.mark.parametrize("name", _NAMES)
def test_traced_name_resolves(name):
    layer, _, qualname = name.partition(".")
    module = importlib.import_module(f"qdeny.{layer}")
    if "." in qualname:
        cls_name, meth = qualname.split(".")
        assert callable(vars(getattr(module, cls_name)).get(meth)), name
    else:
        fn = getattr(module, qualname, None)
        assert callable(fn) and fn.__module__ == module.__name__, name
