"""Print the size of the package source: lines and defaulted settings.

Lines are those of every `src/qdeny/*.py` file, as `cat src/qdeny/*.py |
wc -l` counts them. Defaulted settings are counted over the same files'
syntax trees: each function parameter that has a default, plus each field
of a `@dataclass` class that has a default and is an `__init__` argument
(a `field(init=False, ...)` is not).

    python3 tools/src_size.py [SRC_DIR]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _not_init(value: ast.expr) -> bool:
    """True for a `field(...)` call with `init=False`."""
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords
    )


def defaulted_settings(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                and not _not_init(stmt.value)
                for stmt in node.body
            )
    return count


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else ROOT / "src" / "qdeny"
    files = sorted(src.glob("*.py"))
    if not files:
        print(f"no Python files under {src}", file=sys.stderr)
        return 2
    texts = [path.read_text() for path in files]
    lines = sum(text.count("\n") for text in texts)
    settings = sum(defaulted_settings(ast.parse(text)) for text in texts)
    print(f"lines {lines}")
    print(f"defaulted_settings {settings}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
