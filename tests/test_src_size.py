"""Smoke test of `tools/src_size.py` on a small fixture package."""

import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_size.py"

FIXTURE = {
    # 6 lines; 3 settings: b, d (keyword-only) and the lambda's x
    "funcs.py": '''def f(a, b=1, *, c, d=2):
    return a


async def g(a):
    return lambda x=0: x
''',
    # 15 lines; 3 settings: n, tags (a default_factory) and q in Plain.method;
    # not the init=False field, k (no default) or the plain class's attribute
    "classes.py": '''import dataclasses
from dataclasses import dataclass, field


@dataclass(frozen=True)
class A:
    k: int
    n: int = 3
    cache: dict = field(init=False, default_factory=dict)
    tags: list = dataclasses.field(default_factory=list)


class Plain:
    size: int = 5
    def method(self, q=None): return q
''',
    # 4 lines; 1 setting: the module-qualified dataclass decorator
    "qualified.py": '''import dataclasses
@dataclasses.dataclass
class B:
    x: float = 0.5
''',
    "notes.txt": "not Python\n",  # not counted
}


def load_tool():
    spec = importlib.util.spec_from_file_location("src_size", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_lines_and_defaulted_settings(tmp_path, capsys):
    for name, text in FIXTURE.items():
        (tmp_path / name).write_text(text)
    assert load_tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["lines 25", "defaulted_settings 7"]


def test_each_rule_alone():
    count = load_tool().defaulted_settings
    assert count(ast.parse(FIXTURE["funcs.py"])) == 3
    assert count(ast.parse(FIXTURE["classes.py"])) == 3
    assert count(ast.parse(FIXTURE["qualified.py"])) == 1
    assert count(ast.parse("@dataclass\nclass C:\n    y: int = field(init=False)\n")) == 0
    assert count(ast.parse("@dataclass\nclass C:\n    y: int = field(init=True)\n")) == 1


def test_directory_without_python_files_exits_2(tmp_path, capsys):
    assert load_tool().main([str(tmp_path)]) == 2
    assert "no Python files" in capsys.readouterr().err
