"""sqdist raises one exception type, so the CLI's one `except` maps every
refusal to exit 1 instead of a traceback."""

import ast
from pathlib import Path

from sqdist.errors import SqDistError

SRC = Path(__file__).resolve().parents[1] / "src" / "sqdist"


def _name(exc: ast.expr) -> str:
    if isinstance(exc, ast.Call):
        exc = exc.func
    return ast.unparse(exc)


def test_every_raise_is_sqdist_error():
    raised = [
        (path.name, node.lineno, _name(node.exc))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and node.exc is not None
    ]
    assert raised
    others = [
        (file, line, name) for file, line, name in raised
        if name != "SqDistError" and (name, file) != ("SystemExit", "cli.py")
    ]
    assert others == []


def test_errors_defines_one_class():
    tree = ast.parse((SRC / "errors.py").read_text())
    assert [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)] == ["SqDistError"]
    assert SqDistError.__bases__ == (Exception,)
