"""The package must import on every Python it declares support for.

``pyproject.toml`` says ``requires-python = ">=3.9"`` and CI runs the
tier-1 suite on 3.9, but a newer interpreter does not notice syntax or
keywords 3.9 lacks.  ``dataclass`` keywords are the trap seen so far:
``slots=True`` raises a TypeError at import time on 3.9, which takes
down every module that imports the one declaring it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``dataclass`` keywords added after Python 3.9.
NEWER_DATACLASS_KEYWORDS = {"slots", "kw_only", "match_args", "weakref_slot"}


def _is_dataclass_call(node):
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "dataclass"


def test_no_dataclass_keywords_newer_than_python_39():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _is_dataclass_call(node):
                offenders.extend(
                    "%s:%d dataclass(%s=...)" % (path.relative_to(SRC), node.lineno, kw.arg)
                    for kw in node.keywords if kw.arg in NEWER_DATACLASS_KEYWORDS)
    assert not offenders, "needs Python > 3.9: " + ", ".join(offenders)
