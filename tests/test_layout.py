"""Every public top-level function and class in ``src/qbackbone`` is used.

A name counts as used when some module of the package, or a non-test
module of the benchmark harness in ``perfbench/``, refers to it as a
``Name`` or an ``Attribute`` in code, or when the package exports it in
``qbackbone.__all__``.  Strings and docstrings do not count, and neither
do imports alone: code only the tests call belongs in the tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

import qbackbone

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qbackbone"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_public_definitions_are_referenced():
    modules = sorted(PACKAGE.glob("*.py"))
    harness = [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    referenced: set[str] = set()
    for path in modules + harness:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = [
        f"{path.stem}.{node.name}"
        for path in modules
        for node in parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
        and node.name not in qbackbone.__all__
    ]
    assert unused == [], f"public definitions nothing in src/ or perfbench/ uses: {unused}"
