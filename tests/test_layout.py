"""Every public top-level function and class in ``src/qbackbone`` is used,
and so is every public method of those classes.

A name counts as used when some module of the package, or a non-test
module of the benchmark harness in ``perfbench/``, refers to it as a
``Name`` or an ``Attribute`` in code, or when the package exports it in
``qbackbone.__all__``.  Strings and docstrings do not count, and neither
do imports alone: code only the tests call belongs in the tests.
Properties and dunder methods are exempt from the method check; an
export covers a class, not its methods.
"""

from __future__ import annotations

import ast
from pathlib import Path

import qbackbone

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qbackbone"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def referenced_names() -> set[str]:
    harness = [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    referenced: set[str] = set()
    for path in MODULES + harness:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return referenced


def public_definitions(path: Path):
    for node in parse(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def is_property(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def test_public_definitions_are_referenced():
    referenced = referenced_names()
    unused = [
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in public_definitions(path)
        if node.name not in referenced and node.name not in qbackbone.__all__
    ]
    assert unused == [], f"public definitions nothing in src/ or perfbench/ uses: {unused}"


def test_public_methods_are_referenced():
    referenced = referenced_names()
    unused = [
        f"{path.stem}.{cls.name}.{node.name}"
        for path in MODULES
        for cls in public_definitions(path)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and not is_property(node)
        and node.name not in referenced
    ]
    assert unused == [], f"public methods nothing in src/ or perfbench/ calls: {unused}"


def test_pass_kernels_do_not_import_numpy():
    # The satellite bytes are bit-identical on every host because the pass
    # and downlink kernels use ``math``; numpy's transcendental ufuncs
    # follow the host's SIMD dispatch and differ by up to 2 ulp.
    importers = []
    for name in ("geometry.py", "linkbudget.py"):
        for node in ast.walk(parse(PACKAGE / name)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            importers += [name for m in modules if m.split(".")[0] == "numpy"]
    assert importers == [], f"modules importing numpy: {importers}"
