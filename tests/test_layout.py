"""Every public top-level function and class in ``src/qbackbone`` is used,
and so is every public method of those classes.

A name counts as used when some module of the package, or a non-test
module of the benchmark harness in ``perfbench/``, refers to it as a
``Name`` or an ``Attribute`` in code, or when the package exports it in
``qbackbone.__all__``.  Strings and docstrings do not count, and neither
do imports alone: code only the tests call belongs in the tests.
Properties and dunder methods are exempt from the method check; an
export covers a class, not its methods.

Every ``def`` in the package, private ones and methods too, is also
entered when the commands run on the shipped configs and on a document
that reaches the memory walk's fallback scan, unless ``qbackbone.__all__``
exports its name or a module of ``perfbench/`` names it.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import qbackbone
from qbackbone.cli import main
from qbackbone.scenario import config_to_dict, load_config_file

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


def entered_code(argvs: list[list[str]]) -> set[tuple[Path, int]]:
    """``(file, first line)`` of every Python function entered while
    ``main`` runs each of ``argvs``."""
    entered = set()
    # A cached function's code runs only on a miss, so the caches start empty.
    for name, module in list(sys.modules.items()):
        if name.startswith("qbackbone."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(argvs)
    return {(Path(filename).resolve(), line) for filename, line in entered}


def command_argvs(tmp_path: Path) -> list[list[str]]:
    """Every command on every shipped config, and ``simulate`` and ``sweep``
    on dark fiber with a 5-qubit payload, whose bounded memory fills."""
    doc = config_to_dict(load_config_file(str(ROOT / "configs" / "dark_fiber.json")))
    doc["traffic"]["qubit_rate_hz"] = 5e4
    doc.update(duration_s=60.0, memory_capacity=5)
    small_payload = tmp_path / "small_payload.json"
    small_payload.write_text(json.dumps(doc), encoding="utf-8")
    argvs = []
    for path in sorted((ROOT / "configs").glob("*.json")) + [small_payload]:
        config, out = str(path), str(tmp_path / path.stem)
        loaded = load_config_file(config)
        policy = loaded.policy
        argvs += [
            ["simulate", "--config", config, "--out", out],
            ["sweep", "--config", config, "--out", f"{out}.csv", "--memory", "1,5,unlimited"],
            ["sweep", "--config", config, "--out", f"{out}.csv", "--memory", "5", "--policy", policy.kind]
            + ([] if policy.source_id is None else ["--source", policy.source_id]),
            ["passes", "--config", config],
        ]
        argvs += [
            ["linkbudget", "--config", config, "--source", source.source_id]
            for source in loaded.sources
        ]
    return argvs


def defs(path: Path):
    """``(name, first line)`` of every function and method in a module; a
    decorated function's code starts at its first decorator."""
    for node in ast.walk(parse(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, min([node.lineno] + [d.lineno for d in node.decorator_list])


def harness_names() -> set[str]:
    names: set[str] = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_def_is_entered_by_some_command(tmp_path, capsys):
    entered = entered_code(command_argvs(tmp_path))
    exempt = set(qbackbone.__all__) | harness_names()
    never = [
        f"{path.stem}.{name}"
        for path in MODULES
        for name, line in defs(path)
        if (path.resolve(), line) not in entered and name not in exempt
    ]
    assert never == [], f"functions in src/ that no command enters: {never}"
