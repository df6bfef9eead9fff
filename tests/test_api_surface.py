"""The library ships no public function or class that only tests or demos use.

Every public top-level function or class in `src/graphstate` (the
`catalog` graph builders aside) must be referenced from the library
itself or the benchmark harness: as a name, an import, a `module.name`
attribute or a string constant (the harness looks some up by name).
Re-exports in `__init__` do not count, and neither does a definition's
reference to itself, nor a demo: demos show the engines, and a closed
form or sampler that only a demo prints belongs in the demo or, as a
brute-force oracle, in `tests/oracles.py`.  And every name a demo
imports from `graphstate` must exist, so that removing one cannot break
a demo unnoticed.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "graphstate"


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("__init__.py", "catalog.py"):
            continue
        for stmt in ast.parse(path.read_text()).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                yield path.stem, stmt.name


def _referenced_names(path):
    names = set()
    for stmt in ast.parse(path.read_text()).body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name != owner:
                names.add(name)
    return names


def test_every_public_definition_has_a_non_test_caller():
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += list((ROOT / "perfbench").glob("*.py"))
    referenced = set().union(*map(_referenced_names, users))
    offenders = [f"{module}.{name}" for module, name in _public_definitions()
                 if name not in referenced]
    assert offenders == [], "public but used only by tests: " + ", ".join(offenders)


def test_every_name_a_demo_imports_exists():
    # the imports are read from the source: running the demos takes far longer
    missing = []
    for path in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "graphstate":
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(module, alias.name)]
    assert missing == [], "demos import missing names: " + ", ".join(missing)
