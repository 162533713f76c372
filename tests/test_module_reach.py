"""Every module earns its place, and ``import repro`` loads the evaluator.

A module under ``src/repro`` stays if an entry point reaches it: the
CLI (``python -m repro``, which also reaches ``repro perf``'s experiment
registry and ``repro serve``) or an example script.  The reach is the
static closure of their imports, function-level imports included:

* ``from repro.pkg import name`` reaches the submodule that defines
  ``name``, following the package ``__init__``'s re-exports;
* a package ``__init__`` importing its own submodules reaches nothing,
  so a re-export alone does not keep a module alive;
* importing a module reaches its parent packages.

A module no entry point reaches must be on :data:`ALLOWED`, with the
reason it stays.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: modules no entry point reaches, kept for a differential test
ALLOWED = {
    "repro.grammar.earley": "the general CFG oracle that cross-checks the "
    "single-pass parenthesis recognizer (tests/test_earley.py)",
    "repro.datalog.to_fp": "the Datalog→FP route, checked against the "
    "Datalog engine (tests/test_datalog.py::TestToFP)",
    "repro.reductions.boolean_value": "T3-FO's BFVP sweep "
    "(tests/test_experiments.py); test-only until a record holds it",
}

#: what ``import repro`` must not load: the run store, the regression
#: gate, profiles, explain, provenance, the serve telemetry and the
#: reference semantics are loaded by the commands that use them
NOT_ON_IMPORT = [
    "repro.core.naive_eval",
    "repro.obs.correlate",
    "repro.obs.explain",
    "repro.obs.expo",
    "repro.obs.flight",
    "repro.obs.profile",
    "repro.obs.provenance",
    "repro.obs.regress",
    "repro.obs.rolling",
    "repro.obs.runstore",
    "repro.obs.slo",
]


def _modules() -> Dict[str, Path]:
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


MODULES = _modules()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _imports(tree: ast.Module, package: str) -> Iterator[tuple]:
    """``(module, name)`` per imported name (``name`` None for ``import m``),
    relative imports resolved against ``package``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                module = f"{base}.{module}" if module else base
            for alias in node.names:
                yield module, alias.name


def _defining_module(module: str, name: str) -> Optional[str]:
    """The ``src/repro`` module ``from module import name`` reaches."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if module not in MODULES:
        return None
    if _is_package(module):
        for source, imported in _imports(_tree(MODULES[module]), module):
            if imported == name and source.startswith(module + "."):
                return _defining_module(source, name) or source
    return module


def _targets(name: str, tree: ast.Module) -> Iterator[str]:
    """What module ``name`` (``""`` for a script) reaches directly."""
    package = name if name and _is_package(name) else name.rpartition(".")[0]
    for module, imported in _imports(tree, package):
        target = (
            module if imported is None else _defining_module(module, imported)
        )
        if target not in MODULES:
            continue
        if package == name and target.startswith(name + "."):
            continue  # a package re-exporting its own submodule
        yield target


def reached() -> set:
    roots = [ast.parse("import repro.__main__")] + [
        _tree(path) for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    seen: set = set()
    stack = [target for tree in roots for target in _targets("", tree)]
    while stack:
        name = stack.pop()
        while name and name not in seen:
            seen.add(name)
            stack.extend(_targets(name, _tree(MODULES[name])))
            name = name.rpartition(".")[0]  # parent packages run too
    return seen


def test_every_module_is_reached_or_allowed():
    reach = reached()
    for name in ("repro.cli", "repro.perf.experiments", "repro.serve.cli"):
        assert name in reach
    unreached = sorted(set(MODULES) - reach - set(ALLOWED))
    assert unreached == [], (
        f"reached by no entry point: {unreached}; delete them or add "
        f"each to ALLOWED with the reason it stays"
    )
    # an entry that is reached, or gone, no longer needs its reason
    assert sorted(set(ALLOWED) & reach) == []
    assert sorted(set(ALLOWED) - set(MODULES)) == []


def test_reexport_reaches_the_defining_submodule():
    assert _defining_module("repro", "Database") == "repro.database.database"
    assert _defining_module("repro", "__version__") == "repro"
    assert _defining_module("repro.obs", "tracer") == "repro.obs.tracer"


def test_import_repro_loads_the_evaluator_alone():
    code = (
        "import sys, repro; "
        "print('\\n'.join(m for m in sys.modules if m.startswith('repro')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout.split()
    assert "repro.core.engine" in out
    assert [name for name in NOT_ON_IMPORT if name in out] == []


if __name__ == "__main__":
    for name in sorted(set(MODULES) - reached()):
        print(name, "(allowed)" if name in ALLOWED else "")
