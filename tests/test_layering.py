"""Import layering of ``src/repro`` (the DESIGN.md "Layering" diagram).

AST-based: no module under test is imported, so the check cannot be
fooled by import order or by a cycle that happens to resolve.

* A **module-scope** import between two ``repro`` packages must point
  strictly down the layer table below — which also makes the package
  graph acyclic.  Imports under ``if TYPE_CHECKING:`` are annotations,
  not dependencies, and are skipped.
* A **function-local** import may point up (that is what the function
  scope is for), but only from the places listed in
  ``UPWARD_LOCAL_IMPORTS``.  The list must match the source exactly:
  adding an upward import fails here, and so does leaving a stale entry
  behind after removing one.
* The Figure-1 roles in ``agents/`` own no audit driver.
* Worker processes come from one module.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Package (or top-level module) -> layer.  Imports go to lower layers.
LAYERS = {
    "errors": 0,
    "schema": 0,
    "crypto": 1,
    "depdb": 1,
    "hwinventory": 1,
    "testing": 1,
    "topology": 1,
    "cloud": 2,
    "swinventory": 2,
    "acquisition": 3,
    "core": 3,
    "failures": 4,
    "engine": 5,
    "privacy": 6,
    "analysis": 7,
    "api": 8,
    "agents": 9,
    "service": 9,
    "__init__": 10,
    "cli": 11,
}

#: Function-local imports that point up or sideways: (file, target).
UPWARD_LOCAL_IMPORTS = {
    # FailureSampler fronts the engine's plan -> run -> merge.
    ("core/sampling.py", "engine"),
}


def package_of(path: Path) -> str:
    parts = path.relative_to(SRC).parts
    return parts[0].removesuffix(".py")


def repro_targets(node: ast.AST) -> list[str]:
    """Packages of ``repro`` that one import statement names."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        if node.module == "repro":
            # ``from repro import api`` names a package; ``from repro
            # import FaultSets`` a re-exported object of the root.
            modules = [
                f"repro.{alias.name}"
                if alias.name in LAYERS
                else "repro.__init__"
                for alias in node.names
            ]
        else:
            modules = [node.module or ""]
    else:
        return []
    return [
        module.split(".")[1]
        for module in modules
        if module.startswith("repro.")
    ]


def scan(path: Path):
    """Yield ``(scope, target_package, lineno)`` for each repro import."""

    def walk(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, "local")
                continue
            if isinstance(child, ast.If) and "TYPE_CHECKING" in ast.unparse(
                child.test
            ):
                continue
            for target in repro_targets(child):
                yield scope, target, child.lineno
            yield from walk(child, scope)

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), "module")


def all_imports():
    for path in sorted(SRC.rglob("*.py")):
        here = package_of(path)
        for scope, target, lineno in scan(path):
            if target != here:
                yield path, here, scope, target, lineno


def test_every_package_has_a_layer():
    packages = {package_of(path) for path in SRC.rglob("*.py")}
    assert packages == set(LAYERS)


def test_module_scope_imports_point_strictly_down():
    # In particular: core imports nothing from engine, analysis, api or
    # service; engine nothing from api or service; nothing below service
    # imports it; and every to_dict() reaches the envelope in
    # repro.schema, a leaf, not in api.
    offenders = [
        f"{path.relative_to(SRC)}:{lineno} imports repro.{target}"
        for path, here, scope, target, lineno in all_imports()
        if scope == "module" and LAYERS[target] >= LAYERS[here]
    ]
    assert offenders == []


def test_upward_local_imports_are_exactly_the_allowlist():
    found = {
        (str(path.relative_to(SRC)), target)
        for path, here, scope, target, lineno in all_imports()
        if scope == "local" and LAYERS[target] >= LAYERS[here]
    }
    assert found == UPWARD_LOCAL_IMPORTS


def test_the_agent_roles_own_no_audit_driver():
    # The Figure-1 agent hands api.AuditRequests to an injected executor;
    # the HTTP client knows neither the roles nor the dependency store.
    agents = SRC / "agents"
    imported = {
        path.name: {
            node.module
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.module
        }
        for path in agents.glob("*.py")
    }
    for name, modules in imported.items():
        assert not modules & {"repro.core.audit", "repro.core.spec"}, name
    assert not [
        module
        for module in imported["transport.py"]
        if module.startswith(("repro.agents", "repro.depdb"))
    ]
    assert UPWARD_LOCAL_IMPORTS == {("core/sampling.py", "engine")}


def test_process_pool_executor_is_named_only_in_the_pool_module():
    named_in = {
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if "ProcessPoolExecutor" in path.read_text(encoding="utf-8")
    }
    assert named_in == {"engine/pool.py"}
