"""Import layering of ``src/repro`` (the DESIGN.md "Layering" diagram).

AST-based: no module under test is imported, so the check cannot be
fooled by import order or by a cycle that happens to resolve.

* Every import between two ``repro`` packages points strictly down the
  layer table below — at module scope, inside a function and under
  ``if TYPE_CHECKING:`` alike — which also makes the package graph
  acyclic.  Module scope (``TYPE_CHECKING`` blocks included) and function
  scope are checked apart: ``UPWARD_LOCAL_IMPORTS``, the exceptions a
  function-local import once had, is empty and must match the source
  exactly.
* The Figure-1 roles in ``agents/`` own no audit driver.
* Worker processes come from one module.
* Every public top-level name has a caller in ``src/``, ``benchmarks/``
  or ``examples/``: a test oracle lives with the tests, not in ``src/``.
* Nothing under ``src/`` imports NetworkX: it is a test dependency, the
  oracle the route enumeration is checked against.
* Results carry no wall-clock: ``elapsed_seconds`` is spelled only on
  the event line (``api.job_event`` / ``JobStatus``) and by the two
  services that emit it.
* There is one engine class: nothing subclasses ``AuditEngine``, and
  the name of the subclass it absorbed survives only as one alias line.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: Package (or top-level module) -> layer.  Imports go to lower layers.
LAYERS = {
    "errors": 0,
    "schema": 0,
    "crypto": 1,
    "depdb": 1,
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
#: Empty — core imports nothing from the engine, not even in a function.
UPWARD_LOCAL_IMPORTS: set[tuple[str, str]] = set()


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
    """Yield ``(scope, target_package, lineno)`` for each repro import;
    ``scope`` is ``"local"`` inside a function, else ``"module"``
    (``if TYPE_CHECKING:`` blocks included)."""

    def walk(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, "local")
                continue
            for target in repro_targets(child):
                yield scope, target, child.lineno
            yield from walk(child, scope)

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), "module")


def all_imports():
    """Yield ``(path, package, scope, target_package, lineno)`` for every
    import of another ``repro`` package."""
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
    # service, not even for a type annotation; engine nothing from api
    # or service; nothing below service imports it; and every to_dict()
    # reaches the envelope in repro.schema, a leaf, not in api.
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
    assert found == UPWARD_LOCAL_IMPORTS == set()


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
        assert not modules & {"repro.engine.audit", "repro.core.spec"}, name
    assert not [
        module
        for module in imported["transport.py"]
        if module.startswith(("repro.agents", "repro.depdb"))
    ]


def test_process_pool_executor_is_named_only_in_the_pool_module():
    named_in = {
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if "ProcessPoolExecutor" in path.read_text(encoding="utf-8")
    }
    assert named_in == {"engine/pool.py"}


def referenced_names(tree: ast.AST) -> set[str]:
    """Names a tree uses: ``Name`` ids, ``Attribute`` attrs, imports."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_public_name_has_a_caller():
    # A re-export in an __init__ is not a caller, and neither is a test.
    def parse(paths):
        return {
            path: ast.parse(path.read_text(encoding="utf-8"))
            for path in paths
            if path.name != "__init__.py"
        }

    modules = parse(SRC.rglob("*.py"))
    uses = {
        path: referenced_names(tree)
        for path, tree in {
            **modules,
            **parse((REPO / "benchmarks").rglob("*.py")),
            **parse((REPO / "examples").rglob("*.py")),
        }.items()
    }
    caller_less = set()
    for path, tree in modules.items():
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        body_uses = [referenced_names(node) for node in tree.body]
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            used_at_home = any(
                node.name in names
                for other, names in zip(tree.body, body_uses)
                if other is not node
            )
            used_elsewhere = any(
                node.name in names
                for other, names in uses.items()
                if other != path
            )
            if not (used_at_home or used_elsewhere):
                caller_less.add(f"{module}.{node.name}")
    assert caller_less == set()


def test_nothing_in_src_imports_networkx():
    def names(node: ast.AST) -> list[str]:
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            return [node.module or ""]
        return []

    importers = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if any(name.split(".")[0] == "networkx" for name in names(node))
    ]
    assert importers == []


#: The only modules that may time anything into a document: the event
#: envelope and the two services whose events carry a duration.
ELAPSED_SECONDS_AT = {"api.py", "service/jobs.py", "service/watch.py"}


def test_elapsed_seconds_only_on_the_event_line():
    # Token scan: names, attributes, keyword arguments, dict keys and
    # docstrings all count; a comment does not.
    spelled_in = set()
    for path in SRC.rglob("*.py"):
        tokens = tokenize.generate_tokens(
            io.StringIO(path.read_text(encoding="utf-8")).readline
        )
        if any(
            "elapsed_seconds" in token.string
            for token in tokens
            if token.type != tokenize.COMMENT
        ):
            spelled_in.add(path.relative_to(SRC).as_posix())
    assert spelled_in == ELAPSED_SECONDS_AT


#: The subclass folded into AuditEngine, kept as an alias for the frozen
#: ledger harness until its next change (spelled in two halves here so
#: this file does not count as a use).
OLD_ENGINE_NAME = "Delta" + "AuditEngine"


def test_one_engine_class():
    subclasses = [
        f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(
            ast.unparse(base).rsplit(".", 1)[-1] == "AuditEngine"
            for base in node.bases
        )
    ]
    assert subclasses == []
    spelled = [
        (path.relative_to(REPO).as_posix(), line.strip())
        for root in (SRC, REPO / "tests", REPO / "examples")
        for path in sorted(root.rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if OLD_ENGINE_NAME in line
    ]
    assert spelled == [
        ("src/repro/engine/__init__.py", f"{OLD_ENGINE_NAME} = AuditEngine")
    ]
