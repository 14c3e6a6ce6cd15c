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
* Every public top-level name, and every public method or property of a
  ``src/`` class, has a caller in ``src/``, ``benchmarks/`` or
  ``examples/``: a test oracle lives with the tests, not in ``src/``.
  ``UNCALLED_METHODS`` names the few methods kept without one, and why.
* One option ratchet over all of ``src/``: every defaulted parameter of
  a public function, method or constructor is passed by some call in
  ``src/``, ``benchmarks/`` or ``examples/``.  ``UNPASSED_OPTIONS``
  names, package by package, the options kept without one and why, or
  marks them pending for a package not settled yet.
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
import functools
import io
import math
import tokenize
from collections import Counter
from pathlib import Path
from typing import Optional

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


def referenced_names(tree: ast.AST, strings: bool = False) -> Counter[str]:
    """Names a tree uses, with their counts: ``Name`` ids, ``Attribute``
    attrs and imports; with ``strings``, string constants too."""
    names: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (
            strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
        ):
            names[node.value] += 1
    return names


@functools.lru_cache(maxsize=1)
def caller_scan():
    """``(modules, trees)``: the parsed ``src/`` modules by path, and
    every parsed ``src/``, ``benchmarks/`` and ``examples/`` file by path.

    A re-export in an ``__init__`` is not a caller, and neither is a
    test, so neither is parsed."""

    def parse(paths):
        return {
            path: ast.parse(path.read_text(encoding="utf-8"))
            for path in paths
            if path.name != "__init__.py"
        }

    modules = parse(SRC.rglob("*.py"))
    trees = {
        **modules,
        **parse((REPO / "benchmarks").rglob("*.py")),
        **parse((REPO / "examples").rglob("*.py")),
    }
    return modules, trees


def module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC.parent).with_suffix("").parts)


def uncalled_names(modules, trees) -> set[str]:
    """Public top-level functions and classes of ``modules`` whose name
    no other statement of their module and no other file of ``trees``
    uses.  String constants are not uses here: every module spells its
    public names in ``__all__``, which would make each its own caller."""
    uses = {path: referenced_names(tree) for path, tree in trees.items()}
    caller_less = set()
    for path, tree in modules.items():
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
                caller_less.add(f"{module_name(path)}.{node.name}")
    return caller_less


def uncalled_methods(modules, trees) -> set[str]:
    """``"module.Class.method"`` for every public ``def`` in a class body
    of ``modules``, properties included, whose name no file of ``trees``
    uses outside the method's own body.  String constants count as uses:
    ``getattr`` and route tables name methods that way."""
    everywhere: Counter[str] = Counter()
    for tree in trees.values():
        everywhere.update(referenced_names(tree, strings=True))
    caller_less = set()
    for path, tree in modules.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) or node.name.startswith("_"):
                    continue
                # Every use of the name is inside the method itself.
                own = referenced_names(node, strings=True)[node.name]
                if everywhere[node.name] == own:
                    caller_less.add(
                        f"{module_name(path)}.{cls.name}.{node.name}"
                    )
    return caller_less


def test_every_public_name_has_a_caller():
    assert uncalled_names(*caller_scan()) == set()


def scratch_module(source: str):
    """A one-module scan of ``source`` placed at ``src/repro/scratch.py``."""
    path = SRC / "scratch.py"
    tree = ast.parse(source)
    return {path: tree}, {path: tree}


def test_a_name_listed_only_in_all_has_no_caller():
    scan = scratch_module(
        '__all__ = ["orphan", "used"]\n'
        "def orphan(): pass\n"
        "def used(): pass\n"
        "TABLE = {'x': used}\n"
    )
    assert uncalled_names(*scan) == {"repro.scratch.orphan"}


#: Public methods that nothing in ``src/``, ``benchmarks/`` or
#: ``examples/`` calls, kept on purpose: ``"module.Class.method"`` ->
#: why.  Every entry must still exist and still have no caller.
UNCALLED_METHODS = {
    "repro.crypto.commutative.CommutativeKey.decrypt": (
        "the inverse the PSOP tests check commutative encryption against"
    ),
    "repro.crypto.paillier.PaillierPrivateKey.decrypt": (
        "the inverse the KS tests check Paillier encryption against"
    ),
    "repro.service.jobs.JobManager.run_pending": (
        "runs queued jobs inline: the workers=0 seam of the service tests"
    ),
    "repro.privacy.pia.PIAAuditor.audit_n_of_m": (
        "the §4.2.5 n-of-m audit, pinned by the PIA report goldens"
    ),
    "repro.topology.graph.Topology.link_count": (
        "the only public reader of link multiplicity; the topology pins "
        "and the NetworkX export read it"
    ),
}


def test_every_public_method_has_a_caller():
    """Every public ``def`` in a ``src/`` class body, properties
    included, has its name used in ``src/``, ``benchmarks/`` or
    ``examples/`` outside its own body, or is in ``UNCALLED_METHODS``.

    The check is by name, as the top-level one is: a method that shares
    its name with one in use passes unnoticed (a ``load`` or a ``clear``
    does once anything calls ``json.load`` or ``dict.clear``)."""
    assert uncalled_methods(*caller_scan()) == set(UNCALLED_METHODS)


def test_a_method_used_only_in_its_own_body_has_no_caller():
    scan = scratch_module(
        "class Box:\n"
        "    def orphan(self): return self.orphan\n"
        "    def named(self): pass\n"
        "    def called(self): pass\n"
        "ROUTES = {'GET': 'named'}\n"
        "Box().called()\n"
    )
    assert uncalled_methods(*scan) == {"repro.scratch.Box.orphan"}


def defaulted_options(tree: ast.Module):
    """Yield ``(qualname, callee, node, options)`` for every public
    function, public method and constructor at the top of ``tree`` or in
    a public class there: ``callee`` is the name a call spells (the class
    name for ``__init__``), ``options`` maps each defaulted parameter to
    its position in a call, ``None`` for a keyword-only one."""

    def options(node, bound: bool) -> dict:
        positional = [a.arg for a in node.args.posonlyargs + node.args.args]
        if bound:
            positional = positional[1:]
        found = {
            name: index
            for index, name in enumerate(positional)
            if index >= len(positional) - len(node.args.defaults)
        }
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                found[arg.arg] = None
        return found

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            yield node.name, node.name, node, options(node, bound=False)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        for method in node.body:
            if not isinstance(method, functions) or (
                method.name.startswith("_") and method.name != "__init__"
            ):
                continue
            decorators = {ast.unparse(d) for d in method.decorator_list}
            if "property" in decorators or any(
                d.endswith(".setter") for d in decorators
            ):
                continue
            callee = node.name if method.name == "__init__" else method.name
            yield (
                f"{node.name}.{method.name}",
                callee,
                method,
                options(method, bound="staticmethod" not in decorators),
            )


def passed_options(call: ast.Call) -> tuple[Optional[str], float, set, bool]:
    """``(callee, positions, keywords, mapping)`` of one call: how many
    positional arguments it passes (all of them past a ``*args``), the
    keywords it names and whether it splats a ``**mapping``.  A
    ``functools.partial`` reads as a call of its first argument."""
    func, args = call.func, list(call.args)
    name = {ast.Name: "id", ast.Attribute: "attr"}.get(type(func))
    callee = getattr(func, name) if name else None
    if callee == "partial" and args:
        first = args.pop(0)
        inner = {ast.Name: "id", ast.Attribute: "attr"}.get(type(first))
        callee = getattr(first, inner) if inner else None
    positions = (
        math.inf if any(isinstance(a, ast.Starred) for a in args) else len(args)
    )
    keywords = {k.arg for k in call.keywords}
    return callee, positions, keywords, None in keywords


def unpassed_options(modules, trees) -> set[str]:
    """``"module.function:parameter"`` for every defaulted parameter of
    :func:`defaulted_options` that no call in ``trees`` outside the
    function's own body passes, by keyword or by position.  A call is
    matched by the callee's name alone; a ``*args`` passes every
    positional parameter, a ``**mapping`` every parameter."""
    calls = [
        (node, passed_options(node))
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]
    unpassed = set()
    for path, tree in modules.items():
        for qualname, callee, node, options in defaulted_options(tree):
            own = {id(inner) for inner in ast.walk(node)}
            matching = [
                passed
                for call, passed in calls
                if passed[0] == callee and id(call) not in own
            ]
            for option, position in options.items():
                if not any(
                    mapping
                    or option in keywords
                    or (position is not None and position < positions)
                    for _callee, positions, keywords, mapping in matching
                ):
                    unpassed.add(f"{module_name(path)}.{qualname}:{option}")
    return unpassed


#: An entry of a package whose options are not settled yet: each will
#: get a caller, be deleted or be kept with its reason.
PENDING = "pending: settled with a later package group"

#: Options nothing in ``src/``, ``benchmarks/`` or ``examples/`` passes,
#: by package: ``"module.function:parameter"`` -> why it stays.  Every
#: entry must still exist, still be unpassed and sit under its package.
UNPASSED_OPTIONS = {
    "acquisition": {
        "repro.acquisition.base.DependencyAcquisitionModule.adapt_into:"
        "batch_size": PENDING,
        "repro.acquisition.hardware.HardwareInventoryCollector.__init__:"
        "servers": PENDING,
        "repro.acquisition.network.NetworkDependencyCollector.__init__:"
        "dst": PENDING,
        "repro.acquisition.network.NetworkDependencyCollector.__init__:"
        "max_routes": PENDING,
    },
    "agents": {
        "repro.agents.agent.AuditingAgent.__init__:audit": PENDING,
        "repro.agents.agent.AuditingAgent.__init__:probability": PENDING,
        "repro.agents.datasource.DataSource.__init__:modules": PENDING,
        "repro.agents.transport.ServiceClient.__init__:timeout": PENDING,
        "repro.agents.transport.ServiceClient.events_after:wait": PENDING,
        "repro.agents.transport.ServiceClient.report:key": PENDING,
    },
    "analysis": {
        "repro.analysis.case_studies.hardware_case_study:seed": PENDING,
        "repro.analysis.case_studies.network_case_study:"
        "device_failure_probability": PENDING,
        "repro.analysis.case_studies.network_case_study:seed": PENDING,
        "repro.analysis.case_studies.network_datacenter_depdb:plan": PENDING,
        "repro.analysis.case_studies.software_case_study:protocol": PENDING,
        "repro.analysis.case_studies.software_case_study:seed": PENDING,
        "repro.analysis.drift.drift_report:engine": PENDING,
        "repro.analysis.formal.formal_analysis:destinations": PENDING,
        "repro.analysis.formal.formal_analysis:include_host_events": PENDING,
        "repro.analysis.formal.formal_analysis:max_order": PENDING,
        "repro.analysis.planner.MitigationPlanner.plan:harden_factor": PENDING,
    },
    "api": {
        "repro.api.audit_delta:client": PENDING,
        "repro.api.audit_delta:engine": PENDING,
        "repro.api.plan:deployment": PENDING,
    },
    "cloud": {
        "repro.cloud.deployment.enumerate_deployments:required": PENDING,
        "repro.cloud.provider.CloudProvider.component_set:hosts": PENDING,
    },
    "core": {
        "repro.core.compile.CompiledGraph.evaluate_batch:return_all": (
            "the full value matrix the packed-kernel suites check the "
            "packed words against"
        ),
    },
    "depdb": {
        "repro.depdb.database.DepDB.sqlite:records": PENDING,
    },
    "failures": {
        "repro.failures.models.uniform_weigher:kinds": PENDING,
    },
    "service": {
        "repro.service.jobs.JobManager.run_pending:max_jobs": PENDING,
        "repro.service.jobs.JobManager.shutdown:timeout": PENDING,
        **dict.fromkeys(
            [
                "repro.service.router.Router.job_cancel:body",
                "repro.service.router.Router.job_events_poll:query",
                "repro.service.router.Router.job_status:query",
            ],
            "a handler of the route table: Router.dispatch calls every "
            "handler with body=, query= and headers=, a call the by-name "
            "scan does not follow",
        ),
        "repro.service.server.ServiceThread.__init__:host": PENDING,
        "repro.service.server.ServiceThread.__init__:port": PENDING,
        "repro.service.watch.WatchService.__init__:sleep": PENDING,
        "repro.service.watch.WatchService.__init__:title": PENDING,
    },
    "swinventory": {
        "repro.swinventory.stacks.software_records:hosts": PENDING,
    },
    "topology": {
        "repro.topology.datacenter.benson_datacenter:name": PENDING,
        "repro.topology.fattree.fat_tree:name": PENDING,
        "repro.topology.graph.Topology.add_link:count": PENDING,
        "repro.topology.graph.Topology.validate_connected:among": PENDING,
        "repro.topology.lab.lab_cloud:name": PENDING,
        "repro.topology.routing.fat_tree_routes:dst": PENDING,
        "repro.topology.routing.fat_tree_routes:max_routes": PENDING,
        "repro.topology.storage_sample.storage_sample:name": PENDING,
    },
}

#: Packages whose options are all settled: none of their entries may be
#: pending, so an option added there needs a caller or a reason.
SETTLED = {"core", "crypto", "engine", "privacy"}


def test_every_option_has_a_caller():
    """Every defaulted parameter of a public function, method or
    constructor under ``src/repro/`` is passed by some call in ``src/``,
    ``benchmarks/`` or ``examples/``, or is in ``UNPASSED_OPTIONS``: an
    option only tests set is a second path through the code that nothing
    runs.  Matched by name, like the method check."""
    for package, options in UNPASSED_OPTIONS.items():
        assert {option.split(".")[1] for option in options} == {package}
        if package in SETTLED:
            assert PENDING not in options.values(), package
    kept = set().union(*UNPASSED_OPTIONS.values())
    assert unpassed_options(*caller_scan()) == kept


def test_an_option_only_its_own_body_passes_has_no_caller():
    scan = scratch_module(
        "def run(graph, rounds=1, *, weights=None, seed=None, fast=False):\n"
        "    return run(graph, weights=weights)\n"
        "class Box:\n"
        "    def __init__(self, size=4, label=''): pass\n"
        "    def put(self, item, *, urgent=False): pass\n"
        "run(0, 2, seed=1)\n"
        "run(*(0, 1), fast=True)\n"
        "Box(8).put(1)\n"
    )
    assert unpassed_options(*scan) == {
        "repro.scratch.run:weights",
        "repro.scratch.Box.__init__:label",
        "repro.scratch.Box.put:urgent",
    }


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
