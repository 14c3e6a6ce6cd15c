"""Self-tests of the ledger harness.  Run explicitly (not in tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import compare  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import trace as tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

HARNESS = (
    "run.py",
    "workloads.py",
    "trace.py",
    "ledger.py",
    "compare.py",
    "where.py",
    "yardstick.py",
)


# ------------------------------ summaries ------------------------------ #


def test_percentile_needs_ten_samples_beyond():
    assert ledger.percentile(range(199), 0.95) is None
    assert ledger.percentile(range(200), 0.95) == 189
    assert ledger.percentile(range(19), 0.5) is None
    assert ledger.percentile(range(20), 0.5) == 9
    assert ledger.percentile([], 0.95) is None


def test_spread_is_quartile_distance_over_median():
    assert ledger.spread([10.0]) == 0.0
    assert ledger.spread([9.0, 10.0, 11.0]) == 0.2  # range, under 4 values
    values = [float(v) for v in range(1, 11)]
    assert abs(ledger.spread(values) - (8.25 - 2.75) / 5.5) < 1e-12


# ------------------------------ fixed work ------------------------------ #


def test_op_count_is_fixed_by_seconds_in_whole_cycles():
    for workload in workloads.WORKLOADS.values():
        planned = workload(1, HERE, tracing.Tracer()).planned_ops
        assert planned(15.0) == planned(15.0) > 0
        assert planned(15.0) % workload.cycle == 0
        assert planned(0.001) == workload.cycle
        assert planned(30.0) > planned(15.0)


def test_run_digest_needs_every_planned_op():
    digests = {0: "a", 1: "b", 2: "c"}
    assert run.run_digest(digests, 3) == run.run_digest(dict(digests), 3)
    assert run.run_digest(digests, 3) != run.run_digest(digests, 2)
    assert run.run_digest(digests, 4) is None


class FakeWorkload(workloads.Workload):
    name = "fake"
    cycle = 2

    def __init__(self, idempotent=True, broken=()):
        super().__init__(1, HERE, tracing.Tracer())
        self.idempotent = idempotent
        self.broken = broken
        self.calls = []

    def op(self, i):
        self.calls.append(("plain", i))
        if i in self.broken:
            raise RuntimeError("refused")
        return ("cached" if i % 2 else "audit"), f"out-{i}"

    def staged_op(self, i):
        self.calls.append(("staged", i))
        return ("cached" if i % 2 else "audit"), f"out-{i}"


def test_measure_runs_exactly_the_planned_ops_and_counts_failures():
    workload = FakeWorkload(broken={3})
    phase = run.measure(workload, 6, cap_s=60.0)["plain"]
    assert workload.calls == [("plain", i) for i in range(6)]
    assert (phase["ops"], phase["failed"], phase["skipped"]) == (6, 1, 0)
    assert len(phase["latencies"]["audit"]) == 3
    assert len(phase["latencies"]["cached"]) == 2
    assert run.run_digest(phase["digests"], 6) is None
    assert run.phase_failures("fake", phase) == ["fake: 1 ops raised"]


def test_a_cut_short_run_skips_whole_cycles_and_fails():
    phase = run.measure(FakeWorkload(idempotent=False), 6, cap_s=-1.0)["plain"]
    assert (phase["failed"], phase["skipped"], phase["timed"]) == (0, 6, {})
    assert run.phase_failures("fake", phase)
    figures = run.end_to_end(phase)  # no sample: None, never 0 or a raise
    for metric in ("audit_p50_s", "audits_per_s", "cpu_s_per_audit",
                   "audit_p95_s", "cached_p50_s"):
        assert figures[metric] is None


def test_trace_modes_take_turns_per_op_or_per_cycle():
    workload = FakeWorkload()
    run.measure(workload, 2, 60.0, ("plain", "staged"))
    assert workload.calls == [
        ("plain", 0), ("staged", 0), ("plain", 1), ("staged", 1)
    ]
    stateful = FakeWorkload(idempotent=False)
    run.measure(stateful, 2, 60.0, ("plain", "staged"))
    assert stateful.calls == [
        ("plain", 0), ("plain", 1), ("staged", 2), ("staged", 3)
    ]


# -------------------------------- spans -------------------------------- #


def tracer_with(*spans):
    tracer = tracing.Tracer()
    for name, start, end, parent, op, replay in spans:
        tracer.spans.append(
            tracing.Span(len(tracer.spans), name, start, end, parent, op, replay)
        )
    return tracer


def test_self_time_subtracts_nested_and_sibling_children():
    tracer = tracer_with(
        ("outer", 0.0, 10.0, None, 0, False),
        ("first", 1.0, 3.0, 0, 0, False),
        ("second", 4.0, 7.0, 0, 0, False),
        ("inner", 5.0, 6.0, 2, 0, False),
    )
    selfs = tracer.self_times()
    assert selfs == {0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0}
    assert sum(selfs.values()) == 10.0
    assert tracer.covered_by_op() == {0: 10.0}


def test_overlapping_children_are_covered_once():
    assert tracing.covered([(1.0, 4.0), (3.0, 6.0)], 0.0, 5.0) == 4.0


def test_stage_is_per_op_median_else_setup_total_and_replays_stay_out():
    tracer = tracer_with(
        ("build", 0.0, 2.0, None, tracing.SETUP, False),
        ("stage", 0.0, 1.0, None, 0, False),
        ("stage", 1.0, 2.0, None, 0, False),
        ("stage", 0.0, 4.0, None, 1, False),
        ("split", 4.0, 9.0, None, 1, True),
    )
    assert tracer.stage_s("stage") == 3.0
    assert tracer.stage_s("build") == 2.0
    assert tracer.stage_s("never") == 0.0
    assert tracer.covered_by_op()[1] == 4.0
    assert tracer.stage_s("split") == 5.0


def test_counts_come_from_the_first_op_that_has_them():
    tracer = tracing.Tracer()
    tracer.count("records", 7)
    with tracer.op(3):
        tracer.count("bytes", 10)
        tracer.count("bytes", 5)
    with tracer.op(4):
        tracer.count("bytes", 99)
    assert tracer.count_of_first_op("bytes") == 15
    assert tracer.count_of_first_op("records") == 7


def test_recorded_spans_nest_and_replay_time_is_kept_apart():
    tracer = tracing.Tracer()
    with tracer.op(0):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        with tracer.replay():
            with tracer.span("again"):
                pass
    outer, inner, again = tracer.spans
    assert inner.parent == outer.id and outer.parent is None
    assert (outer.replay, again.replay) == (False, True)
    assert tracer.replay_s >= again.end - again.start


def test_self_times_are_divided_by_the_speed_of_their_op():
    tracer = tracer_with(
        ("stage", 0.0, 3.0, None, 0, False),
        ("stage", 0.0, 3.0, None, 1, False),
    )
    tracer.speed[1] = 1.5
    assert tracer.per_op("stage") == {0: 3.0, 1: 2.0}


# ------------------------------ yardstick ------------------------------ #


def test_speed_factor_is_the_mean_of_the_marks_bracketing_an_interval():
    marks = yardstick.Marks()
    marks.times = [0.0, 1.0, 2.0, 3.0]
    marks.speeds = [1.0, 2.0, 4.0, 8.0]
    assert marks.factor(1.2, 1.8) == 3.0
    assert marks.factor(0.5, 2.5) == 3.75
    assert marks.factor(-1.0, -0.5) == 1.0
    assert marks.factor(3.5, 4.0) == 8.0


def test_marks_are_spaced_and_their_own_time_is_accounted():
    marks = yardstick.Marks()
    marks.mark()
    marks.mark()  # too soon after the first: skipped
    assert len(marks.times) == 1
    marks.mark(force=True)
    assert len(marks.times) == len(marks.speeds) == 2
    assert marks.wall_s > 0 and all(speed > 0 for speed in marks.speeds)


# ------------------------------- compare ------------------------------- #


def row(median, spread=0.01):
    return {"median": median, "spread": spread, "unit": "s"}


def test_verdicts():
    assert compare.verdict(row(1.0), row(1.05), 0.10, "lower") == "same"
    assert compare.verdict(row(1.0), row(1.15), 0.10, "lower") == "worse"
    assert compare.verdict(row(1.0), row(0.90), 0.10, "lower") == "better"
    assert compare.verdict(row(1.0), row(0.90), 0.10, "higher") == "same"
    assert compare.verdict(row(1.0), row(0.85), 0.10, "higher") == "worse"
    assert compare.verdict(row(1.0, 0.2), row(1.05), 0.10, "lower") == "unresolved"
    assert compare.verdict(row(1.0, 0.2), row(1.15), 0.10, "lower") == "unresolved"
    assert compare.verdict(row(1.0, 0.2), row(1.50), 0.10, "lower") == "worse"


def synthetic(p50, failed_share=0.0, spread=0.01):
    return {
        "workloads": {
            "w": {
                "metrics": {"audit_p50_s": row(p50, spread)},
                "failed_share": failed_share,
            }
        }
    }


def test_compare_flags_worse_and_higher_failed_share():
    rules = {"audit_p50_s": ("lower", 0.10), "absent": ("lower", 0.10)}
    rows, regressed = compare.compare(synthetic(1.0), synthetic(1.02), rules)
    assert [r[-1] for r in rows] == ["same", "same"] and not regressed
    rows, regressed = compare.compare(synthetic(1.0), synthetic(1.3), rules)
    assert rows[0][-1] == "worse" and regressed
    rows, regressed = compare.compare(
        synthetic(1.0), synthetic(1.0, failed_share=0.01), rules
    )
    assert rows[1][1] == "failed_share" and rows[1][-1] == "worse" and regressed
    rows, regressed = compare.compare(
        synthetic(1.0, spread=0.3), synthetic(1.05), rules
    )
    assert rows[0][-1] == "unresolved" and not regressed


# ------------------------------ generators ------------------------------ #


def test_inputs_are_a_pure_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.input_digest(name, 5) == workloads.input_digest(name, 5)
        assert workloads.input_digest(name, 5) != workloads.input_digest(name, 6)


# ---------------------------- the contract ----------------------------- #


def test_benchmark_json_matches_the_harness():
    bench = ledger.load_benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in ledger.PER_LAYER
    ]
    names = {m["name"] for m in bench["per_layer"]}
    for workload in workloads.WORKLOADS.values():
        assert set(workload.leaves) <= names, workload.name
    assert set(ledger.EXACT_COUNTS) <= names
    assert "setup_s" in {m["name"] for m in bench["end_to_end"]}
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert not set(ledger.WORKLOAD_ONLY) & {
        m["name"] for m in bench["end_to_end"]
    }


#: Package-level names only: later PRs may move code inside these.
ALLOWED_MODULES = {
    "repro",
    "repro.api",
    "repro.core",
    "repro.engine",
    "repro.depdb",
    "repro.acquisition",
    "repro.topology",
    "repro.service",
    "repro.agents",
    "repro.errors",
    "repro.failures",
}
#: What ROADMAP item 2 plans to delete.
DOOMED = {
    "FailureSampler",
    "packed",
    "REPRO_POOL_DEFAULT",
    "run_plan_parallel",
    "map_jobs",
}


def test_harness_uses_package_level_names_and_nothing_doomed():
    for filename in HARNESS:
        tree = ast.parse((HERE / filename).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            for module in modules:
                if module.split(".")[0] == "repro":
                    assert module in ALLOWED_MODULES, (filename, module)
            used = {
                ast.Name: lambda n: n.id,
                ast.Attribute: lambda n: n.attr,
                ast.keyword: lambda n: n.arg,
                ast.alias: lambda n: n.name,
            }.get(type(node), lambda n: None)(node)
            assert used not in DOOMED, (filename, used)
            if isinstance(node, ast.keyword) and node.arg == "pool":
                value = node.value
                assert not (
                    isinstance(value, ast.Constant) and value.value is True
                ), (filename, "pool=True")
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert "REPRO_POOL_DEFAULT" not in node.value, filename
