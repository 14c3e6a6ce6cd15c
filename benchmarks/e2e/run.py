"""The perf ledger's one command.

Driver form (the contract in ``BENCHMARK.json``), one workload, one run::

    python3 benchmarks/e2e/run.py --workload cold_sampling --seed 1 \\
        --seconds 15 --trace 0

prints one JSON object as the last line of its output: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.

Ledger form, three interleaved rounds over all five workloads::

    python3 benchmarks/e2e/run.py --seed 1 [--trace 1]

prints every metric by name with its unit, sample count and round-to-round
spread, and writes a result file under ``benchmarks/results/e2e/``;
``--trace 1`` adds one traced run per workload for the per-layer numbers.

Each run of a workload happens in fresh child processes of this script:
four that only set up (so ``setup_s`` is a median of five) and one that
sets up, runs the workload's ops and checks its outputs.  How many ops is
fixed by ``--seconds`` alone (``Workload.planned_ops``), never by how fast
the machine is, so both sides of a comparison do identical work; a run
that overruns ``OVERRUN`` times ``--seconds`` is cut short and fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from yardstick import Marks
from ledger import (
    PER_LAYER,
    RESULTS,
    ROOT,
    WORKLOAD_ONLY,
    fingerprint,
    fingerprint_slug,
    load_benchmark,
    percentile,
    spread,
)

SETUP_REPEATS = 5
#: Interleaved rounds over all workloads in the ledger form.
ROUNDS = 3
#: The planned ops take about 0.8 x ``--seconds`` on the reference box; a
#: measured phase still running after this many times ``--seconds`` stops.
OVERRUN = 2.0
#: A trace run plans each of its two modes (plain, staged) as if for this
#: share of ``--seconds``; replays and probes take roughly the rest.
TRACE_MODE_SHARE = 0.3


# --------------------------------------------------------------------- #
# Process-family accounting (Linux /proc; the pool's workers are live
# children, which RUSAGE_CHILDREN does not see until they are reaped)
# --------------------------------------------------------------------- #

_TICK = os.sysconf("SC_CLK_TCK")


def _descendants() -> list[int]:
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    family, frontier = [], [os.getpid()]
    while frontier:
        parent = frontier.pop()
        kids = [pid for pid, ppid in parents.items() if ppid == parent]
        family += kids
        frontier += kids
    return family


def family_cpu_s() -> float:
    """User+sys CPU of this process, its reaped and its live children."""
    times = os.times()
    total = time.process_time() + times.children_user + times.children_system
    for pid in _descendants():
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
        except OSError:
            continue
        utime, stime = fields.split()[11:13]
        total += (int(utime) + int(stime)) / _TICK
    return total


def cpu_ticks() -> tuple[int, int]:
    """(all, stolen) CPU ticks of the machine so far, from /proc/stat."""
    first_line = Path("/proc/stat").read_text().split("\n", 1)[0]
    fields = [int(value) for value in first_line.split()[1:]]
    return sum(fields[:8]), fields[7]


def family_peak_rss_mb() -> float:
    """Peak RSS of this process plus that of each live child."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in _descendants():
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024


# --------------------------------------------------------------------- #
# The child: set up, measure, check
# --------------------------------------------------------------------- #


def measure(workload, ops: int, cap_s: float, modes=("plain",)) -> dict:
    """Run ops ``0..ops-1`` in each mode; one result per mode.

    A trace run passes ``("plain", "staged")`` and the modes take turns, so
    a slow spell of the machine falls on both alike.  An idempotent
    workload runs each op once in each mode, one after the other; a
    stateful one gives the modes consecutive cycles.

    The op count is the caller's, so the work is the same on any machine.
    ``cap_s`` only keeps a run on a stalled machine from going on for
    ever: ops not started by then are ``skipped``, which fails the run.

    Latencies are normalised by the machine-speed marks taken between
    ops (see ``yardstick.py``); ``raw`` keeps the seconds as clocked.
    """
    tracer = workload.tr
    marks = Marks()
    run_op = {"plain": workload.op, "staged": workload.staged_op}
    phases = {
        mode: {"timed": {}, "digests": {}, "failed": 0, "skipped": 0}
        for mode in modes
    }
    cpu_before = family_cpu_s()
    ticks_before = cpu_ticks()
    deadline = time.perf_counter() + cap_s
    turn = 1 if workload.idempotent else workload.cycle
    turns = ops // turn
    for block in range(turns):
        if time.perf_counter() > deadline:
            for phase in phases.values():
                phase["skipped"] = (turns - block) * turn
            break
        for position, mode in enumerate(modes):
            phase = phases[mode]
            first = turn * (
                block if workload.idempotent else block * len(modes) + position
            )
            for i in range(first, first + turn):
                marks.mark()
                replayed = tracer.replay_s
                began = time.perf_counter()
                try:
                    with tracer.op(i):
                        kind, data = run_op[mode](i)
                    ended = time.perf_counter()
                    busy = ended - began - (tracer.replay_s - replayed)
                    phase["timed"][i] = (kind, began, ended, busy)
                    phase["digests"][i] = workload.observe(i, kind, data)
                except Exception:  # a failed op is counted, never fatal
                    traceback.print_exc()
                    phase["failed"] += 1
    marks.mark(force=True)
    cpu_s = family_cpu_s() - cpu_before - marks.cpu_s
    ticks, stolen = (b - a for a, b in zip(ticks_before, cpu_ticks()))
    for phase in phases.values():
        # What the machine was like meanwhile: its speed against the
        # yardstick's reference, and the share of CPU time the host took.
        phase["machine"] = {
            "speed_p50": statistics.median(marks.speeds),
            "steal_share": stolen / max(1, ticks),
        }
        phase["ops"] = ops
        phase["latencies"] = {"audit": [], "cached": []}
        phase["raw"] = {"audit": [], "cached": []}
        phase["by_op"] = {}
        for i, (kind, began, ended, busy) in phase["timed"].items():
            tracer.speed[i] = marks.factor(began, ended)
            phase["by_op"][i] = busy / tracer.speed[i]
            phase["latencies"][kind].append(phase["by_op"][i])
            phase["raw"][kind].append(busy)
        busy_s = sum(sum(v) for v in phase["latencies"].values())
        raw_s = sum(sum(v) for v in phase["raw"].values())
        phase["busy_s"] = busy_s
        # Whole-family CPU is read once per call (it scans /proc), so it
        # is only meaningful with a single mode.
        phase["cpu_s"] = cpu_s * busy_s / raw_s if raw_s else 0.0
    return phases


def run_digest(digests: dict[int, str], ops: int):
    """One digest of every planned op's output; None if one is missing."""
    if not all(i in digests for i in range(ops)):
        return None
    joined = "".join(digests[i] for i in range(ops))
    return hashlib.sha256(joined.encode("ascii")).hexdigest()


def end_to_end(phase: dict) -> dict:
    """A figure with no sample behind it is None, never 0."""
    audits = phase["latencies"]["audit"]
    cached = phase["latencies"]["cached"]
    done = len(phase["timed"])
    return {
        "audit_p50_s": statistics.median(audits) if audits else None,
        "audit_p50_raw_s": (
            statistics.median(phase["raw"]["audit"]) if audits else None
        ),
        "audits_per_s": done / phase["busy_s"] if done else None,
        "cpu_s_per_audit": phase["cpu_s"] / done if done else None,
        # On some workloads only.
        "audit_p95_s": percentile(audits, 0.95),
        "cached_p50_s": statistics.median(cached) if cached else None,
        "samples": {"audit": len(audits), "cached": len(cached)},
        "machine": phase["machine"],
    }


def per_layer(workload, plain: dict, staged: dict) -> dict:
    from workloads import pipeline_metrics

    tracer = workload.tr
    metrics = {}
    for name, _unit, _better, how in PER_LAYER:
        if how == "stage":
            metrics[name] = tracer.stage_s(name)
        elif how == "count":
            metrics[name] = tracer.count_of_first_op(name)
        else:
            metrics[name] = 0.0
    metrics.update(pipeline_metrics(tracer))
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    marks = Marks()
    marks.mark()
    probed = workload.probes(plain["latencies"])
    marks.mark(force=True)
    speed = statistics.mean(marks.speeds)
    metrics.update(
        {
            name: value / speed if units[name] == "s" else value
            for name, value in probed.items()
        }
    )
    # Each staged audit against the same op run plainly where there is
    # one (op cost varies with its seed), else against the plain median.
    untraced = end_to_end(plain)["audit_p50_s"]
    covered = tracer.covered_by_op()
    audits = [i for i in staged["by_op"] if workload.kind_of(i) == "audit"]
    metrics["trace.coverage"] = metrics["trace.overhead_share"] = None
    if audits and untraced:
        plain_s = {i: plain["by_op"].get(i, untraced) for i in audits}
        metrics["trace.coverage"] = statistics.median(
            covered.get(i, 0.0) / plain_s[i] for i in audits
        )
        metrics["trace.overhead_share"] = statistics.median(
            (staged["by_op"][i] - plain_s[i]) / plain_s[i] for i in audits
        )
    return metrics


def checked(workload) -> list[str]:
    """The workload's correctness failures; a check that cannot even run
    (every op failed, say) is one more of them."""
    try:
        return workload.check()
    except Exception:
        traceback.print_exc()
        return [f"{workload.name}: outputs could not be checked"]


def phase_failures(name: str, phase: dict) -> list[str]:
    failures = []
    if phase["failed"]:
        failures.append(f"{name}: {phase['failed']} ops raised")
    if phase["skipped"]:
        failures.append(
            f"{name}: cut short with {phase['skipped']} of {phase['ops']} "
            f"ops to go"
        )
    return failures


def measured_run(workload, args) -> dict:
    ops = workload.planned_ops(args.seconds)
    phase = measure(workload, ops, OVERRUN * args.seconds)["plain"]
    result = end_to_end(phase)
    result["peak_rss_mb"] = family_peak_rss_mb()
    wrong = checked(workload)
    result["failures"] = phase_failures(args.workload, phase) + wrong
    result["digest"] = run_digest(phase["digests"], ops)
    result["attempted"] = ops
    result["failed"] = phase["failed"] + phase["skipped"] + len(wrong)
    return result


def traced_run(workload, args) -> dict:
    ops = workload.planned_ops(args.seconds * TRACE_MODE_SHARE)
    phases = measure(
        workload, ops, OVERRUN * args.seconds, ("plain", "staged")
    )
    plain, staged = phases["plain"], phases["staged"]
    wrong = [
        f"{args.workload}: staged op {i} != plain op"
        for i, found in staged["digests"].items()
        if plain["digests"].get(i, found) != found
    ] + checked(workload)
    failures = (
        phase_failures(f"{args.workload} plain", plain)
        + phase_failures(f"{args.workload} staged", staged)
        + wrong
    )
    workload.tr.dump(RESULTS / f"trace_{args.workload}.json")
    return {
        "metrics": per_layer(workload, plain, staged),
        "audit_p50_s": end_to_end(plain)["audit_p50_s"],
        "leaves": list(workload.leaves),
        "rest": workload.rest,
        "failures": failures,
        "attempted": 2 * ops,
        "failed": sum(p["failed"] + p["skipped"] for p in phases.values())
        + len(wrong),
    }


def child(args) -> int:
    started = args.spawned_at
    from trace import SETUP, Tracer
    from workloads import WORKLOADS

    RESULTS.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS))
    workload = WORKLOADS[args.workload](args.seed, scratch, Tracer())
    try:
        workload.setup()
        raw_setup_s = time.monotonic() - started
        marks = Marks()
        for _ in range(3):
            marks.mark(force=True)
        speed = statistics.median(marks.speeds)
        workload.tr.speed[SETUP] = speed
        result = {"setup_s": raw_setup_s / speed, "setup_raw_s": raw_setup_s}
        if workload.ingest is not None:
            records, seconds = workload.ingest
            result["ingest_records_per_s"] = records / (seconds / speed)
        if args.child == "measure":
            result.update(measured_run(workload, args))
        elif args.child == "trace":
            result.update(traced_run(workload, args))
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------- #
# The parent: spawn children, assemble one run
# --------------------------------------------------------------------- #


def spawn(mode: str, workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child", mode,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--spawned-at", repr(time.monotonic()),
    ]
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} {mode} child exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the object the driver reads, plus what the ledger keeps."""
    if trace:
        result = spawn("trace", workload, seed, seconds)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        values = result["metrics"]
    else:
        setups = [
            spawn("setup", workload, seed, seconds)
            for _ in range(SETUP_REPEATS - 1)
        ]
        result = spawn("measure", workload, seed, seconds)
        for metric in ("setup_s", "ingest_records_per_s"):
            if metric in result:
                result[metric] = statistics.median(
                    [result[metric]] + [setup[metric] for setup in setups]
                )
        units = {m["name"]: m["unit"] for m in load_benchmark()["end_to_end"]}
        values = result
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
        "detail": result,
    }


def driver(args) -> int:
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in run["detail"]["failures"]:
        print(f"FAILED: {failure}")
    del run["detail"]
    print(json.dumps(run))
    # A run that could not produce a number is not a result.
    return 1 if any(m["value"] is None for m in run["metrics"].values()) else 0


# --------------------------------------------------------------------- #
# The ledger: interleaved rounds over all workloads
# --------------------------------------------------------------------- #


def ledger(args) -> int:
    bench = load_benchmark()
    rules = {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in bench["end_to_end"]
    } | WORKLOAD_ONLY
    names = [w["name"] for w in bench["workloads"]]
    load_start = os.getloadavg()
    runs = {name: [] for name in names}
    for round_no in range(ROUNDS):
        for name in names:
            print(f"round {round_no + 1}/{ROUNDS}: {name}", flush=True)
            runs[name].append(
                run_workload(name, args.seed, args.seconds, False)["detail"]
            )
    traced = {}
    if args.trace:
        for name in names:
            print(f"traced: {name}", flush=True)
            run = run_workload(name, args.seed, args.seconds, True)
            traced[name] = {
                "audit_p50_s": run["detail"]["audit_p50_s"],
                "leaves": run["detail"]["leaves"],
                "rest": run["detail"]["rest"],
                "metrics": {k: v["value"] for k, v in run["metrics"].items()},
                "failed": run["failed"],
                "attempted": run["attempted"],
                "failures": run["detail"]["failures"],
            }

    document = {
        "fingerprint": fingerprint(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": ROUNDS,
        "noisy": False,
        "workloads": {},
        "traced": traced,
    }
    for name, rounds in runs.items():
        entry = {"metrics": {}}
        for metric, (unit, _better, bound) in rules.items():
            # A metric the workload does not have, or that a failed round
            # could not produce, has no row: never a zero.
            values = [r.get(metric) for r in rounds]
            if None in values:
                continue
            entry["metrics"][metric] = {
                "unit": unit,
                "median": statistics.median(values),
                "spread": spread(values),
                "values": values,
            }
            # As the driver does, set-up time's spread is let off.
            if metric != "setup_s" and spread(values) > bound:
                document["noisy"] = True
        entry["raw"] = {
            metric: statistics.median(r[metric] for r in rounds)
            for metric in ("setup_raw_s", "audit_p50_raw_s")
            if None not in [r[metric] for r in rounds]
        }
        attempted = sum(r["attempted"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        entry["failures"] = [f for r in rounds for f in r["failures"]]
        if len({r["digest"] for r in rounds}) > 1:
            failed += 1
            entry["failures"].append(
                f"{name}: rounds of one seed disagree on the run digest"
            )
        entry["attempted"] = attempted
        entry["failed"] = failed
        entry["failed_share"] = failed / attempted
        entry["samples"] = rounds[-1]["samples"]
        entry["machine"] = [r["machine"] for r in rounds]
        document["workloads"][name] = entry

    print_ledger(document)
    out = RESULTS / (
        f"ledger_{fingerprint_slug(document['fingerprint'])}"
        f"_seed{args.seed}_{int(time.time())}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1), encoding="utf-8")
    print(f"wrote {out}")
    bad = any(w["failed"] for w in document["workloads"].values()) or any(
        t["failed"] for t in traced.values()
    )
    return 1 if bad else 0


def print_ledger(document: dict) -> None:
    print()
    print(
        f"{'workload':18}{'metric':22}{'median':>14} {'unit':6}"
        f"{'spread':>8}{'samples':>9}"
    )
    per_run = ("setup_s", "peak_rss_mb", "ingest_records_per_s")
    for name, entry in document["workloads"].items():
        for metric, row in entry["metrics"].items():
            kind = "cached" if metric.startswith("cached") else "audit"
            samples = (
                document["rounds"]
                if metric in per_run
                else entry["samples"][kind]
            )
            print(
                f"{name:18}{metric:22}{row['median']:14.6g} "
                f"{row['unit']:6}{row['spread']:8.1%}{samples:9d}"
            )
        for metric, value in entry["raw"].items():
            print(f"{name:18}{metric:22}{value:14.6g} s     (as clocked)")
        print(
            f"{name:18}{'failed_share':22}{entry['failed_share']:14.6g} "
            f"{'ratio':6}{'':8}{entry['attempted']:9d}"
        )
        for failure in entry["failures"]:
            print(f"FAILED: {failure}")
    for name, entry in document["traced"].items():
        print()
        print(f"per-layer, {name} (traced run):")
        units = {n: unit for n, unit, _, _ in PER_LAYER}
        for metric, value in entry["metrics"].items():
            if value:
                print(f"  {metric:40}{value:14.6g} {units[metric]}")
        for failure in entry["failures"]:
            print(f"FAILED: {failure}")
    if document["noisy"]:
        print("\nNOISY: an end-to-end metric's spread exceeds its bound")


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (
        ROOT / "BENCHMARK.json"
    ).is_file():
        print(f"no program to measure under {ROOT}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in bench["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.child:
        sys.path.insert(0, str(ROOT / "src"))
        return child(args)
    if args.workload:
        return driver(args)
    return ledger(args)


if __name__ == "__main__":
    sys.exit(main())
