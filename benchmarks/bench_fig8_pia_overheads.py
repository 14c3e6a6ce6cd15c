"""Figure 8: PIA system overheads — P-SOP vs the Kissner–Song baseline.

The paper varies the number of providers k in {2, 3, 4} and the per-
provider dataset size n in [10^3, 10^5] with 1024-bit keys, measuring

* (a) total traffic sent, and
* (b) computational time,

and finds that KS bandwidth grows much faster with k, while P-SOP's
computation is orders of magnitude cheaper (both linear-ish in n).

The quick profile shrinks n (pure-Python bignum arithmetic) and the key
sizes, which preserves both relationships; ``REPRO_BENCH_SCALE=paper``
raises them towards the paper's parameters.
"""

from __future__ import annotations

import time

import pytest

from repro.crypto import SharedGroup, generate_keypair
from repro.privacy import KSParty, KSProtocol, PSOPParty, PSOPProtocol

#: Required end-to-end P-SOP speedup of the batched fast path over the
#: serial reference ring.  The quick profile must clear 3x (the PR-3
#: acceptance gate); smoke runs on second-scale datasets where fixed
#: overheads weigh more, so its bar is lower.
FAST_PATH_SPEEDUP = {"smoke": 2.0, "quick": 3.0, "paper": 3.0}

PARAMS = {
    "smoke": {
        "sizes": (32, 64, 128),
        "ks_sizes": (16, 32, 64),
        "group_bits": 512,
        "ks_bits": 256,
    },
    "quick": {
        "sizes": (50, 100, 200),
        "ks_sizes": (25, 50, 100),
        "group_bits": 768,
        "ks_bits": 256,
    },
    "paper": {
        "sizes": (1_000, 10_000, 100_000),
        "ks_sizes": (1_000, 2_000, 4_000),
        "group_bits": 1024,
        "ks_bits": 1024,
    },
}


def dataset(party: int, size: int) -> list[str]:
    """Half-shared datasets: every party holds `shared-*` + its own."""
    half = size // 2
    return [f"shared-{i}" for i in range(half)] + [
        f"party{party}-{i}" for i in range(size - half)
    ]


def run_psop(k: int, n: int, group: SharedGroup):
    parties = [
        PSOPParty(f"P{i}", dataset(i, n), group, seed=i) for i in range(k)
    ]
    return PSOPProtocol(parties).run()


def run_ks(k: int, n: int, keypair):
    parties = [KSParty(f"P{i}", dataset(i, n), seed=i) for i in range(k)]
    return KSProtocol(parties, keypair=keypair).run()


def timed(run, *args):
    """``(result, wall-clock seconds)`` of one protocol execution."""
    started = time.perf_counter()
    result = run(*args)
    return result, time.perf_counter() - started


def test_fig8_overheads(benchmark, emit, scale):
    params = PARAMS[scale]
    group = SharedGroup.with_bits(params["group_bits"])
    keypair = generate_keypair(params["ks_bits"], seed=0)

    rows_bw, rows_time = [], []
    psop_results: dict[tuple[int, int], object] = {}
    ks_results: dict[tuple[int, int], object] = {}
    psop_seconds: dict[tuple[int, int], float] = {}
    ks_seconds: dict[tuple[int, int], float] = {}
    for k in (2, 3, 4):
        for n in params["sizes"]:
            result, seconds = timed(run_psop, k, n, group)
            psop_results[(k, n)] = result
            psop_seconds[(k, n)] = seconds
            rows_bw.append(
                ["P-SOP", k, n, f"{result.total_bytes / 1e6:.3f}"]
            )
            rows_time.append(["P-SOP", k, n, f"{seconds:.2f}"])
        for n in params["ks_sizes"]:
            result, seconds = timed(run_ks, k, n, keypair)
            ks_results[(k, n)] = result
            ks_seconds[(k, n)] = seconds
            rows_bw.append(["KS", k, n, f"{result.total_bytes / 1e6:.3f}"])
            rows_time.append(["KS", k, n, f"{seconds:.2f}"])

    emit.table(
        "Figure 8a — total traffic sent (MB)",
        ["protocol", "k", "n", "MB"],
        rows_bw,
    )
    emit.table(
        "Figure 8b — computational time (s)",
        ["protocol", "k", "n", "seconds"],
        rows_time,
    )

    sizes, ks_sizes = params["sizes"], params["ks_sizes"]

    # (a) Bandwidth: KS grows faster with k than P-SOP.
    def growth(results, n):
        return results[(4, n)].total_bytes / results[(2, n)].total_bytes

    assert growth(ks_results, ks_sizes[0]) > growth(psop_results, sizes[0])

    # Bandwidth is ~linear in n for both.
    for k in (2, 4):
        ratio = (
            psop_results[(k, sizes[-1])].total_bytes
            / psop_results[(k, sizes[0])].total_bytes
        )
        expected = sizes[-1] / sizes[0]
        assert ratio == pytest.approx(expected, rel=0.2)

    # (b) Computation: KS is orders of magnitude slower at equal n.
    n_common = ks_sizes[-1]
    if n_common in sizes:
        psop_t = psop_seconds[(2, n_common)]
        ks_t = ks_seconds[(2, n_common)]
        assert ks_t > 5 * psop_t, (
            f"KS ({ks_t:.2f}s) should dwarf P-SOP ({psop_t:.2f}s)"
        )

    # Benchmark the headline configuration (k=4, largest quick n).
    benchmark.pedantic(
        lambda: run_psop(4, sizes[0], group), rounds=1, iterations=1
    )


def test_fig8_psop_fast_path_speedup(emit, scale):
    """PR-3 gate: the batched fast path must beat the serial ring >= 3x
    end to end (quick profile) with bit-identical protocol outputs, and
    the worker count must not affect results."""
    params = PARAMS[scale]
    group = SharedGroup.with_bits(params["group_bits"])

    def sweep(run):
        total = 0.0
        results = {}
        for k in (2, 3, 4):
            for n in params["sizes"]:
                parties = [
                    PSOPParty(f"P{i}", dataset(i, n), group, seed=i)
                    for i in range(k)
                ]
                protocol = PSOPProtocol(parties)
                started = time.perf_counter()
                results[(k, n)] = run(protocol)
                total += time.perf_counter() - started
        return total, results

    serial_seconds, serial_results = sweep(PSOPProtocol.run_serial)
    fast_seconds, fast_results = sweep(PSOPProtocol.run)

    # Bit-identical protocol outputs for every configuration.
    for key, serial in serial_results.items():
        fast = fast_results[key]
        assert serial.intersection == fast.intersection, key
        assert serial.union == fast.union, key
        assert serial.jaccard == fast.jaccard, key
        assert serial.total_bytes == fast.total_bytes, key
        assert serial.bytes_sent == fast.bytes_sent, key
        assert serial.metadata == fast.metadata, key

    # Fanning parties out over workers must not change anything either
    # (largest n so the exponentiation batch really spans chunks).
    k, n = 3, params["sizes"][-1]
    parties = [
        PSOPParty(f"P{i}", dataset(i, n), group, seed=i) for i in range(k)
    ]
    fanned = PSOPProtocol(parties, n_workers=2).run()
    assert fanned.intersection == fast_results[(k, n)].intersection
    assert fanned.union == fast_results[(k, n)].union
    assert fanned.total_bytes == fast_results[(k, n)].total_bytes

    speedup = serial_seconds / fast_seconds
    emit.table(
        "Figure 8 fast path — end-to-end P-SOP sweep (seconds)",
        ["path", "seconds", "speedup"],
        [
            ["serial ring", f"{serial_seconds:.2f}", ""],
            ["batched fast path", f"{fast_seconds:.2f}", f"{speedup:.2f}x"],
        ],
    )
    floor = FAST_PATH_SPEEDUP[scale]
    assert speedup >= floor, (
        f"fast path {speedup:.2f}x < required {floor:.1f}x "
        f"(serial {serial_seconds:.2f}s, fast {fast_seconds:.2f}s)"
    )
