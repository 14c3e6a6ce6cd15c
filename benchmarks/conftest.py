"""Shared benchmark infrastructure.

Every bench module reproduces one table or figure of the paper.  Since
the original testbed was a 40-node Xeon cluster and ours is a single
machine, absolute numbers differ; each bench therefore

* prints a paper-vs-measured series (the *shape* must match), and
* asserts the qualitative claims (who wins, by how much, crossovers).

Scale is controlled with ``REPRO_BENCH_SCALE``:

* ``smoke``  — seconds-scale parameters for CI; shapes still asserted;
* ``quick``  (default) — minutes-scale parameters;
* ``paper``  — parameters closer to the paper (hours-scale in places).

Series are echoed to the live terminal (bypassing capture, so they land
in ``bench_output.txt``) and appended to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick")
    if scale not in ("smoke", "quick", "paper"):
        raise ValueError(
            f"REPRO_BENCH_SCALE must be smoke|quick|paper, got {scale}"
        )
    return scale


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


class SeriesEmitter:
    """Writes result tables to the terminal and a per-module result file."""

    def __init__(self, capmanager, module: str) -> None:
        self._capmanager = capmanager
        RESULTS_DIR.mkdir(exist_ok=True)
        self._path = RESULTS_DIR / f"{module}.txt"

    def __call__(self, *lines: str) -> None:
        text = "\n".join(lines)
        with self._capmanager.global_and_fixture_disabled():
            print("\n" + text)
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(text + "\n")

    def table(self, title: str, header: list[str], rows: list[list]) -> None:
        widths = [
            max(len(str(header[i])), *(len(str(r[i])) for r in rows))
            for i in range(len(header))
        ]
        lines = [f"== {title} =="]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            lines.append(
                "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
            )
        self(*lines)


@pytest.fixture
def emit(request) -> SeriesEmitter:
    capmanager = request.config.pluginmanager.getplugin("capturemanager")
    return SeriesEmitter(capmanager, request.module.__name__)
