"""Batched exponentiation for the PIA protocols.

:meth:`repro.privacy.psop.PSOPProtocol.run` restructures its ring into
one whole-dataset batch; the helpers here run that batch, inline or
fanned out through :func:`repro.engine.parallel.map_jobs` over one
:class:`~repro.engine.pool.PersistentPool` per protocol run (or per
:meth:`repro.privacy.pia.PIAAuditor.audit` sweep).  Chunking is fixed
(never a function of the worker count) and merging is positional, so
any worker count — including zero — produces the same results.

This module imports none of ``psop`` and ``pia``; they import it.
"""

from __future__ import annotations

import contextlib
from typing import Optional, Sequence

from repro.crypto.fastexp import batch_pow, chunked, pow_chunk
from repro.engine.parallel import map_jobs, resolve_workers
from repro.engine.pool import PersistentPool

#: Bases per exponentiation chunk.  Fixed so the block plan — and hence
#: the merged output — never depends on the worker count.
POW_CHUNK = 192


def _open_pool(n_workers: int):
    """Context manager for one run's fan-out: a pool, or ``None`` inline.

    The pool spawns nothing until a stage actually fans out, and the
    ``with`` block brings its processes home.
    """
    workers = resolve_workers(n_workers)
    return PersistentPool(workers) if workers > 1 else contextlib.nullcontext()


def _batched_pows(
    bases: Sequence[int],
    exponent: int,
    modulus: int,
    pool: Optional[PersistentPool],
) -> list[int]:
    """``pow(b, exponent, modulus)`` for every base, fanning out chunks.

    Each distinct base is exponentiated once — inline via
    :func:`repro.crypto.fastexp.batch_pow`, or by extracting the
    distinct bases before chunking so workers never repeat work.
    """
    if pool is None or len(bases) <= POW_CHUNK:
        return batch_pow(bases, exponent, modulus)
    targets = list(dict.fromkeys(bases))
    jobs = [
        (chunk, exponent, modulus) for chunk in chunked(targets, POW_CHUNK)
    ]
    flat: list[int] = []
    for chunk_result in map_jobs(pow_chunk, jobs, pool):
        flat.extend(chunk_result)
    memo = dict(zip(targets, flat))
    return [memo[b] for b in bases]
