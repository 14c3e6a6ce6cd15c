"""The schema envelope every serialised document carries.

A leaf beside :mod:`repro.errors`: ``to_dict()`` methods anywhere in the
package wrap their payload here, and :mod:`repro.api` — the home of the
documents themselves — re-exports both names.
"""

from __future__ import annotations

__all__ = ["SCHEMA_VERSION", "envelope"]

#: Version of every JSON document this package emits.
SCHEMA_VERSION = 1


def envelope(kind: str, payload: dict) -> dict:
    """Wrap ``payload`` in the canonical schema envelope."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **payload}
