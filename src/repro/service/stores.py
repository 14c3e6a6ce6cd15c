"""Per-tenant durable dependency stores for the audit service.

Each tenant of ``indaas serve`` owns one DepDB.  With ``--state-dir``
the store is a SQLite database under ``<state-dir>/depdb/`` — it
survives restarts alongside the PR-8 job journal, so a tenant ingests
its dependency data once and audits it forever after with
``depdb="@store"`` requests.  Without a state dir each store is an
in-memory DepDB (same semantics, process lifetime).

Ingest accepts either persistence format the DepDB speaks: Table-1
line dumps or the JSON document of :meth:`~repro.depdb.DepDB.to_json`
(auto-detected — a JSON payload starts with ``{``).
"""

from __future__ import annotations

import hashlib
import re
import threading
from pathlib import Path
from typing import Optional, Union

from repro.depdb import DepDB, xmlformat
from repro.errors import DependencyDataError, ServiceError

__all__ = ["TenantStores", "tenant_store_filename"]

_SAFE_RE = re.compile(r"[^A-Za-z0-9._-]")


def tenant_store_filename(tenant: str) -> str:
    """Stable, collision-free filename of one tenant's store.

    Unsafe characters are replaced; a digest suffix keeps two tenants
    whose names sanitise identically (``a/b`` vs ``a_b``) apart.
    """
    safe = _SAFE_RE.sub("_", tenant)
    if not safe or safe != tenant:
        digest = hashlib.sha256(tenant.encode("utf-8")).hexdigest()[:8]
        safe = f"{safe or 'tenant'}-{digest}"
    return f"{safe}.sqlite"


class TenantStores:
    """Lazily-opened map of tenant name → durable DepDB."""

    def __init__(self, state_dir: Optional[Union[str, Path]] = None) -> None:
        self.state_dir = None if state_dir is None else Path(state_dir)
        self._lock = threading.Lock()
        self._stores: dict[str, DepDB] = {}
        self._closed = False

    @property
    def durable(self) -> bool:
        return self.state_dir is not None

    def get(self, tenant: str) -> DepDB:
        """The tenant's store, opened (and created) on first use."""
        with self._lock:
            if self._closed:
                raise ServiceError(
                    "tenant stores are shut down", status=503,
                    code="shutting-down",
                )
            store = self._stores.get(tenant)
            if store is None:
                if self.state_dir is None:
                    store = DepDB()
                else:
                    directory = self.state_dir / "depdb"
                    directory.mkdir(parents=True, exist_ok=True)
                    store = DepDB.sqlite(
                        directory / tenant_store_filename(tenant)
                    )
                self._stores[tenant] = store
            return store

    def ingest(self, tenant: str, text: str) -> dict:
        """Ingest a dependency payload into the tenant's store.

        Returns an accounting dict (new records, totals, content hash).
        """
        if not isinstance(text, str) or not text.strip():
            raise ServiceError(
                "empty dependency payload", status=400, code="bad-request"
            )
        store = self.get(tenant)
        try:
            if text.lstrip().startswith("{"):
                added = store.ingest(
                    DepDB.from_json(text).iter_records()
                )
            else:
                added = store.ingest(xmlformat.iter_records(text))
        except DependencyDataError as exc:
            raise ServiceError(
                f"invalid dependency payload: {exc}",
                status=400,
                code="bad-request",
            ) from exc
        return {
            "tenant": tenant,
            "added": added,
            "counts": store.counts(),
            "total": len(store),
            "content_hash": store.content_hash(),
        }

    def stats(self, tenant: str) -> dict:
        """Current shape of the tenant's store (creates it if absent)."""
        store = self.get(tenant)
        last = store.last_snapshot()
        return {
            "tenant": tenant,
            "durable": self.durable,
            "counts": store.counts(),
            "total": len(store),
            "content_hash": store.content_hash(),
            "snapshots": len(store.snapshots()),
            "last_snapshot": None if last is None else last.to_dict(),
        }

    def tenants(self) -> list[str]:
        """Tenants with an open store this process has touched."""
        with self._lock:
            return sorted(self._stores)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            stores, self._stores = self._stores, {}
        for store in stores.values():
            store.close()
