"""``indaas serve`` — the multi-tenant audit service.

Layers, bottom-up:

* :mod:`repro.service.admission` — bounded per-tenant fair admission
  (reject with 429 + ``Retry-After``, never queue unboundedly).
* :mod:`repro.service.jobs` — :class:`JobManager`: worker threads over
  one shared engine and its result cache, cooperative cancellation,
  canonical event logs, and the two-level content-addressed report
  store.
* :mod:`repro.service.router` — transport-independent request routing
  to canonical :mod:`repro.api` documents.
* :mod:`repro.service.server` — the stdlib HTTP/1.1 front end, one
  thread per connection, plus :class:`ServiceThread` for in-process
  embedding.
* :mod:`repro.service.watch` — :class:`WatchService`, the
  ``indaas watch`` file-polling loop emitting the same events.

The determinism contract extends over the wire: a report served by the
HTTP service is byte-identical to the one :func:`repro.audit` returns
for the same request, whatever the worker count on either side.
"""

from repro.service.admission import AdmissionQueue
from repro.service.jobs import Job, JobManager
from repro.service.router import Response, Router
from repro.service.server import AuditServer, ServiceThread
from repro.service.stores import TenantStores
from repro.service.watch import WatchService

__all__ = [
    "AdmissionQueue",
    "AuditServer",
    "Job",
    "JobManager",
    "Response",
    "Router",
    "ServiceThread",
    "TenantStores",
    "WatchService",
]
