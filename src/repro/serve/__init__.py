"""repro.serve — the concurrent spatial query service.

Everything below the library boundary runs one query at a time; this
package is the long-lived serving layer on top of
:class:`~repro.db.SpatialDatabase`: a multi-client TCP server (plus an
in-process client) exposing join, window, and kNN queries and online
insert/delete through a line-oriented JSON protocol, with

* a worker-pool scheduler with **admission control** — bounded queue,
  per-request deadlines, load shedding
  (:mod:`repro.serve.scheduler`),
* a shared **result cache** — LRU in entries and bytes, keyed by
  normalized query + relation epochs so mutations invalidate instantly
  (:mod:`repro.serve.cache`),
* per-request **observability** — the ``serve.request`` aggregate
  timer and ``serve.*`` metrics in the same registry ``repro report``
  renders (:mod:`repro.obs`).

Quickstart::

    from repro.db import SpatialDatabase
    from repro.serve import QueryService, SpatialQueryServer

    db = SpatialDatabase.open("catalog/")
    service = QueryService(db, workers=4, queue_depth=64)
    with SpatialQueryServer(service, port=7421) as server:
        host, port = server.address
        ...  # clients connect; see docs/serving.md

Everything is stdlib-only; see ``docs/serving.md`` for the protocol.
"""

from .cache import ResultCache, normalized_key
from .pipeline import RequestPipeline, latency_section
from .protocol import (E_BAD_REQUEST, E_CATALOG, E_INTERNAL,
                       E_OVERLOADED, E_QUERY, E_TIMEOUT, ProtocolError,
                       decode_request, encode_line, error_code_for,
                       error_response, geometry_from_json,
                       geometry_to_json, ok_response)
from .scheduler import RequestScheduler
from .server import (ServiceClient, SpatialQueryServer, TCPServiceClient,
                     decode_response)
from .service import QueryService, ReadWriteLock

__all__ = [
    "E_BAD_REQUEST",
    "E_CATALOG",
    "E_INTERNAL",
    "E_OVERLOADED",
    "E_QUERY",
    "E_TIMEOUT",
    "ProtocolError",
    "QueryService",
    "ReadWriteLock",
    "RequestPipeline",
    "RequestScheduler",
    "ResultCache",
    "ServiceClient",
    "SpatialQueryServer",
    "TCPServiceClient",
    "decode_request",
    "decode_response",
    "encode_line",
    "error_code_for",
    "error_response",
    "geometry_from_json",
    "geometry_to_json",
    "latency_section",
    "normalized_key",
    "ok_response",
]
