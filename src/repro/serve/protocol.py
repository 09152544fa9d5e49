"""The line-oriented JSON wire protocol of the query service.

One request per line, one response per line, UTF-8 JSON::

    -> {"id": 7, "op": "join", "left": "streets", "right": "rivers"}
    <- {"id": 7, "ok": true, "cached": false, "result": {...}}

    -> {"id": 8, "op": "nope"}
    <- {"id": 8, "ok": false,
        "error": {"code": "bad_request", "message": "unknown op 'nope'"}}

Requests carry an ``op`` discriminator plus op-specific parameters and
two optional envelope fields: ``id`` (opaque, echoed back verbatim) and
``timeout_ms`` (per-request deadline override).  Responses echo ``id``
and carry either ``result`` (with ``ok: true``) or ``error`` (with
``ok: false``).  Error codes are the stable ``code`` attributes of the
:mod:`repro.errors` hierarchy plus the protocol-level ``bad_request``;
see ``docs/serving.md`` for the full request/response catalogue.

Geometry travels as ``{"kind": "rect"|"polyline"|"polygon",
"coords": [...]}`` — flat ``[xl, yl, xu, yu]`` for rectangles,
``[[x, y], ...]`` vertex lists otherwise — mirroring the ``.geom``
persistence format of :mod:`repro.db.checkpoint`.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Union

from ..errors import (CatalogError, OverloadedError, QueryError,
                      QueryTimeout, ReproError)
from ..geometry.polygon import Polygon
from ..geometry.polyline import Polyline
from ..geometry.rect import Rect

#: Protocol-level error codes (superset of the repro.errors codes).
E_BAD_REQUEST = "bad_request"
E_CATALOG = CatalogError.code
E_QUERY = QueryError.code
E_TIMEOUT = QueryTimeout.code
E_OVERLOADED = OverloadedError.code
E_INTERNAL = ReproError.code


class ProtocolError(QueryError):
    """A request line that cannot be mapped onto an operation."""

    code = E_BAD_REQUEST


def error_code_for(exc: BaseException) -> str:
    """The wire error code of an exception (no string matching: the
    repro hierarchy carries its code; everything else is internal)."""
    if isinstance(exc, ReproError):
        return exc.code
    if isinstance(exc, TimeoutError):
        return E_TIMEOUT
    return E_INTERNAL


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------

def decode_request(line: Union[str, bytes]) -> Dict[str, Any]:
    """Parse one request line; raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not UTF-8: {exc}") from None
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not JSON: {exc.msg}") from None
    if not isinstance(request, dict):
        raise ProtocolError("request must be a JSON object")
    op = request.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError("request needs a string 'op' field")
    return request


def ok_response(request_id: Any, result: Any,
                **extra: Any) -> Dict[str, Any]:
    response: Dict[str, Any] = {"id": request_id, "ok": True,
                                "result": result}
    response.update(extra)
    return response


def error_response(request_id: Any, code: str,
                   message: str) -> Dict[str, Any]:
    return {"id": request_id, "ok": False,
            "error": {"code": code, "message": message}}


def encode_line(message: Dict[str, Any]) -> bytes:
    """One message (request or response) as a newline-terminated
    UTF-8 JSON line."""
    return (json.dumps(message, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


#: Both directions share one encoding.
encode_request = encode_response = encode_line


# ----------------------------------------------------------------------
# Geometry codecs
# ----------------------------------------------------------------------

Geometry = Union[Rect, Polyline, Polygon]


def geometry_to_json(geometry: Geometry) -> Dict[str, Any]:
    if isinstance(geometry, Rect):
        return {"kind": "rect", "coords": [geometry.xl, geometry.yl,
                                           geometry.xu, geometry.yu]}
    kind = "polygon" if isinstance(geometry, Polygon) else "polyline"
    return {"kind": kind,
            "coords": [[x, y] for x, y in geometry.vertices]}


def geometry_from_json(data: Any) -> Geometry:
    """Decode a geometry object; raises :class:`ProtocolError`."""
    if not isinstance(data, dict):
        raise ProtocolError("geometry must be a JSON object")
    kind = data.get("kind")
    coords = data.get("coords")
    if kind == "rect":
        if (not isinstance(coords, list) or len(coords) != 4
                or not all(_is_finite_number(c) for c in coords)):
            raise ProtocolError("rect needs 4 numeric coords")
    elif kind in ("polyline", "polygon"):
        if (not isinstance(coords, list)
                or any(not isinstance(p, (list, tuple)) or len(p) != 2
                       or not all(_is_finite_number(c) for c in p)
                       for p in coords)):
            raise ProtocolError(f"{kind} needs a list of [x, y] pairs")
    else:
        raise ProtocolError(f"unknown geometry kind {kind!r}")
    try:
        if kind == "rect":
            return Rect(*(float(c) for c in coords))
        points = [(float(x), float(y)) for x, y in coords]
        return Polygon(points) if kind == "polygon" else Polyline(points)
    except ValueError as exc:
        raise ProtocolError(f"bad {kind}: {exc}") from None


def is_number(value: Any) -> bool:
    """A JSON number (``true``/``false`` are not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite_number(value: Any) -> bool:
    return is_number(value) and math.isfinite(value)
