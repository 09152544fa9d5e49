"""Request-field parsers: the one place request parameters are checked.

Every ``_op_*`` handler of the :class:`~repro.serve.service.
QueryService` and the :class:`~repro.shard.router.ShardRouter` reads
its parameters through these, so a malformed request gets the same
code and wording from either — and from the router before any fan-out.
A wrong *type* is a :class:`~repro.serve.protocol.ProtocolError`
(``bad_request``); a well-typed value no query can use (non-finite,
inverted, unknown name) is a :class:`~repro.errors.QueryError`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

from ..errors import QueryError
from ..geometry.predicates import SpatialPredicate
from ..geometry.rect import Rect
from ..plan.registry import algorithm_choices
from .protocol import ProtocolError, is_number


def string_field(request: Dict[str, Any], name: str) -> str:
    value = request.get(name)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"{name!r} must be a non-empty string "
                            f"({value!r})")
    return value


def number_field(request: Dict[str, Any], name: str) -> float:
    """A finite number (``json.loads`` parses ``NaN``/``Infinity``,
    which no distance computation can use)."""
    value = request.get(name)
    if not is_number(value):
        raise ProtocolError(f"{name!r} must be a number ({value!r})")
    if not math.isfinite(value):
        raise QueryError(f"{name!r} must be finite ({value!r})")
    return float(value)


def bool_field(request: Dict[str, Any], name: str,
               default: bool) -> bool:
    value = request.get(name, default)
    if not isinstance(value, bool):
        raise ProtocolError(f"{name!r} must be a boolean ({value!r})")
    return value


def oid_field(request: Dict[str, Any],
              optional: bool = False) -> Optional[int]:
    """The ``oid`` of a get/delete (required) or an insert (*optional*:
    absent means "assign one")."""
    oid = request.get("oid")
    if oid is None and optional:
        return None
    if not isinstance(oid, int) or isinstance(oid, bool):
        raise ProtocolError(f"oid must be an integer ({oid!r})")
    return oid


def k_field(request: Dict[str, Any]) -> int:
    k = request.get("k", 1)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ProtocolError(f"k must be a positive integer ({k!r})")
    return k


def window_field(request: Dict[str, Any]) -> Rect:
    window = request.get("window")
    if (not isinstance(window, list) or len(window) != 4
            or not all(is_number(c) for c in window)):
        raise ProtocolError("window must be [xl, yl, xu, yu] numbers")
    try:
        return Rect(*(float(c) for c in window))
    except ValueError as exc:
        raise QueryError(str(exc)) from None


def join_fields(request: Dict[str, Any], default_algorithm: str
                ) -> Tuple[str, float, SpatialPredicate]:
    """Validated ``(algorithm, buffer_kb, predicate)`` of a join or
    explain request.

    The algorithm name is checked against the
    :mod:`repro.plan.registry` choices (which include "auto") so the
    protocol accepts exactly what the CLI does.
    """
    algorithm = request.get("algorithm", default_algorithm)
    if not isinstance(algorithm, str) \
            or algorithm.lower() not in algorithm_choices():
        raise QueryError(
            f"algorithm must be one of "
            f"{', '.join(algorithm_choices())} ({algorithm!r})")
    buffer_kb = request.get("buffer_kb", 128.0)
    if not is_number(buffer_kb) or not 0 <= buffer_kb < math.inf:
        raise ProtocolError(f"buffer_kb must be a non-negative "
                            f"number ({buffer_kb!r})")
    try:
        predicate = SpatialPredicate(
            request.get("predicate", "intersects"))
    except ValueError as exc:
        raise QueryError(str(exc)) from None
    return algorithm, float(buffer_kb), predicate
