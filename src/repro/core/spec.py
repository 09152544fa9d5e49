"""The unified join configuration: :class:`JoinSpec`.

Every join entry point (:func:`repro.core.planner.spatial_join`,
:func:`~repro.core.planner.spatial_join_stream`,
:meth:`repro.db.SpatialDatabase.join`, the CLI) takes one ``JoinSpec``:
the single, frozen description of *how* a join runs — algorithm,
buffer, sorting regime, height policy, predicate, and the number of
parallel workers — with one validation/normalization path shared by
all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..geometry.predicates import SpatialPredicate

_SORT_MODES = ("maintained", "on_read")
_HEIGHT_POLICIES = ("a", "b", "c")


@dataclass(frozen=True)
class JoinSpec:
    """Complete configuration of one spatial join.

    Immutable and picklable, so a spec can be shipped to worker
    processes, stored alongside benchmark results, or reused across
    joins.  Use :func:`dataclasses.replace` to derive variants.

    Parameters
    ----------
    algorithm:
        "sj1" ... "sj5" plus the ablation variants registered in
        :data:`repro.plan.ALGORITHMS` (case-insensitive), or "auto" —
        deferring the choice to the cost-based planner
        (:func:`repro.plan.plan_join`).
    buffer_kb:
        LRU buffer size in KByte shared by both trees.  A parallel run
        splits this budget evenly over the workers so the aggregate
        buffer memory matches the serial run.
    height_policy:
        "a", "b" or "c" — Section 4.4's window-query policy for trees
        of different height.
    sort_mode:
        "maintained" or "on_read" — Section 4.2's two sorting regimes.
    presort:
        Eagerly sort all nodes before the join (only meaningful with
        ``sort_mode="maintained"``).
    use_path_buffer:
        Disable only for ablation studies.
    predicate:
        Join condition on the data MBRs; accepts a
        :class:`~repro.geometry.predicates.SpatialPredicate` or its
        string value ("intersects", "contains", "within").
    workers:
        Number of OS processes executing the join.  1 (default) is the
        classic serial engine; >= 2 routes through the partitioned
        parallel executor (:mod:`repro.core.parallel`).
    max_retries:
        Transient read faults the buffer manager tolerates per page
        fetch before escalating (retry-with-exponential-backoff; the
        backoff is counted into ``stats.io.backoff_ticks``, never
        slept).  Only observable when a fault-injecting store is in
        play — a healthy store never raises transients.
    batch_timeout:
        Seconds a parallel worker may spend on one batch before the
        coordinator declares it hung/crashed and moves down the
        recovery ladder (retry, then serial degradation).  ``None``
        disables the timeout — and with it crash detection.
    batch_retries:
        Crashed/timed-out/fault-exhausted batches are re-dispatched to
        a fresh worker this many times before the coordinator runs the
        batch serially itself (graceful degradation).
    timeout:
        Wall-clock budget in seconds for this join, or ``None`` (the
        default) for no limit.  Enforced cooperatively: the join
        context checks the deadline on every counted page fetch and
        raises :class:`repro.errors.QueryTimeout` when it has passed.
        In a parallel run every worker enforces the budget relative to
        its own start.  The serving layer
        (:mod:`repro.serve`) uses this to cancel joins whose request
        deadline expired mid-flight.
    trace:
        Record spans and metrics (:mod:`repro.obs`) during the join.
        Entry points that accept an ``obs=`` handle treat an enabled
        handle as ``trace=True``; the field itself is what ships the
        decision into parallel worker processes, whose observations
        are serialized back and merged by the coordinator.  Tracing
        never changes results or counters — it only adds wall-clock
        observations on the side.
    """

    algorithm: str = "sj4"
    buffer_kb: float = 128.0
    height_policy: str = "b"
    sort_mode: str = "maintained"
    presort: bool = False
    use_path_buffer: bool = True
    predicate: Union[SpatialPredicate, str] = SpatialPredicate.INTERSECTS
    workers: int = 1
    max_retries: int = 2
    batch_timeout: Optional[float] = 60.0
    batch_retries: int = 1
    timeout: Optional[float] = None
    trace: bool = False

    def __post_init__(self) -> None:
        # Normalize before validating so "SJ4" or predicate strings from
        # the CLI land in canonical form.
        object.__setattr__(self, "algorithm", str(self.algorithm).lower())
        if not isinstance(self.predicate, SpatialPredicate):
            object.__setattr__(self, "predicate",
                               SpatialPredicate(self.predicate))
        # One value, one spelling: 128 and 128.0 are the same budget
        # and must serialize (and digest) identically.
        for name in ("buffer_kb", "timeout", "batch_timeout"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, float(value))
        # Deferred: the plan package's optimizer imports us back.
        from ..plan.registry import validate_algorithm
        object.__setattr__(self, "algorithm",
                           validate_algorithm(self.algorithm))
        if self.height_policy not in _HEIGHT_POLICIES:
            raise ValueError(
                f"unknown height policy: {self.height_policy!r}")
        if self.sort_mode not in _SORT_MODES:
            raise ValueError(f"unknown sort mode: {self.sort_mode!r}")
        if self.buffer_kb < 0:
            raise ValueError(f"buffer_kb cannot be negative "
                             f"({self.buffer_kb})")
        if not isinstance(self.workers, int) or isinstance(self.workers,
                                                           bool):
            raise TypeError(f"workers must be an int, got "
                            f"{self.workers!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1 ({self.workers})")
        for name in ("max_retries", "batch_retries"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} cannot be negative ({value})")
        if self.batch_timeout is not None and self.batch_timeout <= 0:
            raise ValueError(
                f"batch_timeout must be positive or None "
                f"({self.batch_timeout})")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(
                f"timeout must be positive or None ({self.timeout})")
        if not isinstance(self.trace, bool):
            raise TypeError(f"trace must be a bool, got {self.trace!r}")


def resolve_spec(spec: Optional[JoinSpec] = None) -> JoinSpec:
    """The spec a join runs under: *spec* itself, or the defaults for
    ``None``.  Anything else — a bare algorithm name, a dict of options
    — is rejected."""
    if spec is None:
        return JoinSpec()
    if not isinstance(spec, JoinSpec):
        raise TypeError(f"join options must be passed as "
                        f"spec=JoinSpec(...), got {spec!r}")
    return spec
