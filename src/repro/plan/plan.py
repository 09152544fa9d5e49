"""The frozen :class:`ExecutionPlan` — one fully-resolved join.

A plan is what the optimizer hands to the executors: the concrete
algorithm (never "auto"), the height policy, the presort decision, the
buffer layout, the worker count and partitioning oversubscription, the
deadline, and — for a scored plan — the candidate table the choice was
made from.  Every entry point (:func:`repro.core.planner.spatial_join`,
:func:`repro.core.parallel.parallel_spatial_join`,
:meth:`repro.db.SpatialDatabase.join`, the serve layer) executes a
plan; none of them re-derives algorithm lookup, presort, or worker
routing on its own anymore.

Plans are immutable, picklable, and JSON-serializable
(:meth:`ExecutionPlan.to_dict` / :meth:`ExecutionPlan.from_dict`), so
they travel into worker processes, JSONL traces, and serve-protocol
responses unchanged.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional, Tuple

from ..geometry.predicates import SpatialPredicate
from .registry import ALGORITHMS

#: Default tasks-per-worker the partitioner aims for (mirrors
#: :data:`repro.core.parallel.OVERSUBSCRIBE`; duplicated as a literal to
#: keep this module import-light).
DEFAULT_OVERSUBSCRIBE = 4


@dataclass(frozen=True)
class PlanCandidate:
    """One scored candidate of the cost-based choice.

    The estimates come from the Günther-style cardinality model
    (:mod:`repro.costmodel.estimate`) run through the paper's CPU/I-O
    time constants (Section 4.1), possibly recalibrated — see
    :class:`repro.plan.Calibration`.
    """

    algorithm: str
    est_comparisons: float
    est_disk_accesses: float
    est_cpu_s: float
    est_io_s: float
    chosen: bool = False

    @property
    def est_total_s(self) -> float:
        return self.est_cpu_s + self.est_io_s

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["est_total_s"] = self.est_total_s
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PlanCandidate":
        return cls(**{f.name: data[f.name] for f in fields(cls)})


#: Fields whose values determine the result and cost profile of the
#: execution — exactly these feed the cache key.  Deliberately absent:
#: ``timeout`` (a deadline does not change the answer), ``trace``
#: (observability never changes results), and the advisory fields
#: (candidates, reason, estimates).
_CACHE_KEY_FIELDS = (
    "algorithm", "height_policy", "sort_mode", "presort",
    "use_path_buffer", "buffer_kb", "predicate", "workers",
    "oversubscribe", "max_retries", "batch_timeout", "batch_retries",
)


@dataclass(frozen=True)
class ExecutionPlan:
    """A fully-resolved, immutable description of how one join runs.

    ``algorithm`` is always concrete; ``requested`` records what the
    caller asked for ("auto" or a fixed name).  ``candidates`` is empty
    for a plan that mirrors a fixed spec (nothing was scored) and holds
    the full scored table for an auto or ``--explain`` plan.
    """

    algorithm: str
    requested: str
    height_policy: str = "b"
    sort_mode: str = "maintained"
    presort: bool = False
    use_path_buffer: bool = True
    buffer_kb: float = 128.0
    predicate: str = "intersects"
    workers: int = 1
    oversubscribe: int = DEFAULT_OVERSUBSCRIBE
    max_retries: int = 2
    batch_timeout: Optional[float] = 60.0
    batch_retries: int = 1
    #: Wall-clock budget (seconds) the executors enforce cooperatively.
    timeout: Optional[float] = None
    trace: bool = False
    #: One-line account of how the algorithm was picked.
    reason: str = ""
    #: Estimated reads-per-distinct-page of the chosen algorithm — the
    #: Section 3 quantity behind the presort decision (SJ1 re-reads
    #: roughly 1.5 times per page; sorting pays off when pages are
    #: revisited).
    repeat_factor: float = 0.0
    est_output_pairs: float = 0.0
    candidates: Tuple[PlanCandidate, ...] = ()
    #: Where the cost constants came from ("paper", "obs").
    calibration_source: str = "paper"

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithm", str(self.algorithm).lower())
        object.__setattr__(self, "requested", str(self.requested).lower())
        if isinstance(self.predicate, SpatialPredicate):
            object.__setattr__(self, "predicate", self.predicate.value)
        else:
            object.__setattr__(
                self, "predicate",
                SpatialPredicate(self.predicate).value)
        if self.algorithm not in ALGORITHMS:
            known = ", ".join(sorted(ALGORITHMS))
            raise ValueError(
                f"plan algorithm must be concrete, got "
                f"{self.algorithm!r} (known: {known})")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1 ({self.workers})")
        if self.oversubscribe < 1:
            raise ValueError(
                f"oversubscribe must be >= 1 ({self.oversubscribe})")
        if not isinstance(self.candidates, tuple):
            object.__setattr__(self, "candidates", tuple(self.candidates))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def chosen_candidate(self) -> Optional[PlanCandidate]:
        """The scored row of the chosen algorithm (None when the plan
        mirrors a fixed spec and nothing was scored)."""
        for candidate in self.candidates:
            if candidate.chosen:
                return candidate
        return None

    @property
    def cache_key(self) -> str:
        """Digest over the execution-relevant fields: two joins of the
        same two trees with equal cache keys produce byte-identical
        results at the same cost profile."""
        payload = {name: getattr(self, name)
                   for name in _CACHE_KEY_FIELDS}
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha1(canonical.encode()).hexdigest()

    def to_spec(self):
        """The :class:`~repro.core.spec.JoinSpec` this plan executes
        as — always a concrete algorithm, with the planner's presort
        decision applied."""
        from ..core.spec import JoinSpec  # deferred: spec validates via us
        return JoinSpec(
            algorithm=self.algorithm,
            buffer_kb=self.buffer_kb,
            height_policy=self.height_policy,
            sort_mode=self.sort_mode,
            presort=self.presort,
            use_path_buffer=self.use_path_buffer,
            predicate=SpatialPredicate(self.predicate),
            workers=self.workers,
            max_retries=self.max_retries,
            batch_timeout=self.batch_timeout,
            batch_retries=self.batch_retries,
            timeout=self.timeout,
            trace=self.trace,
        )

    @classmethod
    def from_spec(cls, spec, *, requested: Optional[str] = None,
                  reason: str = "algorithm fixed by spec",
                  oversubscribe: int = DEFAULT_OVERSUBSCRIBE,
                  ) -> "ExecutionPlan":
        """A plan that mirrors a concrete-algorithm *spec* verbatim
        (the fast path: nothing is scored, nothing is decided)."""
        return cls(
            algorithm=spec.algorithm,
            requested=spec.algorithm if requested is None else requested,
            height_policy=spec.height_policy,
            sort_mode=spec.sort_mode,
            presort=spec.presort,
            use_path_buffer=spec.use_path_buffer,
            buffer_kb=spec.buffer_kb,
            predicate=spec.predicate,
            workers=spec.workers,
            oversubscribe=oversubscribe,
            max_retries=spec.max_retries,
            batch_timeout=spec.batch_timeout,
            batch_retries=spec.batch_retries,
            timeout=spec.timeout,
            trace=spec.trace,
            reason=reason,
        )

    # ------------------------------------------------------------------
    # Serialization (traces, serve protocol)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; round-trips through :meth:`from_dict`."""
        data = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "candidates"}
        data["candidates"] = [c.to_dict() for c in self.candidates]
        data["cache_key"] = self.cache_key
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExecutionPlan":
        kwargs = {f.name: data[f.name] for f in fields(cls)
                  if f.name != "candidates" and f.name in data}
        kwargs["candidates"] = tuple(
            PlanCandidate.from_dict(c) for c in data.get("candidates", ()))
        return cls(**kwargs)
