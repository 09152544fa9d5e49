"""The frozen :class:`ExecutionPlan` — one fully-resolved join.

A plan is what the optimizer hands to the executors: the resolved
:class:`~repro.core.spec.JoinSpec` (concrete algorithm — never "auto"
— with the presort decision applied; every other option exactly as the
caller wrote it) plus the record of the decision — what was requested,
why this algorithm, and, for a scored plan, the candidate table the
choice was made from.  A join's options are spelled once, on the spec;
the executors read ``plan.spec``.

Plans are immutable, picklable, and JSON-serializable
(:meth:`ExecutionPlan.to_dict` / :meth:`ExecutionPlan.from_dict`), so
they travel into JSONL traces and serve-protocol responses unchanged.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional, Tuple

from ..core.spec import JoinSpec
from .registry import AUTO


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


def _spec_dict(spec: JoinSpec) -> Dict[str, Any]:
    """*spec* as flat JSON-ready data: every field by name, the
    predicate as its string value."""
    data = asdict(spec)
    data["predicate"] = spec.predicate.value
    return data


@dataclass(frozen=True)
class ExecutionPlan:
    """A fully-resolved, immutable description of how one join runs.

    ``spec`` is the :class:`~repro.core.spec.JoinSpec` the executors
    run — always a concrete algorithm, with the planner's presort
    decision applied; everything else is the decision record.
    ``requested`` is what the caller asked for ("auto" or a fixed
    name).  ``candidates`` is empty for a plan that carries a fixed
    spec verbatim (nothing was scored) and holds the full scored table
    for an auto or ``--explain`` plan.
    """

    spec: JoinSpec
    requested: str
    #: One-line account of how the algorithm was picked.
    reason: str = ""
    #: Estimated reads-per-distinct-page of the chosen algorithm — the
    #: Section 3 quantity behind the presort decision (SJ1 re-reads
    #: roughly 1.5 times per page; sorting pays off when pages are
    #: revisited).
    repeat_factor: float = 0.0
    est_output_pairs: float = 0.0
    candidates: Tuple[PlanCandidate, ...] = ()
    #: Where the cost constants came from ("paper" for the default).
    calibration_source: str = "paper"

    def __post_init__(self) -> None:
        if self.spec.algorithm == AUTO:
            raise ValueError(
                f"plan algorithm must be concrete, got {AUTO!r}")
        object.__setattr__(self, "requested", str(self.requested).lower())
        if not isinstance(self.candidates, tuple):
            object.__setattr__(self, "candidates", tuple(self.candidates))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def algorithm(self) -> str:
        """The decision itself: the concrete algorithm that runs."""
        return self.spec.algorithm

    @property
    def chosen_candidate(self) -> Optional[PlanCandidate]:
        """The scored row of the chosen algorithm (None when the plan
        carries a fixed spec and nothing was scored)."""
        for candidate in self.candidates:
            if candidate.chosen:
                return candidate
        return None

    @property
    def cache_key(self) -> str:
        """Digest over the spec minus ``timeout`` (a deadline does not
        change the answer) and ``trace`` (observability never changes
        results): two joins of the same two trees with equal cache keys
        produce byte-identical results at the same cost profile.  The
        decision record (candidates, reason, estimates) is advisory and
        never enters."""
        payload = _spec_dict(self.spec)
        payload.update(timeout=None, trace=False)
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha1(canonical.encode()).hexdigest()

    # ------------------------------------------------------------------
    # Serialization (traces, serve protocol)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready dict — the spec's fields next to the
        decision record; round-trips through :meth:`from_dict`."""
        data = _spec_dict(self.spec)
        data.update((f.name, getattr(self, f.name)) for f in fields(self)
                    if f.name not in ("spec", "candidates"))
        data["candidates"] = [c.to_dict() for c in self.candidates]
        data["cache_key"] = self.cache_key
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExecutionPlan":
        """Inverse of :meth:`to_dict`; keys that name neither a spec
        field nor a plan field are ignored."""
        spec = JoinSpec(**{f.name: data[f.name] for f in fields(JoinSpec)
                           if f.name in data})
        kwargs = {f.name: data[f.name] for f in fields(cls)
                  if f.name not in ("spec", "candidates")
                  and f.name in data}
        kwargs["candidates"] = tuple(
            PlanCandidate.from_dict(c) for c in data.get("candidates", ()))
        return cls(spec=spec, **kwargs)
