"""Human-readable rendering of an :class:`~repro.plan.ExecutionPlan`.

``repro join --explain`` and ``repro query --connect --join --explain``
print this table; ``repro report`` renders a condensed version from
the plan dict embedded in a trace's metadata
(:func:`repro.obs.report.render_report`).
"""

from __future__ import annotations

from .plan import ExecutionPlan


def render_plan(plan: ExecutionPlan) -> str:
    """The explain output: the resolved plan line, the knob summary,
    and (when the plan was scored) the candidate table."""
    lines = [f"plan: {plan.algorithm}"
             + (f" (requested {plan.requested})"
                if plan.requested != plan.algorithm else "")]
    lines.append(f"  {plan.reason}")
    spec = plan.spec
    knobs = (f"  height_policy={spec.height_policy} "
             f"sort_mode={spec.sort_mode} presort={spec.presort} "
             f"path_buffer={spec.use_path_buffer} "
             f"buffer_kb={spec.buffer_kb:g} workers={spec.workers}")
    if spec.timeout is not None:
        knobs += f" timeout={spec.timeout:g}s"
    lines.append(knobs)
    lines.append(f"  cache_key={plan.cache_key[:16]}  "
                 f"calibration={plan.calibration_source}")
    if plan.candidates:
        lines.append("")
        lines.append(f"  {'candidate':<16} {'est cmp':>12} "
                     f"{'est I/O':>10} {'cpu s':>10} {'io s':>10} "
                     f"{'total s':>10}")
        lines.append("  " + "-" * 72)
        for candidate in plan.candidates:
            marker = "*" if candidate.chosen else " "
            lines.append(
                f"  {marker}{candidate.algorithm:<15} "
                f"{candidate.est_comparisons:>12,.0f} "
                f"{candidate.est_disk_accesses:>10,.0f} "
                f"{candidate.est_cpu_s:>10.4f} "
                f"{candidate.est_io_s:>10.4f} "
                f"{candidate.est_total_s:>10.4f}")
        lines.append("  (* chosen; estimates from the Günther-style "
                     "cardinality model + the paper's time constants)")
        lines.append(f"  est output pairs {plan.est_output_pairs:,.0f}, "
                     f"repeat factor {plan.repeat_factor:.2f} "
                     f"reads/page")
    return "\n".join(lines)
