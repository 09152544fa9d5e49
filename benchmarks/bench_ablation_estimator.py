"""Ablation — analytical cost model vs measured counters.

Timed operation: one full prediction on the timing trees plus the
measured join it is checked against (so the row carries real join
counters next to the predicted ones).
"""

from conftest import show
from emit import timed

from repro.bench.ablations import ablation_estimator
from repro.core import JoinSpec, spatial_join
from repro.costmodel.estimate import JoinCardinalityEstimator


def test_ablation_estimator(benchmark, timing_trees):
    report = ablation_estimator()
    show(report)
    data = report.data

    # The near-uniform region grid (test E) is predicted well ...
    assert 0.5 <= data["E"]["ratio"] <= 2.0
    # ... while the clustered line maps are under-estimated, which is
    # precisely the paper's point about analytical models.
    for test in ("A", "B", "D"):
        assert data[test]["ratio"] < 0.6

    tree_r, tree_s = timing_trees

    def run():
        prediction = JoinCardinalityEstimator(tree_r, tree_s).predict()
        measured = spatial_join(tree_r, tree_s,
                                spec=JoinSpec(algorithm="sj1",
                                              buffer_kb=128))
        return {"pairs": measured.stats.pairs_output,
                "comparisons": measured.stats.comparisons.total,
                "disk_accesses": measured.stats.disk_accesses,
                "predicted_pairs": round(prediction.output_pairs, 1)}

    timed(benchmark, run, "ablation_estimator")
