"""Every batch of a parallel join runs on a fresh copy of the trees.

Lazy ``maintained`` sorts reorder the nodes of the copy a pool worker
holds.  If one worker ran two batches, the second would find nodes the
first had sorted and be charged fewer presort comparisons, so the
counters of a ``workers=2`` join would depend on which process took
which batch.  Here one pool process is offered every batch, and the
join must charge exactly what it charges when each batch has its own
process.
"""

import multiprocessing

import pytest

from repro.core import JoinSpec, spatial_join
from tests.conftest import build_rstar, make_rects


class _OneProcessContext:
    """A multiprocessing context whose pools get one worker process."""

    def __init__(self, context):
        self._context = context

    def Pool(self, processes=None, **kwargs):  # noqa: N802 - mp API name
        return self._context.Pool(processes=1, **kwargs)

    def __getattr__(self, name):
        return getattr(self._context, name)


def _stats(algorithm):
    tree_r = build_rstar(make_rects(700, seed=7, max_extent=10.0), 1024)
    tree_s = build_rstar(make_rects(700, seed=8, max_extent=10.0), 1024)
    result = spatial_join(tree_r, tree_s, spec=JoinSpec(
        algorithm=algorithm, buffer_kb=16, workers=2))
    assert len(result.batch_sizes) == 2
    return result.stats.to_dict()


@pytest.mark.parametrize("algorithm", ["sj3", "sj4"])
def test_one_process_for_every_batch_charges_the_same(monkeypatch,
                                                      algorithm):
    spread = _stats(algorithm)
    assert spread["presort_comparisons"] > 0
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda *args: _OneProcessContext(
                            get_context(*args)))
    assert _stats(algorithm) == spread
