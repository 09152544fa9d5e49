"""Integration tests for the experiment runner at tiny scale.

TINY keeps tree building fast; the runner's memo lives in the process,
keyed by scale, so nothing here meets another test's trees.
"""

import pytest

from repro.bench import (build_tree, optimum_accesses, presort_cost,
                         run_join, runner)
from repro.bench import test_properties as tree_census
from repro.bench import test_trees as load_test_trees
from tests.conftest import make_rects

TINY = 0.004


def test_build_tree_variants():
    records = make_rects(300, seed=1)
    for variant in ("rstar", "guttman-quadratic", "guttman-linear",
                    "str", "hilbert"):
        tree = build_tree(records, 1024, variant)
        assert len(tree) == 300
    with pytest.raises(ValueError):
        build_tree(records, 1024, "btree")


def test_test_trees_sorted_and_consistent():
    tree_r, tree_s = load_test_trees("A", 1024, scale=TINY)
    assert len(tree_r) > 0 and len(tree_s) > 0
    for node in tree_r.iter_nodes():
        assert node.sorted_by_xl


def test_run_join_outcome_fields():
    outcome = run_join("A", 1024, 8.0, "sj4", scale=TINY)
    assert outcome.algorithm == "SJ4"
    assert outcome.disk_accesses > 0
    assert outcome.cmp_join > 0
    assert outcome.pairs >= 0
    assert outcome.comparisons == outcome.cmp_join + outcome.cmp_sort


def test_run_join_same_result_all_algorithms():
    pair_counts = {
        algo: run_join("A", 1024, 8.0, algo, scale=TINY).pairs
        for algo in ("sj1", "sj2", "sj3", "sj4", "sj5")
    }
    assert len(set(pair_counts.values())) == 1


def test_optimum_accesses_is_total_pages():
    props_r, props_s = tree_census("A", 1024, scale=TINY)
    assert optimum_accesses("A", 1024, scale=TINY) == \
        props_r.total_pages + props_s.total_pages


def test_presort_cost_positive():
    assert presort_cost("A", 1024, scale=TINY) > 0


def test_on_read_join_uses_unsorted_trees():
    outcome = run_join("A", 1024, 8.0, "sj4", scale=TINY,
                       sort_mode="on_read")
    assert outcome.cmp_sort > 0


def test_memo_is_order_independent():
    """SJ1 reads nodes in insertion order and a ``maintained`` sweep
    join sorts the nodes it visits in place, so the two must never
    meet on one tree object: SJ1's counters are the same before and
    after an SJ4 of the same (test, page size, scale)."""
    runner.forget()
    before = run_join("A", 1024, 8.0, "sj1", scale=TINY)
    run_join("A", 1024, 8.0, "sj4", scale=TINY)
    runner._JOINS.clear()           # recompute; keep the trees
    assert run_join("A", 1024, 8.0, "sj1", scale=TINY) == before
    natural = runner._tree("A", "r", 1024, TINY, "rstar",
                           presorted=False)
    assert natural is not load_test_trees("A", 1024, scale=TINY)[0]
    assert not all(node.sorted_by_xl for node in natural.iter_nodes())


def test_memo_runs_each_join_once():
    first = run_join("A", 1024, 8.0, "sj4", scale=TINY)
    assert run_join("A", 1024, 8, "SJ4", scale=TINY) is first
