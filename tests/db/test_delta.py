"""Tests for the delta index: absorption, freezing, visibility."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.delta import DeltaIndex, FrozenDelta
from repro.geometry import Polyline, Rect


def rect(x, y, w=4.0, h=4.0):
    return Rect(x, y, x + w, y + h)


class TestDeltaIndex:
    def test_insert_then_delete_cancels(self):
        delta = DeltaIndex()
        delta.insert(7, rect(0, 0))
        delta.delete(7)
        frozen = delta.freeze()
        assert 7 not in frozen.added
        assert 7 in frozen.deleted
        assert 7 in frozen.hidden

    def test_delete_then_reinsert_wins(self):
        delta = DeltaIndex()
        delta.delete(3)
        delta.insert(3, rect(5, 5))
        frozen = delta.freeze()
        assert frozen.added[3] == rect(5, 5)
        # The oid stays recorded as deleted (suppresses any base row),
        # but the added copy is authoritative.
        assert 3 in frozen.hidden

    def test_len_counts_operations(self):
        delta = DeltaIndex()
        assert len(delta) == 0 and not delta
        delta.insert(1, rect(0, 0))
        delta.delete(2)
        assert len(delta) == 2 and delta

    def test_empty_freeze_is_the_shared_singleton(self):
        assert DeltaIndex().freeze() is FrozenDelta.EMPTY
        assert not FrozenDelta.EMPTY

    def test_freeze_is_a_copy(self):
        delta = DeltaIndex()
        delta.insert(1, rect(0, 0))
        frozen = delta.freeze()
        delta.insert(2, rect(9, 9))
        delta.delete(1)
        assert set(frozen.added) == {1}
        assert not frozen.deleted

    def test_clear(self):
        delta = DeltaIndex()
        delta.insert(1, rect(0, 0))
        delta.delete(2)
        delta.clear()
        assert not delta


class TestFrozenDelta:
    def test_rows_are_xlo_sorted(self):
        delta = DeltaIndex()
        for oid, x in ((1, 30.0), (2, 10.0), (3, 20.0)):
            delta.insert(oid, rect(x, 0))
        frozen = delta.freeze()
        xls = [mbr.xl for _, mbr, _ in frozen.rows]
        assert xls == sorted(xls)
        assert frozen.order == (2, 3, 1)
        assert list(frozen.iter_added()) == list(frozen.rows)

    def test_added_in_matches_brute_force(self):
        rng = random.Random(5)
        delta = DeltaIndex()
        for oid in range(200):
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            # Mixed widths so the bisect lower bound (xl >= window.xl
            # - max_width) is actually load-bearing.
            delta.insert(oid, rect(x, y, rng.uniform(0.1, 25),
                                   rng.uniform(0.1, 25)))
        frozen = delta.freeze()
        for _ in range(50):
            x, y = rng.uniform(-10, 100), rng.uniform(-10, 100)
            window = rect(x, y, 18, 18)
            expected = sorted(oid for oid, g in frozen.added.items()
                              if g.intersects(window))
            assert sorted(frozen.added_in(window)) == expected

    def test_added_in_empty_delta(self):
        assert FrozenDelta.EMPTY.added_in(rect(0, 0, 100, 100)) == []

    def test_combine_identity(self):
        delta = DeltaIndex()
        delta.insert(1, rect(0, 0))
        frozen = delta.freeze()
        assert FrozenDelta.EMPTY.combine(frozen) is frozen
        assert frozen.combine(FrozenDelta.EMPTY) is frozen

    def test_combine_newer_delete_cancels_older_add(self):
        older = FrozenDelta({1: rect(0, 0), 2: rect(5, 5)}, ())
        newer = FrozenDelta({}, (1,))
        merged = older.combine(newer)
        assert set(merged.added) == {2}
        assert 1 in merged.deleted

    def test_combine_newer_add_wins(self):
        older = FrozenDelta({1: rect(0, 0)}, (9,))
        newer = FrozenDelta({1: rect(7, 7)}, ())
        merged = older.combine(newer)
        assert merged.added[1] == rect(7, 7)
        # Older deletions keep suppressing base rows.
        assert 9 in merged.deleted

    def test_combine_equals_sequential_application(self):
        rng = random.Random(11)
        base = {oid: rect(rng.uniform(0, 50), rng.uniform(0, 50))
                for oid in range(30)}

        def apply(delta, table):
            table = {oid: g for oid, g in table.items()
                     if oid not in delta.hidden}
            table.update(delta.added)
            return table

        older = FrozenDelta({30: rect(1, 1), 31: rect(2, 2)},
                            (0, 1, 30))
        newer = FrozenDelta({30: rect(9, 9), 2: rect(3, 3)}, (31, 4))
        sequential = apply(newer, apply(older, base))
        combined = apply(older.combine(newer), base)
        assert sequential == combined

    def test_frozen_delta_is_immutable_shaped(self):
        frozen = FrozenDelta({1: rect(0, 0)}, (2,))
        with pytest.raises((AttributeError, TypeError)):
            frozen.deleted.add(3)


# ----------------------------------------------------------------------
# Parity: the incrementally ordered delta against a from-scratch sort
# ----------------------------------------------------------------------

#: Few oids and few distinct x positions, so re-inserts and equal-xlo
#: ties (ordered by oid) are common.
_geometry = st.builds(
    lambda kind, x, y, w: (rect(x, y, w, 3.0) if kind == "rect"
                           else Polyline([(x, y), (x + w, y + 2.0)])),
    st.sampled_from(["rect", "polyline"]), st.integers(0, 12),
    st.integers(0, 12), st.sampled_from([0.0, 1.0, 6.0, 30.0]))

_delta_ops = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 9), _geometry),
    st.tuples(st.just("delete"), st.integers(0, 9)),
    st.tuples(st.just("reinsert"), st.integers(0, 9), _geometry),
    st.tuples(st.just("clear"))), max_size=40)

_windows = st.lists(st.builds(rect, st.integers(-10, 40),
                              st.integers(-10, 20),
                              st.sampled_from([0.0, 2.0, 9.0, 50.0]),
                              st.sampled_from([0.0, 2.0, 9.0, 50.0])),
                    min_size=1, max_size=6)


def _absorb(ops):
    delta = DeltaIndex()
    for op in ops:
        if op[0] == "insert":
            delta.insert(op[1], op[2])
        elif op[0] == "delete":
            delta.delete(op[1])
        elif op[0] == "reinsert":
            delta.delete(op[1])
            delta.insert(op[1], op[2])
        else:
            delta.clear()
    return delta


def _assert_same(frozen, scratch, windows):
    assert frozen.rows == scratch.rows
    assert frozen.order == scratch.order
    assert frozen.added == scratch.added
    assert frozen.deleted == scratch.deleted
    assert frozen.hidden == scratch.hidden
    assert frozen.columns.same_rows(scratch.columns)
    for window in windows:
        assert frozen.added_in(window) == scratch.added_in(window)


@settings(max_examples=150, deadline=None)
@given(ops=_delta_ops, windows=_windows)
def test_freeze_equals_a_from_scratch_delta(ops, windows):
    delta = _absorb(ops)
    _assert_same(delta.freeze(),
                 FrozenDelta(delta.added, delta.deleted), windows)


@settings(max_examples=150, deadline=None)
@given(older=_delta_ops, newer=_delta_ops, windows=_windows)
def test_combine_equals_a_from_scratch_delta(older, newer, windows):
    older, newer = _absorb(older).freeze(), _absorb(newer).freeze()
    added = {oid: g for oid, g in older.added.items()
             if oid not in newer.hidden}
    added.update(newer.added)
    _assert_same(older.combine(newer),
                 FrozenDelta(added, older.deleted | newer.deleted),
                 windows)
