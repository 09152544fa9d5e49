"""Property tests for :func:`counted_xlo_order`, the one counted sort of
Section 4.2.

The reference is the entry sort every join used before: ``Entry``
objects sorted in place under a key whose ``__lt__`` counts.  The
primitive must give the same stable order and the same comparison
count for every key sequence, whatever buffer holds the keys, and must
leave that buffer as it was.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, counted_xlo_order
from repro.rtree import Entry

#: A small pool makes ties (and the ``-0.0`` / ``0.0`` tie) common.
_TIED = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5, 1e-300, 7.0])
_KEY = st.one_of(_TIED, st.floats(min_value=-1e6, max_value=1e6,
                                  allow_nan=False))
_KEYS = st.lists(_KEY, max_size=80)


def _reference(keys):
    """Stable order and comparison count of the retired entry sort."""
    entries = [Entry(Rect(x, 0.0, x + 1.0, 1.0), i)
               for i, x in enumerate(keys)]
    count = 0

    class _Key:
        __slots__ = ("value",)

        def __init__(self, entry: Entry) -> None:
            self.value = entry.rect.xl

        def __lt__(self, other: "_Key") -> bool:
            nonlocal count
            count += 1
            return self.value < other.value

    entries.sort(key=_Key)
    return [e.ref for e in entries], count


def _bits(keys):
    """Exact content of a key buffer (``-0.0`` differs from ``0.0``)."""
    return [repr(float(x)) for x in keys]


def _check(buffer, keys):
    before = _bits(buffer)
    order, count = counted_xlo_order(buffer)
    assert (order, count) == _reference(keys)
    assert _bits(buffer) == before


@settings(max_examples=200, deadline=None)
@given(_KEYS)
def test_list_matches_entry_sort(keys):
    _check(list(keys), keys)


@settings(max_examples=200, deadline=None)
@given(_KEYS)
def test_array_matches_entry_sort(keys):
    _check(array("d", keys), keys)


@settings(max_examples=100, deadline=None)
@given(_KEYS)
def test_ndarray_matches_entry_sort(keys):
    np = pytest.importorskip("numpy")
    _check(np.asarray(keys, dtype=np.float64), keys)


def test_signed_zero_ties_keep_input_order():
    keys = [0.0, -0.0, 0.0, -0.0, -1.0]
    order, count = counted_xlo_order(keys)
    assert order == [4, 0, 1, 2, 3]
    assert (order, count) == _reference(keys)


@pytest.mark.parametrize("buffer", [[], array("d"), [3.0], array("d", [3.0])])
def test_empty_and_single_cost_nothing(buffer):
    assert counted_xlo_order(buffer) == (list(range(len(buffer))), 0)
