import random

from hypothesis import given, settings
from hypothesis import strategies as st

from clcc import gf2


def naive_rank(rows, ncols):
    """Textbook column-by-column elimination, kept independent of the
    library's pivot-on-top-bit method."""
    work = [r for r in rows]
    rank = 0
    row_idx = 0
    for col in range(ncols):
        pivot = None
        for r in range(row_idx, len(work)):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[row_idx], work[pivot] = work[pivot], work[row_idx]
        for r in range(len(work)):
            if r != row_idx and (work[r] >> col) & 1:
                work[r] ^= work[row_idx]
        rank += 1
        row_idx += 1
        if row_idx == len(work):
            break
    return rank


@given(st.lists(st.integers(0, 2**40 - 1), max_size=24))
@settings(max_examples=200, deadline=None)
def test_rank_matches_naive_elimination(rows):
    assert gf2.rank(rows, 40) == naive_rank(rows, 40)


def test_rank_wide_rows():
    # rows wider than a machine word
    r = random.Random(7)
    rows = [r.getrandbits(500) for _ in range(80)]
    assert gf2.rank(rows, 500) == naive_rank(rows, 500)


def test_rank_edge_cases():
    assert gf2.rank([], 10) == 0
    assert gf2.rank([0, 0], 10) == 0
    assert gf2.rank([1], 1) == 1
    assert gf2.rank([3, 1, 2], 2) == 2


def test_in_rowspan():
    rows = [0b101, 0b011]
    assert gf2.in_rowspan(0b110, rows)
    assert gf2.in_rowspan(0, rows)
    assert not gf2.in_rowspan(0b100, rows)



@given(st.integers(0, 2**12 - 1), st.lists(st.integers(0, 2**12 - 1), max_size=10))
@settings(max_examples=300, deadline=None)
def test_in_rowspan_matches_rank_growth(vec, rows):
    # small widths and few rows, so that vectors in and out of the span
    # both occur often
    assert gf2.in_rowspan(vec, rows) == (naive_rank(rows + [vec], 12) == naive_rank(rows, 12))
