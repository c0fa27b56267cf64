"""GF(2) linear algebra on bit-packed rows.

Rows are Python ints used as bitsets (bit j = column j).  Pivot
columns, rank and row-span queries are all the homology engine needs;
each runs one Gaussian elimination that pivots on the highest set bit of
each row.  `boundary_rows` packs a host's facet table into such rows.
"""

from __future__ import annotations

from typing import Iterable

# Benchmark reports record which elimination produced their GF(2) timings;
# this pure-Python one is the only one.
IMPLEMENTATION = "pure"


def boundary_rows(table: Iterable[tuple]) -> list[int]:
    """Boundary matrix rows from facet-table rows: one bitset per cell
    over the positions of its facets."""
    rows = []
    for ps in table:
        row = 0
        for p in ps:
            row ^= 1 << p
        rows.append(row)
    return rows


def _eliminate(rows: Iterable[int], basis: dict[int, int]) -> dict[int, int]:
    """Reduce each row against the echelon basis (pivot column -> row whose
    highest set bit it is) and add what is left; returns the basis."""
    for row in rows:
        while row:
            p = row.bit_length() - 1
            other = basis.get(p)
            if other is None:
                basis[p] = row
                break
            row ^= other
    return basis


def pivots(rows: Iterable[int]):
    """The pivot columns of the matrix with the given rows: the highest
    set bits of the rows of one echelon basis, as many as its rank."""
    return _eliminate(rows, {}).keys()


def rank(rows: Iterable[int], ncols: int) -> int:
    """Rank of the matrix with the given rows, each at most ncols bits wide."""
    return len(_eliminate(rows, {}))


def in_rowspan(vec: int, rows: list[int]) -> bool:
    """Whether vec is a sum of some of the rows: it reduces to zero against
    one echelon basis of them."""
    basis = _eliminate(rows, {})
    size = len(basis)
    return len(_eliminate([vec], basis)) == size
