"""Reduced Z/2 cellular homology for simplicial and cube complexes.

Chains are finite sets of cells (set symmetric difference = addition).
The augmented complex has a single (-1)-cell, the augmentation, and the
boundary of a vertex is that cell; dimension -1 chains are a single bit.
Hosts expose cells(d), boundary_of(cell), facet_positions(d),
link_data(cell), top_dim, is_pure and boundary_ranks.  ColoredComplex,
SimplicialComplex and CubeComplex share one cell store
(`clcc.simplicial.CellStore`), which gives them all but boundary_of and
link_data.

The Betti numbers read `boundary_ranks`, the rank of each boundary
matrix, computed once per host: rank ∂1 from the union-find of the
1-skeleton (vertices less components), the matrices above it by one
GF(2) elimination each, top dimension first, with clearing.  So the
reduced and the unreduced vector, and every later ask on the same host,
share one set of eliminations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from clcc import gf2
from clcc.canon import csorted
from clcc.errors import DomainError
from clcc.clcc_core import CubeComplex, build_clcc, cube_json
from clcc.simplicial import (
    ColoredComplex,
    CoordSimplex,
    check_same_color_count,
    faces_of,
    join_cells,
    simplicial_join,
)


def _same_host(h1, h2) -> bool:
    return h1 is h2 or h1 == h2


@dataclass(frozen=True)
class Chain2:
    """Z/2 chain: a set of same-dimension cells of a fixed host."""

    host: object
    dim: int
    cells: frozenset

    def __post_init__(self):
        if self.dim < -1:
            raise DomainError(f"chain dimension {self.dim} < -1")
        valid = set(self.host.cells(self.dim)) if self.dim >= 0 else {self.host.augmentation_cell}
        stray = self.cells - valid
        if stray:
            raise DomainError(f"cells not in host at dimension {self.dim}: {csorted(stray)[:3]}")

    @property
    def is_zero(self) -> bool:
        return not self.cells

    def __add__(self, other: "Chain2") -> "Chain2":
        if self.dim != other.dim or not _same_host(self.host, other.host):
            raise DomainError("chains live in different groups")
        return Chain2(self.host, self.dim, self.cells ^ other.cells)

    def to_json_dict(self) -> dict:
        """{"dim", "cells"}, the cells as cube forms in canonical order.
        `clcc cycle` writes chains of cubes of pair-built complexes only;
        any other chain is refused, as `CubeComplex.to_json_dict` refuses
        a complex with no pair."""
        host = self.host
        if self.dim < 0 or not (isinstance(host, CubeComplex) and host.has_pair_origin):
            raise DomainError("only chains of cubes of a pair-built complex have a JSON form")
        return {"dim": self.dim, "cells": [cube_json(c) for c in csorted(self.cells)]}


def chain(host, dim: int, cells: Iterable) -> Chain2:
    return Chain2(host, dim, frozenset(cells))


def zero_chain(host, dim: int) -> Chain2:
    return Chain2(host, dim, frozenset())


def top_chain(host) -> Chain2:
    """Sum of all top-dimensional cells."""
    d = host.top_dim
    return Chain2(host, d, frozenset(host.cells(d)))


def boundary(c: Chain2) -> Chain2:
    if c.dim < 0:
        raise DomainError("the augmentation has no boundary")
    acc: set = set()
    for cell in c.cells:
        for f in c.host.boundary_of(cell):
            if f in acc:
                acc.discard(f)
            else:
                acc.add(f)
    return Chain2(c.host, c.dim - 1, frozenset(acc))


def is_cycle(c: Chain2) -> bool:
    return True if c.dim < 0 else boundary(c).is_zero


def fundamental_class(host) -> bool:
    """Whether the sum of all top cells is a cycle."""
    if not host.is_pure:
        raise DomainError("fundamental class needs a pure-dimensional host")
    if host.top_dim < 0:
        return False
    return is_cycle(top_chain(host))


@dataclass(frozen=True)
class BettiVector:
    reduced: bool
    ranks: tuple[int, ...]


def betti_vectors(host) -> tuple[BettiVector, BettiVector]:
    """The reduced and the unreduced Betti numbers b_0..b_top, from the
    GF(2) rank of each boundary matrix (`host.boundary_ranks`, computed
    once per host).  They differ only in b_0, by the rank of the
    augmentation: 1 when there are vertices."""
    counts = [len(host.cells(d)) for d in range(host.top_dim + 1)]
    if not counts:
        return BettiVector(True, ()), BettiVector(False, ())
    ranks = (*host.boundary_ranks, 0)
    unreduced = [c - ranks[k] - ranks[k + 1] for k, c in enumerate(counts)]
    reduced = [unreduced[0] - (1 if counts[0] else 0)] + unreduced[1:]
    return BettiVector(True, tuple(reduced)), BettiVector(False, tuple(unreduced))


def betti(host, reduced: bool = True) -> BettiVector:
    """Betti numbers b_0..b_top by GF(2) rank of the boundary matrices
    (`betti_vectors`)."""
    return betti_vectors(host)[0 if reduced else 1]


def localize(c: Chain2, e) -> Chain2:
    """Push a chain into the link of a cell e: each top cell through e
    contributes the corresponding link cell.  For e of the same dimension
    as the chain this is the augmentation coefficient of e."""
    link, cell_map = c.host.link_data(e)
    k = c.host.dim_of(e)
    if k > c.dim:
        raise DomainError(f"cannot localize a {c.dim}-chain at a {k}-cell")
    cells = {cell_map[x] for x in c.cells if x in cell_map}
    return Chain2(link, c.dim - k - 1, frozenset(cells))


def join_chains(sigma: Chain2, omega: Chain2) -> Chain2:
    """Bilinear join: cells are unions of one cell from each side, living
    in the join of the two hosts."""
    for ch in (sigma, omega):
        if isinstance(ch.host, CubeComplex):
            raise DomainError("join is only defined for simplicial hosts")
    J = simplicial_join(sigma.host, omega.host)
    cells = join_cells(sigma.host, omega.host, sigma.cells, omega.cells)
    return Chain2(J, sigma.dim + omega.dim + 1, cells)


def support_subcomplex(c: Chain2) -> ColoredComplex:
    """Downward closure of the cells of a chain in a colored host."""
    host = c.host
    if not isinstance(host, ColoredComplex):
        raise DomainError("supports are taken in colored complexes")
    faces = faces_of([(), *(s.entries for s in c.cells)])
    return host._replace_simplices(frozenset(map(CoordSimplex, faces)))


def smartly_paired_chains(omega_a: Chain2, omega_b: Chain2) -> bool:
    """Every cell of each chain has a complementary simplex inside the
    support of the other.  A cell covering all n colors is complemented
    by the empty simplex, which every support contains."""
    ha, hb = omega_a.host, omega_b.host
    if not isinstance(ha, ColoredComplex) or not isinstance(hb, ColoredComplex):
        raise DomainError("smart pairing of chains needs colored hosts")
    check_same_color_count(ha, hb)
    n = ha.n
    for cells, other_cells in ((omega_a.cells, omega_b.cells), (omega_b.cells, omega_a.cells)):
        for s in cells:
            if len(s.colors) < n and not any(len(s.colors | t.colors) == n for t in other_cells):
                return False
    return True


def clcc_cycle(
    omega_a: Chain2, omega_b: Chain2, ambient: Optional[CubeComplex] = None
) -> Chain2:
    """Chain on the pair complex generated by two smartly paired chains:
    the sum of the top cubes of the complex built on their supports.  It
    is a cycle precisely when both inputs are cycles."""
    if not smartly_paired_chains(omega_a, omega_b):
        raise DomainError("chains are not smartly paired")
    ha, hb = omega_a.host, omega_b.host
    n = ha.n
    d = omega_a.dim + omega_b.dim + 2 - n
    if ambient is None:
        ambient = build_clcc(ha, hb)
    if omega_a.is_zero or omega_b.is_zero:
        return zero_chain(ambient, max(d, 0))
    sub = build_clcc(support_subcomplex(omega_a), support_subcomplex(omega_b))
    if sub.top_dim != d or not sub.is_pure:
        raise AssertionError("support complex is not pure of the expected dimension")
    return Chain2(ambient, d, frozenset(sub.cells(d)))


def is_boundary(c: Chain2) -> bool:
    """Whether the chain bounds, by a GF(2) row-span check against the
    one-higher boundary matrix."""
    if c.dim < 0:
        raise DomainError("augmentation chains are not checked for bounding")
    index = {cell: i for i, cell in enumerate(c.host.cells(c.dim))}
    vec = 0
    for cell in c.cells:
        vec ^= 1 << index[cell]
    return gf2.in_rowspan(vec, gf2.boundary_rows(c.host.facet_positions(c.dim + 1)))
