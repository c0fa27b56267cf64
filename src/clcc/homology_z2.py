"""Reduced Z/2 cellular homology for simplicial and cube complexes.

Chains are finite sets of cells (set symmetric difference = addition).
The augmented complex has a single (-1)-cell, the augmentation, and the
boundary of a vertex is that cell; dimension -1 chains are a single bit.
Hosts expose cells(d), boundary_of(cell), facet_positions(d),
link_data(cell), top_dim and is_pure; ColoredComplex, SimplicialComplex
and CubeComplex all qualify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from clcc import gf2
from clcc.canon import csorted
from clcc.errors import DomainError, PairError
from clcc.clcc_core import CubeComplex, build_clcc
from clcc.simplicial import ColoredComplex, CoordSimplex, SimplicialComplex, simplicial_join


def _same_host(h1, h2) -> bool:
    return h1 is h2 or h1 == h2


def _cell_dim(host, cell) -> int:
    if isinstance(host, CubeComplex):
        return host.dim_of(cell)
    if isinstance(cell, CoordSimplex):
        return cell.dim
    return len(cell) - 1


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
        return {"dim": self.dim, "cells": [_cell_json(c) for c in csorted(self.cells)]}


def _cell_json(cell):
    if isinstance(cell, CoordSimplex):
        return sorted(cell.vertex_ids)
    if isinstance(cell, tuple) and len(cell) == 2 and isinstance(cell[0], CoordSimplex):
        a, b = cell
        return {"a": {str(c): v for c, v in a.entries}, "b": {str(c): v for c, v in b.entries}}
    if isinstance(cell, frozenset):
        return sorted(str(v) for v in cell)
    return str(cell)


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

    def to_json_dict(self) -> dict:
        return {"reduced": self.reduced, "ranks": list(self.ranks)}


def _boundary_rows(host, k: int) -> list[int]:
    """The boundary matrix of the k-cells, one bitset row per cell over the
    positions of the (k-1)-cells."""
    rows = []
    for ps in host.facet_positions(k):
        row = 0
        for p in ps:
            row ^= 1 << p
        rows.append(row)
    return rows


def betti(host, reduced: bool = True) -> BettiVector:
    """Betti numbers b_0..b_top by GF(2) rank of the boundary matrices."""
    top = host.top_dim
    if top < 0:
        return BettiVector(reduced, ())
    counts = {d: len(host.cells(d)) for d in range(top + 1)}
    ranks = {top + 1: 0}
    for k in range(1, top + 1):
        ranks[k] = gf2.rank(_boundary_rows(host, k), counts[k - 1])
    ranks[0] = (1 if counts.get(0) else 0) if reduced else 0
    out = tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(top + 1))
    return BettiVector(reduced, out)


def localize(c: Chain2, e) -> Chain2:
    """Push a chain into the link of a cell e: each top cell through e
    contributes the corresponding link cell.  For e of the same dimension
    as the chain this is the augmentation coefficient of e."""
    k = _cell_dim(c.host, e)
    if k > c.dim:
        raise DomainError(f"cannot localize a {c.dim}-chain at a {k}-cell")
    link, cell_map = c.host.link_data(e)
    cells = {cell_map[x] for x in c.cells if x in cell_map}
    return Chain2(link, c.dim - k - 1, frozenset(cells))


def join_chains(sigma: Chain2, omega: Chain2) -> Chain2:
    """Bilinear join: cells are unions of one cell from each side, living
    in the join of the two hosts."""
    for ch in (sigma, omega):
        if isinstance(ch.host, CubeComplex):
            raise DomainError("join is only defined for simplicial hosts")
    J = simplicial_join(sigma.host, omega.host)
    la = sigma.host.uncolored() if isinstance(sigma.host, ColoredComplex) else sigma.host
    lb = omega.host.uncolored() if isinstance(omega.host, ColoredComplex) else omega.host
    if set(la.vertex_ids) & set(lb.vertex_ids):
        ren_a = lambda v: ("A", v)
        ren_b = lambda v: ("B", v)
    else:
        ren_a = ren_b = lambda v: v

    def vset(cell, rename):
        if isinstance(cell, CoordSimplex):
            ids = cell.vertex_ids
        elif isinstance(cell, frozenset):
            ids = cell
        else:  # augmentation of a cube complex cannot occur here
            ids = frozenset()
        return frozenset(rename(v) for v in ids)

    cells = {
        vset(s, ren_a) | vset(t, ren_b) for s in sigma.cells for t in omega.cells
    }
    return Chain2(J, sigma.dim + omega.dim + 1, frozenset(cells))


def support_subcomplex(c: Chain2) -> ColoredComplex:
    """Downward closure of the cells of a chain in a colored host."""
    host = c.host
    if not isinstance(host, ColoredComplex):
        raise DomainError("supports are taken in colored complexes")
    used = sorted({v for s in c.cells for v in s.vertex_ids})
    return ColoredComplex.build(
        host.n,
        [(v, host.color_of(v)) for v in used],
        [sorted(s.vertex_ids) for s in c.cells],
    )


def smartly_paired_chains(omega_a: Chain2, omega_b: Chain2) -> bool:
    """Every cell of each chain has a complementary simplex inside the
    support of the other.  A cell covering all n colors is complemented
    by the empty simplex, which every support contains."""
    ha, hb = omega_a.host, omega_b.host
    if not isinstance(ha, ColoredComplex) or not isinstance(hb, ColoredComplex):
        raise DomainError("smart pairing of chains needs colored hosts")
    if ha.n != hb.n:
        raise PairError(f"color counts differ: {ha.n} vs {hb.n}")
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
    cells = sub.cells(d)
    for c in cells:
        if c not in ambient:
            raise DomainError(f"support cube {c} missing from the ambient complex")
    return Chain2(ambient, d, frozenset(cells))


def is_boundary(c: Chain2) -> bool:
    """Whether the chain bounds, by a GF(2) row-span check against the
    one-higher boundary matrix."""
    if c.dim < 0:
        raise DomainError("augmentation chains are not checked for bounding")
    index = {cell: i for i, cell in enumerate(c.host.cells(c.dim))}
    vec = 0
    for cell in c.cells:
        vec ^= 1 << index[cell]
    return gf2.in_rowspan(vec, _boundary_rows(c.host, c.dim + 1), len(index))
