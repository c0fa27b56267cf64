"""Ready-made colored pairs: surfaces, cross-polytopes, group complexes.

Vertex ids are deterministic; pair generators prefix the two sides "a"
and "b" so joins and exports stay collision-free.
"""

from __future__ import annotations

from typing import Mapping, Optional

from clcc.canon import canon_key
from clcc.errors import ComplexError, DomainError
from clcc.simplicial import (
    EMPTY_SIMPLEX,
    ColoredComplex,
    CoordSimplex,
    SimplicialComplex,
    barycentric_subdivision_2d,
    check_vertex_colors,
    cliques,
    repeated_color,
    require_flag,
)


def gen_cycle(k: int, colors: tuple[int, int] = (1, 2), prefix: str = "v",
              n: Optional[int] = None) -> ColoredComplex:
    """Cycle of length 2k with alternating colors; flag, and 5-large
    exactly when k >= 3."""
    if k < 2:
        raise DomainError(f"cycle parameter k must be >= 2, got {k}")
    i, j = colors
    n = n if n is not None else max(colors)
    ids = [f"{prefix}{t}" for t in range(2 * k)]
    vertices = [(vid, i if t % 2 == 0 else j) for t, vid in enumerate(ids)]
    edges = [[ids[t], ids[(t + 1) % (2 * k)]] for t in range(2 * k)]
    return ColoredComplex.build(n, vertices, edges)


def gen_cross_polytope(n: int, prefix: str = "a") -> ColoredComplex:
    """Join of n two-point sets: color i carries {prefix_i+, prefix_i-}
    and the maximal simplices are the 2^n sign choices."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    vertices = [(f"{prefix}{i}{s}", i) for i in range(1, n + 1) for s in "+-"]
    maximal = []
    for mask in range(2**n):
        maximal.append([f"{prefix}{i}{'+' if mask >> (i - 1) & 1 else '-'}" for i in range(1, n + 1)])
    return ColoredComplex.build(n, vertices, maximal)


def gen_surface_pair(k_a: int, k_b: int) -> tuple[ColoredComplex, ColoredComplex]:
    """Two alternating cycles; the pair complex is a closed surface."""
    return gen_cycle(k_a, prefix="a"), gen_cycle(k_b, prefix="b")


def gen_salvetti_pair(gamma: ColoredComplex) -> tuple[ColoredComplex, ColoredComplex]:
    """Pair whose complex carries the right-angled Artin group of gamma.

    gamma is a flag complex with at most one vertex per color (vertex of
    color i = generator i).  Side A gets, for each simplex of gamma, the
    full-coordinate simplex with + on the simplex's colors and - on the
    rest; side B is the full cross-polytope."""
    require_flag(gamma)
    c = repeated_color(gamma)
    if c is not None:
        raise DomainError(f"color {c} has more than one vertex")
    n = gamma.n
    vertices = [(f"a{i}{s}", i) for i in range(1, n + 1) for s in "+-"]
    maximal = []
    for s in gamma.simplices:
        cols = s.colors
        maximal.append([f"a{i}{'+' if i in cols else '-'}" for i in range(1, n + 1)])
    gamma_hat = ColoredComplex.build(n, vertices, maximal)
    return gamma_hat, gen_cross_polytope(n, prefix="b")


def gen_racg_pair(gamma: ColoredComplex) -> tuple[ColoredComplex, ColoredComplex]:
    """Pair whose complex is the subdivided commutator complex of the
    right-angled Coxeter group of gamma.

    Vertices of gamma are recolored one color each (sorted order); side A
    is the full cross-polytope on those colors."""
    require_flag(gamma)
    ids = sorted(gamma.vertex_ids)
    n = len(ids)
    if n < 1:
        raise DomainError("need at least one vertex")
    recolor = {vid: i + 1 for i, vid in enumerate(ids)}
    vertices = [(vid, recolor[vid]) for vid in ids]
    maximal = [sorted(s.vertex_ids) for s in gamma.maximal_simplices if s.dim >= 0]
    gamma_b = ColoredComplex.build(n, vertices, maximal)
    return gen_cross_polytope(n, prefix="a"), gamma_b


def gen_barycentric_pair(
    gamma: SimplicialComplex,
    lam: SimplicialComplex,
    colors_gamma: Mapping[str, int],
    colors_lam: Mapping[str, int],
) -> tuple[ColoredComplex, ColoredComplex]:
    """Subdivide two 2-complexes; edge barycentres must land on
    different colors so the pair is certifiable."""
    if colors_gamma.get("E") == colors_lam.get("E"):
        raise DomainError("edge-barycentre colors must differ between the two factors")
    return (
        barycentric_subdivision_2d(gamma, colors_gamma),
        barycentric_subdivision_2d(lam, colors_lam),
    )


def flag_complex_from_graph(
    n: int, vertices, edges
) -> ColoredComplex:
    """Clique (flag) completion of a colored graph: simplices are exactly
    the cliques, so the result is flag by construction.

    The (color, id) entries are ranked once, in sorted order, and the
    graph is read as one neighbour mask per rank; `cliques` yields each
    clique once, as ascending ranks, so its entries come out sorted, as
    the entries of its simplex; the cliques are already closed downwards.
    The vertices are checked as `ColoredComplex.build` checks them.
    Then, as the build of every clique would refuse them: the least
    undeclared endpoint, in canonical order, is refused, else the least
    edge joining two vertices of one color.  Self-loops and repeated
    edges are ignored."""
    colors = check_vertex_colors(n, vertices)
    entries = sorted((c, v) for v, c in colors.items())
    rank = {v: i for i, (_, v) in enumerate(entries)}
    adj = [0] * len(entries)
    unknown, clashes = [], []
    for a, b in edges:
        if a not in colors or b not in colors:
            unknown += [v for v in (a, b) if v not in colors]
        elif a != b:
            if colors[a] == colors[b]:
                clashes.append((a, b))
            else:
                adj[rank[a]] |= 1 << rank[b]
                adj[rank[b]] |= 1 << rank[a]
    if unknown:
        raise ComplexError(f"unknown vertex id {min(unknown, key=canon_key)!r}")
    if clashes:
        a, b = min(clashes, key=lambda edge: sorted(map(canon_key, edge)))
        CoordSimplex.of([(colors[a], a), (colors[b], b)])  # refuses one color twice
    simplices = frozenset([
        EMPTY_SIMPLEX, *[CoordSimplex(tuple([entries[q] for q in c])) for c in cliques(adj)]
    ])
    return ColoredComplex(n, colors, simplices)
