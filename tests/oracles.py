"""Independent oracles the library is checked against.

These rebuild the reference objects from scratch: the coordinate-cube
complex of a right-angled Coxeter kernel, its cube-by-cube subdivision,
and a hand-made torus triangulation.  Nothing here calls the pair
builder.  The naive references at the end recompute the canonical orders,
facets, boundary matrices, hyperplanes, crossing graphs, flag witnesses,
pocset closures and ultrafilter cubes that the library derives from
ranks, bitsets, facet tables, integer edge indices and flip tables."""

from __future__ import annotations

from itertools import combinations, product

from clcc.canon import canon_key, csorted
from clcc.clcc_core import CubeComplex
from clcc.errors import DomainError
from clcc.pocset_hyperplanes import CrossingGraph, star
from clcc.simplicial import ColoredComplex, SimplicialComplex


def _spans(gamma: ColoredComplex, ids: list[str], indices) -> bool:
    return gamma.simplex_with_vertices([ids[i - 1] for i in indices]) is not None


def k_gamma_complex(gamma: ColoredComplex) -> CubeComplex:
    """Subcomplex of the unit n-cube whose k-cells vary exactly along
    coordinate sets spanning a simplex of gamma (vertices of gamma are
    indexed in sorted order)."""
    ids = sorted(gamma.vertex_ids)
    n = len(ids)
    cells: dict[int, list] = {}
    for k in range(n + 1):
        layer = []
        for varying in combinations(range(1, n + 1), k):
            if not _spans(gamma, ids, varying):
                continue
            fixed = [i for i in range(1, n + 1) if i not in varying]
            for bits in product((0, 1), repeat=len(fixed)):
                base = dict(zip(fixed, bits))
                corners = []
                for fill in product((0, 1), repeat=k):
                    v = tuple(
                        base[i] if i in base else fill[varying.index(i)]
                        for i in range(1, n + 1)
                    )
                    corners.append(v)
                layer.append(frozenset(corners))
        if layer:
            cells[k] = layer
    return CubeComplex.from_cells(cells)


def subdivided_k_gamma(gamma: ColoredComplex) -> CubeComplex:
    """Cube-by-cube subdivision of k_gamma_complex, built directly on the
    half-integer grid (scaled by 2, so coordinates lie in {0, 1, 2})."""
    ids = sorted(gamma.vertex_ids)
    n = len(ids)

    def ambient_ok(corner, moving) -> bool:
        varying = set(moving) | {i for i in range(1, n + 1) if corner[i - 1] == 1 and i not in moving}
        if not _spans(gamma, ids, sorted(varying)):
            return False
        return True

    cells: dict[int, list] = {}
    for k in range(n + 1):
        layer = []
        for moving in combinations(range(1, n + 1), k):
            ranges = [(0, 1) if i in moving else (0, 1, 2) for i in range(1, n + 1)]
            for corner in product(*ranges):
                if not ambient_ok(corner, moving):
                    continue
                corners = []
                for fill in product((0, 1), repeat=k):
                    corners.append(
                        tuple(
                            corner[i - 1] + (fill[moving.index(i)] if i in moving else 0)
                            for i in range(1, n + 1)
                        )
                    )
                layer.append(frozenset(corners))
        if layer:
            cells[k] = layer
    return CubeComplex.from_cells(cells)


def racg_vertex_embedding(gamma_b: ColoredComplex, pair_vertex) -> tuple:
    """Where a vertex of the cross-polytope pair complex lands on the
    half-integer grid: minus/plus vertices at 0/2, partner vertices at 1."""
    a, b = pair_vertex
    n = gamma_b.n
    coords = []
    for i in range(1, n + 1):
        va = a.get(i)
        if va is not None:
            coords.append(0 if va.endswith("-") else 2)
        else:
            coords.append(1)
    return tuple(coords)


def csaszar_torus() -> SimplicialComplex:
    """Seven-vertex triangulation of the torus."""
    tris = []
    for i in range(7):
        tris.append([f"t{i}", f"t{(i + 1) % 7}", f"t{(i + 3) % 7}"])
        tris.append([f"t{i}", f"t{(i + 2) % 7}", f"t{(i + 3) % 7}"])
    return SimplicialComplex.from_maximal([f"t{i}" for i in range(7)], tris)


# ----------------------------------------------------------------------
# naive references for the ranked builders
# ----------------------------------------------------------------------


def from_cells_reference(cells) -> tuple[dict, dict]:
    """Cells per dimension and the facets of each cell, both sorted by
    canon_key, facets found by comparing a cell with every cell one
    dimension down."""
    by_dim = {
        d: [next(iter(c)) if d == 0 else frozenset(c) for c in layer]
        for d, layer in cells.items()
    }
    vsets = {cid: frozenset([cid]) if d == 0 else cid for d, ids in by_dim.items() for cid in ids}
    facets = {}
    for d, ids in by_dim.items():
        for cid in ids:
            lower = by_dim.get(d - 1, []) if d else []
            facets[cid] = tuple(csorted(f for f in lower if vsets[f] <= vsets[cid]))
    return {d: tuple(csorted(ids)) for d, ids in by_dim.items() if ids}, facets


def hyperplane_classes_reference(X) -> list[tuple]:
    """Edge classes under square opposition, each sorted by canon_key and
    ordered by the key of their first edge."""
    classes = {e: {e} for e in X.cells(1)}
    for sq in X.cells(2):
        for e, f in combinations(X.facets(sq), 2):
            if not (X.vertices_of(e) & X.vertices_of(f)) and classes[e] is not classes[f]:
                merged = classes[e] | classes[f]
                for g in merged:
                    classes[g] = merged
    distinct = {id(c): c for c in classes.values()}.values()
    return sorted((tuple(csorted(c)) for c in distinct), key=lambda c: canon_key(c[0]))


def opposition_pairs_reference(X, square):
    """The two pairs of vertex-disjoint edges of a square (the facets of
    an edge are its two endpoints)."""
    edges = X.facets(square)
    pairs = []
    for e, f in combinations(edges, 2):
        if set(X.facets(e)).isdisjoint(X.facets(f)):
            pairs.append((e, f))
    if len(pairs) != 2:
        raise DomainError(f"square {square!r} does not have two opposite edge pairs")
    return pairs


def crossing_graph_reference(X) -> CrossingGraph:
    """Two hyperplanes cross when a common square uses both: the opposite
    pairs of every square are found again, vertex sets compared."""
    hps = [(f"h{i}", c) for i, c in enumerate(hyperplane_classes_reference(X))]
    owner = {e: hid for hid, edges in hps for e in edges}
    edges = set()
    selfx = set()
    for sq in X.cells(2):
        (e1, _), (f1, _) = opposition_pairs_reference(X, sq)
        h, k = owner[e1], owner[f1]
        if h == k:
            selfx.add(h)
        else:
            edges.add(frozenset({h, k}))
    return CrossingGraph(tuple(hid for hid, _ in hps), frozenset(edges), frozenset(selfx))


def halfspace_sides_reference(X):
    """The two sides of each reference hyperplane, the "-" side holding
    the canonically least vertex: the 1-skeleton without the class's
    edges, merged vertex set by vertex set.  None when some class does
    not cut the complex in two."""
    sides = {}
    for i, cut in enumerate(hyperplane_classes_reference(X)):
        part = {v: frozenset([v]) for v in X.cells(0)}
        for e in X.cells(1):
            a, b = X.vertices_of(e)
            if e not in cut and part[a] is not part[b]:
                merged = part[a] | part[b]
                for v in merged:
                    part[v] = merged
        parts = sorted(set(part.values()), key=lambda c: canon_key(csorted(c)[0]))
        if len(parts) != 2:
            return None
        sides[(f"h{i}", "-")], sides[(f"h{i}", "+")] = parts
    return sides


def is_flag_reference(K) -> tuple:
    """Every clique of the 1-skeleton spans a simplex; cliques grow level
    by level in lex order, each candidate compared by canon_key, and the
    first non-spanning one is the witness."""
    adj = K.adjacency
    if isinstance(K, ColoredComplex):
        spans = lambda vids: K.simplex_with_vertices(vids) is not None
    else:
        spans = lambda vids: frozenset(vids) in K.simplices
    verts = csorted(adj)
    level: list[tuple] = [(v,) for v in verts]
    while level:
        nxt: list[tuple] = []
        for clique in level:
            last_key = canon_key(clique[-1])
            for u in verts:
                if canon_key(u) <= last_key or any(u not in adj[w] for w in clique):
                    continue
                bigger = clique + (u,)
                if len(bigger) >= 3 and not spans(bigger):
                    return False, bigger
                nxt.append(bigger)
        level = nxt
    return True, None


def closed_relations_reference(pair_ids, relations) -> frozenset:
    """Closure of x < y relations under the involution and transitivity,
    by adding composites until nothing changes."""
    rel = set()
    for x, y in relations:
        rel.add((x, y))
        rel.add((star(y), star(x)))
    changed = True
    while changed:
        changed = False
        for x, y in list(rel):
            for z, w in list(rel):
                if y == z and (x, w) not in rel:
                    rel.add((x, w))
                    changed = True
    return frozenset(rel)


def ultrafilters_reference(S) -> list[frozenset]:
    """Every choice of one side per pair that is upward closed, sorted by
    canon_key."""
    pair_ids = S.pair_ids
    out = []
    for sides in product("+-", repeat=len(pair_ids)):
        u = frozenset(zip(pair_ids, sides))
        if all(y in u for x, y in S.less if x in u):
            out.append(u)
    return csorted(out)


def sageev_cells_reference(S) -> dict[int, set]:
    """Cells of the ultrafilter complex by flipping one pair of every
    vertex of a cube through a dict of its sides, grown one dimension at
    a time."""
    verts = ultrafilters_reference(S)
    vset = set(verts)

    def flip(u: frozenset, pid: str) -> frozenset:
        side = dict(u)[pid]
        return (u - {(pid, side)}) | {(pid, "+" if side == "-" else "-")}

    cells: dict[int, set] = {0: {frozenset({u}) for u in verts}}
    level = [(frozenset({u}), frozenset()) for u in verts]
    d = 0
    while level:
        nxt = {}
        for cube, toggled in level:
            for pid in S.pair_ids:
                if pid in toggled:
                    continue
                flipped = frozenset(flip(u, pid) for u in cube)
                if all(u in vset for u in flipped):
                    nxt.setdefault(cube | flipped, toggled | {pid})
        if not nxt:
            break
        d += 1
        cells[d] = set(nxt)
        level = list(nxt.items())
    return cells


# ----------------------------------------------------------------------
# naive references for the shared host helpers
# ----------------------------------------------------------------------


def boundary_rows_reference(host, k: int, index_low: dict) -> list[int]:
    """The boundary matrix of the k-cells, one bitset row per cell over the
    (k-1)-cell positions in index_low, each facet looked up by value."""
    rows = []
    for c in host.cells(k):
        row = 0
        for f in host.boundary_of(c):
            row ^= 1 << index_low[f]
        rows.append(row)
    return rows


def facet_positions_reference(host, d: int) -> tuple:
    """The facets of each d-cell as sorted positions in cells(d - 1): a
    (d-1)-cell is a facet when its vertex set lies in the cell's, compared
    with every (d-1)-cell."""
    if isinstance(host, CubeComplex):
        vertices = host.vertices_of
    elif isinstance(host, ColoredComplex):
        vertices = lambda s: s.vertex_ids
    else:
        vertices = frozenset
    lower = [vertices(f) for f in host.cells(d - 1)]
    upper = [vertices(c) for c in host.cells(d)]
    return tuple(tuple(p for p, f in enumerate(lower) if f <= c) for c in upper)


def is_pure_reference(host) -> bool:
    """Every cell lies under a top cell: a simplex inside some top simplex,
    a cube among the iterated cofaces of which some cube is top, the
    cofaces grown to a fixed point."""
    top = host.top_dim
    if isinstance(host, CubeComplex):

        def under_top(cube) -> bool:
            closure = {cube}
            while True:
                grown = closure | {up for c in closure for up in host.cofaces_map[c]}
                if grown == closure:
                    return any(host.dim_of(c) == top for c in closure)
                closure = grown

        return all(under_top(c) for d in range(top + 1) for c in host.cells(d))
    tops = host.cells(top)
    return all(any(s <= t for t in tops) for d in range(top + 1) for s in host.cells(d))


def maximal_simplices_reference(K) -> tuple:
    """Simplices contained in no simplex one dimension up, compared with
    each of those; the empty simplex only when it is the only simplex."""
    out = []
    for d in range(-1, K.top_dim + 1):
        above = K.cells(d + 1)
        for s in K.cells(d):
            if d < 0 and len(K.simplices) > 1:
                continue
            if not any(s <= t for t in above):
                out.append(s)
    return tuple(csorted(out))
