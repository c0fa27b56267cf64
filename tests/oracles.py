"""Independent oracles the library is checked against.

These rebuild the reference objects from scratch: the coordinate-cube
complex of a right-angled Coxeter kernel, its cube-by-cube subdivision,
and a hand-made torus triangulation.  Nothing here calls the pair
builder, except `is_connected_bfs_reference`: the connectivity of the
built complex, which the BFS engine reads from the factors.  The naive references at the end recompute the canonical orders,
facets, cofaces, links (of cubes and of simplices, and their tags),
boundary matrices and the Betti numbers of their full elimination (which
clearing replaces), hyperplanes, crossing graphs, flag witnesses, pocset
closures, the pocset axiom check and ultrafilter cubes that the library
derives from ranks, bitsets, facet and coface tables and integer edge
indices.  `sageev_reference` and `roller_duality_check_reference` keep
the ultrafilter complex grown by flips, each cube from each of its
facets, and ranked by `from_cells`, and the duality verdict read from
the vertex sets of that rebuilt complex.  `sageev` replaces them by
growing each cube (u, T) once, from its top vertex u (the "+" side of
every pair in T), by a pair p below all of T: every dimension comes out
in canonical order, u ascending, then the mask of T descending, and a
cube's facets come out ascending with no sort: its parent (u, T), the
parent's facets each grown by p, then (u switched at p, T).  The
duality check compares those facet tables without building a complex.
The last ones are the pruning loop and the per-color-pair subcomplex
scans that the factor predicates replace by a closed form and one square
scan per complex, the brute-force graph walks (every vertex subset,
every 4-tuple, every pair of nodes merged) that the shared graph helpers
replace, and the pair assembler that hashes each cube's two sides, fed
every covering pair of simplices, that assembly on the colorset buckets
replaces, and the cube document written with two new side dicts per
cube, that the side forms shared within one call replace.  The cross-polytope recogniser that scans every clique and the
barycentric subdivision that lists every chain of faces by hand are the
references of their counted and recursive replacements.  The clique
completion that closes each clique downwards, as if it were maximal, is
the reference of the one that makes each clique one simplex.  The
subsets of each top, listed by bitmask, are the reference of the one
downward closure, `faces_of`."""

from __future__ import annotations

from itertools import combinations, permutations, product

from clcc import gf2
from clcc.canon import canon_key, csorted
from clcc.clcc_core import CubeComplex, build_clcc, smartly_paired
from clcc.errors import ComplexError, DomainError
from clcc.pocset_hyperplanes import CrossingGraph, halfspace_pocset, star, ultrafilters
from clcc.simplicial import (
    EMPTY_SIMPLEX,
    ColoredComplex,
    CoordSimplex,
    SimplicialComplex,
    cliques,
    is_flag,
)


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
    canon_key (computed once per cell), facets found by comparing a cell
    with every cell one dimension down."""
    by_dim = {
        d: [next(iter(c)) if d == 0 else frozenset(c) for c in layer]
        for d, layer in cells.items()
    }
    vsets = {cid: frozenset([cid]) if d == 0 else cid for d, ids in by_dim.items() for cid in ids}
    key = {cid: canon_key(cid) for cid in vsets}
    facets = {}
    for d, ids in by_dim.items():
        for cid in ids:
            lower = by_dim.get(d - 1, []) if d else []
            inside = [f for f in lower if vsets[f] <= vsets[cid]]
            facets[cid] = tuple(sorted(inside, key=key.__getitem__))
    return {d: tuple(sorted(ids, key=key.__getitem__)) for d, ids in by_dim.items() if ids}, facets


def hyperplane_classes_reference(X) -> list[tuple]:
    """Edge classes under square opposition, each sorted by canon_key and
    ordered by the key of their first edge."""
    ends = {e: X.vertices_of(e) for e in X.cells(1)}
    classes = {e: {e} for e in X.cells(1)}
    for sq in X.cells(2):
        for e, f in combinations(X.facets(sq), 2):
            if not (ends[e] & ends[f]) and classes[e] is not classes[f]:
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
    not cut the complex in two, or when there is a class and the whole
    1-skeleton, merged the same way, is not connected (then two parts
    may be the two components)."""
    ends = [(e, *X.vertices_of(e)) for e in X.cells(1)]

    def parts(cut):
        part = {v: frozenset([v]) for v in X.cells(0)}
        for e, a, b in ends:
            if e not in cut and part[a] is not part[b]:
                merged = part[a] | part[b]
                for v in merged:
                    part[v] = merged
        return sorted(set(part.values()), key=lambda c: canon_key(csorted(c)[0]))

    sides = {}
    for i, cut in enumerate(hyperplane_classes_reference(X)):
        two = parts(set(cut))
        if len(two) != 2:
            return None
        sides[(f"h{i}", "-")], sides[(f"h{i}", "+")] = two
    if sides and len(parts(set())) != 1:
        return None
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


def pocset_check_reference(elements, less):
    """The error text of the first pocset axiom that (elements, less)
    violates, or None: the check on (x, y) pairs that the bitmask rows
    replace.  Each element needs its conjugate; then every relation, in
    sorted order, is irreflexive, not to a conjugate, reversed by the
    involution and antisymmetric; then, again in sorted order, every
    x < y < w has x < w."""
    elems = set(elements)
    for e in elements:
        if star(e) not in elems:
            return f"element {e} lacks its conjugate"
    succ: dict = {}
    for x, y in sorted(less):
        if x not in elems or y not in elems:
            return f"relation {x} < {y} uses unknown elements"
        if x == y:
            return f"irreflexivity violated at {x}"
        if y == star(x):
            return f"{x} comparable with its conjugate"
        if (star(y), star(x)) not in less:
            return f"involution does not reverse {x} < {y}"
        if (y, x) in less:
            return f"antisymmetry violated on {x}, {y}"
        succ.setdefault(x, {})[y] = None  # a dict keeps the sorted order
    for x, y in sorted(less):
        for w in succ.get(y, ()):
            if w not in succ[x]:
                return f"order not transitive: {x} < {y} < {w}"
    return None


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


def sageev_reference(S) -> CubeComplex:
    """The ultrafilter complex grown through a table of single-pair flips,
    each d-cube built from each of its 2d facets and deduplicated, then
    handed to CubeComplex.from_cells as vertex sets, which ranks the
    vertices and infers the facets by inclusion."""
    verts = ultrafilters(S)
    index = {u: i for i, u in enumerate(verts)}
    flips = []
    for u in verts:
        side = dict(u)
        row = []
        for pid in S.pair_ids:
            e = (pid, side[pid])
            row.append(index.get((u - {e}) | {star(e)}, -1))
        flips.append(row)
    cells: dict[int, list] = {0: [frozenset({u}) for u in verts]}
    level = [(frozenset({i}), frozenset()) for i in range(len(verts))]
    d = 0
    while level:
        nxt = {}
        for cube, toggled in level:
            for p in range(len(S.pair_ids)):
                if p in toggled:
                    continue
                flipped = [flips[i][p] for i in cube]
                if -1 not in flipped:
                    nxt.setdefault(cube.union(flipped), toggled | {p})
        if not nxt:
            break
        d += 1
        cells[d] = [frozenset(verts[i] for i in cube) for cube in nxt]
        level = list(nxt.items())
    return CubeComplex.from_cells(cells)


def roller_duality_check_reference(X: CubeComplex):
    """The duality verdict by vertex sets: each vertex goes to the
    halfspaces whose side holds it, and each cell's image vertex set must
    be a cell of sageev_reference of the halfspace pocset."""
    P = halfspace_pocset(X)
    Y = sageev_reference(P)
    by_h: dict = {}
    for (hid, side), vs in P.sides.items():
        by_h.setdefault(hid, []).append(((hid, side), vs))

    def embed(v) -> frozenset:
        out = []
        for hid, options in by_h.items():
            hits = [e for e, vs in options if v in vs]
            if len(hits) != 1:
                raise DomainError(f"vertex {v!r} not on exactly one side of {hid}")
            out.append(hits[0])
        return frozenset(out)

    mapping = {v: embed(v) for v in X.cells(0)}
    if len(set(mapping.values())) != len(mapping) or set(mapping.values()) != set(Y.cells(0)):
        return False, None
    for d in range(1, max(X.top_dim, Y.top_dim) + 1):
        xs = X.cells(d)
        ys = set(Y.cells(d))
        if len(xs) != len(ys):
            return False, None
        for c in xs:
            if frozenset(mapping[v] for v in X.vertices_of(c)) not in ys:
                return False, None
    return True, mapping


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


def boundary_ranks_reference(host) -> tuple:
    """The rank of ∂k for k = 0..top (∂0 is zero), each from every row of
    the full matrix built from `boundary_of`, with no clearing and no
    union-find."""
    ranks = [0] * (host.top_dim + 1)
    for k in range(1, host.top_dim + 1):
        index_low = {c: i for i, c in enumerate(host.cells(k - 1))}
        ranks[k] = gf2.rank(boundary_rows_reference(host, k, index_low), len(index_low))
    return tuple(ranks)


def betti_reference(host, reduced: bool) -> tuple:
    """Betti numbers from `boundary_ranks_reference`."""
    top = host.top_dim
    if top < 0:
        return ()
    counts = [len(host.cells(d)) for d in range(top + 1)]
    ranks = list(boundary_ranks_reference(host)) + [0]
    if reduced:
        ranks[0] = 1 if counts[0] else 0
    return tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(top + 1))


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


def cofaces_reference(X: CubeComplex) -> dict:
    """The cofaces of each cube, in `cells(d + 1)` order: the cubes one
    dimension up whose vertex sets contain its vertex set, each vertex
    set computed once."""
    vertices = {c: X.vertices_of(c) for d in range(X.top_dim + 1) for c in X.cells(d)}
    return {
        c: tuple(u for u in X.cells(d + 1) if vertices[c] <= vertices[u])
        for d in range(X.top_dim + 1)
        for c in X.cells(d)
    }


def _upward_closure(cube, cofaces: dict) -> set:
    closure = {cube}
    while True:
        grown = closure | {up for c in closure for up in cofaces[c]}
        if grown == closure:
            return closure
        closure = grown


def link_data_reference(cube, cofaces: dict) -> tuple:
    """The link of a cube and the coface -> link-cell map, by the closure
    walk: a coface's link cell is the set of cofaces one dimension up of
    the cube whose upward closures hold it (`cofaces` from
    `cofaces_reference`)."""
    one_up = cofaces[cube]
    below = {u: _upward_closure(u, cofaces) for u in one_up}
    cell_map = {
        c: frozenset(u for u in one_up if c in below[u])
        for c in _upward_closure(cube, cofaces)
    }
    return SimplicialComplex(one_up, frozenset(cell_map.values()) | {frozenset()}), cell_map


def simplex_link_data_reference(K, e) -> tuple:
    """The link of a simplex of a colored or uncolored complex and its
    coface -> link-cell map, by a scan of every simplex: each simplex
    holding e maps to its part outside e.  A colored link keeps the
    ambient colors of its vertices."""
    if isinstance(K, ColoredComplex):
        cell_map = {
            s: CoordSimplex(tuple(x for x in s.entries if x not in e.entries))
            for s in K.simplices
            if e <= s
        }
        colors = {v: K.color_of(v) for c in cell_map.values() for v in c.vertex_ids}
        return ColoredComplex(K.n, colors, frozenset(cell_map.values())), cell_map
    cell_map = {s: s - e for s in K.simplices if e <= s}
    vertices = {v for c in cell_map.values() for v in c}
    return SimplicialComplex(vertices, frozenset(cell_map.values())), cell_map


def _graph_connected(vertices, edges) -> bool:
    vertices = list(vertices)
    seen = set(vertices[:1])
    grown = True
    while grown:
        grown = False
        for a, b in edges:
            if (a in seen) != (b in seen):
                seen |= {a, b}
                grown = True
    return bool(vertices) and seen == set(vertices)


def classify_link_reference(L: SimplicialComplex) -> str:
    """The vertex-link tag read off the simplices alone: degrees and
    connectivity from the edge list, the triangles of each edge counted
    over every triangle, and each vertex link by the scanning
    `simplex_link_data_reference`."""
    def by_size(S, k):
        return [s for s in S.simplices if len(s) == k]

    def circle(S) -> bool:
        edges = [tuple(e) for e in by_size(S, 2)]
        return (
            max(map(len, S.simplices)) == 2
            and all(sum(v in e for e in edges) == 2 for v in S.vertex_ids)
            and _graph_connected(S.vertex_ids, edges)
        )

    d = max(map(len, L.simplices)) - 1
    if d >= 3:
        return "unknown"
    if circle(L):
        return "circle"
    triangles = by_size(L, 3)
    chi = sum((-1) ** (len(s) - 1) for s in L.simplices if s)
    if (
        d == 2
        and _graph_connected(L.vertex_ids, [tuple(e) for e in by_size(L, 2)])
        and all(sum(e <= t for t in triangles) == 2 for e in by_size(L, 2))
        and all(circle(simplex_link_data_reference(L, frozenset([v]))[0]) for v in L.vertex_ids)
        and chi == 2
    ):
        return "2-sphere"
    return "other"


def is_pure_reference(host) -> bool:
    """Every cell lies under a top cell: a simplex inside some top simplex,
    a cube among the iterated cofaces of which some cube is top, the
    cofaces found by vertex-set inclusion and grown to a fixed point."""
    top = host.top_dim
    tops = host.cells(top)
    if isinstance(host, CubeComplex):
        cofaces = cofaces_reference(host)
        return all(
            not _upward_closure(cube, cofaces).isdisjoint(tops)
            for d in range(top + 1)
            for cube in host.cells(d)
        )
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


def prune_to_smart_pair_reference(gamma_a: ColoredComplex, gamma_b: ColoredComplex) -> tuple:
    """Maximal simplices with no complementary partner removed round by
    round, both factors rebuilt each round, until none is left; two empty
    complexes when the fixed point is not smartly paired.  A partner is
    found by scanning the other side's simplices for the complementary
    color set."""
    every = frozenset(range(1, gamma_a.n + 1))
    cur_a, cur_b = gamma_a, gamma_b
    while True:
        colors_a = {s.colors for s in cur_a.simplices}
        colors_b = {s.colors for s in cur_b.simplices}
        junk_a = {m for m in cur_a.maximal_simplices if m.dim >= 0 and every - m.colors not in colors_b}
        junk_b = {m for m in cur_b.maximal_simplices if m.dim >= 0 and every - m.colors not in colors_a}
        if not junk_a and not junk_b:
            break
        cur_a = cur_a._replace_simplices(cur_a.simplices - junk_a)
        cur_b = cur_b._replace_simplices(cur_b.simplices - junk_b)
    if not smartly_paired(cur_a, cur_b)[0]:
        empty = frozenset({EMPTY_SIMPLEX})
        return ColoredComplex(gamma_a.n, {}, empty), ColoredComplex(gamma_a.n, {}, empty)
    return cur_a, cur_b


def faces_of_reference(tops) -> set[tuple]:
    """Every sub-tuple of every top: bit i of a mask keeps the top's
    i-th item."""
    return {
        tuple(x for i, x in enumerate(top) if mask >> i & 1)
        for top in tops
        for mask in range(1 << len(top))
    }


def empty_squares_reference(K: ColoredComplex, pair: tuple[int, int]) -> list:
    """The empty squares of the full subcomplex on the color classes of
    `pair`, scanned in a new complex."""
    i, j = pair
    return list(K.full_subcomplex(K.color_class(i) + K.color_class(j)).squares)


def pairwise_5_large_reference(K_A: ColoredComplex, K_B: ColoredComplex) -> tuple:
    """Each pair of colors that K_A uses, in order, with both full
    subcomplexes on it rebuilt and scanned; the first pair where both
    hold a square is the witness."""
    for i, j in combinations(sorted({c for _, c in K_A.vertices}), 2):
        sq_a = empty_squares_reference(K_A, (i, j))
        if not sq_a:
            continue
        sq_b = empty_squares_reference(K_B, (i, j))
        if sq_b:
            return False, ((i, j), sq_a[0], sq_b[0])
    return True, None


def cliques_reference(adj) -> list[tuple]:
    """Every vertex subset whose vertices are pairwise adjacent, sorted by
    size and then by the canonical positions of its vertices."""
    verts = csorted(adj)
    subsets = [
        tuple(i for i in range(len(verts)) if mask >> i & 1) for mask in range(1, 2 ** len(verts))
    ]
    found = [s for s in subsets if all(verts[j] in adj[verts[i]] for i, j in combinations(s, 2))]
    return [tuple(verts[i] for i in s) for s in sorted(found, key=lambda s: (len(s), s))]


def flag_complex_from_graph_reference(n, vertices, edges) -> ColoredComplex:
    """The clique completion as the downward closure of every clique of
    the graph on vertex ids, each clique handed to the build as if it
    were maximal; an edge's undeclared endpoint is a vertex of that graph,
    so the build refuses it."""
    vertices = list(vertices)
    adj: dict = {v: set() for v, _ in vertices}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    verts, masks = mask_graph(adj)
    return ColoredComplex.build(n, vertices, [[verts[q] for q in c] for c in cliques(masks)])


def mask_graph(adj) -> tuple[list, list[int]]:
    """A graph given by its adjacency (vertex -> neighbours) in the int
    form that `cliques` and `_chordless_squares` read: its vertices in
    canonical order, and each one's neighbours as the mask of their
    places in that order."""
    verts = csorted(adj)
    rank = {v: i for i, v in enumerate(verts)}
    return verts, [sum(1 << rank[u] for u in adj[v]) for v in verts]


def chordless_squares_reference(adj) -> list[tuple]:
    """Every 4-cycle v u w x of distinct vertices with neither diagonal an
    edge, presented from its least vertex v and with u before x, sorted by
    canon_key."""
    out = []
    for v, u, w, x in permutations(adj, 4):
        cycle = u in adj[v] and w in adj[u] and x in adj[w] and v in adj[x]
        chordless = w not in adj[v] and x not in adj[u]
        first = canon_key(v) < min(canon_key(u), canon_key(w), canon_key(x))
        if cycle and chordless and first and canon_key(u) < canon_key(x):
            out.append((v, u, w, x))
    return sorted(out, key=canon_key)


def _merged(b1: CoordSimplex, b2: CoordSimplex):
    """The simplex with the entries of both, or None when they give one
    color two vertices."""
    merged = dict(b1.entries)
    for c, v in b2.entries:
        if merged.setdefault(c, v) != v:
            return None
    return CoordSimplex.of(merged)


def conn_graph_reference(gamma_a: ColoredComplex, gamma_b: ColoredComplex) -> tuple:
    """Nodes and edges of the connectivity graph by the pairwise rule:
    nodes (maximal a, complementary b) in canon_key order, and an edge
    (x, y), x before y, when the B-parts merge into one simplex and some
    simplex of gamma_b complementary to the common face of the A-parts
    contains the merge, every simplex of gamma_b tried."""
    all_colors = frozenset(range(1, gamma_a.n + 1))
    nodes = csorted(
        (m, b)
        for m in maximal_simplices_reference(gamma_a)
        for b in gamma_b.simplices
        if not m.colors & b.colors and m.colors | b.colors == all_colors
    )
    edges = set()
    for (a1, b1), (a2, b2) in combinations(nodes, 2):
        common = CoordSimplex(tuple(sorted(set(a1.entries) & set(a2.entries))))
        union = _merged(b1, b2)
        if union is not None and any(
            union <= cand and cand.colors == all_colors - common.colors for cand in gamma_b.simplices
        ):
            edges.add(((a1, b1), (a2, b2)))
    return tuple(nodes), frozenset(edges)


def is_connected_bfs_reference(gamma_a: ColoredComplex, gamma_b: ColoredComplex) -> bool:
    """Connectivity of the pair complex read from its built facet table:
    every cube assembled, then the components of its vertices and edges."""
    return build_clcc(gamma_a, gamma_b).is_connected()


def covering_pairs_reference(gamma_a: ColoredComplex, gamma_b: ColoredComplex) -> list:
    """Every pair (a, b) of simplices of the two factors whose colors cover
    {1..n}, by a scan of all pairs of simplices."""
    all_colors = frozenset(range(1, gamma_a.n + 1))
    return [(a, b) for a in gamma_a.simplices for b in gamma_b.simplices
            if a.colors | b.colors == all_colors]


def pair_cubes_reference(n: int, pairs) -> CubeComplex:
    """The cube complex on a family of pairs (a, b), by the assembler that
    the bucket products replace: the distinct a- and b-simplices ranked by
    `csorted`, each cube keyed by its two ranks, and the facets (a - i, b)
    and (a, b - i) of each overlap color i looked up by value.  A family
    that lacks a facet raises for the first one missing: cubes in
    canonical order, overlap colors ascending, (a - i, b) before
    (a, b - i)."""
    side_a = csorted({a for a, _ in pairs})
    side_b = csorted({b for _, b in pairs})
    rank_a = {a: i for i, a in enumerate(side_a)}
    rank_b = {b: i for i, b in enumerate(side_b)}
    nb = len(side_b)
    keys = sorted({rank_a[a] * nb + rank_b[b] for a, b in pairs})
    present = {(side_a[k // nb], side_b[k % nb]) for k in keys}
    by_dim: dict[int, list] = {}
    where: dict = {}
    for k in keys:
        a, b = side_a[k // nb], side_b[k % nb]
        cells = by_dim.setdefault(len(a.colors & b.colors), [])
        where[a, b] = len(cells)
        cells.append((a, b))
    positions: dict[int, list] = {d: [] for d in by_dim if d}
    for k in keys:
        a, b = side_a[k // nb], side_b[k % nb]
        facets = [f for i in sorted(a.colors & b.colors)
                  for f in ((a.minus(i), b), (a, b.minus(i)))]
        for f in facets:
            if f not in present:
                raise ComplexError(f"facet {f} missing; cube family not downward consistent")
        if facets:
            positions[len(facets) // 2].append(tuple(sorted(where[f] for f in facets)))
    return CubeComplex(by_dim, positions, n=n)


def cube_document_reference(X: CubeComplex) -> dict:
    """The JSON form of a pair-built complex with two new side dicts per
    cube, by the emitter that the shared side forms replace."""
    def cube_json(cube) -> dict:
        a, b = cube
        return {"a": {str(c): v for c, v in a.entries}, "b": {str(c): v for c, v in b.entries}}
    return {"n": X.n,
            "cubes": [{**cube_json(c), "dim": d} for d in range(X.top_dim + 1) for c in X.cells(d)]}


def is_full_cross_polytope_reference(K: ColoredComplex) -> bool:
    """Two vertices per color, every pair of vertices of different colors
    joined, and flag by a scan of every clique: the recogniser that the
    vertex and edge counts replace."""
    if len(K.vertex_ids) != 2 * K.n:
        return False
    classes = [K.color_class(c) for c in range(1, K.n + 1)]
    if any(len(cl) != 2 for cl in classes):
        return False
    adj = K.adjacency
    for ca, cb in combinations(classes, 2):
        for u in ca:
            for v in cb:
                if v not in adj[u]:
                    return False
    return is_flag(K)[0]


def barycentric_subdivision_2d_reference(K: SimplicialComplex, color_map) -> ColoredComplex:
    """The barycentric subdivision of a complex of dimension <= 2 with every
    chain of faces listed by hand, one case per shape of chain: the
    enumeration that the full flags of the maximal simplices replace."""
    dim_color = {0: color_map["V"], 1: color_map["E"], 2: color_map["F"]}

    def bid(s: frozenset) -> str:
        return "|".join(str(v).replace("\\", "\\\\").replace("|", "\\|") for v in csorted(s))

    verts = [(bid(s), dim_color[len(s) - 1]) for d in (0, 1, 2) for s in K.cells(d)]
    chains: list[list[frozenset]] = [[s] for d in (0, 1, 2) for s in K.cells(d)]
    for e in K.cells(1):
        for v in e:
            chains.append([frozenset([v]), e])
    for f in K.cells(2):
        for v in f:
            chains.append([frozenset([v]), f])
        for pair in combinations(csorted(f), 2):
            e = frozenset(pair)
            chains.append([e, f])
            for v in e:
                chains.append([frozenset([v]), e, f])
    return ColoredComplex.build(3, verts, [[bid(s) for s in chain] for chain in chains])
