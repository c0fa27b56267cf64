"""Independent oracles the library is checked against.

These rebuild the reference objects from scratch: the coordinate-cube
complex of a right-angled Coxeter kernel, its cube-by-cube subdivision,
and a hand-made torus triangulation.  Nothing here calls the pair
builder.  The naive references at the end recompute the canonical orders,
facets, pocset closures and ultrafilter cubes that the library derives
from ranks, bitsets and flip tables."""

from __future__ import annotations

from itertools import combinations, product

from clcc.canon import canon_key, csorted
from clcc.clcc_core import CubeComplex
from clcc.pocset_hyperplanes import star
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
