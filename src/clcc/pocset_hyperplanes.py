"""Hyperplanes, halfspace pocsets, and the ultrafilter cube complex.

A hyperplane is an equivalence class of parallel edges (the transitive
closure of opposite-edge pairs across squares).  For complexes whose
hyperplanes are all two-sided, the halfspaces form a pocset under
inclusion, and the ultrafilter construction rebuilds the complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Optional

from clcc.errors import DomainError, NotTwoSidedError, PocsetError
from clcc.clcc_core import CubeComplex
from clcc.simplicial import _bits, component_roots

# The default limit on the ultrafilters of one pocset (`ultrafilters`,
# `sageev`, `roller_duality_check` and the CLI's --max-ultrafilters):
# the walk that lists them stops at one more and raises DomainError.
MAX_ULTRAFILTERS = 1 << 16
# The default limit on the cubes of one ultrafilter complex, its vertices
# included (`sageev`, the rebuild of `roller_duality_check` and the CLI's
# --max-cubes): the free 12-pair pocset (3^12 = 531,441 cubes) is within
# it, the free 13-pair one (1,594,323) is not.
MAX_CUBES = 1 << 20


@dataclass(frozen=True)
class Hyperplane:
    hid: str
    edges: tuple


def hyperplanes(X: CubeComplex) -> list[Hyperplane]:
    """Edge classes under square opposition, numbered in the order of
    their first edges along X.cells(1), which is in canonical order, so
    each class comes out sorted.  The classes are walked once per complex
    (`CubeComplex.opposition`); each call returns a new list."""
    return [Hyperplane(f"h{i}", c) for i, c in enumerate(X.opposition.classes)]


def directions(X: CubeComplex) -> tuple[dict[str, int], bool]:
    """Coordinate color of each hyperplane of a pair-built complex.

    An edge (a, b) changes exactly the one color where a and b overlap,
    and opposite edges of a square (a, b) drop the same overlap color,
    so every edge of a class has the color of its first edge.  The flag
    is always True (the `clcc hyperplanes` payload prints it)."""
    if not X.has_pair_origin:
        raise DomainError("directions need a pair-built complex")
    firsts = (edges[0] for edges in X.opposition.classes)
    return {f"h{i}": min(a.colors & b.colors) for i, (a, b) in enumerate(firsts)}, True


@dataclass(frozen=True)
class CrossingGraph:
    nodes: tuple[str, ...]
    edges: frozenset  # frozensets {h, k}, h != k
    self_crossing: frozenset


def crossing_graph(X: CubeComplex) -> CrossingGraph:
    """Two hyperplanes cross when a common square uses both: the classes
    of a square's two opposite pairs."""
    op = X.opposition
    hid = [f"h{i}" for i in range(len(op.classes))]
    crossing = {(op.label[e], op.label[g]) for e, _, g, _ in op.squares}
    edges = frozenset(frozenset({hid[h], hid[k]}) for h, k in crossing if h != k)
    selfx = frozenset(hid[h] for h, k in crossing if h == k)
    return CrossingGraph(tuple(hid), edges, selfx)


# ----------------------------------------------------------------------
# pocsets
# ----------------------------------------------------------------------


def star(element: tuple[str, str]) -> tuple[str, str]:
    pid, side = element
    return (pid, "-" if side == "+" else "+")


@dataclass(frozen=True)
class Pocset:
    """Finite poset with a free order-reversing involution.

    `elements` are sorted, (pid, "+") then (pid, "-"), so the conjugate of
    elements[i] is elements[i ^ 1].  The order is stored once, as rows:
    bit j of rows[i] when elements[i] < elements[j], transitively closed.
    `less` views the rows as (x, y) pairs; `sides` optionally carries the
    halfspace vertex sets."""

    elements: tuple
    rows: tuple
    sides: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self):
        elements, rows, n = self.elements, self.rows, len(self.elements)
        if elements != tuple((pid, s) for pid in sorted({e[0] for e in elements}) for s in "+-"):
            raise PocsetError(f"elements {elements!r} are not sorted pairs (pid, '+'), (pid, '-')")
        if len(rows) != n or any(row >> n for row in rows):
            raise PocsetError(f"the order needs {n} rows of {n}-bit masks")
        # rows in order, bits ascending: the sorted (x, y) order
        order = [(i, j) for i, row in enumerate(rows) for j in _bits(row)]
        for i, j in order:
            x, y = elements[i], elements[j]
            if i == j:
                raise PocsetError(f"irreflexivity violated at {x}")
            if j == i ^ 1:
                raise PocsetError(f"{x} comparable with its conjugate")
            if not rows[j ^ 1] >> (i ^ 1) & 1:
                raise PocsetError(f"involution does not reverse {x} < {y}")
            if rows[j] >> i & 1:
                raise PocsetError(f"antisymmetry violated on {x}, {y}")
        for i, j in order:
            if missing := rows[j] & ~rows[i]:
                x, y, w = elements[i], elements[j], elements[_bits(missing)[0]]
                raise PocsetError(f"order not transitive: {x} < {y} < {w}")

    @cached_property
    def less(self) -> frozenset:
        """The order as (x, y) pairs, read off the rows."""
        e = self.elements
        return frozenset((e[i], e[j]) for i, row in enumerate(self.rows) for j in _bits(row))

    @property
    def pair_ids(self) -> tuple[str, ...]:
        return tuple(pid for pid, _ in self.elements[::2])

    def _ultrafilter_masks(self, limit: int = MAX_ULTRAFILTERS) -> tuple[int, ...]:
        """`_ultrafilter_walk` of the rows.  A finished walk is kept on
        the pocset, so later calls within their limit read it."""
        masks = self.__dict__.get("_masks")
        if masks is not None and len(masks) <= limit:
            return masks
        masks = self.__dict__["_masks"] = _ultrafilter_walk(self.rows, limit)
        return masks

    @staticmethod
    def from_relations(pair_ids, relations) -> "Pocset":
        """Close the x < y relations under involution and transitivity
        (Warshall's algorithm on the rows), then check the axioms."""
        elements = tuple(sorted({(pid, s) for pid in pair_ids for s in ("+", "-")}))
        index = {e: i for i, e in enumerate(elements)}
        rows = [0] * len(elements)
        for x, y in relations:
            for u, v in ((x, y), (star(y), star(x))):
                if u not in index or v not in index:
                    raise PocsetError(f"relation {u} < {v} uses unknown elements")
                rows[index[u]] |= 1 << index[v]
        for k in range(len(rows)):
            for i, row in enumerate(rows):
                if row >> k & 1:
                    rows[i] = row | rows[k]
        return Pocset(elements, tuple(rows))

    def to_json_dict(self) -> dict:
        return {
            "pairs": [{"id": pid} for pid in self.pair_ids],
            "less": sorted([f"{x[0]}{x[1]}", f"{y[0]}{y[1]}"] for x, y in self.less),
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "Pocset":
        def parse(token: str):
            if not isinstance(token, str) or not token or token[-1] not in "+-":
                raise PocsetError(f"element token {token!r} must be a string ending with + or -")
            return (token[:-1], token[-1])

        def parse_pair(entry):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise PocsetError(f"less entry {entry!r} must be two element tokens")
            return parse(entry[0]), parse(entry[1])

        try:
            pair_ids = [p["id"] for p in doc["pairs"]]
            relations = [parse_pair(entry) for entry in doc["less"]]
        except (KeyError, TypeError) as exc:
            raise PocsetError(f"malformed pocset document: {exc}") from exc
        if not all(isinstance(pid, str) for pid in pair_ids):
            raise PocsetError(f"pair ids must be strings, got {pair_ids!r}")
        if len(set(pair_ids)) != len(pair_ids):
            raise PocsetError(f"duplicate pair ids in {pair_ids!r}")
        return Pocset.from_relations(pair_ids, relations)


def _halfspaces(X: CubeComplex) -> tuple[tuple, tuple, list, list]:
    """The halfspace elements in sorted order, their order as rows (bit j
    of rows[i] when halfspace i is strictly inside halfspace j), each
    halfspace as the mask of its vertices' positions in `X.cells(0)`,
    and each vertex's sign: bit p set when the vertex is on the "+" side
    of pair p, in the sorted order of the pair ids ("h10" before "h2").

    Each hyperplane's edges, cut, must leave two parts, X must be
    connected, and no square may have both its pairs in one class: that
    hyperplane crosses itself, which a `from_cells` host may do (a
    pair-built square has two colors), and is refused first.  The signs
    come from one walk from vertex 0: each vertex gets its parent's sign
    with the bit of the tree edge's class flipped.  They are the cuts'
    sides when the walk reaches every vertex and every edge joins two
    signs that differ in exactly the bit of its own class.  Then bit h
    changes along exactly the edges of h, so each value of it holds
    whole parts of the cut of h.  And each holds one part: a vertex
    reaches, without crossing h, an end of some h-edge with its own bit
    h, and those ends are joined outside h, since a square's two h-edges
    are joined by its other two edges, which are not in h.  Vertex 0, the
    canonically least, has sign 0, so the "-" side holds it, as in the
    cuts.

    Conversely, when X is connected and every cut leaves two parts, the
    edges of a class all join the two parts or none does (a square
    carries the one to the other), and some does, so every edge passes.
    So when the walk fails, `_cut_error`, which reads the cuts one by
    one, names the error."""
    op = X.opposition
    label, count = op.label, len(X.cells(0))
    crossed = [label[e] for e, _, g, _ in op.squares if label[e] == label[g]]
    if crossed:
        raise NotTwoSidedError(f"hyperplane h{min(crossed)} crosses itself")
    # the class of each sorted pair position: "h10" sorts before "h2"
    hids = sorted(f"h{h}" for h in range(len(op.classes)))
    bit = [0] * len(hids)
    for p, hid in enumerate(hids):
        bit[int(hid[1:])] = 1 << p
    signs = _walk_signs(X, bit) if hids else [0] * count
    if signs is None:
        raise _cut_error(X)
    # the "+" mask of pair p: bit p of each sign, read as binary digits
    # from the last vertex down
    full, last_first, masks = (1 << count) - 1, signs[::-1], []
    for p in range(len(hids)):
        b = 1 << p
        plus = int("".join(["1" if s & b else "0" for s in last_first]), 2)
        masks += (plus, full ^ plus)
    elements = tuple((hid, side) for hid in hids for side in "+-")
    rows = tuple(sum(1 << j for j, b in enumerate(masks) if a != b and not a & ~b) for a in masks)
    return elements, rows, masks, signs


def _walk_signs(X: CubeComplex, bit: list) -> Optional[list]:
    """Each vertex's sign from one walk from vertex 0 (see `_halfspaces`),
    or None when the walk misses a vertex or an edge fails the check."""
    label, ends = X.opposition.label, X.facet_positions(1)
    flips = [bit[h] for h in label]
    around: list = [[] for _ in X.cells(0)]
    for (u, v), f in zip(ends, flips):
        around[u].append((v, f))
        around[v].append((u, f))
    signs: list = [None] * len(around)
    signs[0] = 0
    reached = [0]
    for u in reached:
        s = signs[u]
        for v, f in around[u]:
            if signs[v] is None:
                signs[v] = s ^ f
                reached.append(v)
    if None in signs or [signs[u] ^ signs[v] for u, v in ends] != flips:
        return None
    return signs


def _cut_error(X: CubeComplex) -> NotTwoSidedError:
    """Why a complex with no self-crossing square has no halfspace
    pocset, once the walk has failed: the first hyperplane, in class
    order, whose cut leaves other than two parts.  If every cut leaves
    two, X is not connected (the converse in `_halfspaces`): its two
    components are the two parts of the cut of h0."""
    op, endpoints, count = X.opposition, X.facet_positions(1), len(X.cells(0))
    for h in range(len(op.classes)):
        sides = len(set(component_roots(count, (e for e, k in zip(endpoints, op.label) if k != h))))
        if sides != 2:
            text = f"hyperplane h{h} separates the complex into {sides} parts, not 2"
            return NotTwoSidedError(text)
    return NotTwoSidedError("the complex is not connected: no edge of h0 joins its sides")


def halfspace_pocset(X: CubeComplex) -> Pocset:
    """Halfspaces ordered by inclusion of their vertex sets.

    Requires every hyperplane to be two-sided: removing its edges must
    split the 1-skeleton into exactly two components, it must cross
    itself in no square, and the complex must be connected.  Quotients
    with one-sided classes (a torus, say) are rejected.  Each
    halfspace's vertices are read off its mask in one C-level pass:
    bin(mask) from its lowest bit, its digits made bytes 0 and 1, gives
    one selector per vertex."""
    elements, rows, masks, _ = _halfspaces(X)
    verts, bits = X.cells(0), bytes.maketrans(b"01", b"\0\1")
    sides = [frozenset(compress(verts, bin(m)[:1:-1].encode().translate(bits))) for m in masks]
    return Pocset(elements, rows, sides=dict(zip(elements, sides)))


# ----------------------------------------------------------------------
# ultrafilter construction
# ----------------------------------------------------------------------


def _ultrafilter_walk(rows: tuple, limit: int) -> tuple[int, ...]:
    """Every ultrafilter of the pocset whose order is `rows` (see
    `Pocset`) as the mask of its "+" sides (bit p for pair p), in
    canonical order: sides are chosen in pair order, "+" first, carrying
    the pairs chosen or forced to each side as two masks; a pair in both
    is a contradiction.  The masks of each element come off its row: bit
    j is pair j >> 1, on side j & 1.  The rows are taken as they are: the
    axioms are checked where a `Pocset` is made.

    The walk stops at its (limit + 1)-th ultrafilter and raises
    DomainError."""
    # up[i]: the pairs of element i and of every element above it, by side
    up = [[0, 0] for _ in rows]
    for i, row in enumerate(rows):
        for j in _bits(row | 1 << i):
            up[i][j & 1] |= 1 << (j >> 1)
    sides = [(up[i + 1], up[i]) for i in range(0, len(up), 2)]
    out, stack = [], [(0, 0, 0)]
    while stack:
        p, plus, minus = stack.pop()
        if p == len(sides):
            out.append(plus)
            if len(out) > limit:
                raise DomainError(
                    f"the pocset has more than {limit} ultrafilters (max_ultrafilters={limit})"
                )
            continue
        for up_plus, up_minus in sides[p]:  # "+" is pushed last, so walked first
            on, off = plus | up_plus, minus | up_minus
            if not on & off:
                stack.append((p + 1, on, off))
    return tuple(out)


def ultrafilters(S: Pocset, max_ultrafilters: int = MAX_ULTRAFILTERS) -> list[frozenset]:
    """All complete consistent choices of one side per pair, in canonical
    order, read off `S._ultrafilter_masks` (finiteness makes the
    descending chain condition free).  More than `max_ultrafilters` of
    them raise DomainError."""
    return _ultrafilter_sets(S.pair_ids, S._ultrafilter_masks(max_ultrafilters))


def _ultrafilter_sets(pair_ids: tuple, plus: tuple) -> list[frozenset]:
    """Each "+" mask of `plus` as the frozenset of its chosen sides."""
    sides = [((pid, "-"), (pid, "+")) for pid in pair_ids]
    return [frozenset([s[m >> p & 1] for p, s in enumerate(sides)]) for m in plus]


def _sageev_tables(
    plus: tuple, shift: int, max_cubes: int = MAX_CUBES
) -> list[list[tuple[int, ...]]]:
    """The facet tables of the ultrafilter complex, dimension 1 first,
    on the positions of `plus`, a pocset's `_ultrafilter_masks` over its
    `shift` pairs: a d-cube's facets are positions among the (d-1)-cubes.
    More than `max_cubes` cubes, the vertices included, raise
    DomainError; the count is checked before each parent cube grows, so
    at most one parent's children are made past it.

    A cube (u, T) is named by its top vertex u, the ultrafilter on the
    "+" side of every pair in T.  "+" sorts first, so u is the cube's
    least vertex, and the canonical order of the d-cubes is u ascending,
    then the mask of T descending.  (u, T) grows into (u, T + p) only for
    p < min T, p descending, over the pairs where u switched to "-" at p
    is an ultrafilter u_p, and (u, T + p) exists exactly when (u_p, T)
    does: one int-keyed lookup.  Walking the d-cubes in order, the
    (d+1)-cubes come out in order too, so nothing is sorted.

    The facets of (u, T') come out ascending: (u, T' - q) for q
    ascending, then (u_q, T' - q) for q descending.  With p = min T',
    the first is the parent (u, T), the last is (u_p, T), and the ones
    between are the parent's facets, in their order, each grown by p."""
    index = {m: i for i, m in enumerate(plus)}
    # down[u]: (p, u_p << shift, the bit of p) for p descending, the keys
    # shifted once here so that the growing loop shifts nothing
    pairs = [(p, 1 << p) for p in reversed(range(shift))]
    down = [
        [(p, w << shift, bit) for p, bit in pairs
         if m & bit and (w := index.get(m ^ bit)) is not None]
        for m in plus
    ]
    tables = []
    # the d-cubes in order as (u, mask of T, min T, facets); at: u << shift | mask -> position;
    # grown_by[f][p]: the position of (d-1)-cube f grown by p
    level = [(u, 0, shift, ()) for u in range(len(plus))]
    at = {u << shift: u for u in range(len(plus))}
    grown_by: list = []
    room = max_cubes - len(plus)  # the cubes that may still be made
    while True:
        grown, nxt, children = [], {}, []
        add = grown.append
        for parent, (u, mask, low, facets) in enumerate(level):
            if len(grown) > room:
                raise DomainError(
                    f"the ultrafilter complex has more than {max_cubes} cubes (max_cubes={max_cubes})"
                )
            kids = {}
            key = u << shift | mask
            for p, w_key, bit in down[u]:
                if p < low:
                    last = at.get(w_key | mask)
                    if last is not None:
                        kids[p] = nxt[key | bit] = len(grown)
                        if facets:
                            fs = (parent, *[grown_by[f][p] for f in facets], last)
                        else:  # an edge: its two vertices
                            fs = (parent, last)
                        add((u, mask | bit, p, fs))
            children.append(kids)
        if not grown:
            return tables
        tables.append([fs for _, _, _, fs in grown])
        room -= len(grown)
        level, at, grown_by = grown, nxt, children


def sageev(
    S: Pocset, max_ultrafilters: int = MAX_ULTRAFILTERS, max_cubes: int = MAX_CUBES
) -> CubeComplex:
    """Cube complex on the ultrafilters: a cube for each ultrafilter u
    and set T of pairs such that switching u on any subset of T gives an
    ultrafilter.  More than `max_ultrafilters` ultrafilters raise
    DomainError before any cube is made, and more than `max_cubes` cubes
    (vertices included) raise DomainError while the cubes are grown.

    The cubes and their facet table come from `_sageev_tables`: each
    cube is grown once, from its top vertex u (on the "+" side of every
    pair in T), by a pair below every pair in T, so every dimension
    comes out in canonical order (u ascending, then the mask of T
    descending) and its facets ascending, with no sort.  A cell is the
    frozenset of its ultrafilters: the union of its first facet (the
    parent) and its last."""
    plus = S._ultrafilter_masks(max_ultrafilters)
    verts = _ultrafilter_sets(S.pair_ids, plus)
    tables = _sageev_tables(plus, len(S.pair_ids), max_cubes)
    cells: dict[int, list] = {0: verts}
    below = [frozenset([u]) for u in verts]
    for d, table in enumerate(tables, 1):
        below = cells[d] = [below[fs[0]] | below[fs[-1]] for fs in table]
    return CubeComplex(cells, dict(enumerate(tables, 1)))


def roller_duality_check(X: CubeComplex, max_ultrafilters: int = MAX_ULTRAFILTERS):
    """Rebuild X from its halfspace pocset and compare.

    The natural map sends a vertex to the set of halfspaces containing
    it; success means that map is a cube-complex isomorphism.  Returns
    (verdict, vertex bijection or None).  A pocset with more than
    `max_ultrafilters` ultrafilters, or a rebuild of more than
    `MAX_CUBES` cubes, raises DomainError.

    Each vertex of X is sent, by its sign from `_halfspaces` (the mask
    of its "+" halfspaces), to a position of `_ultrafilter_walk` of the
    halfspace order, which is a pocset by construction and so is not
    re-checked as a `Pocset`; then, one dimension at a time, a d-cell of
    X goes to the d-cube of `_sageev_tables` whose facets are the images
    of its facets.  Cells are determined by their facets, so this
    compares facet tables only: it makes no rebuild complex and reads no
    vertex sets, and the ultrafilters are built as sets only for the
    mapping, when the verdict is True."""
    elements, rows, _, signs = _halfspaces(X)
    verts = X.cells(0)
    masks = _ultrafilter_walk(rows, max_ultrafilters)
    at = {m: i for i, m in enumerate(masks)}
    positions = image = [at.get(m) for m in signs]
    if len(verts) != len(masks) or None in image or len(set(image)) != len(image):
        return False, None
    pair_ids = [pid for pid, _ in elements[::2]]
    tables = _sageev_tables(masks, len(pair_ids))
    for d in range(1, max(X.top_dim, len(tables)) + 1):
        xs = X.facet_positions(d)
        ys = tables[d - 1] if d <= len(tables) else ()
        if len(xs) != len(ys):
            return False, None
        at = {fs: q for q, fs in enumerate(ys)}
        get = image.__getitem__
        image = [at.get(tuple(sorted(map(get, fs)))) for fs in xs]
        if None in image:
            return False, None  # a guard of the verdict: every cube of X is a rebuild cube
    U = _ultrafilter_sets(pair_ids, masks)
    return True, {v: U[i] for v, i in zip(verts, positions)}
