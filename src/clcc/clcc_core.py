"""Coupled-link cube complexes.

A pair of n-colored simplicial complexes (gamma_a, gamma_b) determines a
cube complex whose d-cubes are the pairs (a, b) of coordinate simplices
whose colors jointly cover {1..n} and overlap in exactly d colors.
Vertices are the complementary pairs, and the link of a cube (a, b) is
the join of the links of a and b in their respective complexes.

CubeComplex is also the generic container used for hand-built complexes
(trees, grids) and for the output of the halfspace/ultrafilter
construction; those carry no pair origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice, product
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from clcc.canon import csorted
from clcc.errors import ComplexError, DomainError
from clcc.simplicial import (
    EMPTY_SIMPLEX,
    CellStore,
    ColoredComplex,
    ColoredMap,
    CoordSimplex,
    SimplicialComplex,
    _chordless_squares,
    _neighbour_lists,
    check_color_count,
    check_same_color_count,
    components,
    connected,
    is_flag,
    reach,
    simplicial_join,
)

AUGMENTATION = "<augmentation>"

CubeId = object  # (CoordSimplex, CoordSimplex) for pair-built complexes


class CubeComplex(CellStore):
    """Finite cube complex with explicit facet relation.

    Every d-cube has exactly 2d facets; cubes are determined by their
    vertex sets (gluings with repeated faces are rejected at ingestion).

    The cells are kept in the store that the simplicial hosts share
    (`CellStore`); the builders hand over the cells, in canonical order,
    and the facet table, which purity, Betti numbers, connectivity and
    the hyperplane walk read.  The cube index (read by `facets`,
    `boundary_of`, `dim_of` and `in`) and the coface table (walked by
    links) are built on first use.  There are no cells below dimension
    0: the augmentation stays outside the store.  No vertex sets are
    stored: a `from_cells` or `sageev` cell of dimension d >= 1 is its
    own vertex set, and a vertex v has {v}; a pair-built cube's vertex
    set is computed when asked.  Only pair-built complexes have a color
    count `n`.
    """

    def __init__(
        self,
        cubes_by_dim: Mapping[int, tuple],
        facet_positions: Mapping[int, tuple],
        n: Optional[int] = None,
        defining_pair: Optional[tuple[ColoredComplex, ColoredComplex]] = None,
    ):
        self._cells_by_dim = {d: tuple(cs) for d, cs in sorted(cubes_by_dim.items()) if cs}
        self._facet_positions = {d: tuple(facet_positions[d]) for d in self._cells_by_dim if d}
        self.n = n
        self.defining_pair = defining_pair

    # -- construction --------------------------------------------------

    @staticmethod
    def from_cells(cells: Mapping[int, Iterable[frozenset]]) -> "CubeComplex":
        """Generic complex from vertex sets per dimension.

        Dimension-0 cells are identified by the vertex id itself; higher
        cells by their vertex set.  Facets are inferred by vertex-set
        inclusion and must number exactly 2d.

        The vertices are ranked once in canonical order, and a cell is
        keyed by the sorted ranks of its vertices: that sorts exactly as
        its vertex set does.  The facets of a cell are looked up among the
        (d-1)-cells at its vertices.
        """
        by_dim: dict[int, list] = {}
        vsets: dict = {}
        seen: set = set()
        for d in sorted(cells):
            ids = []
            for cell in cells[d]:
                cell = frozenset(cell)
                if len(cell) != 2**d:
                    raise ComplexError(f"{d}-cube needs {2**d} vertices, got {len(cell)}")
                cid = next(iter(cell)) if d == 0 else cell
                if cid in seen:
                    raise ComplexError(f"duplicate cube {cid}")
                seen.add(cid)
                ids.append(cid)
                vsets[cid] = cell
            by_dim[d] = ids
        rank = {v: i for i, v in enumerate(csorted(by_dim.get(0, ())))}
        key: dict = {v: (i,) for v, i in rank.items()}
        for d in by_dim:
            if d == 0:
                continue
            for cid in by_dim[d]:
                missing = [v for v in vsets[cid] if v not in rank]
                if missing:
                    raise ComplexError(f"cube {cid} uses undeclared vertices {csorted(missing)}")
                key[cid] = tuple(sorted(rank[v] for v in vsets[cid]))
        ordered = {d: sorted(ids, key=key.__getitem__) for d, ids in by_dim.items()}
        positions: dict[int, list] = {}
        for d in by_dim:
            if d == 0:
                continue
            lower = ordered.get(d - 1, ())
            at_vertex: dict = {}
            for pos, f in enumerate(lower):
                for v in vsets[f]:
                    at_vertex.setdefault(v, []).append(pos)
            table = positions[d] = []
            for cid in ordered[d]:
                cell = vsets[cid]
                near = {pos for v in cell for pos in at_vertex.get(v, ())}
                fs = sorted(pos for pos in near if vsets[lower[pos]] <= cell)
                if len(fs) != 2 * d:
                    raise ComplexError(
                        f"{d}-cube {set(cell)} has {len(fs)} facets, expected {2 * d}"
                    )
                table.append(tuple(fs))
        return CubeComplex(ordered, positions)

    # -- queries ---------------------------------------------------------

    @property
    def has_pair_origin(self) -> bool:
        """Built from cube pairs (a, b): the one builder that gives a color
        count."""
        return self.n is not None

    def __contains__(self, cube: CubeId) -> bool:
        return cube in self._index

    def vertices_of(self, cube: CubeId) -> frozenset:
        """The vertex set of a cube, computed on each call for a pair-built
        complex."""
        d = self._index[cube][0]
        if self.has_pair_origin:
            return _cube_vertices(*cube)
        return cube if d else frozenset({cube})

    def facets(self, cube: CubeId) -> tuple:
        d, p = self._index[cube]
        lower = self.cells(d - 1)
        return tuple([lower[q] for q in self._facet_positions[d][p]]) if d else ()

    @property
    def augmentation_cell(self):
        return AUGMENTATION

    def boundary_of(self, cube: CubeId) -> tuple:
        return self.facets(cube) if self._index[cube][0] else (AUGMENTATION,)

    @cached_property
    def opposition(self) -> "Opposition":
        """The hyperplane structure, walked once per complex."""
        return _opposition_walk(self)

    # -- links -----------------------------------------------------------

    def edge_orientation(self, edge: CubeId) -> tuple:
        """Orientation convention for pair-built edges: from the endpoint
        with more A-coordinates to the one with fewer.  Metadata only; no
        invariant consumes it."""
        if not self.has_pair_origin:
            raise DomainError("edge orientation needs a pair-built complex")
        a, b = edge
        (i,) = a.colors & b.colors
        return ((a, b.minus(i)), (a.minus(i), b))

    def link_data(self, cube: CubeId):
        """Adjacency-derived link: one (m)-simplex per (k+m+1)-cube above
        `cube`; vertices are the (k+1)-cubes.  Returns the link and the
        coface -> link-cell map used by localization.  The star is walked
        up the coface table: the link cell of a (k+1)-cube is itself, and
        a higher coface's is the union of the link cells of its facets in
        the star."""
        if cube not in self._index:
            raise DomainError(f"cube {cube!r} not in complex")
        cell_map: dict = {cube: frozenset()}
        below: dict = {}
        for d, level in islice(self._star(cube), 1, None):  # the cofaces above the cube
            cells, table, here = self.cells(d), self._facet_positions[d], {}
            for q in level:
                parts = [below[f] for f in table[q] if f in below]
                # one dimension up, no facet is in the star above the cube
                link_cell = frozenset().union(*parts) if parts else frozenset([cells[q]])
                here[q] = cell_map[cells[q]] = link_cell
            below = here
        one_up = [c for c, link_cell in cell_map.items() if len(link_cell) == 1]
        return SimplicialComplex(one_up, frozenset(cell_map.values())), cell_map

    link_complex = CellStore.link

    # -- io ----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        if not self.has_pair_origin:
            raise DomainError("only pair-built complexes have a JSON form")
        cubes = [
            {**cube_json(cube), "dim": d} for d, cs in self._cells_by_dim.items() for cube in cs
        ]
        return {"n": self.n, "cubes": cubes}

    @staticmethod
    def from_json_dict(doc: dict) -> "CubeComplex":
        """A built complex from its JSON form.  Each cube's colors must
        cover {1..n}, and a declared "dim" must be the integer overlap size.

        The cube sides span a pair of factors, and every cube of the
        document is a cube of that pair.  So a document that is all the
        cubes of that pair gets it as `defining_pair`, and its links take
        the join formula.  The cubes are assembled once, as given; one
        budget, tied to their count, bounds the search for the pair: the
        spanning stops once a factor has more than _FACES_PER_CUBE faces
        per cube, and the cube enumeration once it has more cubes than the
        document.  Then, or when a vertex id has two colors in one factor,
        the complex has no pair."""
        n, cubes, sides_a, sides_b = _read_cube_document(doc)
        X = _assemble_pair_cubes(n, cubes, defining_pair=None)
        count = sum(map(len, X._cells_by_dim.values()))
        budget = _FACES_PER_CUBE * count
        pair = (_spanned_factor(n, sides_a, budget), _spanned_factor(n, sides_b, budget))
        if None not in pair and _covering_pairs(*pair, limit=count) is not None:
            # at most the document's cubes, all among them: the same cubes
            X.defining_pair = pair
        return X


class Opposition(NamedTuple):
    """Square opposition by edge index (position in `cells(1)`): the
    hyperplanes as edge classes in the order of their first edges, the
    class of each edge, and per square its opposite pairs (e, f, g, h),
    e opposite f and g opposite h."""

    classes: tuple
    label: tuple
    squares: tuple


def _opposition_walk(X: CubeComplex) -> Opposition:
    """Two edges of a square are opposite when their four endpoints are
    distinct.  The facet table gives each edge its endpoints and each
    square its edges as positions, so the walk is on ints."""
    edges = X.cells(1)
    ends = [frozenset(ps) for ps in X.facet_positions(1)]
    squares, opposite = [], []
    for sq, fs in zip(X.cells(2), X.facet_positions(2)):
        pairs = [(e, f) for e, f in combinations(fs, 2) if ends[e].isdisjoint(ends[f])]
        if len(pairs) != 2:
            raise DomainError(f"square {sq!r} does not have two opposite edge pairs")
        opposite += pairs
        squares.append(pairs[0] + pairs[1])
    classes = components(len(edges), opposite)
    label = [0] * len(edges)
    for h, members in enumerate(classes):
        for m in members:
            label[m] = h
    return Opposition(
        tuple(tuple(edges[m] for m in c) for c in classes), tuple(label), tuple(squares)
    )


# ----------------------------------------------------------------------
# construction from a colored pair
# ----------------------------------------------------------------------


def cube_json(cube) -> dict:
    """The JSON form of a pair-built cube (a, b), without its dimension."""
    a, b = cube
    return {"a": {str(c): v for c, v in a.entries}, "b": {str(c): v for c, v in b.entries}}


def complementary(a: CoordSimplex, b: CoordSimplex, n: int) -> bool:
    """The colors of a and b partition {1..n}."""
    return not (a.colors & b.colors) and (a.colors | b.colors) == frozenset(range(1, n + 1))


def _cube_vertices(a: CoordSimplex, b: CoordSimplex) -> frozenset:
    overlap = sorted(a.colors & b.colors)
    verts = []
    for r in range(len(overlap) + 1):
        for keep_a in combinations(overlap, r):
            drop_a = frozenset(overlap) - frozenset(keep_a)
            va = CoordSimplex(tuple(e for e in a.entries if e[0] not in drop_a))
            vb = CoordSimplex(tuple(e for e in b.entries if e[0] not in frozenset(keep_a)))
            verts.append((va, vb))
    return frozenset(verts)


def _assemble_pair_cubes(n, pairs, defining_pair):
    """The cubes (a, b) in canonical order, and their facet table.

    The distinct a- and b-simplices are ranked once, and a cube is keyed
    by the int ia * nb + ib of its ranks, which sorts as the cube does.
    A first pass over the sorted keys gives each cube its dimension (the
    overlap size) and its position there; a second writes the positions
    of the facets (ia - i, ib) and (ia, ib - i) of each overlap color i.
    Two passes, because a face can sort after its cube.  A side's face
    without color i is looked up only for the overlap colors i of its
    cubes, so a wide side costs its width, not its width squared.  The
    pairs of simplices are made once per cube."""
    side_a = csorted({a for a, _ in pairs})
    side_b = csorted({b for _, b in pairs})
    rank_a = {a: i for i, a in enumerate(side_a)}
    rank_b = {b: i for i, b in enumerate(side_b)}
    nb = len(side_b)
    keys = sorted({rank_a[a] * nb + rank_b[b] for a, b in pairs})
    colors_a = [a.colors for a in side_a]
    colors_b = [b.colors for b in side_b]
    overlaps = []
    where: dict[int, int] = {}
    by_dim: dict[int, list] = {}
    for k in keys:
        ia, ib = divmod(k, nb)
        overlap = colors_a[ia] & colors_b[ib]
        overlaps.append(overlap)
        cells = by_dim.setdefault(len(overlap), [])
        where[k] = len(cells)
        cells.append((side_a[ia], side_b[ib]))
    # per side, filled on first use: color -> rank of the face without
    # that color, or -1 when that face is no side
    minus_a: list[dict] = [{} for _ in side_a]
    minus_b: list[dict] = [{} for _ in side_b]
    positions: dict[int, list] = {d: [] for d in by_dim if d}
    for k, overlap in zip(keys, overlaps):
        if not overlap:
            continue
        ia, ib = divmod(k, nb)
        ma, mb = minus_a[ia], minus_b[ib]
        fs = []
        for i in overlap:
            fa = ma.get(i)
            if fa is None:
                fa = ma[i] = rank_a.get(side_a[ia].minus(i), -1)
            fb = mb.get(i)
            if fb is None:
                fb = mb[i] = rank_b.get(side_b[ib].minus(i), -1)
            fs.append(where.get(fa * nb + ib) if fa >= 0 else None)
            fs.append(where.get(k - ib + fb) if fb >= 0 else None)
        if None in fs:
            present = {c for cs in by_dim.values() for c in cs}
            _raise_missing_facet(side_a[ia], side_b[ib], present)
        fs.sort()
        positions[len(overlap)].append(tuple(fs))
    return CubeComplex(by_dim, positions, n=n, defining_pair=defining_pair)


def _raise_missing_facet(a: CoordSimplex, b: CoordSimplex, present) -> None:
    """The first facet of (a, b) missing from `present`: overlap colors
    ascending, (a - i, b) before (a, b - i)."""
    for i in sorted(a.colors & b.colors):
        for f in ((a.minus(i), b), (a, b.minus(i))):
            if f not in present:
                raise ComplexError(f"facet {f} missing; cube family not downward consistent")


def _covering_buckets(
    gamma_a: ColoredComplex, gamma_b: ColoredComplex, grow: Optional[int] = None
) -> Iterator[tuple[tuple, tuple, tuple]]:
    """The buckets of pairs (a, b) whose colors cover {1..n} and overlap in
    at most `grow` colors (any number when None): (bucket of a's, bucket
    of b's, overlap colors), every a of one colorset S and every b of
    one.  Both factors are downward closed, so the b-colorsets covering S
    are {1..n} - S grown by colors of S, and a grown set that gamma_b
    lacks ends its branch: each lookup finds a bucket or ends a branch.
    When the largest simplices of the two sides together have fewer than
    n colors, nothing covers."""
    n = gamma_a.n
    by_a, by_b = gamma_a.by_colorset, gamma_b.by_colorset
    if n > max(map(len, by_a)) + max(map(len, by_b)):
        return
    all_colors = frozenset(range(1, n + 1))
    for colors, bucket_a in by_a.items():
        stack = [(all_colors - colors, sorted(colors), ())]
        while stack:
            need, extra, overlap = stack.pop()
            bucket_b = by_b.get(need)
            if bucket_b is None:
                continue
            yield bucket_a, bucket_b, overlap
            if grow is None or len(overlap) < grow:
                stack.extend(
                    (need | {c}, extra[k + 1:], overlap + (c,)) for k, c in enumerate(extra)
                )


def _covering_pairs(
    gamma_a: ColoredComplex, gamma_b: ColoredComplex, limit: Optional[int] = None
) -> Optional[list]:
    """All pairs (a, b) whose colors cover {1..n}, or None as soon as there
    would be more than `limit`: a bucket that would pass it is not built."""
    pairs: list = []
    for bucket_a, bucket_b, _ in _covering_buckets(gamma_a, gamma_b):
        if limit is not None and len(pairs) + len(bucket_a) * len(bucket_b) > limit:
            return None
        pairs.extend(product(bucket_a, bucket_b))
    return pairs


def _pair_entries(v) -> tuple:
    """The sort key of a pair (a, b): canon_key of a CoordSimplex is
    (6, entries), so this orders pairs as `csorted` does."""
    return v[0].entries, v[1].entries


def _pair_vertices(gamma_a: ColoredComplex, gamma_b: ColoredComplex) -> list:
    """The vertices of the pair complex, the pairs (a, b) whose colors
    partition {1..n}, in the order of its cells(0), with no cube built."""
    return sorted(
        (v for bucket_a, bucket_b, _ in _covering_buckets(gamma_a, gamma_b, grow=0)
         for v in product(bucket_a, bucket_b)),
        key=_pair_entries,
    )


def _pair_edges(gamma_a: ColoredComplex, gamma_b: ColoredComplex, vertices: list) -> list:
    """The edges of the pair complex as pairs of positions in `vertices`,
    with no cube built: the covering pairs (a, b) that overlap in one
    color i, each joining the vertices (a - i, b) and (a, b - i).  The
    simplices of a bucket share their colors, so color i sits at one
    place in the entries of each."""
    index = {_pair_entries(v): p for p, v in enumerate(vertices)}
    edges = []
    for bucket_a, bucket_b, overlap in _covering_buckets(gamma_a, gamma_b, grow=1):
        if not overlap:
            continue
        (i,) = overlap
        ka = sorted(bucket_a[0].colors).index(i)
        kb = sorted(bucket_b[0].colors).index(i)
        ends_b = [(b.entries, b.entries[:kb] + b.entries[kb + 1:]) for b in bucket_b]
        for a in bucket_a:
            ea = a.entries
            fa = ea[:ka] + ea[ka + 1:]
            edges += [(index[fa, eb], index[ea, fb]) for eb, fb in ends_b]
    return edges


def build_clcc(gamma_a: ColoredComplex, gamma_b: ColoredComplex) -> CubeComplex:
    """All pairs (a, b) whose colors cover {1..n}; the overlap size is the
    cube dimension and faces shrink either side on an overlap color.  When
    the largest simplices of the two sides together have fewer than n
    colors, no pair covers and the complex is empty."""
    check_same_color_count(gamma_a, gamma_b)
    pairs = _covering_pairs(gamma_a, gamma_b)
    return _assemble_pair_cubes(gamma_a.n, pairs, defining_pair=(gamma_a, gamma_b))


class _SideReader:
    """Parses the cube sides of one factor, each distinct side once: a side
    is looked up by its raw items, then by its sorted entries, so equal
    sides are one simplex.  Each gives (simplex, every vertex id a string);
    a side with another vertex id is refused by the caller, so it is
    never shared."""

    def __init__(self):
        self._by_raw: dict = {}
        self.sides: dict = {}  # entries -> the one simplex

    def __call__(self, raw) -> tuple[CoordSimplex, bool]:
        key = tuple(raw.items())
        try:
            return self._by_raw[key]
        except (KeyError, TypeError):  # new, or an unhashable vertex id
            pass
        s = CoordSimplex.of({int(c): v for c, v in raw.items()})
        if not all(isinstance(v, str) for _, v in s.entries):
            return s, False
        self._by_raw[key] = self.sides.setdefault(s.entries, s), True
        return self._by_raw[key]


def _read_cube_document(doc) -> tuple[int, list, tuple, tuple]:
    """n, the cubes (a, b) in document order, and the distinct a- and
    b-sides of a cube document, checked cube by cube."""
    read_a, read_b = _SideReader(), _SideReader()
    try:
        n = doc["n"]
        raw = [(read_a(item["a"]), read_b(item["b"]), item.get("dim")) for item in doc["cubes"]]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ComplexError(f"malformed cube complex document: {exc}") from exc
    check_color_count(n)
    for (a, a_text), (b, b_text), dim in raw:
        if not (a_text and b_text):
            raise ComplexError(f"cube ({a}, {b}) has a vertex id that is not a string")
        colors = a.colors | b.colors
        if len(colors) != n or min(colors) < 1 or max(colors) > n:
            raise ComplexError(f"cube ({a}, {b}) does not cover the colors 1..{n}")
        overlap = len(a.colors & b.colors)
        if dim is None:
            continue
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ComplexError(f"cube ({a}, {b}) declares dim {dim!r}, which is not an integer")
        if dim != overlap:
            raise ComplexError(
                f"cube ({a}, {b}) declares dim {dim!r}, but its colors overlap in {overlap}"
            )
    cubes = [(a, b) for (a, _), (b, _), _ in raw]
    return n, cubes, tuple(read_a.sides.values()), tuple(read_b.sides.values())


# A document's cube sides may span factors of at most this many faces
# per distinct cube, the empty face included; more and the cubes are
# taken as given.  Eight keeps the pair of a one-cube document on three
# colors (2^3 faces) and of every complete document of the test corpus.
_FACES_PER_CUBE = 8


def _spanned_factor(n: int, sides, budget: int) -> Optional[ColoredComplex]:
    """The colored complex whose simplices are the faces of `sides`, or None
    when a vertex id has two colors or there are more than `budget` faces.
    A side alone has 2^|side| faces, so a wider side than that ends the
    walk before it starts; the faces are then found one vertex removal at
    a time, and the walk stops with the budget."""
    if any(len(s) >= budget.bit_length() for s in sides):  # 2^|side| > budget
        return None
    colors: dict = {}
    for s in sides:
        for c, v in s.entries:
            if colors.setdefault(v, c) != c:
                return None
    faces: set = set()
    todo = [(), *(s.entries for s in sides)]
    while todo:
        f = todo.pop()
        if f in faces:
            continue
        faces.add(f)
        if len(faces) > budget:
            return None
        todo.extend(f[:k] + f[k + 1:] for k in range(len(f)))
    return ColoredComplex(n, colors, frozenset(map(CoordSimplex, faces)))


def link_of_cube(X: CubeComplex, cube) -> SimplicialComplex:
    """Join of the links of the two coordinate simplices."""
    if X.defining_pair is None:
        raise DomainError("link_of_cube needs the defining pair; build the complex from one")
    if cube not in X:
        raise DomainError(f"cube {cube!r} not in complex")
    a, b = cube
    gamma_a, gamma_b = X.defining_pair
    return simplicial_join(gamma_a.link(a), gamma_b.link(b))


def join_link_of_cube(
    gamma_a: ColoredComplex, gamma_b: ColoredComplex, cube
) -> SimplicialComplex:
    """lk_A(a) * lk_B(b) for the cube (a, b), each link vertex named by the
    cube one dimension up that it stands for: u in lk_A(a) is (a + u, b)
    and w in lk_B(b) is (a, b + w).  This is the adjacency link
    X.link_complex(cube) of the pair complex X, computed from the factors."""
    a, b = cube
    la, lb = gamma_a.link(a), gamma_b.link(b)
    up_a = {u: (a.plus(c, u), b) for u, c in la.vertices}
    up_b = {w: (a, b.plus(c, w)) for w, c in lb.vertices}
    # the two sides' names differ in their a-parts, so the join tags nothing
    return simplicial_join(la.uncolored().relabeled(up_a), lb.uncolored().relabeled(up_b))


# ----------------------------------------------------------------------
# pairing predicates
# ----------------------------------------------------------------------


def smartly_paired(
    gamma_a: ColoredComplex, gamma_b: ColoredComplex
) -> tuple[bool, Optional[tuple[str, CoordSimplex]]]:
    """Every maximal simplex on each side has a complementary simplex on
    the other.  The empty simplex complements a full-cover simplex and is
    always available."""
    check_same_color_count(gamma_a, gamma_b)
    for side, K, other in (("A", gamma_a, gamma_b), ("B", gamma_b, gamma_a)):
        for m in K.maximal_simplices:
            if not other.partners(m.colors):
                return False, (side, m)
    return True, None


def doubly_smartly_paired(gamma_a: ColoredComplex, gamma_b: ColoredComplex) -> bool:
    """Smartly paired, and every codimension-1 face of a maximal simplex
    admits a complementary simplex as well."""
    ok, _ = smartly_paired(gamma_a, gamma_b)
    if not ok:
        return False
    for K, other in ((gamma_a, gamma_b), (gamma_b, gamma_a)):
        for m in K.maximal_simplices:
            for f in m.facets():
                if not other.partners(f.colors):
                    return False
    return True


def _empty_complex(n: int) -> ColoredComplex:
    return ColoredComplex(n, {}, frozenset({EMPTY_SIMPLEX}))


def prune_to_smart_pair(
    gamma_a: ColoredComplex, gamma_b: ColoredComplex
) -> tuple[ColoredComplex, ColoredComplex]:
    """Each side cut down to the faces of its simplices that have a
    complementary partner on the other side.

    That is the fixed point of removing maximal simplices with no
    partner: a simplex with a partner is never removed, since its partner
    has one too, and a maximal simplex that is left has one.  Junk
    simplices contribute no cube, so the complex of the pruned pair
    equals the complex of the input pair.  When nothing is cut the inputs
    come back as they are, declared vertices that no simplex uses
    included; a pair with no complementary simplices at all collapses to
    two empty complexes (which are not smartly paired for n >= 1).
    """
    check_same_color_count(gamma_a, gamma_b)
    kept = []
    for K, other in ((gamma_a, gamma_b), (gamma_b, gamma_a)):
        partnered = [
            s.entries for colors, bucket in K.by_colorset.items() if other.partners(colors)
            for s in bucket
        ]
        faces = reach(partnered, lambda e: [e[:i] + e[i + 1 :] for i in range(len(e))])
        kept.append([s for s in K.simplices if s.entries in faces])
    if not kept[0]:
        return _empty_complex(gamma_a.n), _empty_complex(gamma_a.n)
    if len(kept[0]) == len(gamma_a.simplices) and len(kept[1]) == len(gamma_b.simplices):
        return gamma_a, gamma_b
    return (
        gamma_a._replace_simplices(frozenset(kept[0])),
        gamma_b._replace_simplices(frozenset(kept[1])),
    )


# ----------------------------------------------------------------------
# global invariants
# ----------------------------------------------------------------------


def dimension(X: CubeComplex) -> tuple[int, bool]:
    """(dimension, is_pure); the empty complex has dimension -1."""
    return X.top_dim, X.is_pure


def euler_characteristic(X: CubeComplex) -> int:
    return X.euler_characteristic()


@dataclass(frozen=True)
class ConnGraph:
    """Connectivity witness graph on the vertices with maximal A-part.

    The edges are kept as groups of node positions, ascending: every two
    nodes of a group are joined, and every edge lies in some group."""

    nodes: tuple
    groups: frozenset

    @property
    def edges(self) -> frozenset:
        """The joined node pairs (x, y), x before y."""
        nodes = self.nodes
        return frozenset(
            (nodes[p], nodes[q]) for group in self.groups for p, q in combinations(group, 2)
        )

    def is_connected(self) -> bool:
        spans = ((group[0], p) for group in self.groups for p in group[1:])
        return connected(len(self.nodes), spans)


def conn_graph(gamma_a: ColoredComplex, gamma_b: ColoredComplex) -> ConnGraph:
    """Nodes are pairs (maximal a, complementary b); two nodes are joined
    when some simplex of gamma_b is complementary to the intersection of
    their A-parts and contains both B-parts (the intersection may be
    empty provided the witness covers every color).

    No pair of nodes is tested.  Nodes (a1, b1) and (a2, b2) are joined
    exactly when some vertex (f, c) of the pair complex has f a face of
    a1 and of a2, and b1 and b2 faces of c: the common face of a1 and a2
    with a witness is one, and for such an (f, c), c cut down to the
    colors the common face lacks is a witness.  So each vertex (f, c)
    gives a group, the nodes (m, c cut down to the colors m lacks) of the
    maximal m containing f, and it is enough to take for f the empty face
    and the faces that two maximal simplices share."""
    check_same_color_count(gamma_a, gamma_b)
    maximal = gamma_a.maximal_simplices
    nodes, position = [], {}
    for k, m in enumerate(maximal):
        for b in gamma_b.partners(m.colors):
            position[k, b.entries] = len(nodes)
            nodes.append((m, b))
    entry_sets = [set(m.entries) for m in maximal]
    at_vertex: dict = {}
    for k, m in enumerate(maximal):
        for _, v in m.entries:
            at_vertex.setdefault(v, []).append(k)
    members = {(): range(len(maximal))}  # a shared face -> the maximal k containing it
    for k, m in enumerate(maximal):
        for k2 in {k2 for _, v in m.entries for k2 in at_vertex[v] if k2 > k}:
            f = tuple(e for e in m.entries if e in entry_sets[k2])
            if f not in members:
                members[f] = [j for j in at_vertex[f[0][1]] if entry_sets[j].issuperset(f)]
    groups = set()
    for f, ks in members.items():
        if len(ks) < 2:
            continue
        has = [maximal[j].colors for j in ks]
        shared = frozenset.intersection(*has)
        # a group reads c only on the colors some member lacks
        for cut in {
            tuple(e for e in c.entries if e[0] not in shared)
            for c in gamma_b.partners(frozenset(color for color, _ in f))
        }:
            groups.add(tuple(
                position[j, tuple(e for e in cut if e[0] not in colors)]
                for j, colors in zip(ks, has)
            ))
    return ConnGraph(tuple(nodes), frozenset(groups))


def is_connected(gamma_a: ColoredComplex, gamma_b: ColoredComplex, engine: str = "bfs") -> bool:
    """Two engines: breadth-first search of the 1-skeleton of the pair
    complex, read from the factors, or the maximal-A-part criterion graph
    (which requires a smartly paired input).  The empty complex counts as
    disconnected."""
    if engine == "bfs":
        check_same_color_count(gamma_a, gamma_b)
        vertices = _pair_vertices(gamma_a, gamma_b)
        edges = _pair_edges(gamma_a, gamma_b, vertices)
        return connected(len(vertices), edges)
    if engine == "criterion":
        ok, witness = smartly_paired(gamma_a, gamma_b)
        if not ok:
            raise DomainError(f"criterion engine needs a smartly paired input ({witness})")
        return conn_graph(gamma_a, gamma_b).is_connected()
    raise ValueError(f"unknown engine {engine!r}")


def is_npc(gamma_a: ColoredComplex, gamma_b: ColoredComplex):
    """Non-positive curvature of the pair complex.

    Flag inputs settle it immediately; otherwise every vertex link is
    checked for flagness (exact, since the complex is non-positively
    curved iff all vertex links are flag).  A join is flag iff both
    factor links are, so the walk needs no built complex; the first
    failing vertex gets its minimal non-spanning clique from the join
    link named by cube ids.  Returns (verdict, method, witness)."""
    flag_a, _ = is_flag(gamma_a)
    flag_b, _ = is_flag(gamma_b)
    if flag_a and flag_b:
        return True, "flag-inputs", None
    links = _JoinLinks(gamma_a, gamma_b)
    for v in links.vertices():
        if not links.is_flag(v):
            _, clique = is_flag(join_link_of_cube(gamma_a, gamma_b, v))
            return False, "direct-links", (v, clique)
    return True, "direct-links", None


def classify_vertex_links(X: CubeComplex) -> dict:
    """Tag each vertex link: circle, 2-sphere, other, or unknown (dim >= 3).

    circle   = connected 1-complex, every vertex of degree 2;
    2-sphere = connected closed simplicial surface (each edge in exactly
               two triangles, vertex links circles) with chi = 2.

    A pair-built complex tags its links from the factor links by the join
    formula; a complex with no defining pair (loaded from JSON, or built
    by hand) tags each vertex's link off its star in X.  Either way the
    tags are read by `_classify_link`, and no link complex is built.
    """
    if X.defining_pair is not None:
        links = _JoinLinks(*X.defining_pair)
        return {v: links.tag(v) for v in X.cells(0)}
    return {v: _classify_link(X, v) for v in X.cells(0)}


def _link_edges(host: CellStore, star: list) -> list:
    """The link edges of a walked star, the cofaces two dimensions up, as
    index pairs into its first level: an edge's ends are its facets there."""
    if len(star) < 3:
        return []
    (_, verts), (d, edges) = star[1:3]
    at, table = {q: i for i, q in enumerate(verts)}, host.facet_positions(d)
    return [[at[f] for f in table[e] if f in at] for e in edges]


def _classify_link(host: CellStore, cell) -> str:
    """The tag of the link of a cell of `host`, read off the cell's star
    on positions with no link complex built.  A link k-simplex is a coface
    k + 1 dimensions up: the star's depth is the link's dimension, and its
    level sizes give chi.  A link vertex's degree and a link edge's count
    of triangles are coface-row lengths.  The link of a link vertex is the
    link of that coface, so the 2-sphere test recurses here."""
    star = list(host._star(cell))
    if len(star) not in (3, 4):  # a link of dimension 3 or more, or no edge
        return "unknown" if len(star) > 4 else "other"
    (_, verts), (d, edges), *triangles = star[1:]
    rows, cells = host._cofaces, host.cells(d - 1)
    if triangles:  # a closed surface: each edge in two triangles, chi = 2
        chi = len(verts) - len(edges) + len(triangles[0][1])
        closed = chi == 2 and all(len(rows[d][e]) == 2 for e in edges)
    else:
        closed = all(len(rows[d - 1][u]) == 2 for u in verts)
    if not (closed and connected(len(verts), _link_edges(host, star))):
        return "other"
    if not triangles:
        return "circle"
    return "2-sphere" if all(_classify_link(host, cells[u]) == "circle" for u in verts) else "other"


class _FactorLink:
    """Invariants of one factor link lk_K(s), read off the star of s in K,
    each on first use.  Only `is_flag` builds the link."""

    def __init__(self, K: ColoredComplex, s: CoordSimplex):
        self.K, self.s, self.star = K, s, list(K._star(s))
        self.dim = len(self.star) - 2
        self.size = len(self.star[1][1]) if self.dim >= 0 else 0

    @cached_property
    def tag(self) -> str:
        return _classify_link(self.K, self.s)

    @cached_property
    def has_empty_square(self) -> bool:
        nbrs = _neighbour_lists(self.size, _link_edges(self.K, self.star))
        return bool(_chordless_squares({u: set(ns) for u, ns in enumerate(nbrs)}))

    @cached_property
    def has_non_adjacent_pair(self) -> bool:
        edges = len(self.star[2][1]) if self.dim >= 1 else 0
        return edges < self.size * (self.size - 1) // 2

    @cached_property
    def is_flag(self) -> bool:
        return is_flag(self.K.link(self.s))[0]


class _JoinLinks:
    """Vertex-link invariants of the pair complex of (gamma_a, gamma_b)
    from lk(a, b) = lk_A(a) * lk_B(b), without building the complex.

    Factor-link summaries are memoised per simplex for the life of this
    object, and each call creates its own: a simplex is a value, and the
    same simplex has other links in other complexes."""

    def __init__(self, gamma_a: ColoredComplex, gamma_b: ColoredComplex):
        check_same_color_count(gamma_a, gamma_b)
        self.gamma_a, self.gamma_b = gamma_a, gamma_b
        self._memo_a: dict = {}
        self._memo_b: dict = {}

    def vertices(self) -> list:
        """The complementary pairs (a, b), in the order of X.cells(0)."""
        return _pair_vertices(self.gamma_a, self.gamma_b)

    def _factor_links(self, v) -> tuple[_FactorLink, _FactorLink]:
        a, b = v
        if a not in self._memo_a:
            self._memo_a[a] = _FactorLink(self.gamma_a, a)
        if b not in self._memo_b:
            self._memo_b[b] = _FactorLink(self.gamma_b, b)
        return self._memo_a[a], self._memo_b[b]

    def tag(self, v) -> str:
        la, lb = self._factor_links(v)
        if lb.dim < 0:
            return la.tag
        if la.dim < 0:
            return lb.tag
        if la.dim + lb.dim + 1 >= 3:
            return "unknown"
        if la.dim == lb.dim == 0:  # K_{p,q}: a circle only as the 4-cycle
            return "circle" if la.size == lb.size == 2 else "other"
        # p points against a 1-dim link: a 2-sphere only as the
        # suspension of a circle
        points, line = (la, lb) if la.dim == 0 else (lb, la)
        return "2-sphere" if points.size == 2 and line.tag == "circle" else "other"

    def has_empty_square(self, v) -> bool:
        """A chordless 4-cycle of a graph join lies in one side, or has
        one diagonal in each side (the 5-large condition for joins, as in
        Januszkiewicz-Swiatkowski, Simplicial nonpositive curvature, 2006)."""
        la, lb = self._factor_links(v)
        return (
            la.has_empty_square
            or lb.has_empty_square
            or (la.has_non_adjacent_pair and lb.has_non_adjacent_pair)
        )

    def is_flag(self, v) -> bool:
        la, lb = self._factor_links(v)
        return la.is_flag and lb.is_flag


# ----------------------------------------------------------------------
# induced cubical maps
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CubicalMap:
    """Cubical map between pair-built complexes, induced by a pair of
    color-preserving simplicial maps."""

    source: CubeComplex
    target: CubeComplex
    f_a: ColoredMap
    f_b: ColoredMap

    def apply(self, cube):
        a, b = cube
        return (self.f_a.apply(a), self.f_b.apply(b))

    @cached_property
    def vertex_map(self) -> dict:
        return {v: self.apply(v) for v in self.source.cells(0)}

    @cached_property
    def is_injective(self) -> bool:
        images = [self.apply(c) for c in self.source._index]
        return len(set(images)) == len(images)

    @cached_property
    def is_surjective(self) -> bool:
        return {self.apply(c) for c in self.source._index} == self.target._index.keys()

    def compose(self, inner: "CubicalMap") -> "CubicalMap":
        return induced_map(self.f_a.compose(inner.f_a), self.f_b.compose(inner.f_b))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CubicalMap)
            and self.source._index.keys() == other.source._index.keys()
            and self.target._index.keys() == other.target._index.keys()
            and all(self.apply(c) == other.apply(c) for c in self.source._index)
        )


def induced_map(f_a: ColoredMap, f_b: ColoredMap) -> CubicalMap:
    """Functorial map on pair complexes: (a, b) -> (f_a(a), f_b(b)).

    When both maps are inclusions of full subcomplexes the induced map is
    a local isometry; the link condition (injective link maps with full
    image) is verified here in that case."""
    X = build_clcc(f_a.source, f_b.source)
    Y = build_clcc(f_a.target, f_b.target)
    phi = CubicalMap(X, Y, f_a, f_b)
    for d in range(X.top_dim + 1):
        for c in X.cells(d):
            if phi.apply(c) not in Y:
                raise ComplexError(f"image of cube {c} missing from target")
    if f_a.is_full_inclusion and f_b.is_full_inclusion:
        _check_link_condition(phi)
    return phi


def _check_link_condition(phi: CubicalMap) -> None:
    # full-subcomplex inclusions must induce injective link maps whose
    # image spans a full subcomplex of the target link
    for v in phi.source.cells(0):
        src = join_link_of_cube(*phi.source.defining_pair, v)
        dst = join_link_of_cube(*phi.target.defining_pair, phi.apply(v))
        image_vertices = [phi.apply(u) for u in src.vertex_ids]
        if len(set(image_vertices)) != len(image_vertices):
            raise ComplexError(f"link map at {v} is not injective")
        mapped = frozenset(frozenset(phi.apply(u) for u in s) for s in src.simplices)
        keep = set(image_vertices)
        full = frozenset(s for s in dst.simplices if s <= keep)
        if mapped != full:
            raise ComplexError(f"link image at {v} is not a full subcomplex")
