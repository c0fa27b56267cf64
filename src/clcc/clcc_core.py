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
from functools import cache, cached_property, partial, reduce
from itertools import combinations, islice, product
from operator import and_, attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from clcc.canon import canonical_json, csorted
from clcc.errors import ComplexError, DomainError
from clcc.simplicial import (
    EMPTY_SIMPLEX,
    CellStore,
    ColoredComplex,
    ColoredMap,
    CoordSimplex,
    SimplicialComplex,
    _bits,
    _color_mask,
    check_color_count,
    check_same_color_count,
    component_roots,
    connected,
    faces_of,
    is_flag,
    simplicial_join,
)

AUGMENTATION = "<augmentation>"

CubeId = object  # (CoordSimplex, CoordSimplex) for pair-built complexes

_entries = attrgetter("entries")


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

    # -- io ----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """{"n", "cubes"}: each cube as {"a", "b", "dim"}, dimension by
        dimension in canonical order.  Each distinct side's dict is made once per call, and every
        cube with that side shares it, so a caller must copy a side before
        editing it."""
        if not self.has_pair_origin:
            raise DomainError("only pair-built complexes have a JSON form")
        forms = _SideForms()
        cubes = [
            {"a": forms[a], "b": forms[b], "dim": d}
            for d, cs in self._cells_by_dim.items() for a, b in cs
        ]
        return {"n": self.n, "cubes": cubes}

    @staticmethod
    def from_json_dict(doc: dict) -> "CubeComplex":
        """A built complex from its JSON form.  Each cube's colors must
        cover {1..n}, and a declared "dim" must be the integer overlap size.

        The cube sides span a pair of factors, and every cube of the
        document is a cube of that pair.  So when that pair has exactly as
        many cubes as the document (`_pair_cube_counts`, no cube made),
        they are the same cubes: the complex is built from the pair's
        colorset buckets, as `build_clcc` builds it, with the pair as
        `defining_pair`, and its links take the join formula.  One budget,
        tied to the document's distinct cubes, bounds the search for the
        pair: the spanning stops once a factor has more than
        _FACES_PER_CUBE faces per cube, and the count once the pair has
        more cubes than the document.  Then, or when a vertex id has two
        colors in one factor, the document's cubes are assembled as given
        by the same assembler, and the complex has no pair.  Either way
        the document is assembled once."""
        n, cubes, sides_a, sides_b = _read_cube_document(doc)
        budget = _FACES_PER_CUBE * len(cubes)
        pair = (_spanned_factor(n, sides_a, budget), _spanned_factor(n, sides_b, budget))
        if None not in pair:
            counts = _pair_cube_counts(*pair, limit=len(cubes))
            if counts is not None and sum(counts.values()) == len(cubes):
                return build_clcc(*pair)
        return _assemble_pair_cubes(n, *_document_products(cubes, sides_a, sides_b))


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
    square its four edges as positions, so the walk is on ints: the
    first edge's opposite is the one of the other three that has neither
    of its endpoints, and the remaining two must be disjoint too.  A
    square's pairs are listed with the first edge's pair first."""
    edges = X.cells(1)
    ends = X.facet_positions(1)
    squares, opposite = [], []
    for sq, (e, f, g, h) in zip(X.cells(2), X.facet_positions(2)):
        u, v = ends[e]
        x, y = ends[f]
        if x == u or x == v or y == u or y == v:  # f meets e
            x, y = ends[g]
            if not (x == u or x == v or y == u or y == v):
                f, g = g, f
            else:
                x, y = ends[h]
                if x == u or x == v or y == u or y == v:
                    raise _not_a_square(sq)
                f, g, h = h, f, g
        x, y = ends[g]
        u, v = ends[h]
        if x == u or x == v or y == u or y == v:  # g meets h
            raise _not_a_square(sq)
        opposite += ((e, f), (g, h))
        squares.append((e, f, g, h))
    # a class's root is its least edge, so the classes are numbered in
    # the order of their first edges
    number: dict = {}
    roots = component_roots(len(edges), opposite)
    label = tuple([number.setdefault(r, len(number)) for r in roots])
    classes: list = [[] for _ in number]
    for e, h in zip(edges, label):
        classes[h].append(e)
    return Opposition(tuple(map(tuple, classes)), label, tuple(squares))


def _not_a_square(sq) -> DomainError:
    return DomainError(f"square {sq!r} does not have two opposite edge pairs")


# ----------------------------------------------------------------------
# construction from a colored pair
# ----------------------------------------------------------------------


def side_json(side: CoordSimplex) -> dict:
    """The JSON form of one cube side: its vertex ids keyed by color text."""
    return {str(c): v for c, v in side.entries}


class _SideForms(dict):
    """Side -> `side_json(side)`, made on the first lookup of a side and
    stored, so every later cube with that side shares the one dict.  Each
    emitting call makes its own, so no form outlives the call."""

    __slots__ = ()

    def __missing__(self, side: CoordSimplex) -> dict:
        form = self[side] = side_json(side)
        return form


def cube_json(cube) -> dict:
    """The JSON form of a pair-built cube (a, b), without its dimension."""
    a, b = cube
    return {"a": side_json(a), "b": side_json(b)}


def vertex_links_json(tags: Mapping) -> list:
    """The `invariants links` entries, {"vertex": cube form, "tag": tag}
    per vertex of `tags`, in the order of the vertex forms' canonical
    texts.  That text is '{"a":' + text(a) + ',"b":' + text(b) + '}', and
    no canonical object text is a proper prefix of another, so the order
    is that of (text(a), text(b)): one text per distinct side."""
    forms = _SideForms()
    vertex = {v: {"a": forms[v[0]], "b": forms[v[1]]} for v in tags}
    text = {side: canonical_json(form) for side, form in forms.items()}
    order = sorted(tags, key=lambda v: (text[v[0]], text[v[1]]))
    return [{"vertex": vertex[v], "tag": tags[v]} for v in order]


def pair_json(gamma_a: ColoredComplex, gamma_b: ColoredComplex) -> dict:
    """The pair document: the two factors' JSON forms."""
    return {"gamma_a": gamma_a.to_json_dict(), "gamma_b": gamma_b.to_json_dict()}


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


class _Sides(NamedTuple):
    """The sides of one factor, in entries order, and the rank of each
    side by its entries."""

    sides: tuple
    rank: dict


def _ranked(sides) -> _Sides:
    ordered = tuple(sorted(sides, key=_entries))
    return _Sides(ordered, {s.entries: r for r, s in enumerate(ordered)})


def _faces(side: _Sides, ranks: tuple, i: int, memo: dict) -> list:
    """The rank of the face without color i of each side of a bucket (the
    ranks of sides that share their colors), once per bucket and color:
    color i sits at one place in the entries of each.  A face that is no
    side gets the rank len(side.sides), one past the last."""
    key = ranks, i
    faces = memo.get(key)
    if faces is None:
        sides, rank = side
        k = [c for c, _ in sides[ranks[0]].entries].index(i)
        missing = len(sides)
        faces = memo[key] = [
            rank.get(e[:k] + e[k + 1:], missing) for e in [sides[r].entries for r in ranks]
        ]
    return faces


def _assemble_pair_cubes(n, side_a: _Sides, side_b: _Sides, products, defining_pair=None):
    """The cubes (a, b) of the bucket products in canonical order, and
    their facet table.

    A product (ranks_a, ranks_b, overlap) is the cubes (a, b) for every a
    of ranks_a and every b of ranks_b: each bucket's sides share their
    colors, the pairs cover {1..n} and overlap in the colors `overlap`,
    ascending, and no cube is in two products.  A cube is keyed by the int
    ia * stride + ib of its side ranks, with stride len(side_b.sides) + 1,
    which sorts as the cube does; a face that is no side (rank one past
    the last) makes a key that no cube has.

    Each product gives its cube keys and, per overlap color i, a column
    of the keys of the facets (a - i, b) and one of (a, b - i), from the
    face ranks of its buckets (`_faces`).  Dropping a later color gives
    an earlier face, and a - i comes before a only when i is a's last
    color; so one order of the 2d columns, the same for every cube of the
    product, lists each cube's facets in canonical order: a - (a's last
    color) if that is an overlap color, then the b-faces, then the other
    a-faces, each by descending color.  The dimensions are then finished
    from 0 up: each facet key is looked up in the sorted dimension below,
    where a key's position rises with the key, so the rows come out
    sorted, and a facet missing there raises, the first one in canonical
    order named.  The pairs (a, b) are made once per cube, and no
    CoordSimplex is hashed."""
    sa, sb = side_a.sides, side_b.sides
    stride = len(sb) + 1
    keys: dict[int, list] = {}
    columns: dict[int, list] = {}  # per dimension, the facet-key columns
    memo_a: dict = {}
    memo_b: dict = {}
    for ra, rb, overlap in products:
        d = len(overlap)
        if d not in keys:
            keys[d], columns[d] = [], [[] for _ in range(2 * d)]
        keys[d] += [ia * stride + ib for ia in ra for ib in rb]
        if d:
            by_a, by_b = [], []
            for i in reversed(overlap):
                fa, fb = _faces(side_a, ra, i, memo_a), _faces(side_b, rb, i, memo_b)
                by_a.append([x * stride + ib for x in fa for ib in rb])
                by_b.append([ia * stride + y for ia in ra for y in fb])
            last = overlap[-1] == sa[ra[0]].entries[-1][0]  # a - i before a
            for column, part in zip(columns[d], by_a[:last] + by_b + by_a[last:]):
                column += part
    cells: dict[int, list] = {}
    positions: dict[int, list] = {}
    where: dict[int, int] = {}  # the key -> position of each cube one dimension down
    for d in sorted(keys):
        ks = keys[d]
        order = sorted(range(len(ks)), key=ks.__getitem__)
        ks = [ks[j] for j in order]
        if d:
            try:
                rows = list(zip(*[list(map(where.__getitem__, c)) for c in columns[d]]))
            except KeyError:
                every = [(sa[k // stride], sb[k % stride]) for kd in keys.values() for k in kd]
                raise _missing_facet(every) from None
            positions[d] = [rows[j] for j in order]
        where = dict(zip(ks, range(len(ks))))
        cells[d] = [(sa[k // stride], sb[k % stride]) for k in ks]
    return CubeComplex(cells, positions, n=n, defining_pair=defining_pair)


def _missing_facet(cubes) -> ComplexError:
    """The error for the first facet missing from a cube family that lacks
    one: cubes in canonical order, overlap colors ascending, (a - i, b)
    before (a, b - i).  Only this error path hashes the cubes."""
    present = set(cubes)
    for a, b in sorted(present, key=_pair_entries):
        for i in sorted(a.colors & b.colors):
            for f in ((a.minus(i), b), (a, b.minus(i))):
                if f not in present:
                    return ComplexError(f"facet {f} missing; cube family not downward consistent")


def _covering_buckets(
    gamma_a: ColoredComplex, gamma_b: ColoredComplex, grow: Optional[int] = None
) -> Iterator[tuple[int, int, tuple]]:
    """The color masks (S, T) of the bucket products of pairs (a, b) whose
    colors cover {1..n} and overlap in at most `grow` colors (any number
    when None), with the overlap colors ascending: every a of gamma_a's
    bucket S and every b of gamma_b's bucket T.  Both factors are
    downward closed, so the T covering S are {1..n} - S grown by colors
    of S, and a grown set that gamma_b lacks ends its branch: each lookup
    finds a bucket or ends a branch.  When the two factors have fewer
    vertices together than n colors, or their largest simplices fewer
    colors, nothing covers; the first check comes before any color mask
    is made, so a huge n, and colors near it, cost nothing."""
    n = gamma_a.n
    if n > len(gamma_a._colors) + len(gamma_b._colors):
        return
    by_a, by_b = gamma_a._buckets, gamma_b._buckets
    if n > max(map(int.bit_count, by_a)) + max(map(int.bit_count, by_b)):
        return
    full = (1 << n + 1) - 2
    for colors in by_a:
        stack = [(full ^ colors, colors, ())]
        while stack:
            need, extra, overlap = stack.pop()
            if need not in by_b:
                continue
            yield colors, need, overlap
            if grow is None or len(overlap) < grow:
                while extra:  # each color of S above the last one grown
                    low = extra & -extra
                    extra ^= low
                    stack.append((need | low, extra, overlap + (low.bit_length() - 1,)))


def _pair_cube_counts(
    gamma_a: ColoredComplex, gamma_b: ColoredComplex, limit: Optional[int] = None
) -> Optional[dict[int, int]]:
    """The number of cubes of each dimension of the pair complex, with no
    cube made: |bucket_a| * |bucket_b| summed over the covering bucket
    products of each overlap size.  None as soon as the total passes
    `limit`."""
    counts: dict[int, int] = {}
    total = 0
    for sa, sb, overlap in _covering_buckets(gamma_a, gamma_b):
        size = len(gamma_a._buckets[sa]) * len(gamma_b._buckets[sb])
        total += size
        if limit is not None and total > limit:
            return None
        counts[len(overlap)] = counts.get(len(overlap), 0) + size
    return dict(sorted(counts.items()))


def _pair_entries(v) -> tuple:
    """The sort key of a pair (a, b): canon_key of a CoordSimplex is
    (6, entries), so this orders pairs as `csorted` does."""
    return v[0].entries, v[1].entries


def _pair_vertices(gamma_a: ColoredComplex, gamma_b: ColoredComplex) -> list:
    """The vertices of the pair complex, the pairs (a, b) whose colors
    partition {1..n}, in the order of its cells(0), with no cube built."""
    return sorted(
        (v for sa, sb, _ in _covering_buckets(gamma_a, gamma_b, grow=0)
         for v in product(gamma_a._buckets[sa], gamma_b._buckets[sb])),
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
    for sa, sb, overlap in _covering_buckets(gamma_a, gamma_b, grow=1):
        if not overlap:
            continue
        (i,) = overlap
        bucket_a, bucket_b = gamma_a._buckets[sa], gamma_b._buckets[sb]
        ka = [c for c, _ in bucket_a[0].entries].index(i)
        kb = [c for c, _ in bucket_b[0].entries].index(i)
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
    colors, no pair covers and the complex is empty.  Each factor's
    simplices are ranked once, and the cubes are assembled from the
    covering products of the color-mask buckets, as ranks, each bucket
    ranked on its first product."""
    check_same_color_count(gamma_a, gamma_b)
    side_a, side_b = _ranked(gamma_a.simplices), _ranked(gamma_b.simplices)
    ranks: dict = {}  # (side, color mask) -> the ranks of the bucket's simplices

    def ranked(k: int, gamma: ColoredComplex, side: _Sides, mask: int) -> tuple:
        if (k, mask) not in ranks:
            ranks[k, mask] = tuple([side.rank[s.entries] for s in gamma._buckets[mask]])
        return ranks[k, mask]

    products = (
        (ranked(0, gamma_a, side_a, sa), ranked(1, gamma_b, side_b, sb), overlap)
        for sa, sb, overlap in _covering_buckets(gamma_a, gamma_b)
    )
    return _assemble_pair_cubes(gamma_a.n, side_a, side_b, products, (gamma_a, gamma_b))


class _SideReader:
    """Interns the cube sides of one factor to int positions, each distinct
    side parsed once.  `known` holds the position of each raw spelling
    read so far, by its items; a new spelling is parsed here and looked up
    by its sorted entries, so equal sides share one position.  A side with
    a vertex id that is not a string gets a position of its own, marked in
    `text`; the caller refuses it, so it is never shared."""

    def __init__(self):
        self.known: dict = {}
        self._by_entries: dict = {}
        self.sides: list = []  # position -> simplex
        self.text: list = []  # position -> every vertex id a string

    def __call__(self, raw) -> int:
        s = CoordSimplex.from_json(raw)
        if not all(isinstance(v, str) for _, v in s.entries):
            self.sides.append(s)
            self.text.append(False)
            return len(self.sides) - 1
        pos = self._by_entries.setdefault(s.entries, len(self.sides))
        if pos == len(self.sides):
            self.sides.append(s)
            self.text.append(True)
        self.known[tuple(raw.items())] = pos
        return pos


def _read_cube_document(doc) -> tuple[int, set, list, list]:
    """n, the distinct cubes as the ints pa * len(sides_b) + pb of their
    side positions, and the distinct a- and b-sides of a cube document.

    Every item is read before any is checked, so a malformed item
    anywhere is reported first.  Then the cubes are checked in document
    order, so the first bad cube is the one named: a side with a vertex
    id that is not a string, then the colors and the declared dim, those
    once per distinct (a-colorset, b-colorset, dim)."""
    read_a, read_b = _SideReader(), _SideReader()
    known_a, known_b = read_a.known, read_b.known
    raw = []
    try:
        n = doc["n"]
        for item in doc["cubes"]:  # the reader's own lookup, inlined: once per cube
            side = item["a"]
            try:
                pa = known_a[tuple(side.items())]
            except (KeyError, TypeError):  # new, or an unhashable vertex id
                pa = read_a(side)
            side = item["b"]
            try:
                pb = known_b[tuple(side.items())]
            except (KeyError, TypeError):
                pb = read_b(side)
            raw.append((pa, pb, item.get("dim")))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ComplexError(f"malformed cube complex document: {exc}") from exc
    check_color_count(n)
    sides_a, sides_b = read_a.sides, read_b.sides
    colors_a, colors_b = [s.colors for s in sides_a], [s.colors for s in sides_b]
    text = all(read_a.text) and all(read_b.text)  # if not, every cube is checked in full
    checked: set = set()  # (a-colorset, b-colorset, dim) of good cubes, dim None or an int
    for pa, pb, dim in raw:
        ca, cb = colors_a[pa], colors_b[pb]
        key = (ca, cb, dim) if text and (dim is None or type(dim) is int) else None
        if key in checked:
            continue
        cube = f"cube ({sides_a[pa]}, {sides_b[pb]})"
        if not (read_a.text[pa] and read_b.text[pb]):
            raise ComplexError(f"{cube} has a vertex id that is not a string")
        colors, overlap = ca | cb, len(ca & cb)
        if len(colors) != n or min(colors) < 1 or max(colors) > n:
            raise ComplexError(f"{cube} does not cover the colors 1..{n}")
        if dim is not None:
            if not isinstance(dim, int) or isinstance(dim, bool):
                raise ComplexError(f"{cube} declares dim {dim!r}, which is not an integer")
            if dim != overlap:
                raise ComplexError(
                    f"{cube} declares dim {dim!r}, but its colors overlap in {overlap}"
                )
        if key is not None:
            checked.add(key)
    nb = len(sides_b)
    return n, {pa * nb + pb for pa, pb, _ in raw}, sides_a, sides_b


def _document_products(cubes: set, sides_a: list, sides_b: list) -> tuple:
    """The document's sides ranked, and its distinct cubes as bucket
    products for `_assemble_pair_cubes`: the cubes of one a-side whose
    b-sides share a colorset are one product."""
    side_a, side_b = _ranked(sides_a), _ranked(sides_b)
    rank_a = [side_a.rank[s.entries] for s in sides_a]
    rank_b = [side_b.rank[s.entries] for s in sides_b]
    colors_b = [s.colors for s in sides_b]
    nb = len(sides_b)
    groups: dict = {}
    for k in cubes:
        pa, pb = divmod(k, nb)
        groups.setdefault((pa, colors_b[pb]), []).append(rank_b[pb])
    products = [
        ((rank_a[pa],), tuple(ranks_b), tuple(sorted(sides_a[pa].colors & colors)))
        for (pa, colors), ranks_b in groups.items()
    ]
    return side_a, side_b, products


# A document's cube sides may span factors of at most this many faces
# per distinct cube, the empty face included; more and the cubes are
# taken as given.  Eight keeps the pair of a one-cube document on three
# colors (2^3 faces) and of every complete document of the test corpus.
_FACES_PER_CUBE = 8


def _spanned_factor(n: int, sides, budget: int) -> Optional[ColoredComplex]:
    """The colored complex whose simplices are the faces of `sides`, or None
    when a vertex id has two colors or there are more than `budget` faces,
    the empty face included.  A side alone has 2^|side| faces, so a wider
    side than that ends the search before any face is made; the faces are
    then gathered side by side, and the search stops with the budget."""
    if any(len(s) >= budget.bit_length() for s in sides):  # 2^|side| > budget
        return None
    colors: dict = {}
    for s in sides:
        for c, v in s.entries:
            if colors.setdefault(v, c) != c:
                return None
    faces: set = set()
    for top in [(), *(s.entries for s in sides)]:
        if top not in faces:  # else its faces are in already
            faces |= faces_of([top])
            if len(faces) > budget:
                return None
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


# ----------------------------------------------------------------------
# pairing predicates
# ----------------------------------------------------------------------


def _partnered(K: ColoredComplex, other: ColoredComplex) -> list[tuple]:
    """The color-mask buckets of K whose simplices have a complementary
    partner in `other`, one lookup per bucket.  A simplex s has one only
    when n - |s| colors fit in the vertices of `other`, so when n passes
    the two vertex counts no bucket has one, and no color mask is made."""
    if K.n > len(K._colors) + len(other._colors):
        return []
    return [bucket for mask, bucket in K._buckets.items() if other._partners(mask)]


def smartly_paired(
    gamma_a: ColoredComplex, gamma_b: ColoredComplex
) -> tuple[bool, Optional[tuple[str, CoordSimplex]]]:
    """Every maximal simplex on each side has a complementary simplex on
    the other.  The empty simplex complements a full-cover simplex and is
    always available."""
    check_same_color_count(gamma_a, gamma_b)
    for side, K, other in (("A", gamma_a, gamma_b), ("B", gamma_b, gamma_a)):
        partnered = {bucket[0].colors for bucket in _partnered(K, other)}
        for m in K.maximal_simplices:
            if m.colors not in partnered:
                return False, (side, m)
    return True, None


def doubly_smartly_paired(gamma_a: ColoredComplex, gamma_b: ColoredComplex) -> bool:
    """Smartly paired, and every codimension-1 face of a maximal simplex
    admits a complementary simplex as well."""
    ok, _ = smartly_paired(gamma_a, gamma_b)
    if not ok:
        return False
    for K, other in ((gamma_a, gamma_b), (gamma_b, gamma_a)):
        partnered = {bucket[0].colors for bucket in _partnered(K, other)}
        for m in K.maximal_simplices:
            if any(f.colors not in partnered for f in m.facets()):
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
        partnered = [s.entries for bucket in _partnered(K, other) for s in bucket]
        faces = faces_of(partnered)
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
    color_masks = [_color_mask(m.colors) for m in maximal]
    nodes, position = [], {}
    for k, m in enumerate(maximal):
        for b in gamma_b._partners(color_masks[k]):
            position[k, b.entries] = len(nodes)
            nodes.append((m, b))
    # the faces as vertex masks of gamma_a's view, which maps each to its simplex
    verts, _, faces = gamma_a._view
    bit = {v: 1 << i for i, v in enumerate(verts)}
    vertex_masks = [sum([bit[v] for _, v in m.entries]) for m in maximal]
    at_vertex: dict = {}
    for k, vm in enumerate(vertex_masks):
        for q in _bits(vm):
            at_vertex.setdefault(q, []).append(k)
    members = {0: range(len(maximal))}  # a shared face -> the maximal k containing it
    for k, vm in enumerate(vertex_masks):
        for k2 in {k2 for q in _bits(vm) for k2 in at_vertex[q] if k2 > k}:
            f = vm & vertex_masks[k2]
            if f not in members:
                low = (f & -f).bit_length() - 1
                members[f] = [j for j in at_vertex[low] if vertex_masks[j] & f == f]
    groups = set()
    for f, ks in members.items():
        if len(ks) < 2:
            continue
        has = [color_masks[j] for j in ks]
        shared = reduce(and_, has)
        # a group reads c only on the colors some member lacks
        for cut in {
            tuple([e for e in c.entries if not shared >> e[0] & 1])
            for c in gamma_b._partners(_color_mask(faces[f].colors))
        }:
            groups.add(tuple([
                position[j, tuple([e for e in cut if not colors >> e[0] & 1])]
                for j, colors in zip(ks, has)
            ]))
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
    factor links are, so the walk builds each factor link once and no
    pair complex; the first failing vertex gets its minimal non-spanning
    clique from its link in the pair complex, which is built only then.
    Returns (verdict, method, witness)."""
    check_same_color_count(gamma_a, gamma_b)
    if is_flag(gamma_a)[0] and is_flag(gamma_b)[0]:
        return True, "flag-inputs", None
    flag_a = cache(lambda a: is_flag(gamma_a.link(a))[0])
    flag_b = cache(lambda b: is_flag(gamma_b.link(b))[0])
    for v in _pair_vertices(gamma_a, gamma_b):
        if not (flag_a(v[0]) and flag_b(v[1])):
            _, clique = is_flag(build_clcc(gamma_a, gamma_b).link(v))
            return False, "direct-links", (v, clique)
    return True, "direct-links", None


def classify_vertex_links(X: CubeComplex) -> dict:
    """Tag each vertex link: circle, 2-sphere, other, or unknown (dim >= 3).

    circle   = connected 1-complex, every vertex of degree 2;
    2-sphere = connected closed simplicial surface (each edge in exactly
               two triangles, vertex links circles) with chi = 2.

    A pair-built complex tags its links from the factor links by the join
    formula lk(a, b) = lk_A(a) * lk_B(b), each factor simplex summarised
    once per call; a complex with no defining pair (loaded from JSON, or
    built by hand) tags each vertex's link off its star in X.  Either way
    the tags are read by `_LinkSummary`, and no link complex is built.
    """
    if X.defining_pair is None:
        return {v: _LinkSummary(X, v).tag for v in X.cells(0)}
    gamma_a, gamma_b = X.defining_pair
    link_a, link_b = cache(partial(_LinkSummary, gamma_a)), cache(partial(_LinkSummary, gamma_b))
    return {v: _join_tag(link_a(v[0]), link_b(v[1])) for v in X.cells(0)}


def _join_tag(la: _LinkSummary, lb: _LinkSummary) -> str:
    """The tag of the join la * lb of two links, from their dimensions,
    sizes and tags."""
    if lb.dim < 0:
        return la.tag
    if la.dim < 0:
        return lb.tag
    if la.dim + lb.dim + 1 >= 3:
        return "unknown"
    if la.dim == lb.dim == 0:  # K_{p,q}: a circle only as the 4-cycle
        return "circle" if la.size == lb.size == 2 else "other"
    # p points against a 1-dim link: a 2-sphere only as the suspension
    # of a circle
    points, line = (la, lb) if la.dim == 0 else (lb, la)
    return "2-sphere" if points.size == 2 and line.tag == "circle" else "other"


class _LinkSummary:
    """The tag of the link of a cell of any host (a cube, a factor
    simplex, or a whole complex's empty simplex), read off the cell's
    star, walked once, on positions; no link is built.

    A link k-simplex is a coface k + 1 dimensions up: the star's depth is
    the link's dimension, its first level above the cell the link
    vertices, and its level sizes give chi.  A link vertex's degree and a
    link edge's count of triangles are coface-row lengths, and the
    2-sphere test reads the links of the link vertices off the same
    levels (`_vertex_links_are_circles`)."""

    def __init__(self, host: CellStore, cell):
        self.host, self.star = host, list(host._star(cell))
        self.dim = len(self.star) - 2
        self.size = len(self.star[1][1]) if self.dim >= 0 else 0

    @cached_property
    def ends(self) -> list:
        """The link edges, the cofaces two dimensions up, as index pairs
        into the first level: an edge's ends are its facets there."""
        if self.dim < 1:
            return []
        (_, verts), (d, edges) = self.star[1:3]
        at, table = {q: i for i, q in enumerate(verts)}, self.host.facet_positions(d)
        return [[at[f] for f in table[e] if f in at] for e in edges]

    @cached_property
    def tag(self) -> str:
        if self.dim not in (1, 2):  # a link of dimension 3 or more, or no edge
            return "unknown" if self.dim > 2 else "other"
        (_, verts), (d, edges), *triangles = self.star[1:]
        rows = self.host._cofaces
        if triangles:  # a closed surface: each edge in two triangles, chi = 2
            chi = len(verts) - len(edges) + len(triangles[0][1])
            closed = chi == 2 and all(len(rows[d][e]) == 2 for e in edges)
        else:
            closed = all(len(rows[d - 1][u]) == 2 for u in verts)
        if not (closed and connected(len(verts), self.ends)):
            return "other"
        if not triangles:
            return "circle"
        return "2-sphere" if self._vertex_links_are_circles() else "other"

    def _vertex_links_are_circles(self) -> bool:
        """Whether the link of every vertex u of a connected 2-dimensional
        link whose edges each lie in two triangles is a circle.

        The vertices of lk(u) are the link edges at u, and each triangle at
        u joins its two edges there.  Each edge lies in two triangles, so
        every vertex of lk(u) has degree 2 and lk(u) is a union of cycles;
        it is a circle exactly when those triangles connect the edges at u.
        So a link edge at one of its ends is a flag, numbered 2e or 2e + 1;
        each triangle joins, at each of its three vertices, the flags of
        its two edges there; and each lk(u) is one circle exactly when the
        flags form one component per link vertex (every vertex has an
        edge, since the link is connected)."""
        (_, verts), (d, edges), (_, triangles) = self.star[1:]
        at, table = {q: j for j, q in enumerate(edges)}, self.host.facet_positions(d + 1)
        joins = []
        for t in triangles:
            flag_at: dict = {}  # a vertex of t -> the first flag of t there
            for e in [at[g] for g in table[t] if g in at]:
                for flag, u in enumerate(self.ends[e], 2 * e):
                    other = flag_at.setdefault(u, flag)
                    if other != flag:
                        joins.append((other, flag))
        return len(set(component_roots(2 * len(edges), joins))) == len(verts)


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
    image) is verified here in that case.  Each map must keep the color
    count, checked before either complex is built."""
    check_same_color_count(f_a.source, f_a.target)
    check_same_color_count(f_b.source, f_b.target)
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
    # image spans a full subcomplex of the target link; both complexes are
    # built, so the links are their adjacency links, read off the stars
    for v in phi.source.cells(0):
        src = phi.source.link(v)
        dst = phi.target.link(phi.apply(v))
        image_vertices = [phi.apply(u) for u in src.vertex_ids]
        if len(set(image_vertices)) != len(image_vertices):
            raise ComplexError(f"link map at {v} is not injective")
        mapped = frozenset(frozenset(phi.apply(u) for u in s) for s in src.simplices)
        keep = set(image_vertices)
        full = frozenset(s for s in dst.simplices if s <= keep)
        if mapped != full:
            raise ComplexError(f"link image at {v} is not a full subcomplex")
