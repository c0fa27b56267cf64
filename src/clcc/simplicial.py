"""Finite n-colored simplicial complexes and their combinatorial predicates.

A colored complex is n-partite: every simplex carries at most one vertex
of each color, so a simplex is a partial map color -> vertex id.  The
empty simplex is always a member; color classes may be empty.  All values
are immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, islice
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from clcc import gf2
from clcc.canon import csorted
from clcc.errors import ComplexError, DomainError, PairError


@dataclass(frozen=True, slots=True, init=False)
class CoordSimplex:
    """Simplex of a colored complex, stored as color -> vertex entries.

    The value is `entries` alone.  The hash and the color set are cached
    in two more slots, None until first use, so a simplex used as a key
    is hashed once and a cache is read without raising.  Equal color
    sets are one shared frozenset.  The slots are written through their
    descriptors, which is what `object.__setattr__` does on a frozen
    class, without its lookup of the slot by name."""

    entries: tuple[tuple[int, str], ...]
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)
    _colors: Optional[frozenset] = field(default=None, init=False, repr=False, compare=False)

    def __init__(self, entries: tuple[tuple[int, str], ...]) -> None:
        _set_entries(self, entries)
        _set_hash(self, None)
        _set_colors(self, None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.entries)
            _set_hash(self, h)
        return h

    def __reduce__(self):
        # the entries alone: a string's hash differs between processes,
        # so a cached hash must not travel
        return CoordSimplex, (self.entries,)

    @staticmethod
    def of(mapping: Mapping[int, str] | Iterable[tuple[int, str]]) -> "CoordSimplex":
        items = mapping.items() if isinstance(mapping, abc.Mapping) else mapping
        return CoordSimplex(_checked_entries(items))

    @staticmethod
    def from_json(raw: Mapping[str, str]) -> "CoordSimplex":
        """A simplex written as a JSON object color -> vertex id; keys
        that spell one color twice, such as "1" and "01", are refused."""
        return CoordSimplex.of([(int(c), v) for c, v in raw.items()])

    @property
    def colors(self) -> frozenset[int]:
        colors = self._colors
        if colors is None:
            colors = _shared_color_set(tuple(c for c, _ in self.entries))
            _set_colors(self, colors)
        return colors

    @property
    def vertex_ids(self) -> frozenset[str]:
        return frozenset(v for _, v in self.entries)

    @property
    def dim(self) -> int:
        return len(self.entries) - 1

    def __len__(self) -> int:
        return len(self.entries)

    def __le__(self, other: "CoordSimplex") -> bool:
        return set(self.entries) <= set(other.entries)

    def get(self, color: int) -> Optional[str]:
        for c, v in self.entries:
            if c == color:
                return v
        return None

    def facets(self) -> tuple["CoordSimplex", ...]:
        return tuple(
            CoordSimplex(self.entries[:i] + self.entries[i + 1 :])
            for i in range(len(self.entries))
        )

    def minus(self, color: int) -> "CoordSimplex":
        return CoordSimplex(tuple((c, v) for c, v in self.entries if c != color))

    def canonical_key(self):
        return self.entries

    def __repr__(self) -> str:
        body = ", ".join(f"{c}:{v}" for c, v in self.entries)
        return f"<{body}>" if body else "<empty>"


_set_entries = CoordSimplex.entries.__set__
_set_hash = CoordSimplex._hash.__set__
_set_colors = CoordSimplex._colors.__set__
EMPTY_SIMPLEX = CoordSimplex(())


def _checked_entries(items: Iterable[tuple[int, str]]) -> tuple[tuple[int, str], ...]:
    """The (color, vertex) items as sorted simplex entries; two items of
    one color are refused."""
    entries = tuple(sorted(items))
    if len({c for c, _ in entries}) != len(entries):
        raise ComplexError(f"duplicate color in simplex {entries}")
    return entries


@lru_cache(maxsize=4096)
def _shared_color_set(colors: tuple[int, ...]) -> frozenset[int]:
    """One frozenset per color tuple, shared by the simplices that cache it:
    a complex has few color sets and many simplices, and a frozenset
    costs over 200 bytes."""
    return frozenset(colors)


@lru_cache(maxsize=4096)
def _color_mask(colors: frozenset[int]) -> int:
    """The mask of a color set, bit c for color c, made once per color
    set: the simplices share their color sets."""
    return sum([1 << c for c in colors])


@dataclass(frozen=True)
class SquareWitness:
    """Chordless 4-cycle (v, u_plus, w, u_minus); diagonals (v,w), (u+,u-)."""

    v: str
    u_plus: str
    w: str
    u_minus: str
    colors: tuple[int, int, int, int]

    @property
    def cycle(self) -> tuple[str, str, str, str]:
        return (self.v, self.u_plus, self.w, self.u_minus)

    @property
    def color_set(self) -> frozenset[int]:
        return frozenset(self.colors)

    def to_json_dict(self) -> dict:
        return {"cycle": list(self.cycle), "colors": list(self.colors)}


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _chordless_squares(adj: Sequence[int]) -> list[tuple[int, int, int, int]]:
    """All chordless 4-cycles of a graph on the vertices 0..len(adj)-1,
    given by one neighbour mask per vertex, each once, in ascending
    order: a factor's vertex ranks, scanned once per factor; a flag
    factor's links take their squares from that scan, not from one of
    their own.

    A square (v, u, w, x) starts at its least vertex v, so u, w and x are
    above v; its diagonals (v, w) and (u, x) are no edges, and u < x.  So
    v's neighbours u above v, then u's neighbours w above v and not next
    to v, then the common neighbours x of v and w above u and not next to
    u, each walked upwards, list the squares in order with no sort.
    Quadratic in the vertex count times squared degree, which beats the
    naive 4-tuple scan at this scale."""
    found = []
    for v, nv in enumerate(adj):
        above = -2 << v  # the vertices above v
        far = above & ~nv
        for u in _bits(nv & above):
            nu = adj[u]
            beyond = ~nu & (-2 << u)
            for w in _bits(nu & far):
                found += [(v, u, w, x) for x in _bits(nv & adj[w] & beyond)]
    return found


def check_color_count(n) -> None:
    """A color count n must be an integer >= 1 (a bool is no count)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ComplexError(f"n must be an integer >= 1, got {n!r}")


def check_vertex_colors(n, vertices: Iterable[tuple[str, int]]) -> dict[str, int]:
    """The color of each declared vertex id, in declaration order, for a
    complex on the colors 1..n.  Refuses a bad n, a color out of range
    and a vertex declared with two colors; declaring one twice is fine."""
    check_color_count(n)
    colors: dict[str, int] = {}
    for vid, c in vertices:
        if not 1 <= c <= n:
            raise ComplexError(f"color {c} of vertex {vid!r} out of range 1..{n}")
        if colors.setdefault(vid, c) != c:
            raise ComplexError(f"vertex {vid!r} declared with two colors")
    return colors


def check_same_color_count(K_A, K_B) -> None:
    """The two complexes of a pair must have one color count."""
    if K_A.n != K_B.n:
        raise PairError(f"color counts differ: {K_A.n} vs {K_B.n}")


def faces_of(tops: Iterable[tuple]) -> set[tuple]:
    """Every sub-tuple of every top, in its top's order: the downward
    closure of the simplices `tops`, each given as a tuple.  No tops
    give no faces.  The longest tops are closed first, so a top that is
    a face of one closed before it adds nothing and is skipped."""
    faces: set[tuple] = set()
    for top in sorted(tops, key=len, reverse=True):
        if top not in faces:
            for k in range(len(top) + 1):
                faces.update(combinations(top, k))
    return faces


def component_roots(count: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """For each vertex of a graph on the vertices 0..count-1, each edge a
    pair of vertex numbers, the least vertex of its component.

    A union-find (Tarjan 1975) in which no vertex's parent is above it: a
    union hangs the larger root under the smaller, and `find` halves its
    path.  Then one pass upwards leaves every vertex at its root, since
    its parent, below it, is already there.  `edges` is read once."""
    root = list(range(count))
    for u, v in edges:
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u < v:
            root[v] = u
        elif v < u:
            root[u] = v
    for x in range(count):
        root[x] = root[root[x]]
    return root


def connected(count: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Whether a graph on the vertices 0..count-1, each edge a pair of
    vertex numbers, has exactly one component: every root is vertex 0."""
    return count > 0 and not any(component_roots(count, edges))


def cliques(adj: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The nonempty cliques of a graph on the vertices 0..len(adj)-1,
    given by one neighbour mask per vertex, as ascending tuples of
    vertices: level by level (by size), each level in lexicographic
    order.  Each clique carries the mask of the later vertices adjacent
    to all of it, and grows only by those.  A caller that stops early
    grows no more."""
    level = [((), (1 << len(adj)) - 1)]
    while level:
        nxt = []
        for clique, after in level:
            while after:
                low = after & -after
                after ^= low
                q = low.bit_length() - 1
                bigger = clique + (q,)
                yield bigger
                nxt.append((bigger, after & adj[q]))
        level = nxt


class _View(NamedTuple):
    """A simplicial host on ints: its vertex ids in canonical order (a
    vertex's rank is its place here), each vertex's neighbours as a mask
    of ranks, and each simplex by the mask of its vertices' ranks."""

    verts: tuple
    adj: list
    masks: dict


class CellStore:
    """The cells of `ColoredComplex`, `SimplicialComplex` and
    `CubeComplex`, each part built on first use: the cells of each
    dimension in canonical order; the facet table, for each d the facets
    of each d-cell as sorted positions in `cells(d - 1)`; the index,
    each cell's (dimension, position) by its `_key`; the coface table,
    the facet table's transpose.

    A cube complex's builder hands over its cells and facet table, and a
    cube is its own key.  A simplicial host (`simplices`) keys a simplex
    by an ascending tuple, one item per vertex, that sorts as the simplex
    does; a facet drops one vertex, so its key drops one item.  Its empty
    simplex is `cells(-1)`, in the table for dimension 0.  It also has one
    int view (`_view`), from which its maximal simplices, 1-skeleton and
    clique scan are read: `_items` lists the items of a simplex, one per
    vertex, and `_item_bits` gives each item its vertex's rank bit."""

    def _key(self, cell):
        return cell

    @cached_property
    def _cells_by_dim(self) -> dict[int, tuple]:
        buckets: dict[int, list] = {}
        for s in self.simplices:
            buckets.setdefault(len(s) - 1, []).append(s)
        return {d: tuple(sorted(v, key=self._key)) for d, v in sorted(buckets.items())}

    @cached_property
    def _facet_positions(self) -> dict[int, tuple]:
        # dropping a later item gives an earlier facet, so the facets
        # dropping the last item first are in ascending order
        index = self._index
        keys = iter(index)  # in the order of the cells
        tables = {
            d: tuple([
                tuple([index[k[:i] + k[i + 1 :]][1] for i in range(d, -1, -1)])
                for k in islice(keys, len(cs))
            ])
            for d, cs in self._cells_by_dim.items()
        }
        tables.pop(-1, None)
        return tables

    @cached_property
    def _index(self) -> dict:
        key = self._key
        return {key(c): (d, p) for d, cs in self._cells_by_dim.items() for p, c in enumerate(cs)}

    @cached_property
    def _cofaces(self) -> dict:
        """The cofaces of each d-cell as ascending positions in cells(d+1)."""
        up: dict = {d: [[] for _ in cs] for d, cs in self._cells_by_dim.items()}
        for d, table in self._facet_positions.items():
            lower = up[d - 1]
            for q, ps in enumerate(table):
                for p in ps:
                    lower[p].append(q)
        return {d: tuple(map(tuple, rows)) for d, rows in up.items()}

    @property
    def top_dim(self) -> int:
        return max(self._cells_by_dim, default=-1)

    def cells(self, d: int) -> tuple:
        return self._cells_by_dim.get(d, ())

    def facet_positions(self, d: int) -> tuple:
        return self._facet_positions.get(d, ())

    def dim_of(self, cell) -> int:
        return self._index[self._key(cell)][0]

    def boundary_of(self, cell) -> tuple:
        """The facets of a simplex of this complex, the stored simplices;
        a cell outside the complex raises KeyError."""
        key = self._key(cell)
        index = self._index
        lower = self.cells(index[key][0] - 1)
        if not key:
            raise ComplexError("the empty simplex has no boundary")
        return tuple([lower[index[key[:i] + key[i + 1 :]][1]] for i in range(len(key))])

    def _star(self, cell) -> Iterator[tuple[int, list[int]]]:
        """The cofaces of a cell, itself included, walked up the coface
        table: one level per dimension from the cell's own, each the
        positions of its cofaces there.  The work is the size of the
        star, not of the complex."""
        d, p = self._index[self._key(cell)]
        level = [p]
        while level:
            yield d, level
            rows = self._cofaces[d]
            level = list(dict.fromkeys([r for q in level for r in rows[q]]))
            d += 1

    def link(self, cell):
        return self.link_data(cell)[0]

    @cached_property
    def is_pure(self) -> bool:
        """Whether every cell is a face of a top cell: going down from the
        top cells, the facets of the cells reached so far cover every
        cell one dimension lower."""
        reached = range(len(self.cells(self.top_dim)))
        for d in range(self.top_dim, 0, -1):
            table = self.facet_positions(d)
            reached = {p for c in reached for p in table[c]}
            if len(reached) != len(self.cells(d - 1)):
                return False
        return True

    @cached_property
    def boundary_ranks(self) -> tuple[int, ...]:
        """The GF(2) rank of each boundary matrix: entry k is the rank of
        ∂k, from the k-cells to the (k-1)-cells, for k = 0..top_dim, with
        ∂0 zero (the augmentation is not counted).  Read from the facet
        table once per host, for both Betti vectors.

        rank ∂1 is the vertex count less the components of the
        1-skeleton (`component_roots`), as Ripser reads dimension 0 off a
        union-find (Bauer, "Ripser", 2021), so ∂1's rows are never built.
        The matrices above it are reduced from the top dimension down,
        with clearing (Chen and Kerber, "Persistent homology computation
        with a twist", 2011; Bauer, Kerber and Reininghaus, "Clear and
        compress", 2014).  A row of the reduced ∂(k+1) is a k-cycle whose
        pivot is its highest k-cell j, so the boundary of j is a sum of
        boundaries of k-cells before j.  Each such row of ∂k is left
        out: the rank of ∂k is that of its other c_k - rank ∂(k+1) rows."""
        top = self.top_dim
        ranks = [0] * (top + 1)
        cleared = ()
        for k in range(top, 1, -1):
            kept = [ps for q, ps in enumerate(self.facet_positions(k)) if q not in cleared]
            cleared = gf2.pivots(gf2.boundary_rows(kept))
            ranks[k] = len(cleared)
        if top > 0:
            roots = component_roots(len(self.cells(0)), self.facet_positions(1))
            ranks[1] = len(roots) - len(set(roots))
        return tuple(ranks)

    @cached_property
    def _view(self) -> _View:
        """The host on ints, built once: one pass over the simplices gives
        each its vertex mask, and each edge its two neighbour bits."""
        verts = tuple(self.vertex_ids)
        bit = self._item_bits()
        items = self._items
        adj = [0] * len(verts)
        masks = {}
        for s in self.simplices:
            m = 0
            for x in items(s):
                m |= bit[x]
            masks[m] = s
            if m.bit_count() == 2:
                low = m & -m
                adj[low.bit_length() - 1] |= m ^ low
                adj[(m ^ low).bit_length() - 1] |= low
        return _View(verts, adj, masks)

    @cached_property
    def maximal_simplices(self) -> tuple:
        """The simplices with no one-vertex extension among the simplices,
        in canonical order.  The candidate extensions of a simplex are the
        common neighbours of its vertices (every vertex, for the empty
        simplex), so the empty simplex is maximal only in the vertex-less
        complex, and a simplex of a flag complex is maximal exactly when
        its vertices have no common neighbour."""
        _, adj, masks = self._view
        every = (1 << len(adj)) - 1
        out = []
        for m, s in masks.items():
            ext, rest = every, m
            while rest:
                low = rest & -rest
                ext &= adj[low.bit_length() - 1]
                rest ^= low
            while ext:
                low = ext & -ext
                if m | low in masks:
                    break
                ext ^= low
            else:
                out.append(s)
        return tuple(sorted(out, key=self._key))

    @cached_property
    def adjacency(self) -> dict:
        """Each vertex id's neighbours in the 1-skeleton of a simplicial
        host, keyed in the order of `vertex_ids`."""
        verts, adj, _ = self._view
        return {v: frozenset([verts[q] for q in _bits(ns)]) for v, ns in zip(verts, adj)}

    def is_connected(self) -> bool:
        """One component of 0-cells: a declared vertex in no simplex is no
        cell, so it counts here no more than in `betti` or χ."""
        return connected(len(self.cells(0)), self.facet_positions(1))

    @cached_property
    def _flag_witness(self) -> Optional[tuple]:
        """The least clique of the 1-skeleton that spans no simplex, or
        None: the one clique scan of a simplicial host, read by `is_flag`.
        `cliques` yields by size, then lexicographically, so the first
        clique of three or more vertices whose mask is no simplex's is the
        least failure."""
        verts, adj, masks = self._view
        for clique in cliques(adj):
            if len(clique) > 2:
                m = 0
                for q in clique:
                    m |= 1 << q
                if m not in masks:
                    return tuple([verts[q] for q in clique])
        return None

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(cs) for d, cs in self._cells_by_dim.items() if d >= 0)

    def __repr__(self) -> str:
        """The cell count of each dimension, after the color count of a
        host that has one: how a failing assertion prints a host."""
        counts = {d: len(cs) for d, cs in self._cells_by_dim.items() if d >= 0}
        n = getattr(self, "n", None)
        head = "" if n is None else f"n={n}, "
        return f"{type(self).__name__}({head}cells={counts})"


class ColoredComplex(CellStore):
    """Downward-closed family of coordinate simplices over colored vertices.

    A simplex's key is its entries: canon_key of a CoordSimplex is
    (6, entries), so the simplices sort by their entries.  The vertex ids
    are strings, kept sorted, which is their canonical order; a simplex's
    items are its entries."""

    _key = _items = staticmethod(attrgetter("entries"))

    def _item_bits(self) -> dict:
        return {(c, v): 1 << i for i, (v, c) in enumerate(self._colors.items())}

    def __init__(self, n: int, colors: Mapping[str, int], simplices: frozenset[CoordSimplex]):
        self.n = n
        self._colors = dict(sorted(colors.items()))
        self.simplices = simplices

    # -- construction ------------------------------------------------

    @staticmethod
    def build(
        n: int,
        vertices: Iterable[tuple[str, int]],
        maximal: Iterable[Iterable[str]],
    ) -> "ColoredComplex":
        """Downward closure of the given maximal simplices (idempotent)."""
        colors = check_vertex_colors(n, vertices)
        tops: list[tuple] = [()]  # entry tuples, so each simplex is made once
        for vset in maximal:
            entries = []
            for vid in vset:
                if vid not in colors:
                    raise ComplexError(f"unknown vertex id {vid!r}")
                entries.append((colors[vid], vid))
            tops.append(_checked_entries(entries))
        return ColoredComplex(n, colors, frozenset(map(CoordSimplex, faces_of(tops))))

    def _replace_simplices(self, simplices: frozenset[CoordSimplex]) -> "ColoredComplex":
        colors = {v: self._colors[v] for s in simplices for _, v in s.entries}
        return ColoredComplex(self.n, colors, simplices)

    # -- basic queries -----------------------------------------------

    @property
    def vertices(self) -> tuple[tuple[str, int], ...]:
        return tuple(self._colors.items())

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(self._colors)

    def color_of(self, vid: str) -> int:
        return self._colors[vid]

    def color_class(self, color: int) -> tuple[str, ...]:
        return tuple(v for v, c in self._colors.items() if c == color)

    def simplex_with_vertices(self, vids: Iterable[str]) -> Optional[CoordSimplex]:
        """The simplex on exactly these vertex ids, or None; the vertex
        colors give its entries."""
        colors = self._colors
        vids = set(vids)
        if not vids <= colors.keys():
            return None
        at = self._index.get(tuple(sorted((colors[v], v) for v in vids)))
        return None if at is None else self.cells(at[0])[at[1]]

    @cached_property
    def _buckets(self) -> dict[int, tuple[CoordSimplex, ...]]:
        """The simplices by color mask (bit c for color c), each bucket in
        canonical order: the simplices are sorted once, and a mask is made
        once per color set."""
        groups: dict = {}
        for s in sorted(self.simplices, key=self._key):
            groups.setdefault(s.colors, []).append(s)
        return {_color_mask(colors): tuple(b) for colors, b in groups.items()}

    @cached_property
    def _full(self) -> int:
        return (1 << self.n + 1) - 2

    def _partners(self, mask: int) -> tuple[CoordSimplex, ...]:
        """The simplices on exactly the colors of 1..n missing from the
        color mask, `_full ^ mask`.  That mask is formed only when there
        are no more missing colors than vertices here, so a huge n costs
        nothing."""
        if self.n - mask.bit_count() > len(self._colors):
            return ()
        return self._buckets.get(self._full ^ mask, ())

    @cached_property
    def _square_ranks(self) -> list[tuple[int, int, int, int]]:
        """The one square scan, on the view's ranks: read by `squares` and
        by the links of `_link_squares`."""
        return _chordless_squares(self._view.adj)

    @cached_property
    def squares(self) -> tuple[SquareWitness, ...]:
        """The chordless 4-cycles of the 1-skeleton, lexicographically
        ordered: every square predicate reads them."""
        verts = self._view.verts
        c = self._colors
        return tuple(
            SquareWitness(*ids, tuple([c[v] for v in ids]))
            for ids in [[verts[q] for q in sq] for sq in self._square_ranks]
        )

    def _link_squares(self, s: CoordSimplex) -> tuple[bool, bool]:
        """Whether the link of s has a chordless square, and whether two of
        its vertices are not adjacent, for a flag complex: there the link
        of s is the full subcomplex on the common neighbours of the
        vertices of s (the 0-cells for the empty simplex), so its squares
        are the complex's squares inside those neighbours."""
        verts, adj, masks = self._view
        common = sum([1 << q for q in range(len(verts)) if 1 << q in masks])
        for _, v in s.entries:
            common &= adj[verts.index(v)]
        square = any(common >> v & common >> u & common >> w & common >> x & 1
                     for v, u, w, x in self._square_ranks)
        return square, any(common & ~adj[q] != 1 << q for q in _bits(common))

    @cached_property
    def bicolor_squares(self) -> dict[tuple[int, int], SquareWitness]:
        """The first square on each pair of colors (i, j), i < j.  These
        are the squares of the full subcomplex on the two color classes:
        it keeps every edge among its vertices, and adjacent vertices have
        different colors."""
        out: dict[tuple[int, int], SquareWitness] = {}
        for sq in self.squares:
            if len(sq.color_set) == 2:
                out.setdefault(tuple(sorted(sq.color_set)), sq)
        return out

    # -- homology host protocol ---------------------------------------

    @property
    def augmentation_cell(self) -> CoordSimplex:
        return EMPTY_SIMPLEX

    def link_data(self, e: CoordSimplex):
        """Link of e plus the coface -> link-cell correspondence, on the
        star of e: a coface's link cell is its entries outside e."""
        if e not in self.simplices:
            raise ComplexError(f"simplex {e} not in complex")
        drop = set(e.entries)
        cell_map = {
            s: CoordSimplex(tuple(x for x in s.entries if x not in drop))
            for d, level in self._star(e)
            for s in map(self.cells(d).__getitem__, level)
        }
        return self._replace_simplices(frozenset(cell_map.values())), cell_map

    # -- structural ops ------------------------------------------------

    def full_subcomplex(self, vids: Iterable[str]) -> "ColoredComplex":
        keep = set(vids)
        unknown = keep - set(self._colors)
        if unknown:
            raise ComplexError(f"unknown vertex ids {sorted(unknown)}")
        fam = frozenset(s for s in self.simplices if s.vertex_ids <= keep)
        colors = {v: c for v, c in self._colors.items() if v in keep}
        return ColoredComplex(self.n, colors, fam)

    def relabeled(self, rename: Mapping[str, str]) -> "ColoredComplex":
        colors = {rename.get(v, v): c for v, c in self._colors.items()}
        if len(colors) != len(self._colors):
            raise ComplexError("relabeling is not injective")
        fam = frozenset(
            CoordSimplex(tuple(sorted((c, rename.get(v, v)) for c, v in s.entries)))
            for s in self.simplices
        )
        return ColoredComplex(self.n, colors, fam)

    def uncolored(self) -> "SimplicialComplex":
        return SimplicialComplex(
            tuple(self._colors),
            frozenset(frozenset(s.vertex_ids) for s in self.simplices),
        )

    # -- value semantics / io ------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColoredComplex)
            and self.n == other.n
            and self._colors == other._colors
            and self.simplices == other.simplices
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "vertices": [{"id": v, "color": c} for v, c in sorted(self._colors.items())],
            "maximal_simplices": sorted(
                sorted(s.vertex_ids) for s in self.maximal_simplices if s.dim >= 0
            ),
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "ColoredComplex":
        try:
            n = doc["n"]
            vertices = [(v["id"], v["color"]) for v in doc["vertices"]]
            maximal = doc["maximal_simplices"]
        except (KeyError, TypeError) as exc:
            raise ComplexError(f"malformed complex document: {exc}") from exc
        for vid, c in vertices:
            if not isinstance(vid, str) or not isinstance(c, int) or isinstance(c, bool):
                raise ComplexError(
                    f"a vertex needs a string id and an integer color, got {vid!r}: {c!r}"
                )
        if not isinstance(maximal, list) or not all(
            isinstance(m, list) and all(isinstance(vid, str) for vid in m) for m in maximal
        ):
            raise ComplexError("maximal_simplices must be a list of lists of vertex ids")
        return ColoredComplex.build(n, vertices, maximal)


class SimplicialComplex(CellStore):
    """Uncolored simplicial complex; simplices are frozensets of vertex ids.

    The vertices are ranked once, in canonical order, and a simplex's
    key is the sorted ranks of its vertices, which sort as canon_key
    sorts the simplices."""

    def __init__(self, vertices: Sequence, simplices: frozenset[frozenset]):
        self.vertex_ids = tuple(csorted(vertices))
        self.simplices = simplices

    @staticmethod
    def from_maximal(vertices: Iterable, maximal: Iterable[Iterable]) -> "SimplicialComplex":
        vset = set(vertices)
        tops: list[tuple] = [()]
        for m in maximal:
            m = frozenset(m)
            if not m <= vset:
                raise ComplexError(f"unknown vertex ids {csorted(m - vset)}")
            tops.append(tuple(m))
        return SimplicialComplex(vset, frozenset(map(frozenset, faces_of(tops))))

    @cached_property
    def _rank(self) -> dict:
        return {v: i for i, v in enumerate(self.vertex_ids)}

    def _key(self, s: frozenset) -> tuple[int, ...]:
        return tuple(sorted(map(self._rank.__getitem__, s)))

    @staticmethod
    def _items(s: frozenset) -> frozenset:
        return s

    def _item_bits(self) -> dict:
        return {v: 1 << i for v, i in self._rank.items()}

    @property
    def augmentation_cell(self) -> frozenset:
        return frozenset()

    def link_data(self, e: frozenset):
        """Link of e plus the coface -> link-cell correspondence, on the
        star of e: a coface's link cell is its vertices outside e."""
        e = frozenset(e)
        if e not in self.simplices:
            raise ComplexError("simplex not in complex")
        cell_map = {
            s: s - e for d, level in self._star(e) for s in map(self.cells(d).__getitem__, level)
        }
        link_cells = frozenset(cell_map.values())
        return SimplicialComplex(frozenset().union(*link_cells), link_cells), cell_map

    def relabeled(self, rename: Mapping) -> "SimplicialComplex":
        vertices = [rename.get(v, v) for v in self.vertex_ids]
        if len(set(vertices)) != len(vertices):
            raise ComplexError("relabeling is not injective")
        fam = frozenset(frozenset(rename.get(v, v) for v in s) for s in self.simplices)
        return SimplicialComplex(vertices, fam)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.vertex_ids == other.vertex_ids
            and self.simplices == other.simplices
        )

    def to_json_dict(self) -> dict:
        return {
            "vertices": [str(v) for v in self.vertex_ids],
            "maximal_simplices": sorted(
                sorted(str(v) for v in s) for s in self.maximal_simplices if s
            ),
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "SimplicialComplex":
        """Vertex ids must be strings, as `to_json_dict` writes them, so
        that a document re-exports byte-identically."""
        try:
            vertices, maximal = doc["vertices"], doc["maximal_simplices"]
        except (KeyError, TypeError) as exc:
            raise ComplexError(f"malformed simplicial document: {exc}") from exc
        lists = [vertices, *maximal] if isinstance(maximal, list) else [maximal]
        if not all(isinstance(m, list) and all(isinstance(v, str) for v in m) for m in lists):
            raise ComplexError("vertices and maximal simplices must be lists of string ids")
        return SimplicialComplex.from_maximal(vertices, maximal)


# ----------------------------------------------------------------------
# module operations
# ----------------------------------------------------------------------


def is_flag(K) -> tuple[bool, Optional[tuple]]:
    """Every clique of the 1-skeleton spans a simplex.

    Accepts colored or uncolored complexes.  On failure returns the
    minimal non-spanning clique (smallest size, then lexicographically
    first).  Each complex scans its cliques once, on the first ask.
    """
    clique = K._flag_witness
    return clique is None, clique


def require_flag(K) -> None:
    """Refuses a complex that is not flag, naming `is_flag`'s clique."""
    ok, clique = is_flag(K)
    if not ok:
        raise DomainError(f"input must be flag; clique {clique} does not span")


def repeated_color(K: ColoredComplex) -> Optional[int]:
    """The first color met twice walking `K.vertices` in order, or None
    when no color has two vertices."""
    seen: set[int] = set()
    for _, c in K.vertices:
        if c in seen:
            return c
        seen.add(c)
    return None


def _vertex_set(cell) -> frozenset:
    return cell.vertex_ids if isinstance(cell, CoordSimplex) else frozenset(cell)


def join_cells(K1, K2, cells_1, cells_2) -> frozenset:
    """Each cell of K1 in cells_1 (a vertex set, or a CoordSimplex of a
    colored K1) joined with each cell of K2 in cells_2, as vertex sets of
    the join of K1 and K2.  Ids pass through when the two vertex sets are
    disjoint (so joining with the vertex-less complex returns the other
    complex unchanged); on any collision every vertex is tagged ("A", id)
    / ("B", id)."""
    if set(K1.vertex_ids).isdisjoint(K2.vertex_ids):
        left, right = list(map(_vertex_set, cells_1)), list(map(_vertex_set, cells_2))
    else:
        left = [frozenset([("A", v) for v in _vertex_set(c)]) for c in cells_1]
        right = [frozenset([("B", v) for v in _vertex_set(c)]) for c in cells_2]
    return frozenset(s | t for s in left for t in right)


def simplicial_join(K1, K2) -> SimplicialComplex:
    """Join of two complexes; simplices are unions of one simplex from
    each side, named by `join_cells`.  Output carries no coloring."""
    # the join of the two whole vertex sets is the join's vertex set
    (vertices,) = join_cells(K1, K2, [K1.vertex_ids], [K2.vertex_ids])
    return SimplicialComplex(vertices, join_cells(K1, K2, K1.simplices, K2.simplices))


def is_5_large(K: ColoredComplex) -> tuple[bool, Optional[SquareWitness]]:
    return (True, None) if not K.squares else (False, K.squares[0])


def is_obes(K: ColoredComplex) -> tuple[bool, Optional[SquareWitness]]:
    """Only bicolor empty squares: every chordless 4-cycle lives in two
    color classes."""
    for sq in K.squares:
        if len(sq.color_set) != 2:
            return False, sq
    return True, None


def pairwise_5_large(
    K_A: ColoredComplex, K_B: ColoredComplex
) -> tuple[bool, Optional[tuple[tuple[int, int], SquareWitness, SquareWitness]]]:
    """For every color pair, at least one side's bicolored full
    subcomplex has no empty squares; the witness is the least pair where
    both have one."""
    check_same_color_count(K_A, K_B)
    sq_a, sq_b = K_A.bicolor_squares, K_B.bicolor_squares
    pair = min(sq_a.keys() & sq_b.keys(), default=None)
    if pair is None:
        return True, None
    return False, (pair, sq_a[pair], sq_b[pair])


def barycentric_subdivision_2d(
    K: SimplicialComplex, color_map: Mapping[str, int]
) -> ColoredComplex:
    """Barycentric subdivision of a simplicial complex of dimension <= 2,
    tripartite-colored by cell dimension.

    Vertices are barycentres of nonempty simplices; simplices are chains
    of proper inclusions, the faces of the full flags of the maximal
    simplices, which `ColoredComplex.build` closes downward.  color_map
    sends "V", "E", "F" bijectively onto {1, 2, 3}.  The output is always
    flag.
    """
    if K.top_dim > 2:
        raise ComplexError(f"dimension {K.top_dim} > 2 not supported")
    if sorted(color_map.get(k) for k in ("V", "E", "F")) != [1, 2, 3]:
        raise ComplexError("color_map must map V, E, F bijectively onto {1, 2, 3}")
    dim_color = {0: color_map["V"], 1: color_map["E"], 2: color_map["F"]}

    def bid(s: frozenset) -> str:
        # a backslash before each backslash and "|" of an id, so no two simplices share a bid
        return "|".join(str(v).replace("\\", "\\\\").replace("|", "\\|") for v in csorted(s))

    verts = [(bid(s), dim_color[len(s) - 1]) for d in (0, 1, 2) for s in K.cells(d)]

    def flags(s: frozenset) -> list[list[frozenset]]:
        # a vertex has one flag; a larger simplex ends each flag of a facet
        if len(s) == 1:
            return [[s]]
        return [chain + [s] for v in s for chain in flags(s - {v})]

    maximal = [[bid(t) for t in chain] for s in K.maximal_simplices if s for chain in flags(s)]
    return ColoredComplex.build(3, verts, maximal)


@dataclass(frozen=True)
class ColoredMap:
    """Color-preserving simplicial map between colored complexes."""

    source: ColoredComplex
    target: ColoredComplex
    vertex_map: tuple[tuple[str, str], ...]

    @staticmethod
    def make(source: ColoredComplex, target: ColoredComplex, mapping: Mapping[str, str]) -> "ColoredMap":
        if set(mapping) != set(source.vertex_ids):
            raise ComplexError("vertex map must cover exactly the source vertices")
        for v, w in mapping.items():
            if w not in target._colors:
                raise ComplexError(f"image vertex {w!r} not in target")
            if source.color_of(v) != target.color_of(w):
                raise ComplexError(f"map does not preserve color at {v!r}")
        f = ColoredMap(source, target, tuple(sorted(mapping.items())))
        for s in source.simplices:
            if f.apply(s) not in target.simplices:
                raise ComplexError(f"image of {s} is not a simplex of the target")
        return f

    @cached_property
    def _map(self) -> dict[str, str]:
        return dict(self.vertex_map)

    def apply(self, s: CoordSimplex) -> CoordSimplex:
        return CoordSimplex(tuple(sorted({(c, self._map[v]) for c, v in s.entries})))

    def compose(self, inner: "ColoredMap") -> "ColoredMap":
        """self after inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise ComplexError("maps are not composable")
        return ColoredMap.make(
            inner.source, self.target, {v: self._map[w] for v, w in inner._map.items()}
        )

    @cached_property
    def is_injective(self) -> bool:
        return len(set(self._map.values())) == len(self._map)

    @cached_property
    def is_full_inclusion(self) -> bool:
        """Injective, and the target's full subcomplex on the image equals
        the image of the source."""
        if not self.is_injective:
            return False
        image = {self._map[v] for v in self.source.vertex_ids}
        full = self.target.full_subcomplex(image)
        mapped = frozenset(self.apply(s) for s in self.source.simplices)
        return mapped == full.simplices

    @staticmethod
    def identity(K: ColoredComplex) -> "ColoredMap":
        return ColoredMap.make(K, K, {v: v for v in K.vertex_ids})

    @staticmethod
    def inclusion(sub: ColoredComplex, ambient: ColoredComplex) -> "ColoredMap":
        return ColoredMap.make(sub, ambient, {v: v for v in sub.vertex_ids})
