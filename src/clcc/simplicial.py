"""Finite n-colored simplicial complexes and their combinatorial predicates.

A colored complex is n-partite: every simplex carries at most one vertex
of each color, so a simplex is a partial map color -> vertex id.  The
empty simplex is always a member; color classes may be empty.  All values
are immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, islice
from operator import attrgetter
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from clcc.canon import csorted
from clcc.errors import ComplexError, PairError


@dataclass(frozen=True, slots=True)
class CoordSimplex:
    """Simplex of a colored complex, stored as color -> vertex entries.

    The value is `entries` alone.  The hash and the color set are cached
    in two more slots, each filled on first use, so building a simplex
    stores one field and a simplex used as a key is hashed once.  Equal
    color sets are one shared frozenset."""

    entries: tuple[tuple[int, str], ...]
    _hash: int = field(init=False, repr=False, compare=False)
    _colors: frozenset = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self.entries)
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        # the default state of a frozen slotted dataclass reads every
        # field, and an empty cache slot cannot be read
        return CoordSimplex, (self.entries,)

    @staticmethod
    def of(mapping: Mapping[int, str] | Iterable[tuple[int, str]]) -> "CoordSimplex":
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        entries = tuple(sorted(items))
        colors = [c for c, _ in entries]
        if len(set(colors)) != len(colors):
            raise ComplexError(f"duplicate color in simplex {entries}")
        return CoordSimplex(entries)

    @property
    def colors(self) -> frozenset[int]:
        try:
            return self._colors
        except AttributeError:
            colors = _shared_color_set(tuple(c for c, _ in self.entries))
            object.__setattr__(self, "_colors", colors)
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

    def plus(self, color: int, vid: str) -> "CoordSimplex":
        if color in self.colors:
            raise ComplexError(f"color {color} already present in {self}")
        return CoordSimplex(tuple(sorted(self.entries + ((color, vid),))))

    def canonical_key(self):
        return self.entries

    def __repr__(self) -> str:
        body = ", ".join(f"{c}:{v}" for c, v in self.entries)
        return f"<{body}>" if body else "<empty>"


EMPTY_SIMPLEX = CoordSimplex(())


@lru_cache(maxsize=4096)
def _shared_color_set(colors: tuple[int, ...]) -> frozenset[int]:
    """One frozenset per color tuple, shared by the simplices that cache it:
    a complex has few color sets and many simplices, and a frozenset
    costs over 200 bytes."""
    return frozenset(colors)


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


def _chordless_squares(adj: Mapping[object, AbstractSet]) -> list[tuple]:
    """All chordless 4-cycles of a graph, each once, canonically ordered.
    The vertices are any ids that `csorted` orders: a factor's vertex ids,
    or the int positions of a link read off a star.

    Scans the non-adjacent pairs v < w (the candidate diagonals) and then
    the non-adjacent pairs u < x among their common neighbours.  A square
    has two diagonals; it is kept only from the one that holds its least
    vertex (v < u), so it comes out once, as (v, u, w, x) starting at that
    vertex.  The scan runs on canonical positions.  Quadratic in the
    vertex count times squared degree, which beats the naive 4-tuple scan
    at this scale.
    """
    verts = csorted(adj)
    pos = {v: i for i, v in enumerate(verts)}
    found = []
    for v, w in combinations(range(len(verts)), 2):
        if verts[w] in adj[verts[v]]:
            continue
        common = sorted(pos[u] for u in adj[verts[v]] & adj[verts[w]] if pos[u] > v)
        for u, x in combinations(common, 2):
            if verts[x] not in adj[verts[u]]:
                found.append((v, u, w, x))
    return [tuple(verts[p] for p in sq) for sq in sorted(found)]


def check_color_count(n) -> None:
    """A color count n must be an integer >= 1 (a bool is no count)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ComplexError(f"n must be an integer >= 1, got {n!r}")


def check_same_color_count(K_A, K_B) -> None:
    """The two complexes of a pair must have one color count."""
    if K_A.n != K_B.n:
        raise PairError(f"color counts differ: {K_A.n} vs {K_B.n}")


def reach(starts: Iterable, neighbours: Callable[[object], Iterable]) -> set:
    """Everything reachable from `starts` by repeatedly following
    `neighbours`, the starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for y in neighbours(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _neighbour_lists(count: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in range(count)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def components(count: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The components of a graph on the vertices 0..count-1, each edge a
    pair of vertex numbers: each component sorted, in the order of their
    least vertices."""
    nbrs = _neighbour_lists(count, edges)
    placed = [False] * count
    out = []
    for v in range(count):
        if not placed[v]:
            out.append(sorted(reach([v], nbrs.__getitem__)))
            for u in out[-1]:
                placed[u] = True
    return out


def connected(count: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Whether a graph on the vertices 0..count-1, each edge a pair of
    vertex numbers, has exactly one component: vertex 0 reaches all."""
    return count > 0 and len(reach([0], _neighbour_lists(count, edges).__getitem__)) == count


def cliques(adj: Mapping) -> Iterator[tuple]:
    """The nonempty cliques of a graph, given by its adjacency, as tuples
    of vertices: level by level (by size), each level in lexicographic
    order of the vertices' canonical positions.  Each clique carries the
    positions of the later vertices adjacent to all of it, and grows only
    by those.  A caller that stops early grows no more."""
    verts = csorted(adj)
    level = [((), range(len(verts)))]
    while level:
        nxt = []
        for clique, after in level:
            for i, q in enumerate(after):
                u = verts[q]
                bigger = clique + (u,)
                yield bigger
                nxt.append((bigger, [r for r in after[i + 1:] if verts[r] in adj[u]]))
        level = nxt


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
    simplex is `cells(-1)`, in the table for dimension 0."""

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
        """The facets of a simplex of this complex, the stored simplices."""
        key = self._key(cell)
        if not key:
            raise ComplexError("the empty simplex has no boundary")
        index, lower = self._index, self._cells_by_dim[len(key) - 2]
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
    def maximal_simplices(self) -> tuple:
        """Cells that no row of the facet table one dimension up lists, in
        canonical order.  The empty simplex is maximal only in the
        vertex-less complex."""
        out = []
        for d in range(-1, self.top_dim + 1):
            listed = {p for ps in self.facet_positions(d + 1) for p in ps}
            out += [c for p, c in enumerate(self.cells(d)) if p not in listed]
        return tuple(csorted(out))

    def is_connected(self) -> bool:
        return connected(len(self.cells(0)), self.facet_positions(1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(cs) for d, cs in self._cells_by_dim.items() if d >= 0)


class ColoredComplex(CellStore):
    """Downward-closed family of coordinate simplices over colored vertices.

    A simplex's key is its entries: canon_key of a CoordSimplex is
    (6, entries), so the simplices sort by their entries."""

    _key = staticmethod(attrgetter("entries"))

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
        check_color_count(n)
        colors: dict[str, int] = {}
        for vid, c in vertices:
            if not 1 <= c <= n:
                raise ComplexError(f"color {c} of vertex {vid!r} out of range 1..{n}")
            if colors.setdefault(vid, c) != c:
                raise ComplexError(f"vertex {vid!r} declared with two colors")
        faces: set[tuple] = {()}  # entry tuples, so each simplex is made once
        for vset in maximal:
            entries = []
            for vid in vset:
                if vid not in colors:
                    raise ComplexError(f"unknown vertex id {vid!r}")
                entries.append((colors[vid], vid))
            top = CoordSimplex.of(entries)  # rejects duplicate colors
            for k in range(len(top.entries) + 1):
                faces.update(combinations(top.entries, k))
        return ColoredComplex(n, colors, frozenset(map(CoordSimplex, faces)))

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

    def __contains__(self, simplex: CoordSimplex) -> bool:
        return simplex in self.simplices

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
    def by_colorset(self) -> dict[frozenset[int], tuple[CoordSimplex, ...]]:
        buckets: dict[frozenset[int], list[CoordSimplex]] = {}
        for s in self.simplices:
            buckets.setdefault(s.colors, []).append(s)
        return {k: tuple(sorted(v, key=self._key)) for k, v in buckets.items()}

    @cached_property
    def _all_colors(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1))

    def partners(self, colors: frozenset[int]) -> tuple[CoordSimplex, ...]:
        """The simplices on exactly the colors of 1..n missing from `colors`.
        The missing colors are formed only when there are no more of them
        than vertices here, so a huge n costs nothing."""
        if self.n - len(colors) > len(self._colors):
            return ()
        return self.by_colorset.get(self._all_colors - colors, ())

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        nbrs: dict[str, set[str]] = {v: set() for v in self._colors}
        for s in self.cells(1):
            (_, a), (_, b) = s.entries
            nbrs[a].add(b)
            nbrs[b].add(a)
        return {v: frozenset(ns) for v, ns in nbrs.items()}

    @cached_property
    def squares(self) -> tuple[SquareWitness, ...]:
        """The chordless 4-cycles of the 1-skeleton, lexicographically
        ordered: the one scan that every square predicate reads."""
        c = self._colors
        return tuple(
            SquareWitness(v, u, w, x, (c[v], c[u], c[w], c[x]))
            for v, u, w, x in _chordless_squares(self.adjacency)
        )

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

    def boundary_of(self, cell: CoordSimplex) -> tuple[CoordSimplex, ...]:
        """The facets of a simplex: the stored ones for a simplex of this
        complex, made anew for another."""
        return super().boundary_of(cell) if cell in self.simplices else cell.facets()

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
        if len(set(rename.values())) != len(rename):
            raise ComplexError("relabeling is not injective")
        colors = {rename.get(v, v): c for v, c in self._colors.items()}
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

    def __repr__(self) -> str:
        counts = {d: len(c) for d, c in sorted(self._cells_by_dim.items()) if d >= 0}
        return f"ColoredComplex(n={self.n}, cells={counts})"

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
        fam: set[frozenset] = {frozenset()}
        for m in maximal:
            m = frozenset(m)
            if not m <= vset:
                raise ComplexError(f"unknown vertex ids {csorted(m - vset)}")
            for k in range(len(m) + 1):
                fam.update(map(frozenset, combinations(m, k)))
        return SimplicialComplex(vset, frozenset(fam))

    @cached_property
    def _rank(self) -> dict:
        return {v: i for i, v in enumerate(self.vertex_ids)}

    def _key(self, s: frozenset) -> tuple[int, ...]:
        return tuple(sorted(map(self._rank.__getitem__, s)))

    @property
    def augmentation_cell(self) -> frozenset:
        return frozenset()

    def __contains__(self, simplex: frozenset) -> bool:
        return frozenset(simplex) in self.simplices

    @cached_property
    def adjacency(self) -> dict:
        nbrs: dict = {v: set() for v in self.vertex_ids}
        for s in self.cells(1):
            a, b = s
            nbrs[a].add(b)
            nbrs[b].add(a)
        return {v: frozenset(ns) for v, ns in nbrs.items()}

    def degree(self, v) -> int:
        return len(self.adjacency[v])

    def is_connected(self) -> bool:
        # a declared vertex that lies in no simplex is a component alone
        return len(self.cells(0)) == len(self.vertex_ids) and super().is_connected()

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
        fam = frozenset(frozenset(rename.get(v, v) for v in s) for s in self.simplices)
        return SimplicialComplex(tuple(rename.get(v, v) for v in self.vertex_ids), fam)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.vertex_ids == other.vertex_ids
            and self.simplices == other.simplices
        )

    def __repr__(self) -> str:
        counts = {d: len(c) for d, c in sorted(self._cells_by_dim.items()) if d >= 0}
        return f"SimplicialComplex(cells={counts})"

    def to_json_dict(self) -> dict:
        return {
            "vertices": [str(v) for v in self.vertex_ids],
            "maximal_simplices": sorted(
                sorted(str(v) for v in s) for s in self.maximal_simplices if s
            ),
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "SimplicialComplex":
        try:
            return SimplicialComplex.from_maximal(doc["vertices"], doc["maximal_simplices"])
        except (KeyError, TypeError) as exc:
            raise ComplexError(f"malformed simplicial document: {exc}") from exc


# ----------------------------------------------------------------------
# module operations
# ----------------------------------------------------------------------


def close_downward(
    n: int, vertices: Iterable[tuple[str, int]], maximal: Iterable[Iterable[str]]
) -> ColoredComplex:
    return ColoredComplex.build(n, vertices, maximal)


def is_flag(K) -> tuple[bool, Optional[tuple]]:
    """Every clique of the 1-skeleton spans a simplex.

    Accepts colored or uncolored complexes.  On failure returns the
    minimal non-spanning clique (smallest size, then lexicographically
    first): `cliques` yields them in that order, so the first failure
    found is that witness.
    """
    if isinstance(K, ColoredComplex):
        spans = lambda vids: K.simplex_with_vertices(vids) is not None
    else:
        spans = lambda vids: frozenset(vids) in K.simplices
    for clique in cliques(K.adjacency):
        if len(clique) >= 3 and not spans(clique):
            return False, clique
    return True, None


def link_simplex(K: ColoredComplex, simplex: CoordSimplex) -> ColoredComplex:
    """General link: tau is in lk(sigma) iff tau and sigma are disjoint
    and their union is a simplex of K.  The link of the empty simplex is
    K itself; ambient coloring is kept."""
    return K.link(simplex)


def full_subcomplex(K: ColoredComplex, vids: Iterable[str]) -> ColoredComplex:
    return K.full_subcomplex(vids)


def _as_uncolored(K) -> SimplicialComplex:
    return K.uncolored() if isinstance(K, ColoredComplex) else K


def simplicial_join(K1, K2) -> SimplicialComplex:
    """Join of two complexes; simplices are unions of one simplex from
    each side.  Output carries no coloring.  Vertex ids pass through when
    the two vertex sets are disjoint (so joining with the vertex-less
    complex returns the other complex unchanged); on any collision every
    vertex is tagged ("A", id) / ("B", id)."""
    L, R = _as_uncolored(K1), _as_uncolored(K2)
    if set(L.vertex_ids) & set(R.vertex_ids):
        L = L.relabeled({v: ("A", v) for v in L.vertex_ids})
        R = R.relabeled({v: ("B", v) for v in R.vertex_ids})
    fam = frozenset(s | t for s in L.simplices for t in R.simplices)
    return SimplicialComplex(L.vertex_ids + R.vertex_ids, fam)


def empty_squares(K: ColoredComplex) -> list[SquareWitness]:
    """Chordless 4-cycles of the 1-skeleton, lexicographically ordered."""
    return list(K.squares)


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
    of proper inclusions.  color_map sends "V", "E", "F" bijectively onto
    {1, 2, 3}.  The output is always flag.
    """
    if K.top_dim > 2:
        raise ComplexError(f"dimension {K.top_dim} > 2 not supported")
    if sorted(color_map.get(k) for k in ("V", "E", "F")) != [1, 2, 3]:
        raise ComplexError("color_map must map V, E, F bijectively onto {1, 2, 3}")
    dim_color = {0: color_map["V"], 1: color_map["E"], 2: color_map["F"]}

    def bid(s: frozenset) -> str:
        return "|".join(str(v) for v in csorted(s))

    verts = [(bid(s), dim_color[len(s) - 1]) for d in (0, 1, 2) for s in K.cells(d)]
    chains: list[list[frozenset]] = []
    for d in (0, 1, 2):
        for s in K.cells(d):
            chains.append([s])
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
    maximal = [[bid(s) for s in chain] for chain in chains]
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
            if w not in set(target.vertex_ids):
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

    def __call__(self, vid: str) -> str:
        return self._map[vid]

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
