"""Finite n-colored simplicial complexes and their combinatorial predicates.

A colored complex is n-partite: every simplex carries at most one vertex
of each color, so a simplex is a partial map color -> vertex id.  The
empty simplex is always a member; color classes may be empty.  All values
are immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Callable, Iterable, Mapping, Optional, Sequence

from clcc.canon import canon_key, csorted
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

    def union(self, other: "CoordSimplex") -> "CoordSimplex":
        merged = dict(self.entries)
        for c, v in other.entries:
            if merged.setdefault(c, v) != v:
                raise ComplexError(
                    f"incompatible union: color {c} maps to {merged[c]} and {v}"
                )
        return CoordSimplex.of(merged)

    def compatible_union(self, other: "CoordSimplex") -> Optional["CoordSimplex"]:
        try:
            return self.union(other)
        except ComplexError:
            return None

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


def _chordless_squares(adj: Mapping[str, frozenset[str]]) -> list[tuple[str, str, str, str]]:
    """All chordless 4-cycles of a graph, canonically ordered.

    Scans non-adjacent pairs (the candidate diagonals) and then
    non-adjacent pairs among their common neighbours; quadratic in the
    vertex count times squared degree, which beats the naive 4-tuple scan
    at this scale.
    """
    verts = csorted(adj)
    seen: set[tuple] = set()
    out: list[tuple[str, str, str, str]] = []
    for v, w in combinations(verts, 2):
        if w in adj[v]:
            continue
        common = csorted(adj[v] & adj[w])
        for u, x in combinations(common, 2):
            if x in adj[u]:
                continue
            key = (v, w, u, x)  # each diagonal sorted; {v,w} found first
            if (u, x, v, w) in seen:
                continue
            seen.add(key)
            out.append((v, u, w, x))
    # canonical cycle presentation: start at the least vertex of the square
    canon = []
    for v, u, w, x in out:
        if canon_key(u) < canon_key(v):
            canon.append((u, v, x, w))
        else:
            canon.append((v, u, w, x))
    return sorted(canon, key=canon_key)


def check_color_count(n) -> None:
    """A color count n must be an integer >= 1 (a bool is no count)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ComplexError(f"n must be an integer >= 1, got {n!r}")


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


def neighbour_lists(count: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The neighbours of each of `count` numbered vertices, for `reach`:
    each edge is a pair of vertex numbers."""
    out: list[list[int]] = [[] for _ in range(count)]
    for u, v in edges:
        out[u].append(v)
        out[v].append(u)
    return out


def pure_dimensional(host) -> bool:
    """Whether every cell of a homology host (top_dim, cells,
    facet_positions) is a face of a top cell: going down from the top
    cells, the facets of the cells reached so far cover every cell one
    dimension lower."""
    reached = range(len(host.cells(host.top_dim)))
    for d in range(host.top_dim, 0, -1):
        table = host.facet_positions(d)
        reached = {p for c in reached for p in table[c]}
        if len(reached) != len(host.cells(d - 1)):
            return False
    return True


def maximal_cells(host) -> tuple:
    """Cells of a simplicial host that are no facet of a cell one dimension
    up, in canonical order; the empty simplex is maximal only in the
    vertex-less complex."""
    top = host.top_dim
    faces = {f for d in range(top + 1) for c in host.cells(d) for f in host.boundary_of(c)}
    return tuple(csorted(c for d in range(-1, top + 1) for c in host.cells(d) if c not in faces))


class ColoredComplex:
    """Downward-closed family of coordinate simplices over colored vertices."""

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

    def _replace_simplices(self, simplices: frozenset[CoordSimplex],
                           colors: Optional[Mapping[str, int]] = None) -> "ColoredComplex":
        if colors is None:
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

    @cached_property
    def _by_entries(self) -> dict[tuple, CoordSimplex]:
        """Each stored simplex by its entries, for lookups that would
        otherwise make a new simplex."""
        return {s.entries: s for s in self.simplices}

    def simplex_with_vertices(self, vids: Iterable[str]) -> Optional[CoordSimplex]:
        """The simplex on exactly these vertex ids, or None; the vertex
        colors give its entries."""
        colors = self._colors
        vids = set(vids)
        if not vids <= colors.keys():
            return None
        return self._by_entries.get(tuple(sorted((colors[v], v) for v in vids)))

    @cached_property
    def by_colorset(self) -> dict[frozenset[int], tuple[CoordSimplex, ...]]:
        buckets: dict[frozenset[int], list[CoordSimplex]] = {}
        for s in self.simplices:
            buckets.setdefault(s.colors, []).append(s)
        return {k: tuple(csorted(v)) for k, v in buckets.items()}

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
        for s in self.simplices:
            if s.dim == 1:
                (_, a), (_, b) = s.entries
                nbrs[a].add(b)
                nbrs[b].add(a)
        return {v: frozenset(ns) for v, ns in nbrs.items()}

    maximal_simplices = cached_property(maximal_cells)

    @cached_property
    def _cells_by_dim(self) -> dict[int, tuple[CoordSimplex, ...]]:
        buckets: dict[int, list[CoordSimplex]] = {}
        for s in self.simplices:
            buckets.setdefault(s.dim, []).append(s)
        return {d: tuple(csorted(v)) for d, v in buckets.items()}

    # -- homology host protocol ---------------------------------------

    @property
    def top_dim(self) -> int:
        return max(self._cells_by_dim)

    def cells(self, d: int) -> tuple[CoordSimplex, ...]:
        return self._cells_by_dim.get(d, ())

    @property
    def augmentation_cell(self) -> CoordSimplex:
        return EMPTY_SIMPLEX

    def boundary_of(self, cell: CoordSimplex) -> tuple[CoordSimplex, ...]:
        """The facets of a cell; for a cell of this complex they are the
        stored simplices, so they are not made again and their hashes are
        cached."""
        if cell.dim < 0:
            raise ComplexError("the empty simplex has no boundary")
        if cell not in self.simplices:
            return cell.facets()
        stored, e = self._by_entries, cell.entries
        return tuple([stored[e[:i] + e[i + 1 :]] for i in range(len(e))])

    def facet_positions(self, d: int) -> tuple[tuple[int, ...], ...]:
        """For d >= 1, the facets of each d-simplex, in the order of
        `cells(d)`, as sorted positions in `cells(d - 1)`."""
        index = {s.entries: i for i, s in enumerate(self.cells(d - 1))}
        return tuple(
            tuple(sorted([index[e[:i] + e[i + 1 :]] for i in range(len(e))]))
            for e in (s.entries for s in self.cells(d))
        )

    is_pure = cached_property(pure_dimensional)

    @cached_property
    def _cofaces_up(self) -> dict[tuple, list[CoordSimplex]]:
        """The simplices one dimension up from each simplex, by its entries."""
        up: dict[tuple, list[CoordSimplex]] = {s.entries: [] for s in self.simplices}
        for t in self.simplices:
            e = t.entries
            for i in range(len(e)):
                up[e[:i] + e[i + 1 :]].append(t)
        return up

    def link_data(self, e: CoordSimplex):
        """Link of e plus the coface -> link-cell correspondence.  The
        cofaces of e are walked up from e, so the work is the size of its
        star, not of the complex."""
        if e not in self.simplices:
            raise ComplexError(f"simplex {e} not in complex")
        cell_map: dict[CoordSimplex, CoordSimplex] = {}
        link_cells = set()
        drop = set(e.entries)
        for s in reach([e], lambda c: self._cofaces_up[c.entries]):
            rest = CoordSimplex(tuple(x for x in s.entries if x not in drop))
            cell_map[s] = rest
            link_cells.add(rest)
        link = self._replace_simplices(frozenset(link_cells))
        return link, cell_map

    # -- structural ops ------------------------------------------------

    def link(self, simplex: CoordSimplex) -> "ColoredComplex":
        link, _ = self.link_data(simplex)
        return link

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


class SimplicialComplex:
    """Uncolored simplicial complex; simplices are frozensets of vertex ids."""

    def __init__(self, vertices: Sequence, simplices: frozenset[frozenset]):
        self.vertex_ids = tuple(csorted(vertices))
        self.simplices = simplices

    @staticmethod
    def from_maximal(vertices: Iterable, maximal: Iterable[Iterable]) -> "SimplicialComplex":
        verts = tuple(csorted(set(vertices)))
        vset = set(verts)
        fam: set[frozenset] = {frozenset()}
        for m in maximal:
            m = frozenset(m)
            if not m <= vset:
                raise ComplexError(f"unknown vertex ids {csorted(m - vset)}")
            for k in range(len(m) + 1):
                fam.update(frozenset(c) for c in combinations(csorted(m), k))
        return SimplicialComplex(verts, frozenset(fam))

    @cached_property
    def _cells_by_dim(self) -> dict[int, tuple[frozenset, ...]]:
        buckets: dict[int, list[frozenset]] = {}
        for s in self.simplices:
            buckets.setdefault(len(s) - 1, []).append(s)
        return {d: tuple(csorted(v)) for d, v in buckets.items()}

    @property
    def top_dim(self) -> int:
        return max(self._cells_by_dim) if self._cells_by_dim else -1

    def cells(self, d: int) -> tuple[frozenset, ...]:
        return self._cells_by_dim.get(d, ())

    @property
    def augmentation_cell(self) -> frozenset:
        return frozenset()

    def boundary_of(self, cell: frozenset) -> tuple[frozenset, ...]:
        if not cell:
            raise ComplexError("the empty simplex has no boundary")
        return tuple(cell - {v} for v in csorted(cell))

    def facet_positions(self, d: int) -> tuple[tuple[int, ...], ...]:
        """For d >= 1, the facets of each d-simplex, in the order of
        `cells(d)`, as sorted positions in `cells(d - 1)`."""
        index = {s: i for i, s in enumerate(self.cells(d - 1))}
        return tuple(tuple(sorted([index[s - {v}] for v in s])) for s in self.cells(d))

    is_pure = cached_property(pure_dimensional)

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
        if not self.vertex_ids:
            return False
        return len(reach(self.vertex_ids[:1], self.adjacency.__getitem__)) == len(self.vertex_ids)

    def link_data(self, e: frozenset):
        e = frozenset(e)
        if e not in self.simplices:
            raise ComplexError("simplex not in complex")
        cell_map: dict[frozenset, frozenset] = {}
        link_cells = set()
        for s in self.simplices:
            if e <= s:
                rest = s - e
                cell_map[s] = rest
                link_cells.add(rest)
        link_vertices = {v for cell in link_cells for v in cell}
        return SimplicialComplex(tuple(csorted(link_vertices)), frozenset(link_cells)), cell_map

    def link(self, e: frozenset) -> "SimplicialComplex":
        return self.link_data(e)[0]

    def relabeled(self, rename: Mapping) -> "SimplicialComplex":
        fam = frozenset(frozenset(rename.get(v, v) for v in s) for s in self.simplices)
        return SimplicialComplex(tuple(rename.get(v, v) for v in self.vertex_ids), fam)

    maximal_simplices = cached_property(maximal_cells)

    def euler_characteristic(self) -> int:
        return sum(
            (-1) ** d * len(cells) for d, cells in self._cells_by_dim.items() if d >= 0
        )

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
    first); generation is level-by-level in lex order so the first
    failure found is that witness.  Each clique carries the canonical
    positions of the later vertices adjacent to all of it.
    """
    adj = K.adjacency
    if isinstance(K, ColoredComplex):
        spans = lambda vids: K.simplex_with_vertices(vids) is not None
    else:
        spans = lambda vids: frozenset(vids) in K.simplices
    verts = csorted(adj)
    level = [((), range(len(verts)))]
    while level:
        nxt = []
        for clique, after in level:
            for i, q in enumerate(after):
                u = verts[q]
                bigger = clique + (u,)
                if len(bigger) >= 3 and not spans(bigger):
                    return False, bigger
                nxt.append((bigger, [r for r in after[i + 1:] if verts[r] in adj[u]]))
        level = nxt
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


def empty_squares(
    K: ColoredComplex, color_filter: Optional[tuple[int, int]] = None
) -> list[SquareWitness]:
    """Chordless 4-cycles of the 1-skeleton, lexicographically ordered.

    With a color filter only the full subcomplex on those two color
    classes is scanned."""
    if color_filter is not None:
        i, j = color_filter
        K = K.full_subcomplex(K.color_class(i) + K.color_class(j))
    out = []
    for v, u, w, x in _chordless_squares(K.adjacency):
        out.append(
            SquareWitness(v, u, w, x, (K.color_of(v), K.color_of(u), K.color_of(w), K.color_of(x)))
        )
    return out


def is_5_large(K: ColoredComplex) -> tuple[bool, Optional[SquareWitness]]:
    squares = empty_squares(K)
    return (True, None) if not squares else (False, squares[0])


def is_obes(K: ColoredComplex) -> tuple[bool, Optional[SquareWitness]]:
    """Only bicolor empty squares: every chordless 4-cycle lives in two
    color classes."""
    for sq in empty_squares(K):
        if len(sq.color_set) != 2:
            return False, sq
    return True, None


def pairwise_5_large(
    K_A: ColoredComplex, K_B: ColoredComplex
) -> tuple[bool, Optional[tuple[tuple[int, int], SquareWitness, SquareWitness]]]:
    """For every color pair, at least one side's bicolored full
    subcomplex has no empty squares.  Only pairs of colors that K_A uses
    can hold a square there, so only those are scanned."""
    if K_A.n != K_B.n:
        raise PairError(f"color counts differ: {K_A.n} vs {K_B.n}")
    for i, j in combinations(sorted({c for _, c in K_A.vertices}), 2):
        sq_a = empty_squares(K_A, (i, j))
        if not sq_a:
            continue
        sq_b = empty_squares(K_B, (i, j))
        if sq_b:
            return False, ((i, j), sq_a[0], sq_b[0])
    return True, None


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
