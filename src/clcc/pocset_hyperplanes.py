"""Hyperplanes, halfspace pocsets, and the ultrafilter cube complex.

A hyperplane is an equivalence class of parallel edges (the transitive
closure of opposite-edge pairs across squares).  For complexes whose
hyperplanes are all two-sided, the halfspaces form a pocset under
inclusion, and the ultrafilter construction rebuilds the complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from clcc.canon import csorted
from clcc.errors import DomainError, NotTwoSidedError, PocsetError
from clcc.clcc_core import CubeComplex
from clcc.simplicial import neighbour_lists, reach


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

    Each edge (a, b) changes exactly the one color where a and b overlap;
    the flag is False if some class mixes coordinates (never for complexes
    built from a pair)."""
    if not X.has_pair_origin:
        raise DomainError("directions need a pair-built complex")
    out: dict[str, int] = {}
    valid = True
    for i, edges in enumerate(X.opposition.classes):
        colors = {color for a, b in edges for color in a.colors & b.colors}
        out[f"h{i}"] = min(colors)
        valid = valid and len(colors) == 1
    return out, valid


@dataclass(frozen=True)
class CrossingGraph:
    nodes: tuple[str, ...]
    edges: frozenset  # frozensets {h, k}, h != k
    self_crossing: frozenset

    def neighbors(self, h: str) -> frozenset:
        return frozenset(next(iter(e - {h})) for e in self.edges if h in e)


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

    `less` is the full strict order as (x, y) pairs, transitively closed.
    `sides` optionally carries the halfspace vertex sets when the pocset
    came from a cube complex."""

    elements: tuple
    less: frozenset
    sides: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self):
        elems = set(self.elements)
        for e in self.elements:
            if star(e) not in elems:
                raise PocsetError(f"element {e} lacks its conjugate")
        succ: dict = {}
        for x, y in self.less:
            if x not in elems or y not in elems:
                raise PocsetError(f"relation {x} < {y} uses unknown elements")
            if x == y:
                raise PocsetError(f"irreflexivity violated at {x}")
            if y == star(x):
                raise PocsetError(f"{x} comparable with its conjugate")
            if (star(y), star(x)) not in self.less:
                raise PocsetError(f"involution does not reverse {x} < {y}")
            if (y, x) in self.less:
                raise PocsetError(f"antisymmetry violated on {x}, {y}")
            succ.setdefault(x, set()).add(y)
        for x, y in self.less:
            for w in succ.get(y, ()):
                if w not in succ[x]:
                    raise PocsetError(f"order not transitive: {x} < {y} < {w}")

    @property
    def pair_ids(self) -> tuple[str, ...]:
        return tuple(sorted({pid for pid, _ in self.elements}))

    def lt(self, x, y) -> bool:
        return (x, y) in self.less

    @cached_property
    def _rank(self) -> dict:
        """Position of each element in canonical order."""
        return {e: i for i, e in enumerate(csorted(self.elements))}

    @cached_property
    def above(self) -> dict:
        out: dict = {e: [] for e in self.elements}
        for x, y in self.less:
            out[x].append(y)
        return {e: tuple(sorted(v, key=self._rank.__getitem__)) for e, v in out.items()}

    @staticmethod
    def from_relations(pair_ids, relations) -> "Pocset":
        """Close the given x < y relations under involution and
        transitivity (Warshall's algorithm on one bitset row per element),
        then validate the axioms."""
        elements = tuple(sorted((pid, s) for pid in pair_ids for s in ("+", "-")))
        index = {e: i for i, e in enumerate(elements)}
        rows = [0] * len(elements)
        for x, y in relations:
            for u, v in ((x, y), (star(y), star(x))):
                if u not in index or v not in index:
                    raise PocsetError(f"relation {u} < {v} uses unknown elements")
                rows[index[u]] |= 1 << index[v]
        for k, row_k in enumerate(rows):
            bit = 1 << k
            for i, row_i in enumerate(rows):
                if row_i & bit:
                    rows[i] = row_i | rows[k]
        less = frozenset(
            (x, elements[j])
            for x, row in zip(elements, rows)
            for j in range(row.bit_length())
            if row >> j & 1
        )
        return Pocset(elements, less)

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


def halfspace_pocset(X: CubeComplex) -> Pocset:
    """Halfspaces ordered by inclusion of their vertex sets.

    Requires every hyperplane to be two-sided: removing its edges must
    split the 1-skeleton into exactly two components.  Quotients with
    one-sided classes (a torus, say) are rejected."""
    verts = X.cells(0)
    op = X.opposition
    endpoints = X.facet_positions(1)
    parts: dict = {}  # halfspace -> the positions of its vertices
    for h in range(len(op.classes)):
        hid = f"h{h}"
        nbrs = neighbour_lists(len(verts), (e for e, k in zip(endpoints, op.label) if k != h))
        comps: list = []
        seen: set = set()
        for v in range(len(verts)):
            if v not in seen:
                comps.append(frozenset(reach([v], nbrs.__getitem__)))
                seen |= comps[-1]
        if len(comps) != 2:
            raise NotTwoSidedError(
                f"hyperplane {hid} separates the complex into {len(comps)} parts, not 2"
            )
        # verts is in canonical order, so the first part holds the least vertex
        parts[(hid, "-")], parts[(hid, "+")] = comps
    elements = tuple(sorted(parts))
    less = frozenset(
        (x, y) for x in elements for y in elements if x != y and parts[x] < parts[y]
    )
    sides = {e: frozenset(verts[i] for i in ps) for e, ps in parts.items()}
    return Pocset(elements, less, sides=sides)


# ----------------------------------------------------------------------
# ultrafilter construction
# ----------------------------------------------------------------------


def ultrafilters(S: Pocset) -> list[frozenset]:
    """All complete consistent choices, by backtracking with forced-side
    propagation (finiteness makes the descending chain condition free)."""
    pair_ids = S.pair_ids
    results: list[frozenset] = []

    def extend(i: int, chosen: dict, forced: dict):
        if i == len(pair_ids):
            results.append(frozenset(chosen.items()))
            return
        pid = pair_ids[i]
        options = [forced[pid]] if pid in forced else ["-", "+"]
        for side in options:
            e = (pid, side)
            new_forced = dict(forced)
            ok = True
            for fid, fside in S.above[e]:
                if fid in chosen:
                    if chosen[fid] != fside:
                        ok = False
                        break
                elif new_forced.setdefault(fid, fside) != fside:
                    ok = False
                    break
            if ok:
                chosen[pid] = side
                extend(i + 1, chosen, new_forced)
                del chosen[pid]

    extend(0, {}, {})
    rank = S._rank
    return sorted(results, key=lambda u: sorted(rank[e] for e in u))


def sageev(S: Pocset) -> CubeComplex:
    """Cube complex on the ultrafilters: edges between choices differing
    in one conjugate pair, higher cubes filled whenever their 1-skeleton
    is present (checked on all vertex subsets).

    Cubes are grown on ultrafilter indices through a table of flips: the
    index of u with pair p switched, or -1 when that is no ultrafilter."""
    verts = ultrafilters(S)
    index = {u: i for i, u in enumerate(verts)}
    pair_ids = S.pair_ids
    flips = []
    for u in verts:
        side = dict(u)
        row = []
        for pid in pair_ids:
            e = (pid, side[pid])
            row.append(index.get((u - {e}) | {star(e)}, -1))
        flips.append(row)

    cells: dict[int, list] = {0: [frozenset({u}) for u in verts]}
    level = [(frozenset({i}), frozenset()) for i in range(len(verts))]
    d = 0
    while level:
        nxt = {}
        for cube, toggled in level:
            for p in range(len(pair_ids)):
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


def roller_duality_check(X: CubeComplex):
    """Rebuild X from its halfspace pocset and compare.

    The natural map sends a vertex to the set of halfspaces containing
    it; success means that map is a cube-complex isomorphism.  Returns
    (verdict, vertex bijection or None)."""
    P = halfspace_pocset(X)
    Y = sageev(P)
    sides = P.sides or {}
    by_h: dict = {}
    for (hid, side), vs in sides.items():
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
    y_verts = set(Y.cells(0))
    if len(set(mapping.values())) != len(mapping) or set(mapping.values()) != y_verts:
        return False, None
    for d in range(1, max(X.top_dim, Y.top_dim) + 1):
        xs = X.cells(d)
        ys = set(Y.cells(d))
        if len(xs) != len(ys):
            return False, None
        for c in xs:
            image = frozenset(mapping[v] for v in X.vertices_of(c))
            if image not in ys:
                return False, None
    return True, mapping
