"""Seeded random corpus shared by property and acceptance tests.

CLCC_SEED pins every randomized run; each generator salts the seed so
test files do not interfere with each other.
"""

from __future__ import annotations

import os
import random
from itertools import combinations

from clcc import flag_complex_from_graph, prune_to_smart_pair
from clcc.errors import PocsetError
from clcc.pocset_hyperplanes import Pocset
from clcc.simplicial import ColoredComplex, SimplicialComplex

SEED = int(os.environ.get("CLCC_SEED", "0"))


def rng(salt: int) -> random.Random:
    return random.Random(1_000_003 * SEED + salt)


def random_colored_complex(
    r: random.Random, n: int, max_vertices: int = 8, max_simplices: int = 10
) -> ColoredComplex:
    nv = r.randint(1, max_vertices)
    vertices = [(f"v{i}", r.randint(1, n)) for i in range(nv)]
    maximal = []
    for _ in range(r.randint(1, max_simplices)):
        chosen: dict[int, str] = {}
        for vid, c in r.sample(vertices, r.randint(1, nv)):
            chosen.setdefault(c, vid)
        maximal.append(sorted(chosen.values()))
    return ColoredComplex.build(n, vertices, maximal)


def random_flag_complex(
    r: random.Random, n: int, max_vertices: int = 8, p_edge: float = 0.5
) -> ColoredComplex:
    nv = r.randint(1, max_vertices)
    vertices = [(f"v{i}", r.randint(1, n)) for i in range(nv)]
    edges = [
        (a, b)
        for (a, ca), (b, cb) in combinations(vertices, 2)
        if ca != cb and r.random() < p_edge
    ]
    return flag_complex_from_graph(n, vertices, edges)


def random_smart_pair(r: random.Random, max_vertices: int = 8):
    """Random pair pruned to a smart one; None when everything collapses."""
    n = r.randint(1, 3)
    ga = random_colored_complex(r, n, max_vertices)
    gb = random_colored_complex(r, n, max_vertices)
    ga, gb = prune_to_smart_pair(ga, gb)
    if not ga.vertex_ids or not gb.vertex_ids:
        return None
    return ga, gb


def random_two_complex(r: random.Random, max_triangles: int = 8) -> SimplicialComplex:
    nv = r.randint(3, 8)
    verts = [f"p{i}" for i in range(nv)]
    maximal = [r.sample(verts, 3) for _ in range(r.randint(1, max_triangles))]
    for _ in range(r.randint(0, 3)):
        maximal.append(r.sample(verts, 2))
    return SimplicialComplex.from_maximal(verts, maximal)


def random_pocset(r: random.Random, max_pairs: int = 6) -> Pocset:
    m = r.randint(1, max_pairs)
    pair_ids = [f"p{i}" for i in range(m)]
    for _ in range(40):
        relations = []
        for _ in range(r.randint(0, 2 * m)):
            x_pid, y_pid = r.sample(pair_ids, 2) if m > 1 else (pair_ids[0], pair_ids[0])
            if x_pid == y_pid:
                continue
            relations.append(
                ((x_pid, r.choice("+-")), (y_pid, r.choice("+-")))
            )
        try:
            return Pocset.from_relations(pair_ids, relations)
        except PocsetError:
            continue
    return Pocset.from_relations(pair_ids, [])


def free_pocset(m: int) -> Pocset:
    return Pocset.from_relations([f"p{i}" for i in range(m)], [])


def chain_pocset(m: int) -> Pocset:
    chain = [f"c{i:02d}" for i in range(m)]
    return Pocset.from_relations(chain, [((x, "+"), (y, "+")) for x, y in zip(chain, chain[1:])])


def sweep_pocsets() -> list[Pocset]:
    """The ultrafilter sweep: 300 seeded random pocsets of up to 7 pairs,
    then the free pocsets of up to 8 pairs and the chains of up to 12."""
    r = rng(905)
    pocsets = [random_pocset(r, max_pairs=7) for _ in range(300)]
    return pocsets + [free_pocset(m) for m in range(9)] + [chain_pocset(m) for m in range(1, 13)]


def order_rows(elements, less) -> tuple[int, ...]:
    """The (x, y) pairs of `less` as `Pocset` rows: bit j of rows[i] when
    elements[i] < elements[j]."""
    index = {e: i for i, e in enumerate(elements)}
    rows = [0] * len(elements)
    for x, y in less:
        rows[index[x]] |= 1 << index[y]
    return tuple(rows)


def random_chain(r: random.Random, host, dim: int):
    from clcc.homology_z2 import Chain2

    cells = host.cells(dim)
    take = [c for c in cells if r.random() < 0.5]
    return Chain2(host, dim, frozenset(take))


def planted_square_flag_complex(r: random.Random, n: int) -> ColoredComplex:
    """Random flag complex guaranteed to contain an empty square: a
    bicolor 4-cycle is planted, whose diagonals (same color) can never
    become edges."""
    i, j = r.sample(range(1, n + 1), 2)
    vertices = [("s0", i), ("s1", j), ("s2", i), ("s3", j)]
    square_edges = [("s0", "s1"), ("s1", "s2"), ("s2", "s3"), ("s3", "s0")]
    extra = [(f"v{k}", r.randint(1, n)) for k in range(r.randint(0, 4))]
    edges = list(square_edges)
    for (a, ca), (b, cb) in combinations(vertices + extra, 2):
        if {a, b} in ({"s0", "s2"}, {"s1", "s3"}):
            continue
        if ca != cb and (a, b) not in square_edges and r.random() < 0.3:
            edges.append((a, b))
    return flag_complex_from_graph(n, vertices + extra, edges)
