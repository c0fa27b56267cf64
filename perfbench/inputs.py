"""Seeded input generators for the benchmark workloads.

They follow the semantics of the repository's test corpus (random flag
complexes, flag complexes with a planted empty square, random pocsets)
but live here, so that editing the tests cannot move the benchmark.
Every generator takes a `random.Random` and draws from nothing else.

Calls into `clcc.generators` go through `call`, so that a traced run
can time them as the `generators` layer.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

from clcc import generators
from clcc.errors import PocsetError
from clcc.pocset_hyperplanes import Pocset, ultrafilters
from clcc.simplicial import SimplicialComplex

GEN = "generators.gen"

TETRA = (
    ("p", "q", "r", "s"),
    (("p", "q", "r"), ("p", "q", "s"), ("p", "r", "s"), ("q", "r", "s")),
)


def rng(seed: int, salt: int) -> random.Random:
    return random.Random(1_000_003 * seed + salt)


# -- colored complexes --------------------------------------------------------


def random_flag_complex(call, r: random.Random, n: int, max_vertices: int, p_edge: float):
    nv = r.randint(1, max_vertices)
    vertices = [(f"v{i}", r.randint(1, n)) for i in range(nv)]
    edges = [
        (a, b)
        for (a, ca), (b, cb) in combinations(vertices, 2)
        if ca != cb and r.random() < p_edge
    ]
    return call(GEN, generators.flag_complex_from_graph, n, vertices, edges)


def planted_square_flag_complex(call, r: random.Random, n: int):
    """Random flag complex with a bicolor 4-cycle s0 s1 s2 s3 whose
    diagonals share a color, so they can never become edges."""
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
    return call(GEN, generators.flag_complex_from_graph, n, vertices + extra, edges)


# Size classes of a pair by its cube count (upper edges, exclusive, in
# half-octaves), and how many pairs of each kind fall in each class per
# 150 pairs: the frequencies of unrestricted draws, measured over 12,000
# of them, with the 0.3% of pairs above 1,023 cubes left out.  The time a
# pair takes grows with its cube count, so a census that keeps these
# counts fixed costs about the same for every seed while its pairs differ.
CUBE_CLASSES = (1, 16, 23, 32, 45, 64, 91, 128, 181, 256, 362, 512, 724, 1024)
PAIR_QUOTA_PER_150 = {
    "random": (29, 38, 9, 9, 8, 9, 9, 8, 8, 7, 7, 4, 3, 2),
    "planted": (35, 30, 10, 9, 10, 12, 11, 11, 9, 7, 4, 1, 1, 0),
}


def cube_count(ga, gb) -> int:
    """Cubes of the pair complex: pairs (a, b) whose colors cover {1..n}."""
    all_colors = frozenset(range(1, ga.n + 1))
    b_by_colors = Counter(s.colors for s in gb.simplices)
    return sum(k for a in ga.simplices for colors, k in b_by_colors.items()
               if all_colors - a.colors <= colors)


def quotas(weights: tuple, count: int) -> list[int]:
    """`weights` scaled to sum to `count`, by largest remainder."""
    exact = [w * count / sum(weights) for w in weights]
    out = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: out[i] - exact[i])
    for i in by_remainder[: count - sum(out)]:
        out[i] += 1
    return out


def stratified(draw, size, edges: tuple, quota: list) -> list:
    """Call `draw` until each size class (by `size`, against the upper
    `edges`, exclusive) holds its quota; draws beyond a class's quota or
    above the last edge are dropped."""
    left = list(quota)
    out = []
    while sum(left):
        x = draw()
        s = size(x)
        cls = next((i for i, edge in enumerate(edges) if s < edge), None)
        if cls is not None and left[cls]:
            left[cls] -= 1
            out.append(x)
    return out


def random_pair_census(call, seed: int, count: int, max_vertices: int = 12):
    """`count` pairs with n in {3, 4}, alternating two kinds: two random
    flag complexes (edge probability 0.5), and a random flag complex
    against one with a planted empty square."""
    r = rng(seed, 1)

    def draw(kind):
        n = r.choice((3, 4))
        ga = random_flag_complex(call, r, n, max_vertices, 0.5)
        if kind == "random":
            return ga, random_flag_complex(call, r, n, max_vertices, 0.5)
        return ga, planted_square_flag_complex(call, r, n)

    census = {
        kind: stratified(lambda: draw(kind), lambda pair: cube_count(*pair), CUBE_CLASSES,
                         quotas(PAIR_QUOTA_PER_150[kind], per_kind))
        for kind, per_kind in (("random", count - count // 2), ("planted", count // 2))
    }
    kinds = ("random", "planted")
    return [(f"pair{k}", *census[kinds[k % 2]][k // 2]) for k in range(count)]


def manifold_pairs(call, small: bool):
    """Three closed-manifold pairs with closed-form invariants: the
    n-torus, a surface, and a 3-manifold with 2-sphere vertex links."""
    n, (ka, kb) = (3, (4, 5)) if small else (4, (20, 20))
    tetra = SimplicialComplex.from_maximal(*TETRA)
    return [
        (f"cross-polytope-{n}", call(GEN, generators.gen_cross_polytope, n, "a"),
         call(GEN, generators.gen_cross_polytope, n, "b")),
        (f"surface-{ka}x{kb}", *call(GEN, generators.gen_surface_pair, ka, kb)),
        ("tetra-subdivided", *call(
            GEN, generators.gen_barycentric_pair, tetra, tetra,
            {"V": 1, "E": 2, "F": 3}, {"V": 2, "E": 1, "F": 3})),
    ]


# -- pocsets and grids -----------------------------------------------------------


def random_pocset_relations(r: random.Random, min_pairs: int, max_pairs: int):
    """Pair ids and relations of a random pocset: relation sets that
    violate the pocset axioms are redrawn, up to 40 times, before falling
    back to the discrete pocset."""
    m = r.randint(min_pairs, max_pairs)
    pair_ids = [f"p{i}" for i in range(m)]
    for _ in range(40):
        relations = []
        for _ in range(r.randint(0, 2 * m)):
            x_pid, y_pid = r.sample(pair_ids, 2)
            relations.append(((x_pid, r.choice("+-")), (y_pid, r.choice("+-"))))
        try:
            Pocset.from_relations(pair_ids, relations)
        except PocsetError:
            continue
        return pair_ids, relations
    return pair_ids, []


# Size classes of a random pocset of 2-6 pairs by its ultrafilter count
# (upper edges, exclusive): one class for each common count (3, 4, 6, 8,
# 12, 16, 24, 32, 48, 64) and one for each gap between them.  Quotas are
# per 60 pocsets: the frequencies of unrestricted draws, measured over
# 6,000 of them.  The time a pocset takes grows with its ultrafilter
# count (the logs correlate at 0.99), and the largest take most of it.
POCSET_CLASSES = (4, 5, 6, 7, 8, 9, 12, 13, 16, 17, 24, 25, 32, 33, 48, 49, 64, 65)
POCSET_QUOTA_PER_60 = (7, 8, 3, 5, 1, 6, 3, 4, 2, 4, 3, 4, 1, 3, 2, 2, 0, 2)


def random_pocset_census(seed: int, count: int) -> list:
    """`count` random pocsets of 2-6 pairs, drawn until each size class
    holds its quota."""
    r = rng(seed, 2)
    return stratified(
        lambda: random_pocset_relations(r, 2, 6),
        lambda rel: len(ultrafilters(Pocset.from_relations(*rel))),
        POCSET_CLASSES, quotas(POCSET_QUOTA_PER_60, count))


def chain_relations(m: int):
    """Nested chain p00+ < p01+ < ... of m pairs."""
    ids = [f"p{i:02d}" for i in range(m)]
    return ids, [((ids[i], "+"), (ids[i + 1], "+")) for i in range(m - 1)]


def grid_cells(rows: int, cols: int) -> dict:
    """Vertex sets per dimension of the rows x cols square grid."""
    cells: dict[int, list] = {0: [], 1: [], 2: []}
    for i in range(rows + 1):
        for j in range(cols + 1):
            cells[0].append(frozenset({f"g{i},{j}"}))
            if i < rows:
                cells[1].append(frozenset({f"g{i},{j}", f"g{i + 1},{j}"}))
            if j < cols:
                cells[1].append(frozenset({f"g{i},{j}", f"g{i},{j + 1}"}))
            if i < rows and j < cols:
                cells[2].append(frozenset(
                    {f"g{i},{j}", f"g{i + 1},{j}", f"g{i},{j + 1}", f"g{i + 1},{j + 1}"}))
    return cells
