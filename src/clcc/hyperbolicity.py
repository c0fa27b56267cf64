"""Sufficient-condition hyperbolicity certificates.

The certifier applies sound rules in a fixed order and reports Unknown
when none fires: the conditions are sufficient, not sharp, so Unknown
never means "not hyperbolic".  The one NotHyperbolic rule is the exact
converse available for the right-angled Coxeter shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Optional

from clcc.canon import digest
from clcc.clcc_core import _pair_vertices, pair_json
from clcc.generators import gen_barycentric_pair
from clcc.simplicial import (
    ColoredComplex,
    SimplicialComplex,
    check_same_color_count,
    is_5_large,
    is_flag,
    is_obes,
    pairwise_5_large,
    repeated_color,
    require_flag,
)

RULE_SIDE_5_LARGE_A = "5-large-side-a"
RULE_SIDE_5_LARGE_B = "5-large-side-b"
RULE_PAIRWISE_OBES = "pairwise-5-large+obes"
RULE_RACG_SQUARE = "racg-empty-square"
RULE_LINKS_5_LARGE = "links-5-large"
ALL_RULES = (
    RULE_SIDE_5_LARGE_A,
    RULE_SIDE_5_LARGE_B,
    RULE_PAIRWISE_OBES,
    RULE_RACG_SQUARE,
    RULE_LINKS_5_LARGE,
)


@dataclass(frozen=True)
class Certificate:
    verdict: str  # Hyperbolic | NotHyperbolic | Unknown
    rule: Optional[str]
    witness: Optional[dict]
    inputs_digest: str
    attempted: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "rule": self.rule,
            "witness": self.witness,
            "inputs": self.inputs_digest,
            "attempted": list(self.attempted),
        }


def _is_full_cross_polytope(K: ColoredComplex) -> bool:
    """Whether K is the full cross-polytope on its n colors, for a flag K
    (certify asks only after both factors pass `is_flag`): 2n vertices,
    two of each color, and 2n(n - 1) edges.  An edge joins two colors,
    and two vertices per color make 2n(n - 1) such pairs, so every two
    vertices of different colors are joined; K is flag, so every clique
    of that complete multipartite graph spans a simplex."""
    n = K.n
    if len(K.vertex_ids) != 2 * n:
        return False
    return (all(len(K.color_class(c)) == 2 for c in range(1, n + 1))
            and sum(map(int.bit_count, K._view.adj)) // 2 == 2 * n * (n - 1))


def _join_has_empty_square(link_a: tuple[bool, bool], link_b: tuple[bool, bool]) -> bool:
    """Whether the join of two flag links has a chordless 4-cycle, from
    each link's `_link_squares`: the cycle lies in one side, or has one
    diagonal in each side, so both sides have a non-adjacent pair (the
    5-large condition for joins, as in Januszkiewicz-Swiatkowski,
    Simplicial nonpositive curvature, 2006)."""
    (square_a, gap_a), (square_b, gap_b) = link_a, link_b
    return square_a or square_b or (gap_a and gap_b)


def certify(gamma_a: ColoredComplex, gamma_b: ColoredComplex) -> Certificate:
    """Rule order: (1) either side 5-large; (2) pairwise 5-large and both
    sides with only bicolor empty squares; (3) full-cross-polytope
    against a one-vertex-per-color complex with an empty square, which is
    NotHyperbolic by the exact Coxeter criterion; (4) every vertex link
    of the pair complex 5-large, decided from the flag factors' links by
    the join formula.  Anything else is Unknown."""
    check_same_color_count(gamma_a, gamma_b)
    dig = digest(pair_json(gamma_a, gamma_b))
    flag_a, clique_a = is_flag(gamma_a)
    flag_b, clique_b = is_flag(gamma_b)
    if not (flag_a and flag_b):
        return Certificate(
            "Unknown",
            None,
            {
                "reason": "curvature hypothesis unverified: input not flag",
                "clique": list(clique_a or clique_b or ()),
            },
            dig,
        )

    large_a, sq_a = is_5_large(gamma_a)
    if large_a:
        return Certificate("Hyperbolic", RULE_SIDE_5_LARGE_A, {"side": "A"}, dig)
    large_b, sq_b = is_5_large(gamma_b)
    if large_b:
        return Certificate("Hyperbolic", RULE_SIDE_5_LARGE_B, {"side": "B"}, dig)

    pw, _ = pairwise_5_large(gamma_a, gamma_b)
    obes_a, _ = is_obes(gamma_a)
    obes_b, _ = is_obes(gamma_b)
    if pw and obes_a and obes_b:
        # a color pair that gamma_a leaves empty holds no square there, so
        # it is "A" by definition; only pairs of colors gamma_a uses are listed
        used_a = sorted({c for _, c in gamma_a.vertices})
        per_pair = {}
        for i, j in combinations(used_a, 2):
            per_pair[f"{i},{j}"] = "B" if (i, j) in gamma_a.bicolor_squares else "A"
        return Certificate(
            "Hyperbolic", RULE_PAIRWISE_OBES, {"pair_5_large_side": per_pair}, dig
        )

    if _is_full_cross_polytope(gamma_a) and repeated_color(gamma_b) is None:
        return Certificate(
            "NotHyperbolic", RULE_RACG_SQUARE, {"side": "B", **sq_b.to_json_dict()}, dig
        )
    if _is_full_cross_polytope(gamma_b) and repeated_color(gamma_a) is None:
        return Certificate(
            "NotHyperbolic", RULE_RACG_SQUARE, {"side": "A", **sq_a.to_json_dict()}, dig
        )

    # both sides are flag, so each factor link is read off its view
    vertices = _pair_vertices(gamma_a, gamma_b)
    link_a, link_b = cache(gamma_a._link_squares), cache(gamma_b._link_squares)
    if vertices and not any(_join_has_empty_square(link_a(a), link_b(b)) for a, b in vertices):
        return Certificate(
            "Hyperbolic", RULE_LINKS_5_LARGE, {"links_checked": len(vertices)}, dig
        )

    return Certificate("Unknown", None, None, dig, attempted=ALL_RULES)


def moussong(gamma: ColoredComplex) -> Certificate:
    """Exact dichotomy for right-angled Coxeter groups: hyperbolic iff
    the defining complex has no empty square.  Coloring is ignored."""
    require_flag(gamma)
    large, square = is_5_large(gamma)
    dig = digest(gamma.to_json_dict())
    if large:
        return Certificate("Hyperbolic", "moussong", None, dig)
    return Certificate("NotHyperbolic", "moussong", square.to_json_dict(), dig)


def certify_barycentric(
    gamma: SimplicialComplex,
    lam: SimplicialComplex,
    colors_gamma: dict,
    colors_lam: dict,
) -> Certificate:
    """Subdivide two 2-complexes with edge barycentres on different
    colors and certify the pair.

    By construction the subdivisions have only bicolor empty squares and
    are pairwise 5-large; both facts are re-verified here and a failure
    is an internal error, never Unknown."""
    ga, gb = gen_barycentric_pair(gamma, lam, colors_gamma, colors_lam)
    obes_a, bad_a = is_obes(ga)
    obes_b, bad_b = is_obes(gb)
    if not (obes_a and obes_b):
        raise RuntimeError(f"subdivision produced a non-bicolor empty square: {bad_a or bad_b}")
    pw, bad_pair = pairwise_5_large(ga, gb)
    if not pw:
        raise RuntimeError(f"subdivided pair is not pairwise 5-large: {bad_pair}")
    return Certificate(
        "Hyperbolic",
        "barycentric-pair",
        {"verified": ["obes-a", "obes-b", "pairwise-5-large"]},
        digest(pair_json(ga, gb)),
    )
