"""Sufficient-condition hyperbolicity certificates.

The certifier applies sound rules in a fixed order and reports Unknown
when none fires: the conditions are sufficient, not sharp, so Unknown
never means "not hyperbolic".  The one NotHyperbolic rule is the exact
converse available for the right-angled Coxeter shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from clcc.canon import digest
from clcc.errors import DomainError, PairError
from clcc.clcc_core import _JoinLinks
from clcc.simplicial import (
    ColoredComplex,
    SimplicialComplex,
    barycentric_subdivision_2d,
    empty_squares,
    is_5_large,
    is_flag,
    is_obes,
    pairwise_5_large,
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


def _pair_digest(gamma_a: ColoredComplex, gamma_b: ColoredComplex) -> str:
    return digest({"gamma_a": gamma_a.to_json_dict(), "gamma_b": gamma_b.to_json_dict()})


def _is_full_cross_polytope(K: ColoredComplex) -> bool:
    """Two vertices per color, complete multipartite 1-skeleton, flag."""
    if len(K.vertex_ids) != 2 * K.n:
        return False
    classes = [K.color_class(c) for c in range(1, K.n + 1)]
    if any(len(cl) != 2 for cl in classes):
        return False
    adj = K.adjacency
    for ca, cb in combinations(classes, 2):
        for u in ca:
            for v in cb:
                if v not in adj[u]:
                    return False
    return is_flag(K)[0]


def _at_most_one_vertex_per_color(K: ColoredComplex) -> bool:
    colors = [c for _, c in K.vertices]
    return len(set(colors)) == len(colors)


def certify(gamma_a: ColoredComplex, gamma_b: ColoredComplex) -> Certificate:
    """Rule order: (1) either side 5-large; (2) pairwise 5-large and both
    sides with only bicolor empty squares; (3) full-cross-polytope
    against a one-vertex-per-color complex with an empty square, which is
    NotHyperbolic by the exact Coxeter criterion; (4) every vertex link
    of the pair complex 5-large, decided from the factor links by the
    join formula.  Anything else is Unknown."""
    if gamma_a.n != gamma_b.n:
        raise PairError(f"color counts differ: {gamma_a.n} vs {gamma_b.n}")
    dig = _pair_digest(gamma_a, gamma_b)
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
        per_pair = {}
        for i, j in combinations(range(1, gamma_a.n + 1), 2):
            per_pair[f"{i},{j}"] = "A" if not empty_squares(gamma_a, (i, j)) else "B"
        return Certificate(
            "Hyperbolic", RULE_PAIRWISE_OBES, {"pair_5_large_side": per_pair}, dig
        )

    if _is_full_cross_polytope(gamma_a) and _at_most_one_vertex_per_color(gamma_b) and sq_b:
        return Certificate(
            "NotHyperbolic", RULE_RACG_SQUARE, {"side": "B", **sq_b.to_json_dict()}, dig
        )
    if _is_full_cross_polytope(gamma_b) and _at_most_one_vertex_per_color(gamma_a) and sq_a:
        return Certificate(
            "NotHyperbolic", RULE_RACG_SQUARE, {"side": "A", **sq_a.to_json_dict()}, dig
        )

    links = _JoinLinks(gamma_a, gamma_b)
    vertices = links.vertices()
    if vertices and not any(links.has_empty_square(v) for v in vertices):
        return Certificate(
            "Hyperbolic", RULE_LINKS_5_LARGE, {"links_checked": len(vertices)}, dig
        )

    return Certificate("Unknown", None, None, dig, attempted=ALL_RULES)


def moussong(gamma: ColoredComplex) -> Certificate:
    """Exact dichotomy for right-angled Coxeter groups: hyperbolic iff
    the defining complex has no empty square.  Coloring is ignored."""
    ok, clique = is_flag(gamma)
    if not ok:
        raise DomainError(f"input must be flag; clique {clique} does not span")
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
    if colors_gamma.get("E") == colors_lam.get("E"):
        raise DomainError("edge-barycentre colors must differ between the two factors")
    ga = barycentric_subdivision_2d(gamma, colors_gamma)
    gb = barycentric_subdivision_2d(lam, colors_lam)
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
        _pair_digest(ga, gb),
    )
