"""The four benchmark workloads.

Each workload makes its inputs from the seed (`setup`), runs one input
through the pipeline with every call into clcc going through `ctx.call`
(`process`), and may check outputs once more after the timed passes
(`verify`).  `process` checks every output it can check cheaply; each
failed check marks the input as failed.  Counters are exact counts of
work done; they depend only on the seed, never on timing or tracing.

Every pass starts from uncached factor complexes, so that all passes do
the same work: `fresh` drops the cached properties that a previous pass
left on a ColoredComplex.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

from click.testing import CliRunner

from clcc import generators
from clcc.canon import canonical_json
from clcc.clcc_core import (
    CubeComplex,
    build_clcc,
    classify_vertex_links,
    conn_graph,
    dimension,
    is_connected,
    is_npc,
    prune_to_smart_pair,
    smartly_paired,
)
from clcc.cli import main as cli_main
from clcc.homology_z2 import betti
from clcc.hyperbolicity import certify
from clcc.pocset_hyperplanes import (
    Pocset,
    crossing_graph,
    directions,
    halfspace_pocset,
    hyperplanes,
    roller_duality_check,
    sageev,
    ultrafilters,
)
from clcc.simplicial import ColoredComplex, is_5_large, is_flag, is_obes, pairwise_5_large

import inputs


class Ctx:
    """What `process` sees: the (possibly traced) call, the pass's
    counters, the current input's failed checks, and the complexes kept
    for re-timing GF(2) rank in a traced pass."""

    def __init__(self, call, counters: Counter, keep_for_rank: Optional[list]):
        self.call = call
        self.counters = counters
        self.failures: list[str] = []
        self._keep = keep_for_rank

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def betti(self, X, reduced: bool):
        """betti() as a layer call, plus the GF(2) counters of the
        boundary matrices it ranks.  The ranks follow from the Betti
        numbers: b_k = c_k - r_k - r_(k+1), with r_(top+1) = 0."""
        bv = self.call("homology_z2.betti", betti, X, reduced)
        counts = [len(X.cells(d)) for d in range(X.top_dim + 1)]
        ranks = {len(counts): 0}
        for k in range(len(counts) - 1, 0, -1):
            ranks[k] = counts[k] - bv.ranks[k] - ranks[k + 1]
        c = self.counters
        for k in range(1, len(counts)):
            c["gf2.rows"] += counts[k]
            c["gf2.cols"] += counts[k - 1]
            c["gf2.rank"] += ranks[k]
            c["gf2.bytes_computed"] += counts[k] * 8 * max(1, (counts[k - 1] + 63) // 64)
        if self._keep is not None:
            self._keep.append((X, ranks))
        return bv


def fresh(K: ColoredComplex) -> ColoredComplex:
    return ColoredComplex(K.n, dict(K.vertices), K.simplices)


def count_cells(counters: Counter, X) -> None:
    for d in range(X.top_dim + 1):
        counters[f"clcc_core.cells.d{d}"] += len(X.cells(d))


def count_certificate(counters: Counter, cert) -> None:
    if cert.rule is not None:
        key = cert.rule.replace("+", "-")
    elif cert.attempted:
        key = "unknown"
    else:
        key = "not-flag"
    counters[f"hyperbolicity.certify.rule.{key}"] += 1
    counters["hyperbolicity.certify.decided"] += cert.verdict != "Unknown"


def check_homology(ctx: Ctx, X, red, unred) -> None:
    chi = X.euler_characteristic()
    ctx.check(chi == sum((-1) ** k * b for k, b in enumerate(unred.ranks)),
              "chi differs from the alternating sum of Betti numbers")
    expect_red = (unred.ranks[0] - 1,) + unred.ranks[1:] if unred.ranks else ()
    ctx.check(red is None or red.ranks == expect_red,
              "reduced and unreduced Betti numbers disagree")


# -- manifolds ---------------------------------------------------------------------


def manifolds_setup(call, seed: int, small: bool):
    """The inputs are fixed closed manifolds; the seed does not change them."""
    return [(name, (name, ga, gb)) for name, ga, gb in inputs.manifold_pairs(call, small)]


def manifolds_process(payload, ctx: Ctx):
    name, ga0, gb0 = payload
    ga, gb = fresh(ga0), fresh(gb0)
    call, c = ctx.call, ctx.counters
    X = call("clcc_core.build_clcc", build_clcc, ga, gb)
    d, pure = call("clcc_core.dimension", dimension, X)
    red = ctx.betti(X, True)
    unred = ctx.betti(X, False)
    tags = call("clcc_core.classify_vertex_links", classify_vertex_links, X)
    hps = call("pocset_hyperplanes.hyperplanes", hyperplanes, X)
    dirs, valid = call("pocset_hyperplanes.directions", directions, X)
    cg = call("pocset_hyperplanes.crossing_graph", crossing_graph, X)
    bfs = call("clcc_core.is_connected_bfs", is_connected, ga, gb, "bfs")
    crit = call("clcc_core.is_connected_criterion", is_connected, ga, gb, "criterion")
    cert = call("hyperbolicity.certify", certify, ga, gb)

    count_cells(c, X)
    c["clcc_core.links.evaluated"] += len(tags)
    c["pocset_hyperplanes.hyperplanes.count"] += len(hps)
    count_certificate(c, cert)

    check_homology(ctx, X, red, unred)
    chi = X.euler_characteristic()
    if name.startswith("cross-polytope"):
        n = ga.n  # the n-torus: a product of n 4-cycles
        want_tags = {{2: "circle", 3: "2-sphere"}.get(n, "unknown")}
        ctx.check(unred.ranks == tuple(comb(n, k) for k in range(n + 1)),
                  "torus Betti numbers are not binomial")
        ctx.check(d == n, "torus dimension")
        ctx.check(cert.verdict != "Hyperbolic", "a flat torus certified hyperbolic")
    elif name.startswith("surface"):
        ka, kb = len(ga.vertex_ids) // 2, len(gb.vertex_ids) // 2
        want_tags = {"circle"}
        ctx.check(chi == -(ka * (kb - 2) + kb * (ka - 2)), "surface Euler characteristic")
        ctx.check(unred.ranks == (1, 2 - chi, 1), "surface Betti numbers")
        ctx.check(d == 2, "surface dimension")
        ctx.check(cert.verdict != "NotHyperbolic", "a hyperbolic surface certified not hyperbolic")
    else:
        want_tags = {"2-sphere"}
        ctx.check(unred.ranks == (1, 39, 39, 1), "tetrahedron pair Betti numbers")
        ctx.check(d == 3, "tetrahedron pair dimension")
    ctx.check(pure, "manifold not pure")
    ctx.check(set(tags.values()) == want_tags, f"vertex links are not all {want_tags}")
    ctx.check(bfs and crit, "manifold pair not connected by both engines")
    ctx.check(valid and set(dirs) == {h.hid for h in hps}, "hyperplane directions")
    ctx.check(set(cg.nodes) == set(dirs), "crossing graph nodes are not the hyperplanes")
    ctx.check(sum(len(h.edges) for h in hps) == len(X.cells(1)),
              "hyperplanes do not partition the edges")
    return (unred.ranks, d, pure, sorted(Counter(tags.values()).items()),
            len(hps), len(cg.edges), bfs, cert.verdict, cert.rule)


# -- random-pairs --------------------------------------------------------------------


def random_pairs_setup(call, seed: int, small: bool):
    pairs = inputs.random_pair_census(call, seed, 20 if small else 300)
    return [(name, (ga, gb)) for name, ga, gb in pairs]


def random_pairs_process(payload, ctx: Ctx):
    ga, gb = (fresh(K) for K in payload)
    call, c = ctx.call, ctx.counters
    c["clcc_core.prune.generated"] += 1
    pa, pb = call("clcc_core.prune_to_smart_pair", prune_to_smart_pair, ga, gb)
    if not pa.vertex_ids or not pb.vertex_ids:
        return ("collapsed",)
    c["clcc_core.prune.kept"] += 1
    smart, _ = call("clcc_core.smartly_paired", smartly_paired, pa, pb)
    flag_a, _ = call("simplicial.is_flag", is_flag, pa)
    flag_b, _ = call("simplicial.is_flag", is_flag, pb)
    large_a, sq_a = call("simplicial.is_5_large", is_5_large, pa)
    large_b, sq_b = call("simplicial.is_5_large", is_5_large, pb)
    obes_a, bad_a = call("simplicial.is_obes", is_obes, pa)
    obes_b, bad_b = call("simplicial.is_obes", is_obes, pb)
    pw, bad_pw = call("simplicial.pairwise_5_large", pairwise_5_large, pa, pb)
    cert = call("hyperbolicity.certify", certify, pa, pb)
    X = call("clcc_core.build_clcc", build_clcc, pa, pb)
    unred = ctx.betti(X, False)
    crit = call("clcc_core.is_connected_criterion", is_connected, pa, pb, "criterion")
    bfs = call("clcc_core.is_connected_bfs", is_connected, pa, pb, "bfs")
    npc, method, _ = call("clcc_core.is_npc", is_npc, pa, pb)

    count_cells(c, X)
    count_certificate(c, cert)
    c["simplicial.empty_squares.found"] += sum(
        w is not None for w in (sq_a, sq_b, bad_a, bad_b, bad_pw))
    c["clcc_core.is_npc.flag_shortcut"] += method == "flag-inputs"

    ctx.check(smart, "pruned pair is not smartly paired")
    check_homology(ctx, X, None, unred)
    ctx.check(crit == bfs, "criterion and BFS connectedness disagree")
    ctx.check(bfs == (unred.ranks[:1] == (1,)), "BFS connectedness disagrees with b0")
    flag = flag_a and flag_b
    if not flag:
        ctx.check(cert.verdict == "Unknown", "non-flag input did not get Unknown")
    ctx.check(flag == (method == "flag-inputs"), "is_npc took the wrong path")
    ctx.check(not flag or npc, "flag pair reported not non-positively curved")
    rule_needs = {
        "5-large-side-a": large_a,
        "5-large-side-b": large_b and not large_a,
        "pairwise-5-large+obes": pw and obes_a and obes_b and not (large_a or large_b),
    }
    if cert.rule in rule_needs:
        ctx.check(rule_needs[cert.rule], f"certificate rule {cert.rule} without its hypothesis")
    return (flag_a, flag_b, large_a, large_b, obes_a, obes_b, pw, cert.verdict, cert.rule,
            unred.ranks, bfs, npc, method)


# -- duality ---------------------------------------------------------------------------


def duality_setup(call, seed: int, small: bool):
    count, free_m, chain_m, grid = (8, 3, 6, (2, 3)) if small else (60, 6, 30, (8, 8))
    items = [(f"pocset{k}", ("pocset", ids, relations, {}))
             for k, (ids, relations) in enumerate(inputs.random_pocset_census(seed, count))]
    free_cells = [comb(free_m, d) * 2 ** (free_m - d) for d in range(free_m + 1)]
    items.append((f"free{free_m}", ("pocset", [f"p{i}" for i in range(free_m)], [],
                                    {"cells": free_cells})))
    items.append((f"chain{chain_m}", ("pocset", *inputs.chain_relations(chain_m),
                                      {"ultrafilters": chain_m + 1})))
    rows, cols = grid
    items.append((f"grid{rows}x{cols}", ("grid", inputs.grid_cells(rows, cols), rows + cols,
                                        {"ultrafilters": (rows + 1) * (cols + 1)})))
    return items


def duality_process(payload, ctx: Ctx):
    """Pocsets: from_relations, then ultrafilters, sageev, and duality and
    hyperplanes on the sageev complex.  The grid: from_cells and its
    halfspace pocset, then the same steps on the grid itself."""
    kind, a, b, expect = payload
    call, c = ctx.call, ctx.counters
    if kind == "grid":
        X = call("clcc_core.from_cells", CubeComplex.from_cells, a)
        S = call("pocset_hyperplanes.halfspace_pocset", halfspace_pocset, X)
        expect_hps = b
    else:
        S = call("pocset_hyperplanes.from_relations", Pocset.from_relations, a, b)
        X, expect_hps = None, len(a)
    U = call("pocset_hyperplanes.ultrafilters", ultrafilters, S)
    Y = call("pocset_hyperplanes.sageev", sageev, S)
    host = Y if X is None else X
    ok, mapping = call("pocset_hyperplanes.roller_duality_check", roller_duality_check, host)
    hps = call("pocset_hyperplanes.hyperplanes", hyperplanes, host)

    y_cells = [len(Y.cells(d)) for d in range(Y.top_dim + 1)]
    c["pocset_hyperplanes.ultrafilters.count"] += len(U)
    c["pocset_hyperplanes.sageev.cells"] += sum(y_cells)
    c["pocset_hyperplanes.hyperplanes.count"] += len(hps)

    ctx.check(len(U) == y_cells[0], "|ultrafilters| differs from |Y.cells(0)|")
    ctx.check(ok and len(mapping) == len(host.cells(0)), "duality round trip failed")
    ctx.check(len(hps) == expect_hps, "not one hyperplane per pair")
    ctx.check(expect.get("ultrafilters", len(U)) == len(U), "ultrafilter count")
    ctx.check(expect.get("cells", y_cells) == y_cells, "free pocset does not give the cube")
    return (len(U), tuple(y_cells), ok, len(hps))


# -- cli ---------------------------------------------------------------------------------

# (step, arguments, the step whose stdout is the input)
CLI_STEPS = (
    ("build", ["build", "-"], "generate"),
    ("homology", ["homology", "-"], "build"),
    ("invariants-dim", ["invariants", "dim", "-"], "build"),
    ("invariants-links", ["invariants", "links", "-"], "build"),
    ("hyperplanes", ["hyperplanes", "-"], "build"),
    ("export", ["export", "-"], "build"),
    ("certify", ["certify", "-"], "generate"),
    ("connect", ["connect", "-"], "generate"),
)


def cli_setup(call, seed: int, small: bool):
    """Two surface sessions; the seed does not change them."""
    sizes = ((3, 3), (2, 4)) if small else ((12, 12), (8, 16))
    return [(f"surface-{ka}x{kb}", (ka, kb)) for ka, kb in sizes]


def cli_process(payload, ctx: Ctx):
    ka, kb = payload
    runner = CliRunner()
    c = ctx.counters

    def invoke(step, args, stdin):
        res = ctx.call(f"cli.{step}", runner.invoke, cli_main, args, input=stdin)
        c["cli.bytes_in"] += len(stdin.encode("utf-8")) if stdin else 0
        c["cli.bytes_out"] += len(res.stdout_bytes)
        if res.exit_code != 0:
            c["cli.exit_nonzero"] += 1
            ctx.check(False, f"clcc {step} exited {res.exit_code}")
        return res.stdout

    outputs = {"generate": invoke(
        "generate", ["generate", "surface", "--ka", str(ka), "--kb", str(kb)], None)}
    for step, args, source in CLI_STEPS:
        outputs[step] = invoke(step, args, outputs[source])
    return outputs


def _cube_json(cube) -> dict:
    a, b = cube
    return {"a": {str(c): v for c, v in a.entries}, "b": {str(c): v for c, v in b.entries}}


def cli_expected(ka: int, kb: int):
    """What each CLI step must print for the surface pair (ka, kb),
    computed through the library; also the built complex and its
    vertex-link tags."""
    ga, gb = generators.gen_surface_pair(ka, kb)
    X = build_clcc(ga, gb)
    red, unred = betti(X, True), betti(X, False)
    d, pure = dimension(X)
    tags = classify_vertex_links(X)
    hps = hyperplanes(X)
    dirs, valid = directions(X)
    cg = crossing_graph(X)
    bfs = is_connected(ga, gb, "bfs")
    crit = is_connected(ga, gb, "criterion")
    links = sorted(({"vertex": _cube_json(v), "tag": t} for v, t in tags.items()),
                   key=lambda e: canonical_json(e["vertex"]))
    payloads = {
        "generate": {"gamma_a": ga.to_json_dict(), "gamma_b": gb.to_json_dict()},
        "build": X.to_json_dict(),
        "homology": {"betti": list(unred.ranks), "reduced": list(red.ranks),
                     "unreduced": list(unred.ranks), "chi": X.euler_characteristic()},
        "invariants-dim": {"dim": d, "pure": pure},
        "invariants-links": {"counts": dict(Counter(tags.values())), "links": links},
        "hyperplanes": {
            "classes": [{"id": h.hid, "edges": len(h.edges), "direction": dirs[h.hid]}
                        for h in hps],
            "directions_valid": valid,
            "crossing": sorted(sorted(e) for e in cg.edges),
            "self_crossing": sorted(cg.self_crossing),
        },
        "export": X.to_json_dict(),
        "certify": certify(ga, gb).to_json_dict(),
        "connect": {"connected": bfs, "engines": {"bfs": bfs, "criterion": crit},
                    "criterion_nodes": len(conn_graph(ga, gb).nodes)},
    }
    return {k: canonical_json(v) + "\n" for k, v in payloads.items()}, X, tags


def cli_verify(items, outputs: dict) -> tuple[dict, Counter]:
    """Byte-compare each session's output with the library's, check the
    surface closed forms, and count cells and links of the built
    complexes (per pass: every pass printed the same bytes)."""
    failures: dict[str, list[str]] = {}
    counters: Counter = Counter()
    for item_id, (ka, kb) in items:
        expected, X, tags = cli_expected(ka, kb)
        printed = outputs[item_id] or {}  # None if the session raised
        bad = [f"clcc {step} output differs from the library"
               for step, text in expected.items() if printed.get(step) != text]
        chi = X.euler_characteristic()
        if chi != -(ka * (kb - 2) + kb * (ka - 2)):
            bad.append("surface Euler characteristic")
        if set(tags.values()) != {"circle"}:
            bad.append("surface vertex links are not all circles")
        failures[item_id] = bad
        count_cells(counters, X)
        counters["clcc_core.links.evaluated"] += len(X.cells(0))
    return failures, counters


# -- registry -------------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    process: Callable
    verify: Optional[Callable] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("manifolds", manifolds_setup, manifolds_process),
        Workload("random-pairs", random_pairs_setup, random_pairs_process),
        Workload("duality", duality_setup, duality_process),
        Workload("cli", cli_setup, cli_process, cli_verify),
    )
}
