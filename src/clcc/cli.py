"""Command-line interface.

All subcommands read JSON (`-` = stdin), write canonical JSON payloads to
stdout, and are pipeline-composable.  Exit codes: 0 success, 1 domain
error (with a structured error payload), 2 usage error.  A one-line run
report goes to stderr; `--report` upgrades it to JSON with input digests
and timings.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import click

from clcc import generators, homology_z2 as hz2
from clcc.canon import canonical_json, digest
from clcc.clcc_core import (
    CubeComplex,
    build_clcc,
    classify_vertex_links,
    conn_graph,
    dimension,
    euler_characteristic,
    is_connected,
    is_npc,
    link_of_cube,
    smartly_paired,
)
from clcc.errors import ComplexError, DomainError
from clcc.hyperbolicity import certify
from clcc.pocset_hyperplanes import (
    Pocset,
    crossing_graph,
    directions,
    hyperplanes,
    roller_duality_check,
    sageev,
)
from clcc.simplicial import (
    ColoredComplex,
    CoordSimplex,
    SimplicialComplex,
    is_5_large,
    is_flag,
    is_obes,
    pairwise_5_large,
)

PRESET_2COMPLEXES = {
    "tetrahedron": lambda: SimplicialComplex.from_maximal(
        ["p", "q", "r", "s"], [["p", "q", "r"], ["p", "q", "s"], ["p", "r", "s"], ["q", "r", "s"]]
    ),
    "triangle": lambda: SimplicialComplex.from_maximal(["p", "q", "r"], [["p", "q", "r"]]),
}


def _read_doc(src: str) -> dict:
    """The JSON object in a file or, for "-", on stdin; every document the
    commands read is an object.  Both are decoded as strict UTF-8, so
    stdin does not take the locale's error handler."""
    try:
        if src == "-":
            doc = json.loads(sys.stdin.buffer.read().decode("utf-8"))
        else:
            with open(src, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, text that is not UTF-8 and
        # integers too long to convert; RecursionError, a document nested
        # too deep for the decoder
        raise ComplexError(f"malformed JSON in {src}: {exc}") from exc
    except OSError as exc:
        raise ComplexError(f"cannot read {src}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ComplexError(f"expected a JSON object in {src}, got {type(doc).__name__}")
    return doc


def _simplex_option(ctx, param, value: str) -> CoordSimplex:
    """Parse a simplex given as a JSON object color -> vertex id."""
    try:
        doc = json.loads(value)
        if not isinstance(doc, dict) or not all(isinstance(v, str) for v in doc.values()):
            raise ValueError("not an object of string vertex ids")
        return CoordSimplex.of({int(c): v for c, v in doc.items()})
    except ValueError as exc:
        raise click.BadParameter(
            f'expected a JSON object color -> vertex id, e.g. {{"1": "a0"}} ({exc})'
        ) from exc


def _colors_option(count: int):
    """Option callback parsing `count` distinct positive colors, e.g. 1,2."""
    example = ",".join(str(c) for c in range(1, count + 1))

    def parse(ctx, param, value: str) -> tuple[int, ...]:
        try:
            colors = tuple(int(x) for x in value.split(","))
            valid = len(colors) == count and min(colors) >= 1 and len(set(colors)) == count
        except ValueError:
            valid = False
        if not valid:
            raise click.BadParameter(
                f"expected {count} distinct positive integers, e.g. {example}; got {value!r}"
            )
        return colors

    return parse


def _load_pair(doc: dict) -> tuple[ColoredComplex, ColoredComplex]:
    if "gamma_a" not in doc or "gamma_b" not in doc:
        raise ComplexError("expected a pair document with gamma_a and gamma_b")
    return (
        ColoredComplex.from_json_dict(doc["gamma_a"]),
        ColoredComplex.from_json_dict(doc["gamma_b"]),
    )


def _pair_doc(ga: ColoredComplex, gb: ColoredComplex) -> dict:
    return {"gamma_a": ga.to_json_dict(), "gamma_b": gb.to_json_dict()}


@click.group()
def main():
    """Coupled-link cube complexes: build, measure, certify."""


def _command(name: str, failure=None):
    """Register a subcommand of `main` whose body returns (payload, inputs),
    `inputs` naming the documents it read; the wrapper adds --report.

    The wrapper times the body, maps a DomainError to exit 1 with an error
    payload on stdout, and otherwise writes the canonical payload to
    stdout (or to --out) and a run report to stderr: one line, or with
    --report a JSON object with the input digests and timings.  Inputs
    are digested only for that report.  `failure` maps the payload to
    what fails, or None; when something fails, the payload is written and
    reported as usual, the one-line report says what fails, and the exit
    code is 1.

    Every echo names its stream.  Without `file=`, click wraps the current
    sys.stdout/sys.stderr and caches the wrapper in a WeakKeyDictionary
    whose value is the stream itself, so each stream swapped in by an
    in-process caller (click.testing.CliRunner) would stay alive."""

    def wrap(body):
        @functools.wraps(body)
        def run(out=None, report=False, **params):
            t0 = time.perf_counter()
            try:
                payload, inputs = body(**params)
            except DomainError as exc:
                error = {"command": name, "type": type(exc).__name__, "message": str(exc)}
                click.echo(canonical_json({"error": error}), file=sys.stdout)
                click.echo(f"clcc {name}: error: {exc}", file=sys.stderr)
                sys.exit(1)
            text = canonical_json(payload)
            if out and out != "-":
                with open(out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            else:
                click.echo(text, file=sys.stdout)
            ms = round((time.perf_counter() - t0) * 1000, 3)
            fails = failure and failure(payload)
            if report:
                run_report = {"command": name,
                              "inputs": {k: digest(doc) for k, doc in inputs.items()},
                              "result_digest": digest(payload), "timings": {"total_ms": ms}}
                click.echo(canonical_json(run_report), file=sys.stderr)
            else:
                line = f"clcc {name}: {fails}" if fails else f"clcc {name}: ok ({ms} ms)"
                click.echo(line, file=sys.stderr)
            if fails:
                sys.exit(1)

        command = main.command(name)(run)
        command.params.append(click.Option(["--report"], is_flag=True,
                                           help="JSON run report on stderr"))
        return command

    return wrap


# -- generate ------------------------------------------------------------


@_command("generate")
@click.argument("family", type=click.Choice(
    ["surface", "salvetti", "racg", "barycentric", "cycle", "crosspolytope"]))
@click.option("--ka", type=int, default=2, help="half-length of the first cycle (surface)")
@click.option("--kb", type=int, default=2, help="half-length of the second cycle (surface)")
@click.option("--k", type=int, default=2, help="half-length (cycle)")
@click.option("--colors", default="1,2", callback=_colors_option(2),
              help="two colors for cycle, e.g. 1,2")
@click.option("--n", "nn", type=int, default=2, help="color count (crosspolytope)")
@click.option("--gamma", default=None, help="complex JSON path, '-', or a preset name")
@click.option("--lam", default=None, help="second complex (barycentric)")
@click.option("--colors-a", default="1,2,3", callback=_colors_option(3),
              help="V,E,F colors of the first factor")
@click.option("--colors-b", default="2,1,3", callback=_colors_option(3),
              help="V,E,F colors of the second factor")
@click.option("--out", default=None, help="output path (default stdout)")
def generate(family, ka, kb, k, colors, nn, gamma, lam, colors_a, colors_b):
    """Emit a ready-made complex or pair."""
    inputs = {}
    if family == "surface":
        a, b = generators.gen_surface_pair(ka, kb)
        payload = _pair_doc(a, b)
    elif family == "cycle":
        payload = generators.gen_cycle(k, colors, n=max(colors)).to_json_dict()
    elif family == "crosspolytope":
        payload = generators.gen_cross_polytope(nn).to_json_dict()
    elif family in ("salvetti", "racg"):
        if gamma is None:
            raise ComplexError(f"{family} needs --gamma")
        doc = _read_doc(gamma)
        inputs["gamma"] = doc
        g = ColoredComplex.from_json_dict(doc)
        make = generators.gen_salvetti_pair if family == "salvetti" else generators.gen_racg_pair
        payload = _pair_doc(*make(g))
    else:  # barycentric
        if gamma is None or lam is None:
            raise ComplexError("barycentric needs --gamma and --lam")

        def load2(src):
            if src in PRESET_2COMPLEXES:
                return PRESET_2COMPLEXES[src]()
            return SimplicialComplex.from_json_dict(_read_doc(src))

        cmap_a = dict(zip(("V", "E", "F"), colors_a))
        cmap_b = dict(zip(("V", "E", "F"), colors_b))
        pair = generators.gen_barycentric_pair(load2(gamma), load2(lam), cmap_a, cmap_b)
        payload = _pair_doc(*pair)
    return payload, inputs


# -- build ---------------------------------------------------------------


@_command("build")
@click.argument("input_src", default="-", required=False)
@click.option("--pair", "pair_opt", default=None, help="pair JSON path (alias for the argument)")
@click.option("--out", default=None)
def build(input_src, pair_opt):
    """Build the cube complex of a pair."""
    doc = _read_doc(pair_opt or input_src)
    ga, gb = _load_pair(doc)
    X = build_clcc(ga, gb)
    return X.to_json_dict(), {"pair": doc}


# -- check ---------------------------------------------------------------


@_command("check", failure=lambda p: None if p["holds"] else f"{p['property']} fails")
@click.argument("args", nargs=-1)
@click.option("--flag", "f_flag", is_flag=True, help="same as the flag property")
@click.option("--5large", "f_5large", is_flag=True)
@click.option("--obes", "f_obes", is_flag=True)
@click.option("--pairwise", "f_pairwise", is_flag=True)
@click.option("--smart", "f_smart", is_flag=True)
@click.option("--npc", "f_npc", is_flag=True)
def check(args, f_flag, f_5large, f_obes, f_pairwise, f_smart, f_npc):
    """Check a property of a complex (flag/5large/obes) or a pair
    (pairwise/smart/npc); exits 1 with a witness when it fails.

    Usage: clcc check [PROPERTY] [INPUT] or clcc check --PROPERTY [INPUT].
    """
    names = ("flag", "5large", "obes", "pairwise", "smart", "npc")
    flags = dict(zip(names, (f_flag, f_5large, f_obes, f_pairwise, f_smart, f_npc)))
    positional = list(args)
    chosen = [name for name, on in flags.items() if on]
    if positional and positional[0] in names:
        chosen.append(positional.pop(0))
    if len(set(chosen)) != 1 or len(positional) > 1:
        raise click.UsageError("choose exactly one property and at most one input")
    prop = chosen[0]
    input_src = positional[0] if positional else "-"
    doc = _read_doc(input_src)
    witness = None
    if prop in ("flag", "5large", "obes"):
        K = ColoredComplex.from_json_dict(doc)
        if prop == "flag":
            holds, w = is_flag(K)
            witness = list(w) if w else None
        elif prop == "5large":
            holds, w = is_5_large(K)
            witness = w.to_json_dict() if w else None
        else:
            holds, w = is_obes(K)
            witness = w.to_json_dict() if w else None
    else:
        ga, gb = _load_pair(doc)
        if prop == "pairwise":
            holds, w = pairwise_5_large(ga, gb)
            if w:
                pair, wa, wb = w
                witness = {"colors": list(pair), "a": wa.to_json_dict(), "b": wb.to_json_dict()}
        elif prop == "smart":
            holds, w = smartly_paired(ga, gb)
            if w:
                side, simplex = w
                witness = {"side": side, "simplex": sorted(simplex.vertex_ids)}
        else:
            holds, method, w = is_npc(ga, gb)
            witness = {"method": method}
            if w:
                v, clique = w
                witness["vertex"] = hz2._cell_json(v)
                witness["clique"] = [str(x) for x in clique]
    return {"property": prop, "holds": holds, "witness": witness}, {"input": doc}


# -- link ------------------------------------------------------------------


@_command("link")
@click.argument("input_src", default="-", required=False)
@click.option("--a", "a", default="{}", callback=_simplex_option,
              help='A-side simplex, e.g. {"1": "a0"}')
@click.option("--b", "b", default="{}", callback=_simplex_option, help="B-side simplex")
@click.option("--out", default=None)
def link(input_src, a, b):
    """Link of a cube of the pair complex (join of the two simplex links)."""
    doc = _read_doc(input_src)
    ga, gb = _load_pair(doc)
    X = build_clcc(ga, gb)
    L = link_of_cube(X, (a, b))
    pretty = L.relabeled(
        {v: (f"{v[0]}:{v[1]}" if isinstance(v, tuple) else v) for v in L.vertex_ids}
    )
    return pretty.to_json_dict(), {"pair": doc}


# -- connect -----------------------------------------------------------------


@_command("connect")
@click.argument("input_src", default="-", required=False)
def connect(input_src):
    """Connectedness by BFS and, when smartly paired, by the criterion graph."""
    doc = _read_doc(input_src)
    ga, gb = _load_pair(doc)
    bfs = is_connected(ga, gb, engine="bfs")
    smart, _ = smartly_paired(ga, gb)
    graph = conn_graph(ga, gb) if smart else None
    crit = graph.is_connected() if smart else None
    nodes = len(graph.nodes) if smart else None
    payload = {"connected": bfs, "engines": {"bfs": bfs, "criterion": crit},
               "criterion_nodes": nodes}
    return payload, {"pair": doc}


# -- invariants ---------------------------------------------------------------


@_command("invariants")
@click.argument("what", type=click.Choice(["chi", "dim", "links"]))
@click.argument("input_src", default="-", required=False)
def invariants(what, input_src):
    """Euler characteristic, dimension/purity, or vertex-link tags of a
    built complex."""
    doc = _read_doc(input_src)
    X = CubeComplex.from_json_dict(doc)
    if what == "chi":
        payload = {"chi": euler_characteristic(X)}
    elif what == "dim":
        d, pure = dimension(X)
        payload = {"dim": d, "pure": pure}
    else:
        tags = classify_vertex_links(X)
        counts: dict[str, int] = {}
        for tag in tags.values():
            counts[tag] = counts.get(tag, 0) + 1
        payload = {
            "counts": counts,
            "links": [
                {"vertex": hz2._cell_json(v), "tag": tag}
                for v, tag in sorted(tags.items(), key=lambda kv: canonical_json(hz2._cell_json(kv[0])))
            ],
        }
    return payload, {"complex": doc}


# -- homology -------------------------------------------------------------------


@_command("homology")
@click.argument("input_src", default="-", required=False)
@click.option("--reduced", is_flag=True, help="highlight the reduced vector")
def homology(input_src, reduced):
    """Betti numbers over Z/2 (both reduced and unreduced are reported)."""
    doc = _read_doc(input_src)
    X = CubeComplex.from_json_dict(doc)
    red = hz2.betti(X, reduced=True)
    unred = hz2.betti(X, reduced=False)
    payload = {
        "betti": list((red if reduced else unred).ranks),
        "reduced": list(red.ranks),
        "unreduced": list(unred.ranks),
        "chi": X.euler_characteristic(),
    }
    return payload, {"complex": doc}


# -- cycle -----------------------------------------------------------------------


@_command("cycle")
@click.argument("input_src", default="-", required=False)
@click.option("--omega-a", default=None, help="chain JSON over gamma_a (default: top cells)")
@click.option("--omega-b", default=None, help="chain JSON over gamma_b (default: top cells)")
@click.option("--out", default=None)
def cycle(input_src, omega_a, omega_b):
    """Chain on the pair complex generated by two smartly paired chains."""
    doc = _read_doc(input_src)
    ga, gb = _load_pair(doc)

    def load_chain(src, host):
        if src is None:
            return hz2.top_chain(host)
        cdoc = _read_doc(src)
        if not (
            isinstance(cdoc, dict)
            and isinstance(cdoc.get("dim"), int)
            and not isinstance(cdoc["dim"], bool)
            and isinstance(cdoc.get("cells"), list)
            and all(
                isinstance(vids, list) and all(isinstance(v, str) for v in vids)
                for vids in cdoc["cells"]
            )
        ):
            raise ComplexError(
                f"malformed chain document {src}: expected an integer dim and "
                "cells given as lists of vertex ids"
            )
        cells = []
        for vids in cdoc["cells"]:
            s = host.simplex_with_vertices(vids)
            if s is None:
                raise ComplexError(f"no simplex with vertices {vids}")
            cells.append(s)
        return hz2.chain(host, cdoc["dim"], cells)

    wa = load_chain(omega_a, ga)
    wb = load_chain(omega_b, gb)
    X = build_clcc(ga, gb)
    out_chain = hz2.clcc_cycle(wa, wb, ambient=X)
    payload = out_chain.to_json_dict()
    payload["is_cycle"] = hz2.is_cycle(out_chain)
    payload["inputs_are_cycles"] = [hz2.is_cycle(wa), hz2.is_cycle(wb)]
    return payload, {"pair": doc}


# -- hyperplanes --------------------------------------------------------------------


@_command("hyperplanes")
@click.argument("input_src", default="-", required=False)
def hyperplanes_cmd(input_src):
    """Hyperplane classes, directions and the crossing graph."""
    doc = _read_doc(input_src)
    X = CubeComplex.from_json_dict(doc)
    hps = hyperplanes(X)
    dirs, valid = directions(X)
    cg = crossing_graph(X)
    payload = {
        "classes": [
            {"id": h.hid, "edges": len(h.edges), "direction": dirs[h.hid]} for h in hps
        ],
        "directions_valid": valid,
        "crossing": sorted(sorted(e) for e in cg.edges),
        "self_crossing": sorted(cg.self_crossing),
    }
    return payload, {"complex": doc}


# -- sageev ---------------------------------------------------------------------------


@_command("sageev")
@click.argument("input_src", default="-", required=False)
def sageev_cmd(input_src):
    """Cube complex of a pocset's ultrafilters."""
    doc = _read_doc(input_src)
    S = Pocset.from_json_dict(doc)
    Y = sageev(S)
    payload = {
        "cells": {str(d): len(Y.cells(d)) for d in range(Y.top_dim + 1)},
        "vertices": sorted(
            ["".join(e) for e in sorted(u)] for u in Y.cells(0)
        ),
    }
    return payload, {"pocset": doc}


# -- duality -----------------------------------------------------------------------------


@_command("duality")
@click.argument("input_src", default="-", required=False)
def duality(input_src):
    """Halfspace pocset round-trip: rebuild the complex from its
    halfspaces and verify the isomorphism."""
    doc = _read_doc(input_src)
    X = CubeComplex.from_json_dict(doc)
    ok, mapping = roller_duality_check(X)
    payload = {"roller_dual": ok, "vertices": len(mapping) if mapping else 0}
    return payload, {"complex": doc}


# -- certify -----------------------------------------------------------------------------


@_command("certify")
@click.argument("input_src", default="-", required=False)
def certify_cmd(input_src):
    """Hyperbolicity certificate for a pair."""
    doc = _read_doc(input_src)
    ga, gb = _load_pair(doc)
    cert = certify(ga, gb)
    return cert.to_json_dict(), {"pair": doc}


# -- export ------------------------------------------------------------------------------


@_command("export")
@click.argument("input_src", default="-", required=False)
@click.option("--out", default=None)
def export(input_src):
    """Re-emit any recognized document in canonical form (round-trip
    stable)."""
    doc = _read_doc(input_src)
    if "gamma_a" in doc:
        ga, gb = _load_pair(doc)
        payload = _pair_doc(ga, gb)
    elif "cubes" in doc:
        payload = CubeComplex.from_json_dict(doc).to_json_dict()
    elif "pairs" in doc:
        payload = Pocset.from_json_dict(doc).to_json_dict()
    elif "n" in doc:
        payload = ColoredComplex.from_json_dict(doc).to_json_dict()
    elif "vertices" in doc:
        payload = SimplicialComplex.from_json_dict(doc).to_json_dict()
    else:
        raise ComplexError("unrecognized document type")
    return payload, {"input": doc}

