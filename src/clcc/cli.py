"""Command-line interface.

All subcommands read JSON (`-` = stdin), write canonical JSON payloads to
stdout, and are pipeline-composable.  Exit codes: 0 success, 1 domain
error (with a structured error payload), 2 usage error.  A one-line run
report goes to stderr; `--report` upgrades it to JSON with the digest of
every document the command read, and timings.
"""

from __future__ import annotations

import contextvars
import functools
import json
import sys
import time
from collections import Counter

import click

from clcc import generators, homology_z2 as hz2
from clcc.canon import canonical_json, digest
from clcc.clcc_core import (
    CubeComplex,
    build_clcc,
    classify_vertex_links,
    conn_graph,
    cube_json,
    dimension,
    is_connected,
    is_npc,
    link_of_cube,
    pair_json,
    smartly_paired,
    vertex_links_json,
)
from clcc.errors import ComplexError, DomainError
from clcc.hyperbolicity import certify
from clcc.pocset_hyperplanes import (
    MAX_CUBES,
    MAX_ULTRAFILTERS,
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


# The documents the running command has read, by role; set by `_command`.
_INPUTS: contextvars.ContextVar[dict] = contextvars.ContextVar("inputs")

# The message of an error raised with no text, as the interpreter raises
# MemoryError when an allocation fails.
_BARE_ERRORS = {MemoryError: "out of memory", RecursionError: "maximum recursion depth exceeded"}


def _read_doc(src: str, role: str) -> dict:
    """The JSON object in a file or, for "-", on stdin; every document the
    commands read is an object.  Both are decoded as strict UTF-8, so
    stdin does not take the locale's error handler.  The document is
    recorded under `role` in the running command's inputs."""
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
    _INPUTS.get()[role] = doc
    return doc


def _simplex_option(ctx, param, value: str) -> CoordSimplex:
    """Parse a simplex given as a JSON object color -> vertex id."""
    try:
        doc = json.loads(value)
        if not isinstance(doc, dict) or not all(isinstance(v, str) for v in doc.values()):
            raise ValueError("not an object of string vertex ids")
        return CoordSimplex.from_json(doc)
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


# What a command declaring `reads=kind` gets as its first argument: the
# document of that kind, parsed.  The kind is also the document's role.
_READERS = {
    "pair": _load_pair,
    "complex": CubeComplex.from_json_dict,
    "pocset": Pocset.from_json_dict,
    "input": lambda doc: doc,
}


def _show_help(ctx, param, value) -> None:
    """The --help callback of `main` and of every command: click's own,
    but echoing to sys.stdout by name, for the reason `_command` gives."""
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color, file=sys.stdout)
        ctx.exit()


_help_option = click.help_option(callback=_show_help)


@click.group()
@_help_option
def main():
    """Coupled-link cube complexes: build, measure, certify."""


def _command(name: str, reads=None, failure=None):
    """Register a subcommand of `main` whose body returns its payload; the
    wrapper adds --report.

    A command that `reads` a kind of document ("pair", "complex",
    "pocset" or the raw "input") gets the INPUT_SRC argument (default
    "-") after its own arguments, and its body gets that document, read
    and parsed through `_READERS`, as its first argument.  Every
    document read through `_read_doc` while the command runs is recorded
    under its role.

    The wrapper times the body, maps a DomainError, MemoryError or
    RecursionError, or an --out path it cannot write, to exit 1 with an
    error payload on stdout, and otherwise writes the canonical payload
    to stdout (or to --out) and a run report to stderr: one line, or
    with --report a JSON object with the input digests and timings.
    Inputs are digested only for that report.  `failure` maps the
    payload to what fails, or None; when something fails, the payload is
    written and reported as usual, the one-line report says what fails,
    and the exit code is 1.

    Every echo names its stream, the help's included (`_show_help`
    replaces click's --help callback).  Without `file=`, click wraps the
    current sys.stdout/sys.stderr and caches the wrapper in a
    WeakKeyDictionary whose value is the stream itself, so each stream
    swapped in by an in-process caller (click.testing.CliRunner) would
    stay alive."""

    def wrap(body):
        @functools.wraps(body)
        def run(out=None, report=False, **params):
            t0 = time.perf_counter()
            inputs: dict = {}
            token = _INPUTS.set(inputs)
            try:
                if reads:
                    doc = _read_doc(params.pop("input_src"), reads)
                    payload = body(_READERS[reads](doc), **params)
                else:
                    payload = body(**params)
                text = canonical_json(payload)
                if out and out != "-":
                    try:
                        with open(out, "w", encoding="utf-8") as fh:
                            fh.write(text + "\n")
                    except OSError as exc:
                        raise ComplexError(f"cannot write {out}: {exc}") from exc
                else:
                    click.echo(text, file=sys.stdout)
            except (DomainError, MemoryError, RecursionError) as exc:
                message = str(exc) or _BARE_ERRORS.get(type(exc), type(exc).__name__)
                error = {"command": name, "type": type(exc).__name__, "message": message}
                click.echo(canonical_json({"error": error}), file=sys.stdout)
                click.echo(f"clcc {name}: error: {message}", file=sys.stderr)
                sys.exit(1)
            finally:
                _INPUTS.reset(token)
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
        if reads:
            command.params.append(click.Argument(["input_src"], default="-", required=False))
        command.params.append(click.Option(["--report"], is_flag=True,
                                           help="JSON run report on stderr"))
        return _help_option(command)

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
    if family == "surface":
        return pair_json(*generators.gen_surface_pair(ka, kb))
    if family == "cycle":
        return generators.gen_cycle(k, colors, n=max(colors)).to_json_dict()
    if family == "crosspolytope":
        return generators.gen_cross_polytope(nn).to_json_dict()
    if family in ("salvetti", "racg"):
        if gamma is None:
            raise ComplexError(f"{family} needs --gamma")
        g = ColoredComplex.from_json_dict(_read_doc(gamma, "gamma"))
        make = generators.gen_salvetti_pair if family == "salvetti" else generators.gen_racg_pair
        return pair_json(*make(g))
    # barycentric
    if gamma is None or lam is None:
        raise ComplexError("barycentric needs --gamma and --lam")

    def load2(src, role):
        if src in PRESET_2COMPLEXES:
            return PRESET_2COMPLEXES[src]()
        return SimplicialComplex.from_json_dict(_read_doc(src, role))

    cmap_a = dict(zip(("V", "E", "F"), colors_a))
    cmap_b = dict(zip(("V", "E", "F"), colors_b))
    return pair_json(*generators.gen_barycentric_pair(
        load2(gamma, "gamma"), load2(lam, "lam"), cmap_a, cmap_b))


# -- build ---------------------------------------------------------------


@_command("build", reads="pair")
@click.option("--out", default=None)
def build(pair):
    """Build the cube complex of a pair."""
    return build_clcc(*pair).to_json_dict()


# -- check ---------------------------------------------------------------


@_command("check", reads="input",
          failure=lambda p: None if p["holds"] else f"{p['property']} fails")
@click.argument("prop", metavar="PROPERTY", type=click.Choice(
    ["flag", "5large", "obes", "pairwise", "smart", "npc"]))
def check(doc, prop):
    """Check a property of a complex (flag/5large/obes) or a pair
    (pairwise/smart/npc); exits 1 with a witness when it fails."""
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
                witness["vertex"] = cube_json(v)
                witness["clique"] = [str(x) for x in clique]
    return {"property": prop, "holds": holds, "witness": witness}


# -- link ------------------------------------------------------------------


@_command("link", reads="pair")
@click.option("--a", "a", default="{}", callback=_simplex_option,
              help='A-side simplex, e.g. {"1": "a0"}')
@click.option("--b", "b", default="{}", callback=_simplex_option, help="B-side simplex")
@click.option("--out", default=None)
def link(pair, a, b):
    """Link of a cube of the pair complex (join of the two simplex links)."""
    X = build_clcc(*pair)
    L = link_of_cube(X, (a, b))
    pretty = L.relabeled(
        {v: (f"{v[0]}:{v[1]}" if isinstance(v, tuple) else v) for v in L.vertex_ids}
    )
    return pretty.to_json_dict()


# -- connect -----------------------------------------------------------------


@_command("connect", reads="pair")
def connect(pair):
    """Connectedness by BFS and, when smartly paired, by the criterion graph."""
    ga, gb = pair
    bfs = is_connected(ga, gb, engine="bfs")
    smart, _ = smartly_paired(ga, gb)
    graph = conn_graph(ga, gb) if smart else None
    crit = graph.is_connected() if smart else None
    nodes = len(graph.nodes) if smart else None
    return {"connected": bfs, "engines": {"bfs": bfs, "criterion": crit},
            "criterion_nodes": nodes}


# -- invariants ---------------------------------------------------------------


@_command("invariants", reads="complex")
@click.argument("what", type=click.Choice(["chi", "dim", "links"]))
def invariants(X, what):
    """Euler characteristic, dimension/purity, or vertex-link tags of a
    built complex."""
    if what == "chi":
        payload = {"chi": X.euler_characteristic()}
    elif what == "dim":
        d, pure = dimension(X)
        payload = {"dim": d, "pure": pure}
    else:
        tags = classify_vertex_links(X)
        payload = {"counts": dict(Counter(tags.values())), "links": vertex_links_json(tags)}
    return payload


# -- homology -------------------------------------------------------------------


@_command("homology", reads="complex")
def homology(X):
    """Betti numbers over Z/2 (both reduced and unreduced are reported;
    `betti` is the unreduced vector)."""
    red, unred = hz2.betti_vectors(X)
    return {
        "betti": list(unred.ranks),
        "reduced": list(red.ranks),
        "unreduced": list(unred.ranks),
        "chi": X.euler_characteristic(),
    }


# -- cycle -----------------------------------------------------------------------


@_command("cycle", reads="pair")
@click.option("--omega-a", default=None, help="chain JSON over gamma_a (default: top cells)")
@click.option("--omega-b", default=None, help="chain JSON over gamma_b (default: top cells)")
@click.option("--out", default=None)
def cycle(pair, omega_a, omega_b):
    """Chain on the pair complex generated by two smartly paired chains."""
    ga, gb = pair

    def load_chain(src, host, role):
        if src is None:
            return hz2.top_chain(host)
        cdoc = _read_doc(src, role)
        if not (
            isinstance(cdoc.get("dim"), int)
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

    wa = load_chain(omega_a, ga, "omega_a")
    wb = load_chain(omega_b, gb, "omega_b")
    out_chain = hz2.clcc_cycle(wa, wb)
    payload = out_chain.to_json_dict()
    payload["is_cycle"] = hz2.is_cycle(out_chain)
    payload["inputs_are_cycles"] = [hz2.is_cycle(wa), hz2.is_cycle(wb)]
    return payload


# -- hyperplanes --------------------------------------------------------------------


@_command("hyperplanes", reads="complex")
def hyperplanes_cmd(X):
    """Hyperplane classes, directions and the crossing graph."""
    hps = hyperplanes(X)
    dirs, valid = directions(X)
    cg = crossing_graph(X)
    return {
        "classes": [
            {"id": h.hid, "edges": len(h.edges), "direction": dirs[h.hid]} for h in hps
        ],
        "directions_valid": valid,
        "crossing": sorted(sorted(e) for e in cg.edges),
        "self_crossing": sorted(cg.self_crossing),
    }


# -- sageev ---------------------------------------------------------------------------


# The limit shared by `sageev` and `duality`: past it, exit 1 with a payload.
_max_ultrafilters = click.option(
    "--max-ultrafilters", type=click.IntRange(min=1), default=MAX_ULTRAFILTERS, show_default=True,
    help="refuse a pocset with more ultrafilters than this",
)


@_command("sageev", reads="pocset")
@_max_ultrafilters
@click.option(
    "--max-cubes", type=click.IntRange(min=1), default=MAX_CUBES, show_default=True,
    help="refuse a rebuild with more cubes than this, vertices included",
)
def sageev_cmd(S, max_ultrafilters, max_cubes):
    """Cube complex of a pocset's ultrafilters."""
    Y = sageev(S, max_ultrafilters, max_cubes)
    return {
        "cells": {str(d): len(Y.cells(d)) for d in range(Y.top_dim + 1)},
        "vertices": sorted(
            ["".join(e) for e in sorted(u)] for u in Y.cells(0)
        ),
    }


# -- duality -----------------------------------------------------------------------------


@_command("duality", reads="complex")
@_max_ultrafilters
def duality(X, max_ultrafilters):
    """Halfspace pocset round-trip: rebuild the complex from its
    halfspaces and verify the isomorphism."""
    ok, mapping = roller_duality_check(X, max_ultrafilters)
    return {"roller_dual": ok, "vertices": len(mapping) if mapping else 0}


# -- certify -----------------------------------------------------------------------------


@_command("certify", reads="pair")
def certify_cmd(pair):
    """Hyperbolicity certificate for a pair."""
    return certify(*pair).to_json_dict()


# -- export ------------------------------------------------------------------------------


@_command("export", reads="input")
@click.option("--out", default=None)
def export(doc):
    """Re-emit any recognized document in canonical form (round-trip
    stable)."""
    if "gamma_a" in doc:
        return pair_json(*_load_pair(doc))
    if "cubes" in doc:
        return CubeComplex.from_json_dict(doc).to_json_dict()
    if "pairs" in doc:
        return Pocset.from_json_dict(doc).to_json_dict()
    if "n" in doc:
        return ColoredComplex.from_json_dict(doc).to_json_dict()
    if "vertices" in doc:
        return SimplicialComplex.from_json_dict(doc).to_json_dict()
    raise ComplexError("unrecognized document type")

