import gc
import inspect
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import clcc
from clcc import CubeComplex, build_clcc, gen_cross_polytope, gen_cycle, gen_surface_pair
from clcc.canon import canonical_json, digest
from clcc.cli import main
from clcc.simplicial import ColoredComplex

from oracles import crossing_graph_reference, hyperplane_classes_reference

CLCC = [sys.executable, "-m", "clcc"]

# The child process imports the same source tree as this test process.
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(clcc.__file__)))
_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
)


def run(args, stdin=None, check=True):
    p = subprocess.run(
        CLCC + args, input=stdin, capture_output=True, text=True, env=_ENV
    )
    if check and p.returncode != 0:
        raise AssertionError(f"clcc {args} failed: {p.stderr}\n{p.stdout}")
    return p


def out_json(p):
    return json.loads(p.stdout)


def test_pipeline_surface_homology():
    pair = run(["generate", "surface", "--ka", "2", "--kb", "3"]).stdout
    complex_doc = run(["build", "-"], stdin=pair).stdout
    got = out_json(run(["homology", "-"], stdin=complex_doc))
    assert got["unreduced"] == [1, 4, 1]
    assert got["reduced"] == [0, 4, 1]
    assert got["chi"] == -2


def test_certify_surface_pair():
    pair = run(["generate", "surface", "--ka", "2", "--kb", "3"]).stdout
    cert = out_json(run(["certify", "-"], stdin=pair))
    assert cert["verdict"] == "Hyperbolic"


def test_certify_torus_pair_unknown():
    pair = run(["generate", "surface", "--ka", "2", "--kb", "2"]).stdout
    cert = out_json(run(["certify", "-"], stdin=pair))
    assert cert["verdict"] == "Unknown"


def test_check_flag_failure_has_witness_and_exit_1():
    bad = canonical_json(
        {
            "n": 3,
            "vertices": [
                {"id": "v1", "color": 1},
                {"id": "v2", "color": 2},
                {"id": "v3", "color": 3},
            ],
            "maximal_simplices": [["v1", "v2"], ["v2", "v3"], ["v1", "v3"]],
        }
    )
    p = run(["check", "flag", "-"], stdin=bad, check=False)
    assert p.returncode == 1
    doc = out_json(p)
    assert doc["holds"] is False
    assert sorted(doc["witness"]) == ["v1", "v2", "v3"]


def test_check_smart_and_npc():
    pair = run(["generate", "surface", "--ka", "2", "--kb", "3"]).stdout
    assert out_json(run(["check", "smart", "-"], stdin=pair))["holds"] is True
    assert out_json(run(["check", "npc", "-"], stdin=pair))["holds"] is True


def test_check_npc_refuses_mismatched_n():
    pair = canonical_json({"gamma_a": gen_cycle(3).to_json_dict(),
                           "gamma_b": gen_cross_polytope(3, prefix="b").to_json_dict()})
    p = run(["check", "npc", "-"], stdin=pair, check=False)
    assert p.returncode == 1
    error = {"command": "check", "type": "PairError", "message": "color counts differ: 2 vs 3"}
    assert out_json(p) == {"error": error}


def test_check_5large_positive():
    c6 = run(["generate", "cycle", "--k", "3"]).stdout
    assert out_json(run(["check", "5large", "-"], stdin=c6))["holds"] is True


def test_usage_error_exit_2():
    p = run(["frobnicate"], check=False)
    assert p.returncode == 2
    p = run(["check", "-"], check=False)  # no property selected
    assert p.returncode == 2


def test_malformed_json_exit_1():
    p = run(["build", "-"], stdin="{last", check=False)
    assert p.returncode == 1
    assert "error" in out_json(p)


MALFORMED_JSON = {
    "not-utf8": b"\xff\xfe{}",
    "not-utf8-in-a-vertex-id": b'{"n": 1, "vertices": [{"id": "a\xff", "color": 1}], '
                               b'"maximal_simplices": [["a\xff"]]}',
    "nested-200000-deep": b"[" * 200_000 + b"]" * 200_000,
    "5000-digit-number": b'{"n": ' + b"9" * 5000 + b"}",
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_JSON))
def test_undecodable_json_is_a_structured_error(tmp_path, kind):
    data = MALFORMED_JSON[kind]
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    for args, stdin in ((["export", str(path)], None), (["export", "-"], data)):
        p = subprocess.run(CLCC + args, input=stdin, capture_output=True, env=_ENV)
        assert p.returncode == 1, (args, p.stderr)
        assert "malformed JSON" in json.loads(p.stdout)["error"]["message"]
        assert b"Traceback" not in p.stderr


def test_domain_error_exit_1():
    # torus quotient has one-sided hyperplane classes
    pair = run(["generate", "surface", "--ka", "2", "--kb", "2"]).stdout
    complex_doc = run(["build", "-"], stdin=pair).stdout
    p = run(["duality", "-"], stdin=complex_doc, check=False)
    assert p.returncode == 1
    assert out_json(p)["error"]["type"] == "NotTwoSidedError"


def test_duality_of_a_disconnected_complex_exits_1():
    # two color-1 points against a 4-cycle: two disjoint 4-cycles, where
    # every hyperplane's cut leaves two parts
    pair = {
        "gamma_a": {"n": 2, "vertices": [{"id": "v0", "color": 1}, {"id": "v1", "color": 1}],
                    "maximal_simplices": [["v0"], ["v1"]]},
        "gamma_b": {"n": 2, "vertices": [{"id": f"s{i}", "color": 1 + i % 2} for i in range(4)],
                    "maximal_simplices": [["s0", "s1"], ["s0", "s3"], ["s2", "s1"], ["s2", "s3"]]},
    }
    complex_doc = run(["build", "-"], stdin=canonical_json(pair)).stdout
    p = run(["duality", "-"], stdin=complex_doc, check=False)
    assert p.returncode == 1
    assert out_json(p)["error"] == {
        "command": "duality",
        "message": "the complex is not connected: no edge of h0 joins its sides",
        "type": "NotTwoSidedError",
    }


def test_duality_on_tree_like_pair():
    gamma = canonical_json(
        {"n": 1, "vertices": [{"id": "v1", "color": 1}], "maximal_simplices": [["v1"]]}
    )
    pair = run(["generate", "racg", "--gamma", "-"], stdin=gamma).stdout
    complex_doc = run(["build", "-"], stdin=pair).stdout
    got = out_json(run(["duality", "-"], stdin=complex_doc))
    assert got["roller_dual"] is True
    assert got["vertices"] == 3


def test_connect_and_invariants():
    pair = run(["generate", "surface", "--ka", "2", "--kb", "3"]).stdout
    got = out_json(run(["connect", "-"], stdin=pair))
    assert got["connected"] is True and got["engines"]["criterion"] is True
    complex_doc = run(["build", "-"], stdin=pair).stdout
    assert out_json(run(["invariants", "chi", "-"], stdin=complex_doc)) == {"chi": -2}
    dim = out_json(run(["invariants", "dim", "-"], stdin=complex_doc))
    assert dim == {"dim": 2, "pure": True}
    links = out_json(run(["invariants", "links", "-"], stdin=complex_doc))
    assert links["counts"] == {"circle": 22}


def hyperplanes_payload_reference(X) -> dict:
    """The `clcc hyperplanes` payload from the naive hyperplane classes
    and crossing graph; a class's direction is its edges' overlap color."""
    classes = []
    for i, edges in enumerate(hyperplane_classes_reference(X)):
        colors = {c for a, b in edges for c in a.colors & b.colors}
        assert len(colors) == 1
        classes.append({"id": f"h{i}", "edges": len(edges), "direction": colors.pop()})
    cg = crossing_graph_reference(X)
    return {
        "classes": classes,
        "directions_valid": True,
        "crossing": sorted(sorted(e) for e in cg.edges),
        "self_crossing": sorted(cg.self_crossing),
    }


def test_hyperplanes_payload():
    pair = run(["generate", "surface", "--ka", "2", "--kb", "2"]).stdout
    complex_doc = run(["build", "-"], stdin=pair).stdout
    got = out_json(run(["hyperplanes", "-"], stdin=complex_doc))
    assert len(got["classes"]) == 8
    assert got["directions_valid"] is True
    assert len(got["crossing"]) == 16
    barycentric = run(["generate", "barycentric", "--gamma", "tetrahedron",
                       "--lam", "tetrahedron"]).stdout
    pairs = [
        run(["generate", "surface", "--ka", "5", "--kb", "6"]).stdout,
        canonical_json({"gamma_a": gen_cross_polytope(3).to_json_dict(),
                        "gamma_b": gen_cross_polytope(3, prefix="b").to_json_dict()}),
        barycentric,
    ]
    for pair in pairs:
        complex_doc = run(["build", "-"], stdin=pair).stdout
        X = CubeComplex.from_json_dict(json.loads(complex_doc))
        want = canonical_json(hyperplanes_payload_reference(X)) + "\n"
        assert run(["hyperplanes", "-"], stdin=complex_doc).stdout == want


def test_link_subcommand():
    pair = run(["generate", "surface", "--ka", "2", "--kb", "3"]).stdout
    got = out_json(
        run(["link", "-", "--a", '{"1": "a0", "2": "a1"}', "--b", "{}"], stdin=pair)
    )
    # link of a maximal-A vertex is the 6-cycle
    assert len(got["vertices"]) == 6
    assert len(got["maximal_simplices"]) == 6


def test_cycle_subcommand():
    pair = run(["generate", "surface", "--ka", "2", "--kb", "3"]).stdout
    got = out_json(run(["cycle", "-"], stdin=pair))
    assert got["dim"] == 2
    assert got["is_cycle"] is True
    assert len(got["cells"]) == 24


def test_cycle_subcommand_with_explicit_chains(tmp_path):
    pair = run(["generate", "surface", "--ka", "2", "--kb", "3"]).stdout
    wa = tmp_path / "wa.json"
    wa.write_text(
        canonical_json(
            {"dim": 1, "cells": [["a0", "a1"], ["a1", "a2"], ["a2", "a3"], ["a0", "a3"]]}
        )
    )
    broken = tmp_path / "wb.json"
    broken.write_text(canonical_json({"dim": 1, "cells": [["b0", "b1"]]}))
    got = out_json(
        run(["cycle", "-", "--omega-a", str(wa), "--omega-b", str(broken)], stdin=pair)
    )
    assert got["inputs_are_cycles"] == [True, False]
    assert got["is_cycle"] is False


def test_generate_salvetti():
    gamma = canonical_json(
        {
            "n": 2,
            "vertices": [{"id": "v1", "color": 1}, {"id": "v2", "color": 2}],
            "maximal_simplices": [["v1", "v2"]],
        }
    )
    pair = run(["generate", "salvetti", "--gamma", "-"], stdin=gamma).stdout
    got = out_json(run(["build", "-"], stdin=pair))
    assert got["n"] == 2 and len(got["cubes"]) == 16 + 32 + 16


def test_sageev_subcommand():
    pocset = canonical_json(
        {"pairs": [{"id": "h"}, {"id": "k"}], "less": [["h+", "k+"]]}
    )
    got = out_json(run(["sageev", "-"], stdin=pocset))
    assert got["cells"] == {"0": "3", "1": "2"} or got["cells"] == {"0": 3, "1": 2}


def test_export_roundtrip_is_byte_stable():
    pair = run(["generate", "surface", "--ka", "2", "--kb", "2"]).stdout
    once = run(["export", "-"], stdin=pair).stdout
    twice = run(["export", "-"], stdin=once).stdout
    assert once == twice
    doc = json.loads(once)
    assert canonical_json(doc) == once.strip()


def test_generate_barycentric_with_presets():
    pair = run(
        [
            "generate", "barycentric",
            "--gamma", "tetrahedron", "--lam", "tetrahedron",
            "--colors-a", "1,2,3", "--colors-b", "2,1,3",
        ]
    ).stdout
    cert = out_json(run(["certify", "-"], stdin=pair))
    assert cert["verdict"] == "Hyperbolic"


def test_build_from_a_file_with_out_option(tmp_path):
    pair_file = tmp_path / "pair.json"
    out_file = tmp_path / "complex.json"
    run(["generate", "surface", "--ka", "2", "--kb", "3", "--out", str(pair_file)])
    run(["build", str(pair_file), "--out", str(out_file)])
    got = out_json(run(["homology", str(out_file)]))
    assert got["unreduced"] == [1, 4, 1]


def test_out_into_a_missing_directory_is_a_structured_error(tmp_path):
    pair = run(["generate", "surface", "--ka", "2", "--kb", "3"]).stdout
    out_file = str(tmp_path / "missing" / "complex.json")
    p = run(["build", "-", "--out", out_file], stdin=pair, check=False)
    assert p.returncode == 1
    error = out_json(p)["error"]
    assert error["command"] == "build" and out_file in error["message"]
    assert "Traceback" not in p.stderr


def test_generate_crosspolytope_and_obes():
    o3 = run(["generate", "crosspolytope", "--n", "3"]).stdout
    assert out_json(run(["check", "obes", "-"], stdin=o3))["holds"] is True


def test_link_malformed_simplex_is_usage_error():
    pair = run(["generate", "surface", "--ka", "2", "--kb", "3"]).stdout
    for option in ("--a", "--b"):
        for spec in ("notjson", '{"x":"a0"}', "[1]", '{"1": 5}', '{"1": "a0", "01": "a1"}'):
            p = run(["link", "-", option, spec], stdin=pair, check=False)
            assert p.returncode == 2
            assert option in p.stderr
            assert "Traceback" not in p.stderr


def test_generate_cycle_bad_colors_is_usage_error():
    for colors in ("1", "1,2,3", "2,2", "0,1", "x,1"):
        p = run(["generate", "cycle", "--colors", colors], check=False)
        assert p.returncode == 2
        assert "--colors" in p.stderr
        assert "Traceback" not in p.stderr
    doc = out_json(run(["generate", "cycle", "--colors", "1,3"]))
    assert doc["n"] == 3


def test_generate_barycentric_bad_colors_is_usage_error():
    base = ["generate", "barycentric", "--gamma", "tetrahedron", "--lam", "tetrahedron"]
    for option in ("--colors-a", "--colors-b"):
        for colors in ("1", "x,y,z", "1,1,2", "0,1,2", "1,2,3,4"):
            p = run(base + [option, colors], check=False)
            assert p.returncode == 2
            assert option in p.stderr
            assert "Traceback" not in p.stderr


def test_malformed_documents_are_structured_errors():
    pocset = canonical_json({"pairs": [{"id": "p"}], "less": [["p+"]]})
    p = run(["sageev", "-"], stdin=pocset, check=False)
    assert p.returncode == 1
    assert out_json(p)["error"]["type"] == "PocsetError"
    vertex = {"a": {"1": "a0"}, "b": {"2": "b0"}, "dim": 5}
    for doc in ({"n": 2, "cubes": [vertex]}, {"n": "2", "cubes": []}):
        p = run(["homology", "-"], stdin=canonical_json(doc), check=False)
        assert p.returncode == 1
        assert out_json(p)["error"]["type"] == "ComplexError"
        assert "Traceback" not in p.stderr


def test_export_refuses_what_it_could_not_write_back():
    """A side that spells one color twice, and an uncolored document with
    an id that is not a string, would each re-export as another document."""
    respelled = {"n": 2, "cubes": [{"a": {"1": "x", "01": "y", "2": "z"}, "b": {}, "dim": 0}]}
    uncolored = {"vertices": [1, "1"], "maximal_simplices": [[1], ["1"]]}
    for doc, text in ((respelled, "malformed cube complex document: duplicate color"),
                      (uncolored, "vertices and maximal simplices must be lists of string ids")):
        p = run(["export", "-"], stdin=canonical_json(doc), check=False)
        assert p.returncode == 1
        error = out_json(p)["error"]
        assert (error["type"], error["message"][:len(text)]) == ("ComplexError", text)
        assert "Traceback" not in p.stderr


@pytest.mark.parametrize(
    "chain_doc",
    [
        {"cells": [["a0", "a1"]]},
        {"dim": 1},
        [],
        {"dim": "x", "cells": [["a0", "a1"]]},
        {"dim": 1, "cells": 5},
        {"dim": 1, "cells": [5]},
        {"dim": True, "cells": [["a0", "a1"]]},
    ],
)
def test_cycle_malformed_chain_is_structured_error(tmp_path, chain_doc):
    pair = run(["generate", "surface", "--ka", "2", "--kb", "3"]).stdout
    bad = tmp_path / "chain.json"
    bad.write_text(canonical_json(chain_doc))
    for option in ("--omega-a", "--omega-b"):
        p = run(["cycle", "-", option, str(bad)], stdin=pair, check=False)
        assert p.returncode == 1
        assert out_json(p)["error"]["type"] == "ComplexError"
        assert "Traceback" not in p.stderr


def _limit_address_space():
    # about 1 GB: enough for the interpreter, far too little for {1..n}
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_huge_n_in_a_tiny_document_is_cheap():
    n = 100_000_000
    empty = {"n": n, "vertices": [], "maximal_simplices": []}
    pair = canonical_json({"gamma_a": empty, "gamma_b": empty})
    complex_doc = canonical_json({"n": n, "cubes": []})
    vertex = {"n": n, "vertices": [{"id": "v", "color": 1}], "maximal_simplices": [["v"]]}
    points = canonical_json({"gamma_a": vertex, "gamma_b": vertex})
    point = canonical_json(vertex)
    outputs = {}
    for command, doc in (("homology", complex_doc), ("hyperplanes", complex_doc),
                         ("build", pair), ("connect", pair), ("connect", points),
                         ("check npc", points), ("check pairwise", points), ("certify", points),
                         ("check smart", points), ("check flag", point),
                         ("check 5large", point), ("check obes", point)):
        p = subprocess.run(
            CLCC + command.split() + ["-"], input=doc, capture_output=True, text=True,
            env=_ENV, preexec_fn=_limit_address_space, timeout=60,
        )
        # a smart pair needs a partner of the one vertex: n - 1 missing colors
        assert p.returncode == (1 if command == "check smart" else 0), p.stderr
        outputs[command, doc] = out_json(p)
    assert outputs["build", pair] == {"n": n, "cubes": []}
    assert outputs["connect", pair]["connected"] is False
    assert outputs["check smart", points]["witness"] == {"side": "A", "simplex": ["v"]}
    for prop in ("flag", "5large", "obes"):
        assert outputs[f"check {prop}", point]["holds"] is True


def test_a_pocset_past_the_ultrafilter_limit_exits_1_at_once():
    # the free pocset of 18 pairs has 2^18 ultrafilters and 3^18 cubes: a
    # document of about 300 bytes that ran out of memory without a limit;
    # the walk stops at the first ultrafilter past the default limit
    limit = 1 << 16
    free = canonical_json({"pairs": [{"id": f"p{i}"} for i in range(18)], "less": []})
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    p = subprocess.run(
        CLCC + ["sageev", "-"], input=free, capture_output=True, text=True,
        env=_ENV, preexec_fn=_limit_address_space, timeout=60,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    assert p.returncode == 1, p.stderr
    assert out_json(p)["error"] == {
        "command": "sageev",
        "message": f"the pocset has more than {limit} ultrafilters (max_ultrafilters={limit})",
        "type": "DomainError",
    }
    assert cpu < 1.0


def _limit_address_space_to_2_gb():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_a_pocset_past_the_cube_limit_exits_1_with_a_payload():
    # the free pocset of 16 pairs is within the ultrafilter limit (2^16
    # ultrafilters) but has 3^16 cubes: with no cube limit it ran out of
    # memory under 2 GB and ended in a raw SystemError traceback with no
    # payload; the cubes are counted as they are grown
    message = "the ultrafilter complex has more than 1048576 cubes (max_cubes=1048576)"
    free = canonical_json({"pairs": [{"id": f"p{i}"} for i in range(16)], "less": []})
    p = subprocess.run(
        CLCC + ["sageev", "-"], input=free, capture_output=True, text=True,
        env=_ENV, preexec_fn=_limit_address_space_to_2_gb, timeout=120,
    )
    assert p.returncode == 1, p.stderr
    assert out_json(p)["error"] == {"command": "sageev", "message": message, "type": "DomainError"}
    assert p.stderr == f"clcc sageev: error: {message}\n"


def test_the_cube_limit_is_a_flag_of_sageev():
    # h+ < k+ < m+: four ultrafilters and three edges, seven cubes
    chain = canonical_json({"pairs": [{"id": "h"}, {"id": "k"}, {"id": "m"}],
                            "less": [["h+", "k+"], ["k+", "m+"]]})
    assert out_json(run(["sageev", "--max-cubes", "7", "-"], stdin=chain))["cells"] == {
        "0": 4, "1": 3}
    for limit in (6, 3):
        p = run(["sageev", "--max-cubes", str(limit), "-"], stdin=chain, check=False)
        assert p.returncode == 1
        assert out_json(p)["error"]["message"] == (
            f"the ultrafilter complex has more than {limit} cubes (max_cubes={limit})")
    assert run(["sageev", "--max-cubes", "0", "-"], stdin=chain, check=False).returncode == 2


def test_the_ultrafilter_limit_is_a_flag_of_sageev_and_duality():
    # h+ < k+ < m+: four ultrafilters; the rebuild of the tree-like
    # complex of a point pair has three vertices, so three ultrafilters
    chain = canonical_json({"pairs": [{"id": "h"}, {"id": "k"}, {"id": "m"}],
                            "less": [["h+", "k+"], ["k+", "m+"]]})
    assert out_json(run(["sageev", "--max-ultrafilters", "4", "-"], stdin=chain))["cells"] == {
        "0": 4, "1": 3}
    p = run(["sageev", "--max-ultrafilters", "3", "-"], stdin=chain, check=False)
    assert p.returncode == 1
    assert out_json(p)["error"]["message"] == (
        "the pocset has more than 3 ultrafilters (max_ultrafilters=3)")
    point = {"n": 1, "vertices": [{"id": "v1", "color": 1}], "maximal_simplices": [["v1"]]}
    pair = run(["generate", "racg", "--gamma", "-"], stdin=canonical_json(point)).stdout
    complex_doc = run(["build", "-"], stdin=pair).stdout
    assert out_json(run(["duality", "--max-ultrafilters", "3", "-"], stdin=complex_doc)) == {
        "roller_dual": True, "vertices": 3}
    p = run(["duality", "--max-ultrafilters", "2", "-"], stdin=complex_doc, check=False)
    assert p.returncode == 1
    assert out_json(p)["error"] == {
        "command": "duality",
        "message": "the pocset has more than 2 ultrafilters (max_ultrafilters=2)",
        "type": "DomainError",
    }
    assert run(["sageev", "--max-ultrafilters", "0", "-"], stdin=chain, check=False).returncode == 2


def test_colors_near_a_huge_n_are_cheap():
    # a color set is a mask with bit c for color c, so 200 vertices of
    # colors near n = 10^8 would make 200 masks of 12.5 MB each if a pair
    # built them before finding that n passes its vertex counts
    n = 100_000_000
    vertices = [{"id": f"v{k}", "color": n - k} for k in range(200)]
    side = {"n": n, "vertices": vertices, "maximal_simplices": [[v["id"]] for v in vertices]}
    pair = canonical_json({"gamma_a": side, "gamma_b": side})
    for command in ("build", "connect", "check smart", "certify"):
        p = subprocess.run(
            CLCC + command.split() + ["-"], input=pair, capture_output=True, text=True,
            env=_ENV, preexec_fn=_limit_address_space, timeout=60,
        )
        assert p.returncode == (1 if command == "check smart" else 0), p.stderr
        if command == "build":
            assert out_json(p) == {"n": n, "cubes": []}


def test_a_wide_side_in_a_tiny_document_is_cheap():
    # one vertex whose a-side has 40 colors: the factor that side spans has
    # 2^40 faces, so loading must take the cubes as given
    n = 40
    doc = canonical_json({"n": n, "cubes": [
        {"a": {str(c): f"a{c}" for c in range(1, n + 1)}, "b": {}, "dim": 0}]})
    for command in ("invariants links", "homology", "hyperplanes", "export"):
        p = subprocess.run(
            CLCC + command.split() + ["-"], input=doc, capture_output=True, text=True,
            env=_ENV, preexec_fn=_limit_address_space, timeout=60,
        )
        assert p.returncode == 0, p.stderr
        if command == "export":
            assert p.stdout == doc + "\n"


def test_a_very_wide_side_is_refused_before_its_faces_are_walked():
    # a side of 2^|side| > budget faces is refused at once; walking it
    # would first make |side| faces of |side| - 1 entries each.  Checked
    # on the factor alone, at a width whose document would take a while
    # to parse
    code = (
        "from clcc.clcc_core import CoordSimplex, _spanned_factor\n"
        "n = 50_000\n"
        "side = CoordSimplex(tuple((c, f'a{c}') for c in range(1, n + 1)))\n"
        "assert _spanned_factor(n, [side], 8) is None\n"
    )
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=_ENV, preexec_fn=_limit_address_space, timeout=60)
    assert p.returncode == 0, p.stderr


def test_a_20000_color_side_loads_in_linear_time():
    # cube assembly looks up a side's face without color i only for the
    # overlap colors i of its cubes: a 0-cube needs none, so one cube on a
    # 20,000-color side is read in time linear in the document
    n = 20_000
    doc = canonical_json({"n": n, "cubes": [
        {"a": {str(c): f"a{c}" for c in range(1, n + 1)}, "b": {}, "dim": 0}]})
    start = time.perf_counter()
    p = subprocess.run(
        CLCC + ["homology", "-"], input=doc, capture_output=True, text=True,
        env=_ENV, preexec_fn=_limit_address_space, timeout=60,
    )
    assert time.perf_counter() - start < 5
    assert p.returncode == 0, p.stderr
    assert out_json(p)["betti"] == [1]


def test_a_sparse_document_of_a_dense_pair_is_cheap():
    # k a-vertices of color 1 and k b-vertices of color 2 span a pair with
    # k^2 cubes; the document lists 4k of them, so the loader must stop
    # counting the pair's cubes past 4k and take the cubes as given
    k = 5000
    doc = canonical_json({"n": 2, "cubes": [
        {"a": {"1": f"x{i}"}, "b": {"2": f"y{(i + d) % k}"}, "dim": 0}
        for i in range(k) for d in range(4)]})
    for command in ("invariants links", "homology"):
        p = subprocess.run(
            CLCC + command.split() + ["-"], input=doc, capture_output=True, text=True,
            env=_ENV, preexec_fn=_limit_address_space, timeout=60,
        )
        assert p.returncode == 0, p.stderr
        if command == "homology":
            assert out_json(p)["betti"] == [4 * k]


def _square_side(n, colors, prefix):
    ids = [f"{prefix}{k}" for k in range(4)]
    return {
        "n": n,
        "vertices": [{"id": v, "color": colors[k % 2]} for k, v in enumerate(ids)],
        "maximal_simplices": [[ids[k], ids[(k + 1) % 4]] for k in range(4)],
    }


def test_certify_rule_2_witness_does_not_grow_with_n():
    # a bicolor square on colors 1,2 on one side and on 3,4 on the other:
    # rule 2 fires, and its witness lists only the color pairs of gamma_a
    n = 3000
    pair = canonical_json({"gamma_a": _square_side(n, (1, 2), "a"),
                           "gamma_b": _square_side(n, (3, 4), "b")})
    p = subprocess.run(
        CLCC + ["certify", "-"], input=pair, capture_output=True, text=True,
        env=_ENV, preexec_fn=_limit_address_space, timeout=20,
    )
    assert p.returncode == 0, p.stderr
    cert = out_json(p)
    assert cert["rule"] == "pairwise-5-large+obes"
    assert cert["witness"] == {"pair_5_large_side": {"1,2": "B"}}


# -- random documents never end in a traceback -------------------------------------------

FIELDS = ("n", "cubes", "a", "b", "dim", "gamma_a", "gamma_b", "vertices", "id", "color",
          "maximal_simplices", "pairs", "less", "cells")
# small integers and few, short containers keep every exponential step tiny
_scalars = (
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-2, 4)
    | st.sampled_from(["", "1", "2", "a0", "a1", "b0", "v1", "p", "p+", "p-", "q+"])
)
_keys = st.sampled_from(FIELDS + ("1", "2", "3")) | st.text("abn12+", max_size=3)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_keys, inner, max_size=5),
    max_leaves=24,
)


def _or_junk(valid):
    """Mostly a well-typed value, sometimes any JSON value at all."""
    return st.one_of(valid, valid, valid, _json)


def _list(elements, max_size=4):
    return _or_junk(st.lists(elements, max_size=max_size))


_ids = _or_junk(st.sampled_from(["a0", "a1", "b0", "b1", "v1", "p", "q"]))
_colors = _or_junk(st.integers(1, 3))
_colored_shape = st.fixed_dictionaries({
    "n": _colors,
    "vertices": _list(st.fixed_dictionaries({"id": _ids, "color": _colors})),
    "maximal_simplices": _list(_list(_ids, 3)),
})
_coords = _or_junk(st.dictionaries(st.sampled_from(["1", "2", "3", "x"]), _ids, max_size=3))
# documents shaped like each kind the commands read, with junk anywhere
_shaped = st.one_of(
    _colored_shape,
    st.fixed_dictionaries({"gamma_a": _or_junk(_colored_shape), "gamma_b": _or_junk(_colored_shape)}),
    st.fixed_dictionaries({"n": _colors, "cubes": _list(st.fixed_dictionaries(
        {"a": _coords, "b": _coords}, optional={"dim": _colors}))}),
    st.fixed_dictionaries({
        "pairs": _list(st.fixed_dictionaries({"id": _ids})),
        "less": _list(_list(_or_junk(st.sampled_from(["p+", "p-", "q+", "q-", "p"])), 2)),
    }),
    st.fixed_dictionaries({"vertices": _list(_ids), "maximal_simplices": _list(_list(_ids, 3))}),
    st.fixed_dictionaries({"dim": _colors, "cells": _list(_list(_ids, 3))}),
)


@st.composite
def _colored_doc(draw, n):
    colors = draw(st.dictionaries(st.sampled_from(["a0", "a1", "a2", "b0", "b1"]),
                                  st.integers(1, n), min_size=n, max_size=5))
    ids = sorted(colors)
    picks = draw(st.lists(st.lists(st.sampled_from(ids), max_size=3, unique=True), max_size=4)
                 if ids else st.just([]))
    return {
        "n": n,
        "vertices": [{"id": v, "color": c} for v, c in colors.items()],
        # a simplex has at most one vertex of each color
        "maximal_simplices": [m for m in picks if len({colors[v] for v in m}) == len(m)],
    }


@st.composite
def _pair_document(draw):
    n = draw(st.integers(1, 3))
    return {"gamma_a": draw(_colored_doc(n)), "gamma_b": draw(_colored_doc(n))}


@st.composite
def _cube_doc(draw):
    pair = draw(_pair_document())
    built = build_clcc(*(ColoredComplex.from_json_dict(pair[k]) for k in ("gamma_a", "gamma_b")))
    doc = built.to_json_dict()
    # dropping a cube may leave another without a facet
    doc["cubes"] = [c for c in doc["cubes"] if draw(st.integers(0, 9))]
    return doc


_pocset_doc = st.fixed_dictionaries({
    "pairs": st.lists(st.sampled_from(["p", "q", "r"]), max_size=3, unique=True).map(
        lambda ids: [{"id": i} for i in ids]),
    "less": st.lists(st.lists(st.sampled_from(["p+", "p-", "q+", "q-", "r+"]),
                              min_size=2, max_size=2), max_size=4),
})
_chain_doc = st.fixed_dictionaries({
    "dim": st.integers(-1, 2),
    "cells": st.lists(st.lists(st.sampled_from(["a0", "a1", "a2", "b0", "b1", "b2"]),
                               max_size=3, unique=True), max_size=4),
})


@st.composite
def _mutated(draw, docs):
    """A well-formed document with the value of one field replaced."""
    doc = dict(draw(docs))
    doc[draw(st.sampled_from(sorted(doc)))] = draw(_json)
    return doc


def _docs(valid):
    return st.one_of(valid, valid, valid, _mutated(valid), _shaped, st.dictionaries(_keys, _json),
                     _json)


_colored_any = st.integers(1, 3).flatmap(_colored_doc)
_KINDS = {
    "pair": _pair_document(), "complex": _colored_any, "cubes": _cube_doc(), "pocset": _pocset_doc,
    "any": st.one_of(_pair_document(), _colored_any, _cube_doc(), _pocset_doc),
}
FILE_COMMANDS = (
    *((["check", prop], "complex") for prop in ("flag", "5large", "obes")),
    *((["check", prop], "pair") for prop in ("pairwise", "smart", "npc")),
    *(([cmd], "pair") for cmd in ("build", "link", "connect", "certify")),
    *(([cmd], "cubes") for cmd in ("homology", "hyperplanes", "duality")),
    *((["invariants", what], "cubes") for what in ("chi", "dim", "links")),
    (["sageev"], "pocset"),
    (["export"], "any"),
)


def _assert_no_traceback(result):
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(
        result.exception
    )


@pytest.mark.parametrize("command, kind", FILE_COMMANDS, ids=lambda x: " ".join(x) if isinstance(x, list) else x)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_random_json_never_ends_in_a_traceback(command, kind, data):
    doc = data.draw(_docs(_KINDS[kind]))
    result = CliRunner().invoke(main, command + ["-"], input=json.dumps(doc))
    _assert_no_traceback(result)


_PAIR = json.dumps(
    {"gamma_a": gen_cycle(2, prefix="a").to_json_dict(),
     "gamma_b": gen_cycle(3, prefix="b").to_json_dict()}
)


@given(stdin=st.none() | _docs(_pair_document()), chain_doc=_docs(_chain_doc))
@settings(max_examples=100, deadline=None)
def test_random_chain_json_never_ends_in_a_traceback(stdin, chain_doc):
    # the pair on stdin is mostly a fixed valid one, so that the chain is read
    with tempfile.TemporaryDirectory() as tmp:
        chain_file = os.path.join(tmp, "chain.json")
        with open(chain_file, "w", encoding="utf-8") as fh:
            json.dump(chain_doc, fh)
        for option in ("--omega-a", "--omega-b"):
            result = CliRunner().invoke(
                main, ["cycle", "-", option, chain_file],
                input=_PAIR if stdin is None else json.dumps(stdin),
            )
            _assert_no_traceback(result)


# -- in-process invocations --------------------------------------------------------------


def test_every_input_argument_comes_from_the_command_wrapper():
    # `_command(reads=...)` adds INPUT_SRC and hands the body the parsed
    # document, so no command body takes the argument itself
    readers = []
    for name, command in main.commands.items():
        if any(param.name == "input_src" for param in command.params):
            body = command.callback.__wrapped__
            assert "input_src" not in inspect.signature(body).parameters, name
            readers.append(name)
    assert sorted(readers) == sorted(set(main.commands) - {"generate"})


@pytest.mark.parametrize("exc, message", [
    pytest.param(MemoryError("out of room"), "out of room", id="MemoryError"),
    pytest.param(RecursionError("out of room"), "out of room", id="RecursionError"),
    # an allocation that fails raises MemoryError with no text
    pytest.param(MemoryError(), "out of memory", id="bare-MemoryError"),
    pytest.param(RecursionError(), "maximum recursion depth exceeded", id="bare-RecursionError"),
])
def test_memory_and_recursion_errors_exit_1_with_a_payload(monkeypatch, exc, message):
    def body_raises(S, max_ultrafilters, max_cubes):
        raise exc

    monkeypatch.setattr("clcc.cli.sageev", body_raises)
    pocset = canonical_json({"pairs": [{"id": "h"}], "less": []})
    result = CliRunner().invoke(main, ["sageev", "-"], input=pocset)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    error = {"command": "sageev", "type": type(exc).__name__, "message": message}
    assert json.loads(result.stdout) == {"error": error}
    assert result.stderr == f"clcc sageev: error: {message}\n"


def test_report_digests_each_input_document(tmp_path):
    runner = CliRunner()
    pair = runner.invoke(main, ["generate", "surface", "--ka", "2", "--kb", "3"]).stdout
    complex_doc = runner.invoke(main, ["build", "-"], input=pair).stdout
    c4 = runner.invoke(main, ["generate", "cycle", "--k", "2"]).stdout
    point = canonical_json({"n": 1, "vertices": [{"id": "v1", "color": 1}],
                            "maximal_simplices": [["v1"]]})
    tree_pair = runner.invoke(main, ["generate", "racg", "--gamma", "-"], input=point).stdout
    tree = runner.invoke(main, ["build", "-"], input=tree_pair).stdout
    pocset = canonical_json({"pairs": [{"id": "h"}, {"id": "k"}], "less": [["h+", "k+"]]})
    triangle = canonical_json({"vertices": ["p", "q", "r"], "maximal_simplices": [["p", "q", "r"]]})
    chain_a = canonical_json({"dim": 1, "cells": [["a0", "a1"], ["a1", "a2"]]})
    chain_b = canonical_json({"dim": 0, "cells": [["b0"]]})
    files = {}
    for name, text in (("pair", pair), ("c4", c4), ("triangle", triangle),
                       ("chain_a", chain_a), ("chain_b", chain_b)):
        files[name] = str(tmp_path / f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    # (arguments, stdin, the documents read by role, exit code)
    for args, stdin, inputs, code in (
        (["generate", "surface"], None, {}, 0),
        (["generate", "racg", "--gamma", "-"], c4, {"gamma": c4}, 0),
        (["generate", "racg", "--gamma", files["c4"]], None, {"gamma": c4}, 0),
        (["generate", "barycentric", "--gamma", "triangle", "--lam", "tetrahedron"], None, {}, 0),
        (["generate", "barycentric", "--gamma", files["triangle"], "--lam", files["triangle"],
          "--colors-b", "3,1,2"], None, {"gamma": triangle, "lam": triangle}, 0),
        (["generate", "barycentric", "--gamma", "tetrahedron", "--lam", files["triangle"]],
         None, {"lam": triangle}, 0),
        (["build", "-"], pair, {"pair": pair}, 0),
        (["build", files["pair"]], None, {"pair": pair}, 0),
        (["check", "5large", "-"], c4, {"input": c4}, 1),
        (["check", "flag", files["c4"]], None, {"input": c4}, 0),
        (["link", "-", "--a", '{"1": "a0"}', "--b", '{"2": "b1"}'], pair, {"pair": pair}, 0),
        (["connect", "-"], pair, {"pair": pair}, 0),
        (["invariants", "links", "-"], complex_doc, {"complex": complex_doc}, 0),
        (["homology", "-"], complex_doc, {"complex": complex_doc}, 0),
        (["cycle", "-"], pair, {"pair": pair}, 0),
        (["cycle", "-", "--omega-a", files["chain_a"], "--omega-b", files["chain_b"]], pair,
         {"pair": pair, "omega_a": chain_a, "omega_b": chain_b}, 0),
        (["cycle", files["pair"], "--omega-b", "-"], chain_b,
         {"pair": pair, "omega_b": chain_b}, 0),
        (["hyperplanes", "-"], complex_doc, {"complex": complex_doc}, 0),
        (["sageev", "-"], pocset, {"pocset": pocset}, 0),
        (["duality", "-"], tree, {"complex": tree}, 0),
        (["certify", "-"], pair, {"pair": pair}, 0),
        (["export", "-"], pocset, {"input": pocset}, 0),
    ):
        result = runner.invoke(main, args + ["--report"], input=stdin)
        assert result.exit_code == code, (args, result.stderr)
        plain = runner.invoke(main, args, input=stdin)
        assert (plain.exit_code, plain.stdout) == (code, result.stdout)
        line = f"clcc {args[0]}: ok (" if code == 0 else f"clcc {args[0]}: 5large fails\n"
        assert plain.stderr.startswith(line), plain.stderr
        report = json.loads(result.stderr)
        assert set(report) == {"command", "inputs", "result_digest", "timings"}
        assert report["command"] == args[0]
        assert report["inputs"] == {role: digest(json.loads(doc)) for role, doc in inputs.items()}
        assert report["result_digest"] == digest(json.loads(result.stdout))
        assert set(report["timings"]) == {"total_ms"}
        assert report["timings"]["total_ms"] >= 0


def _capture_streams() -> list:
    gc.collect()
    return [
        o for o in gc.get_objects()
        if isinstance(o, io.TextIOWrapper) and type(o).__module__ == "click.testing"
    ]


def test_in_process_invocations_keep_no_capture_stream():
    # CliRunner swaps fresh streams in as sys.stdout and sys.stderr for each
    # invocation; an echo that does not name its stream makes click cache a
    # wrapper keyed by, and holding, the swapped-in stream, so it never dies
    runner = CliRunner()
    pair = runner.invoke(main, ["generate", "surface", "--ka", "2", "--kb", "3"]).stdout
    c4 = runner.invoke(main, ["generate", "cycle", "--k", "2"]).stdout
    for _ in range(4):
        assert runner.invoke(main, ["build", "-"], input=pair).exit_code == 0
        assert runner.invoke(main, ["certify", "-", "--report"], input=pair).exit_code == 0
        assert runner.invoke(main, ["check", "5large", "-"], input=c4).exit_code == 1
        assert runner.invoke(main, ["homology", "-"], input="[]").exit_code == 1
        assert runner.invoke(main, ["frobnicate"]).exit_code == 2
    for args in (["--help"], *([name, "--help"] for name in main.commands)):
        result = runner.invoke(main, args)
        assert result.exit_code == 0 and result.stdout.startswith("Usage: "), args
    assert _capture_streams() == []


def test_pocset_error_does_not_depend_on_the_hash_seed():
    # the relations break several axioms; the one reported is the first
    # in sorted order, whatever the hash seed
    doc = canonical_json({"pairs": [{"id": "p0"}, {"id": "p1"}],
                          "less": [["p0+", "p1-"], ["p1-", "p0+"], ["p1+", "p0+"], ["p1+", "p0-"]]})
    outs = set()
    for seed in ("1", "2", "3", "4"):
        p = subprocess.run(CLCC + ["sageev", "-"], input=doc, capture_output=True, text=True,
                           env=dict(_ENV, PYTHONHASHSEED=seed))
        assert p.returncode == 1, p.stderr
        outs.add(p.stdout)
    assert len(outs) == 1, outs


def test_cube_documents_do_not_depend_on_the_hash_seed():
    # the side forms are memoized by the sides' hashes, which a string's
    # hash makes differ between processes
    ga, gb = gen_surface_pair(2, 3)
    pair = canonical_json({"gamma_a": ga.to_json_dict(), "gamma_b": gb.to_json_dict()})
    outs = set()
    for seed in ("1", "2"):
        env = dict(_ENV, PYTHONHASHSEED=seed)
        built = subprocess.run(CLCC + ["build", "-"], input=pair, capture_output=True,
                               text=True, env=env, check=True).stdout
        runs = [subprocess.run(CLCC + args, input=built, capture_output=True, text=True,
                               env=env, check=True).stdout
                for args in (["export", "-"], ["invariants", "links", "-"])]
        outs.add((built, *runs))
    assert len(outs) == 1
