import json
import os
import subprocess
import sys

import clcc
from clcc.canon import canonical_json

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
    p = run(["check", "--flag", "-"], stdin=bad, check=False)
    assert p.returncode == 1
    doc = out_json(p)
    assert doc["holds"] is False
    assert sorted(doc["witness"]) == ["v1", "v2", "v3"]


def test_check_smart_and_npc():
    pair = run(["generate", "surface", "--ka", "2", "--kb", "3"]).stdout
    assert out_json(run(["check", "smart", "-"], stdin=pair))["holds"] is True
    assert out_json(run(["check", "npc", "-"], stdin=pair))["holds"] is True


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


def test_domain_error_exit_1():
    # torus quotient has one-sided hyperplane classes
    pair = run(["generate", "surface", "--ka", "2", "--kb", "2"]).stdout
    complex_doc = run(["build", "-"], stdin=pair).stdout
    p = run(["duality", "-"], stdin=complex_doc, check=False)
    assert p.returncode == 1
    assert out_json(p)["error"]["type"] == "NotTwoSidedError"


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


def test_hyperplanes_payload():
    pair = run(["generate", "surface", "--ka", "2", "--kb", "2"]).stdout
    complex_doc = run(["build", "-"], stdin=pair).stdout
    got = out_json(run(["hyperplanes", "-"], stdin=complex_doc))
    assert len(got["classes"]) == 8
    assert got["directions_valid"] is True
    assert len(got["crossing"]) == 16


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


def test_build_with_pair_and_out_options(tmp_path):
    pair_file = tmp_path / "pair.json"
    out_file = tmp_path / "complex.json"
    run(["generate", "surface", "--ka", "2", "--kb", "3", "--out", str(pair_file)])
    run(["build", "--pair", str(pair_file), "--out", str(out_file)])
    got = out_json(run(["homology", str(out_file)]))
    assert got["unreduced"] == [1, 4, 1]


def test_generate_crosspolytope_and_obes():
    o3 = run(["generate", "crosspolytope", "--n", "3"]).stdout
    assert out_json(run(["check", "obes", "-"], stdin=o3))["holds"] is True


def test_link_malformed_simplex_is_usage_error():
    pair = run(["generate", "surface", "--ka", "2", "--kb", "3"]).stdout
    for option in ("--a", "--b"):
        for spec in ("notjson", '{"x":"a0"}', "[1]", '{"1": 5}'):
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
