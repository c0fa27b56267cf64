"""Byte-identity gate for the command line.

Every subcommand, with its variants, runs in process on fixed documents;
each run's exit code and the SHA-256 of its stdout must equal the
recorded ones.  The documents: the surface 2x3 pair, its built complex,
that complex with its last cube dropped (it loads with no defining pair,
so its links take the adjacency path), a tree-like complex, c4 and c6, a
non-flag pair, four pocsets, two chain files and the barycentric presets.
The `--help` text of `clcc` and of every subcommand is covered too.

A case's arguments may name a fixture file as "{name}"; the path is not
part of any recorded stdout.  After an intended output change,
`PYTHONPATH=src python tests/test_cli_golden.py` runs every case and
prints, as `GOLDEN` entries, those whose exit code or hash differs from
the recorded one (and those with none recorded).
"""

import hashlib
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from clcc import build_clcc, gen_cross_polytope, gen_cycle, gen_racg_pair, gen_surface_pair
from clcc.canon import canonical_json
from clcc.cli import main
from clcc.simplicial import ColoredComplex

SURFACE_A, SURFACE_B = gen_surface_pair(2, 3)
BUILT = build_clcc(SURFACE_A, SURFACE_B).to_json_dict()
EDGE = {"n": 2, "vertices": [{"id": "v1", "color": 1}, {"id": "v2", "color": 2}],
        "maximal_simplices": [["v1", "v2"]]}
POINT = {"n": 1, "vertices": [{"id": "v1", "color": 1}], "maximal_simplices": [["v1"]]}
HOLLOW = {
    "n": 3,
    "vertices": [{"id": "v1", "color": 1}, {"id": "v2", "color": 2}, {"id": "v3", "color": 3}],
    "maximal_simplices": [["v1", "v2"], ["v2", "v3"], ["v1", "v3"]],
}
DOCS = {
    "pair": {"gamma_a": SURFACE_A.to_json_dict(), "gamma_b": SURFACE_B.to_json_dict()},
    "built": BUILT,
    "partial": {"n": BUILT["n"], "cubes": BUILT["cubes"][:-1]},
    "tree": build_clcc(*gen_racg_pair(ColoredComplex.from_json_dict(POINT))).to_json_dict(),
    "edge": EDGE,
    "c4": gen_cycle(2).to_json_dict(),
    "c6": gen_cycle(3).to_json_dict(),
    "c4c6": {"gamma_a": gen_cycle(2).to_json_dict(),
             "gamma_b": gen_cycle(3, prefix="b").to_json_dict()},
    "hollow": HOLLOW,
    "nonflag": {"gamma_a": HOLLOW, "gamma_b": gen_cross_polytope(3, prefix="b").to_json_dict()},
    "pocset": {"pairs": [{"id": "h"}, {"id": "k"}, {"id": "m"}],
               "less": [["h+", "k+"], ["k+", "m+"]]},
    # two nested pairs and two free ones: the rebuild has cubes of dimension 3
    "pocset_cubes": {"pairs": [{"id": "h"}, {"id": "k"}, {"id": "m"}, {"id": "n"}],
                     "less": [["h+", "k+"]]},
    # an invalid pocset with several violations: the one reported must
    # not depend on the hash seed
    "pocset_bad": {"pairs": [{"id": "p0"}, {"id": "p1"}],
                   "less": [["p0+", "p1-"], ["p1-", "p0+"], ["p1+", "p0+"], ["p1+", "p0-"]]},
    # a+ < b+ < a-: closure makes a+ comparable with its conjugate
    "pocset_conjugate": {"pairs": [{"id": "a"}, {"id": "b"}],
                         "less": [["a+", "b+"], ["b+", "a-"]]},
    "chain_a": {"dim": 1, "cells": [["a0", "a1"], ["a1", "a2"], ["a2", "a3"], ["a0", "a3"]]},
    "chain_b": {"dim": 0, "cells": [["b0"]]},
    "triangle": {"vertices": ["p", "q", "r"], "maximal_simplices": [["p", "q", "r"]]},
    "unknown": {"kind": "none of the above"},
}

# (case id, arguments, the document on stdin or None)
CASES = (
    *((f"help-{cmd}", [cmd, "--help"], None) for cmd in (
        "generate", "build", "check", "link", "connect", "invariants", "homology", "cycle",
        "hyperplanes", "sageev", "duality", "certify", "export")),
    ("help", ["--help"], None),
    ("usage-unknown-command", ["frobnicate"], None),
    ("generate-surface", ["generate", "surface", "--ka", "2", "--kb", "3"], None),
    ("generate-cycle", ["generate", "cycle", "--k", "3", "--colors", "1,3"], None),
    ("generate-cycle-bad-colors", ["generate", "cycle", "--colors", "1,1"], None),
    ("generate-crosspolytope", ["generate", "crosspolytope", "--n", "3"], None),
    ("generate-salvetti", ["generate", "salvetti", "--gamma", "-"], "edge"),
    ("generate-salvetti-c4", ["generate", "salvetti", "--gamma", "-"], "c4"),
    ("generate-racg", ["generate", "racg", "--gamma", "{c4}"], None),
    ("generate-salvetti-no-gamma", ["generate", "salvetti"], None),
    ("generate-barycentric-presets",
     ["generate", "barycentric", "--gamma", "triangle", "--lam", "tetrahedron"], None),
    ("generate-barycentric-files", ["generate", "barycentric", "--gamma", "{triangle}",
                                    "--lam", "{triangle}", "--colors-b", "3,1,2"], None),
    ("generate-barycentric-same-edge-color", ["generate", "barycentric", "--gamma", "triangle",
                                              "--lam", "triangle", "--colors-b", "1,2,3"], None),
    ("build", ["build"], "pair"),
    ("build-pair-option", ["build", "{pair}"], None),
    ("build-not-a-pair", ["build", "-"], "c4"),
    ("build-malformed-json", ["build", "-"], "{last"),
    ("check-flag", ["check", "flag", "-"], "c4"),
    ("check-flag-fails", ["check", "flag", "{hollow}"], None),
    ("check-5large-fails", ["check", "5large"], "c4"),
    ("check-5large", ["check", "5large", "-"], "c6"),
    ("check-obes", ["check", "obes", "-"], "c6"),
    ("check-pairwise", ["check", "pairwise", "-"], "c4c6"),
    ("check-smart", ["check", "smart"], "pair"),
    ("check-npc", ["check", "npc", "-"], "pair"),
    ("check-npc-fails", ["check", "npc", "-"], "nonflag"),
    ("check-two-properties", ["check", "flag", "obes", "-"], "c4"),
    ("link-vertex", ["link", "-", "--a", '{"1": "a0"}', "--b", '{"2": "b1"}'], "pair"),
    ("link-edge", ["link", "--a", '{"1": "a0", "2": "a1"}', "--b", '{"2": "b1"}'], "pair"),
    ("link-not-a-cube", ["link", "-", "--a", '{"1": "a0"}'], "pair"),
    ("link-bad-simplex", ["link", "-", "--a", "notjson"], "pair"),
    ("connect", ["connect"], "pair"),
    ("connect-c4c6", ["connect", "-"], "c4c6"),
    ("invariants-chi", ["invariants", "chi", "-"], "built"),
    ("invariants-dim", ["invariants", "dim"], "built"),
    ("invariants-links", ["invariants", "links", "-"], "built"),
    ("invariants-links-partial", ["invariants", "links", "-"], "partial"),
    ("invariants-bad-what", ["invariants", "genus", "-"], "built"),
    ("homology", ["homology", "-"], "built"),
    # `betti` is always the unreduced vector: --reduced is not an option
    ("homology-reduced", ["homology", "--reduced", "{built}"], None),
    ("homology-partial", ["homology"], "partial"),
    ("homology-not-an-object", ["homology", "-"], "[]"),
    ("cycle", ["cycle", "-"], "pair"),
    ("cycle-chains", ["cycle", "-", "--omega-a", "{chain_a}", "--omega-b", "{chain_b}"], "pair"),
    ("cycle-bad-chain", ["cycle", "{pair}", "--omega-a", "-"], "c4"),
    ("hyperplanes", ["hyperplanes"], "built"),
    ("hyperplanes-tree", ["hyperplanes", "-"], "tree"),
    ("hyperplanes-partial", ["hyperplanes", "-"], "partial"),
    ("sageev", ["sageev", "-"], "pocset"),
    ("sageev-cubes", ["sageev", "-"], "pocset_cubes"),
    ("sageev-invalid", ["sageev"], "pocset_bad"),
    ("sageev-conjugate", ["sageev", "-"], "pocset_conjugate"),
    # four ultrafilters against a limit of three
    ("sageev-ultrafilter-limit", ["sageev", "--max-ultrafilters", "3", "-"], "pocset"),
    ("duality", ["duality", "-"], "tree"),
    ("duality-surface", ["duality", "-"], "built"),
    ("duality-partial", ["duality", "-"], "partial"),
    ("certify", ["certify", "-"], "pair"),
    ("certify-c4c6", ["certify"], "c4c6"),
    ("certify-nonflag", ["certify", "{nonflag}"], None),
    ("export-pair", ["export", "-"], "pair"),
    ("export-built", ["export"], "built"),
    ("export-partial", ["export", "-"], "partial"),
    ("export-pocset", ["export", "{pocset}"], None),
    ("export-colored", ["export", "-"], "c6"),
    ("export-simplicial", ["export", "-"], "triangle"),
    ("export-unknown", ["export", "-"], "unknown"),
)

# (exit code, SHA-256 of stdout) per case
GOLDEN = {
    "help-generate": (0, "1be9bf2efd0527f5b2a08fc9db8c4258f15015057c548d79b1d310e4af724da0"),
    "help-build": (0, "5fe0ef2dba21d9696ec235c12ea052f3adb30b0022d8403188c0c87d39e38122"),
    "help-check": (0, "fc617569dbd85cea0e7f84ce2ef84a9ff7c2941183ebbe564bbb8a0d62a20748"),
    "help-link": (0, "33a93073b7d519aae98c91a0a3612670e6414e5ac64d024d06c6ec4ba243eaa8"),
    "help-connect": (0, "16c8d98111f034f9e1b292c09bdc4684a5364357d74d48a1ecd786cfa98bfdd3"),
    "help-invariants": (0, "03893b12a0e4aae1b27001990d53bba24f307fd014938f2cd87375108aee9f97"),
    "help-homology": (0, "d9cdda4419136d85614b81b84be30de8e660f43c43eb9a6dfe79662353e53bbf"),
    "help-cycle": (0, "24c8cc434b16fbec0c95f7f2b90cbbf11db570b2416adfdb155d6a5878f8f338"),
    "help-hyperplanes": (0, "4943f9d0bc585db0420de4c3ac42b7b5e26d2a70de0eec96ece07d8fc0f0e7a5"),
    "help-sageev": (0, "f3b13aacf94d11ee1fab871d96174c38e8a685011fcc77ccd0d9d60afb084b48"),
    "help-duality": (0, "10d161edb5e936953e548c956f02ed3f7abfec146570a6d3ae27dd6544604829"),
    "help-certify": (0, "bd6ec9729019c128a04598ed0acca88f09e73e7aa2b75200e1ffdc1631b33aa3"),
    "help-export": (0, "52a792908892a6ea8a9f87bd26f3e544fffe3fd77b5fd8e872f5ab51ca64609c"),
    "help": (0, "1d2a697905cea7f4a22e746988ac0ff6640f77929ced4ac2a3bb4e2c53be2f60"),
    "usage-unknown-command": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "generate-surface": (0, "9e5de00894c2988b0daafbf7aac00230c80bab59bfb7eca0e200651dc1a0f8d3"),
    "generate-cycle": (0, "3b8dd4ec6b965d64a12d2ab5d6a8c327f295b7d9d64d4eccf031f97245721982"),
    "generate-cycle-bad-colors": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "generate-crosspolytope": (0, "064fb9d07cc74b5e6c03e10b3ec314ee0bef9d8f641f502ce16ea2d6ab5f5785"),
    "generate-salvetti": (0, "d66e0f191719dc6935823e2c2a901452b7dfc82107aa6b834a9b76a93312e601"),
    "generate-salvetti-c4": (1, "35455ceb7f5807665c02848806a3b7eef10fa55a6c6e1ec35cf8547e7d98934c"),
    "generate-racg": (0, "7746e91ed263f036630c5e31fa5aaceaf8da9811245b55bfbdb979b4111fd712"),
    "generate-salvetti-no-gamma": (1, "1cb0f8d883a7c14c0ee0f450d625428fef347245a9ae9154f64b7b0bc5b794ba"),
    "generate-barycentric-presets": (0, "e89eee3489adc9676a02427b3f5d1b3485d021ac5315be5978504144b3ed2fe3"),
    "generate-barycentric-files": (0, "7e1386643e7a23a4e585917568f30ce76494a1d9eaf6dc4fab5257cf20a538b5"),
    "generate-barycentric-same-edge-color": (1, "512efed953ae90f60cf40afce140def935671b274bd2bb8a716174616153c06a"),
    "build": (0, "8fbebf5d6944f012521de0e154bcba3b77ed1899b9d8b9d902a5d2d954c53c52"),
    "build-pair-option": (0, "8fbebf5d6944f012521de0e154bcba3b77ed1899b9d8b9d902a5d2d954c53c52"),
    "build-not-a-pair": (1, "c1be03f785ac012a98bac7423d6aacc74f746d478df096d40eb28bf92c5e7543"),
    "build-malformed-json": (1, "e5adebc6078c3ff538d49a7bdd73b0045ba44ecad21c46737c7cfb688a506305"),
    "check-flag": (0, "82a275ae03c11836e02538b7b27816285b433925cff9fa3970e04e746022eab4"),
    "check-flag-fails": (1, "939667ca416774daa1322af53def0929c19a71ca44e89ccaa2afd666bd5faf7f"),
    "check-5large-fails": (1, "2461125104f0f388d6a1ae5ce960d0ac6abf23431ee6ae83eea78e1a02c24690"),
    "check-5large": (0, "bfbfe0ec30d6d8e2b388ea658073b92e8d987b7eac9043bcdd00cfbe83319db1"),
    "check-obes": (0, "e0bd7531f24f5d5eaf35e6b1c4ab1d404957773a0723440d96c99806e479b35b"),
    "check-pairwise": (0, "84df927d8f2b65bc4c03c8fb691012a85b1ed1e805bc7b5829b8f0b272dff75a"),
    "check-smart": (0, "a700bde3c56e96233ecd7eb6b63339185da48a42678661d988be604cc7b70617"),
    "check-npc": (0, "a6b03eed8c5e23d3e6d2dbf462c5246310398da0a3cd114db8717a0bb37c4568"),
    "check-npc-fails": (1, "ebfefc37b14f1f623317801f36cc4fd5854c9a4eccc80d1d3d69019c776acdb1"),
    "check-two-properties": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "link-vertex": (0, "b700df0c57eb558f7a3ded483d8955fbf00530266842b70c5056b9956d3b3202"),
    "link-edge": (0, "ebefe78be5a39126fc1fbced2ee484dc12957071d3da3645c9711de3e60b91c1"),
    "link-not-a-cube": (1, "b0636b8d6bf314eac7c776eb1c38f926c3a37bec62c4a888588b760e3664c327"),
    "link-bad-simplex": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "connect": (0, "b3329f72635bb65015a05b76532db2efc0936a256e7badd10606b96c96ef47e8"),
    "connect-c4c6": (0, "b3329f72635bb65015a05b76532db2efc0936a256e7badd10606b96c96ef47e8"),
    "invariants-chi": (0, "d1b6ecfeba9ab0e8702de81c17516a3ea4adc18962f4ec4a92472aaeb42e7c07"),
    "invariants-dim": (0, "3d3f5fe8f52e431cce011efde6fe4f4fa8de1f551ff27bac5e6dd17d69327c0e"),
    "invariants-links": (0, "13241ab6c59af740435ef086c120f42d30e220f69573a2911b1c105d774a25c2"),
    "invariants-links-partial": (0, "8753027233eb3ebf7ad9328f21e7579ebd7bbe66fbc97ecd85ec2d64bc72e80c"),
    "invariants-bad-what": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "homology": (0, "91f97f240b41762e395c1692b74ec79157a6a5b87601531578b2d03ae6ef4849"),
    "homology-reduced": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "homology-partial": (0, "75f7d7f6fe6e8bfb539fa4737cd4362205327633e2b26fe62cd7573aa84d2e32"),
    "homology-not-an-object": (1, "48c8190d5bd6fe43c7c453745d4a26eb9e4e6348fffa025643aa386e5ba9722b"),
    "cycle": (0, "f0ca4f931d5c6badcd9503d712e6caed9a76a794e6b2ac8c5b073110fe1c5806"),
    "cycle-chains": (0, "3a5aa14303dc9f88ebf685b916340d9827db63d4edf313eef99685c4a8dcc6b0"),
    "cycle-bad-chain": (1, "5e5f40afc926aa672d488417b2fe389ec7bea769cd93da00996a5043edd7fc2f"),
    "hyperplanes": (0, "170cb619e2a02812648dc2b352950caad3f6f871f013f12234f0252ae109771e"),
    "hyperplanes-tree": (0, "0095bd7f11e2488b0d05fa1595489d4a3a8a964d082048b35d60ad48581b3966"),
    "hyperplanes-partial": (0, "af203a20081d4cafc09e70f84e6a6affcb2b361a49deb9942a6adf8ee2ba889a"),
    "sageev": (0, "6dcef75c1ef568a47d567659df20d06ede064c1bda8487aab14624b22f71c389"),
    "sageev-cubes": (0, "221a4460e4e4b2695a3b4dd67e5169059d998a3aaea517dd99230af12ebf0443"),
    # recorded once the reported pocset violation stopped depending on the hash seed
    "sageev-invalid": (1, "7438835476c2f0eca79613b2126f2a3c9967eeaa9f05950e7f5c0968470e70d5"),
    # recorded before the pocset order moved to bitmask rows
    "sageev-conjugate": (1, "b05d2153518f7c6b14cdd88e2d7c9351582eecabf51d6a54b5ab9d3ec5f07e47"),
    "sageev-ultrafilter-limit": (1, "36e5348bee4853e46faa7b0643190592ff437ecc2a76a08d5822280aa35e503e"),
    "duality": (0, "f33bfaeffcee8fc6d65a1f11e53b759eaad245c3ee5b038e69ef37ff9e733591"),
    "duality-surface": (1, "a899738c78aff7c11a4f500c587bf8c0dfccc62ed12783f9f8d2e1ed8d091a3f"),
    "duality-partial": (1, "a899738c78aff7c11a4f500c587bf8c0dfccc62ed12783f9f8d2e1ed8d091a3f"),
    "certify": (0, "6c53f41578c345712e7df5cc00b20002945113d3ff6ef1e2f6ed44adab7d52bb"),
    "certify-c4c6": (0, "3df7f26a176c818b29b076cd11bccd8ba265c2b21530d4af6fb03d127b5a7792"),
    "certify-nonflag": (0, "6b6db76d9b75797271b9506b0a422af030ee5532feb33b4c2449e36461a5b882"),
    "export-pair": (0, "9e5de00894c2988b0daafbf7aac00230c80bab59bfb7eca0e200651dc1a0f8d3"),
    "export-built": (0, "8fbebf5d6944f012521de0e154bcba3b77ed1899b9d8b9d902a5d2d954c53c52"),
    "export-partial": (0, "6d0ac0f4b754f94d4c4e77e67290d8a58450c6dec13d96df84f90dd28cb6ddb9"),
    "export-pocset": (0, "84ca62a5417ac7bda7c98e79a6584334fb1e3be0e33ae2df5822f1b8c494c601"),
    "export-colored": (0, "550ee2f8477b8285fb6b3027cd3bad3b3efb30bc34efc79a8dd4a865df88cfe1"),
    "export-simplicial": (0, "c6cd8fb4aa3eb97e500a8b8b3599b5beabc1ccbc4636bb097baae2d6b6d9d98f"),
    "export-unknown": (1, "0213d75744a769d5ff7d9486eafb16e4399e5d63a5084e925c000f15a90c0222"),
}


def _text(name: str) -> str:
    if name in ("{last", "[]"):  # malformed documents, given as they are
        return name
    return canonical_json(DOCS[name])


def run_case(case, paths: dict) -> tuple[int, str]:
    _, args, stdin = case
    args = [paths.get(a[1:-1], a) if a.startswith("{") else a for a in args]
    result = CliRunner().invoke(main, args, input=None if stdin is None else _text(stdin))
    return result.exit_code, hashlib.sha256(result.stdout_bytes).hexdigest()


def write_docs(root: Path) -> dict:
    """Write every document into `root`; returns its path by name."""
    out = {}
    for name in DOCS:
        path = root / f"{name}.json"
        path.write_text(_text(name), encoding="utf-8")
        out[name] = str(path)
    return out


@pytest.fixture(scope="module")
def paths(tmp_path_factory) -> dict:
    return write_docs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_cli_output_is_byte_identical(case, paths):
    assert run_case(case, paths) == GOLDEN[case[0]]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        fixture_paths = write_docs(Path(tmp))
        for case in CASES:
            code, sha = run_case(case, fixture_paths)
            if GOLDEN.get(case[0]) != (code, sha):
                print(f'    "{case[0]}": ({code}, "{sha}"),')
