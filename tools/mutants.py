"""Committed mutants for the fast paths: each must make its named tests fail.

Usage, from the repository root:

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py 3 7        # the mutants numbered 3 and 7

Each entry of MUTANTS is (file, exact old text, new text, the tests that
must fail).  The old text must occur exactly once in its file; if any
does not, the command names it and exits 2 before running anything, so
the list cannot go stale unseen.  Then the named tests run once on an
unmutated copy of the tree (they must pass there), and for each mutant
the tree is copied to a temporary directory, the mutant applied, and its
tests run with `pytest -x`.  It prints "killed" when they fail, and
"survived" when they pass.  The exit code is 0 only when every mutant is
killed.  A mutant that survives stays on the list and is reported as a
fault of the tests.  This is not part of Tier-1; a full run takes about
a minute on two cores.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CORE = "src/clcc/clcc_core.py"
SIMPLICIAL = "src/clcc/simplicial.py"
POCSET = "src/clcc/pocset_hyperplanes.py"
HYPERBOLICITY = "src/clcc/hyperbolicity.py"
GENERATORS = "src/clcc/generators.py"
FACTOR_LINKS = "tests/test_factor_links.py"
CUBE_JSON = "tests/test_cube_json.py"
WALK = "tests/test_halfspace_walk.py"

MUTANTS = [
    (  # clearing switched off: every row of each boundary matrix is eliminated
        SIMPLICIAL,
        "kept = [ps for q, ps in enumerate(self.facet_positions(k)) if q not in cleared]",
        "kept = list(self.facet_positions(k))",
        ["tests/test_homology.py::test_clearing_reaches_every_boundary_matrix_below_the_top",
         "tests/test_homology.py::test_both_vectors_and_every_later_ask_share_one_set_of_eliminations"],
    ),
    (  # rank ∂1 read with the component count off by one
        SIMPLICIAL,
        "ranks[1] = len(roots) - len(set(roots))",
        "ranks[1] = len(roots) - len(set(roots)) + 1",
        ["tests/test_homology.py::test_boundary_ranks_equal_the_full_elimination_on_the_corpus_and_census",
         "tests/test_homology.py::test_betti_torus"],
    ),
    (  # the boundary ranks recomputed on every ask: each Betti vector eliminates again
        SIMPLICIAL,
        "    @cached_property\n    def boundary_ranks(self)",
        "    @property\n    def boundary_ranks(self)",
        ["tests/test_homology.py::test_both_vectors_and_every_later_ask_share_one_set_of_eliminations"],
    ),
    (  # the opposition walk no longer checks a square's second pair
        CORE,
        "        if x == u or x == v or y == u or y == v:  # g meets h\n",
        "        if False:  # g meets h\n",
        ["tests/test_hyperplane_cache.py::test_square_without_two_opposite_pairs_raises"],
    ),
    (  # the final union-find pass run downwards
        SIMPLICIAL,
        "    for x in range(count):\n        root[x] = root[root[x]]",
        "    for x in reversed(range(count)):\n        root[x] = root[root[x]]",
        ["tests/test_shared_helpers.py::test_component_roots_equal_networkx_components"],
    ),
    (  # sageev grows a cube by the pairs p ascending
        POCSET,
        "pairs = [(p, 1 << p) for p in reversed(range(shift))]",
        "pairs = [(p, 1 << p) for p in range(shift)]",
        ["tests/test_canonical_order.py::test_sageev_sweep_matches_reference"],
    ),
    (  # sageev without the p < min T bound
        POCSET,
        "                if p < low:\n",
        "                if True:\n",
        ["tests/test_canonical_order.py::test_sageev_sweep_matches_reference"],
    ),
    (  # maximal simplices: any common neighbour counts as an extension
        SIMPLICIAL,
        "                if m | low in masks:\n",
        "                if True:\n",
        ["tests/test_shared_helpers.py::test_maximal_simplices_equal_the_pairwise_comparison",
         "tests/test_factor_view.py::test_views_match_the_references_on_the_census_and_built_factors"],
    ),
    (  # cliques (and so the flag witness) grown from the highest bit
        SIMPLICIAL,
        "                low = after & -after\n",
        "                low = 1 << after.bit_length() - 1\n",
        ["tests/test_shared_helpers.py::test_cliques_equal_every_pairwise_adjacent_subset",
         "tests/test_simplicial.py::test_flag_matches_reference_on_corpus"],
    ),
    (  # the square scan without the u > v bound
        SIMPLICIAL,
        "        for u in _bits(nv & above):\n",
        "        for u in _bits(nv):\n",
        ["tests/test_shared_helpers.py::test_chordless_squares_equal_the_four_tuple_scan",
         "tests/test_factor_predicates.py::test_square_scan_matches_per_pair_subcomplex_scans"],
    ),
    (  # the complement of a color mask taken as ~mask, in `_partners`
        SIMPLICIAL,
        "return self._buckets.get(self._full ^ mask, ())",
        "return self._buckets.get(~mask, ())",
        ["tests/test_factor_view.py::test_pair_predicates_match_the_references",
         "tests/test_factor_predicates.py::test_prune_matches_the_pruning_loop"],
    ),
    (  # the complement of a color mask taken as ~mask, in the covering buckets
        CORE,
        "stack = [(full ^ colors, colors, ())]",
        "stack = [(~colors, colors, ())]",
        ["tests/test_facet_table.py::test_pair_cube_counts_equal_the_built_complex",
         "tests/test_shared_helpers.py::test_both_connectivity_engines_equal_the_built_complex_and_networkx"],
    ),
    (  # the covering buckets read before the vertex counts are checked
        CORE,
        "    if n > len(gamma_a._colors) + len(gamma_b._colors):\n        return\n",
        "",
        ["tests/test_cli.py::test_colors_near_a_huge_n_are_cheap"],
    ),
    (  # the partnered buckets read before the vertex counts are checked
        CORE,
        "    if K.n > len(K._colors) + len(other._colors):\n        return []\n",
        "",
        ["tests/test_cli.py::test_colors_near_a_huge_n_are_cheap"],
    ),
    (  # a factor's squares scanned on every ask
        SIMPLICIAL,
        "    @cached_property\n    def _square_ranks(self)",
        "    @property\n    def _square_ranks(self)",
        ["tests/test_factor_predicates.py::test_certify_scans_each_factor_once"],
    ),
    (  # a host's cliques scanned on every ask
        SIMPLICIAL,
        "    @cached_property\n    def _flag_witness(self)",
        "    @property\n    def _flag_witness(self)",
        ["tests/test_factor_predicates.py::test_flagness_is_asked_once_per_complex"],
    ),
    (  # the halfspace sides read off the walk's signs under swapped signs
        POCSET,
        "masks += (plus, full ^ plus)",
        "masks += (full ^ plus, plus)",
        ["tests/test_hyperplane_cache.py::test_seeded_pairs_match_references",
         "tests/test_hyperplane_cache.py::test_generic_hosts_match_references"],
    ),
    (  # the join rule asks a non-adjacent pair of one side only
        HYPERBOLICITY,
        "return square_a or square_b or (gap_a and gap_b)",
        "return square_a or square_b or (gap_a or gap_b)",
        [f"{FACTOR_LINKS}::test_factor_links_match_adjacency_links_on_random_flag_pairs"],
    ),
    (  # the common neighbours of a simplex skip its first vertex
        SIMPLICIAL,
        "        for _, v in s.entries:\n            common &= adj",
        "        for _, v in s.entries[1:]:\n            common &= adj",
        ["tests/test_simplicial.py::test_flag_link_squares_are_read_off_the_view",
         f"{FACTOR_LINKS}::test_factor_links_match_adjacency_links_on_random_flag_pairs"],
    ),
    (  # a join of two point sets tagged a circle when one side has two points
        CORE,
        'return "circle" if la.size == lb.size == 2 else "other"',
        'return "circle" if la.size == 2 else "other"',
        [f"{FACTOR_LINKS}::test_factor_links_match_adjacency_links_on_fixtures",
         f"{FACTOR_LINKS}::test_factor_links_match_adjacency_links_on_random_smart_pairs"],
    ),
    (  # the 2-sphere test content with at least one flag component per link
        # vertex, which every link has (`<=` is no mutant: a vertex's flags
        # join only each other, so there are never fewer components)
        CORE,
        "return len(set(component_roots(2 * len(edges), joins))) == len(verts)",
        "return len(set(component_roots(2 * len(edges), joins))) >= len(verts)",
        [f"{FACTOR_LINKS}::test_link_tags_equal_the_scanning_classifier",
         f"{FACTOR_LINKS}::test_star_tags_equal_the_reference_on_every_host"],
    ),
    (  # a hyperplane's direction read off one end of its first edge, not the overlap
        POCSET,
        "min(a.colors & b.colors) for i, (a, b) in enumerate(firsts)",
        "min(a.colors) for i, (a, b) in enumerate(firsts)",
        ["tests/test_hyperplane_cache.py::test_pair_hosts_match_references",
         "tests/test_hyperplane_cache.py::test_seeded_pairs_match_references"],
    ),
    (  # halfspaces of a complex with two components accepted by the cuts
        POCSET,
        "    if not any((signs[u] ^ signs[v]) & bit[0] for",
        "    if False and any((signs[u] ^ signs[v]) & bit[0] for",
        ["tests/test_pocset.py::test_halfspaces_of_a_disconnected_complex_are_refused",
         "tests/test_hyperplane_cache.py::test_seeded_pairs_match_references"],
    ),
    (  # the a - i facet never put first
        CORE,
        "last = overlap[-1] == sa[ra[0]].entries[-1][0]  # a - i before a",
        "last = False  # a - i before a",
        ["tests/test_canonical_order.py::test_pair_complexes_are_canonical"],
    ),
    (  # a union hangs the smaller root under the larger
        SIMPLICIAL,
        "        elif v < u:\n            root[u] = v\n",
        "        elif v < u:\n            root[v] = u\n",
        ["tests/test_shared_helpers.py::test_component_roots_equal_networkx_components"],
    ),
    (  # the loader's check cache keyed without the declared dim
        CORE,
        "key = (ca, cb, dim) if text",
        "key = (ca, cb) if text",
        ["tests/test_cell_store.py::test_the_bad_cube_after_good_ones_on_its_colorsets_is_named"],
    ),
    (  # flag completion refuses a one-color edge before an undeclared endpoint
        GENERATORS,
        "    if unknown:\n",
        "    if unknown and not clashes:\n",
        ["tests/test_generators.py::test_flag_complex_from_graph_error_precedence"],
    ),
    (  # flag completion names the largest one-color edge
        GENERATORS,
        "a, b = min(clashes,",
        "a, b = max(clashes,",
        ["tests/test_generators.py::test_flag_complex_from_graph_error_precedence"],
    ),
    (  # the one-vertex-per-color check never finds a repeated color
        SIMPLICIAL,
        "        if c in seen:\n",
        "        if False:\n",
        ["tests/test_hyperbolicity.py::test_certify_racg_rule_needs_single_vertex_colors",
         "tests/test_generators.py::test_generators_refuse_their_inputs"],
    ),
    (  # the vertex-link entries ordered by the b-side text first
        CORE,
        "key=lambda v: (text[v[0]], text[v[1]])",
        "key=lambda v: (text[v[1]], text[v[0]])",
        [f"{CUBE_JSON}::test_vertex_links_come_in_canonical_text_order",
         f"{CUBE_JSON}::test_invariants_links_come_in_canonical_text_order"],
    ),
    (  # a side form made anew on every lookup and never stored: nothing shared
        CORE,
        "form = self[side] = side_json(side)",
        "form = side_json(side)",
        [f"{CUBE_JSON}::test_one_side_dict_per_distinct_side",
         f"{CUBE_JSON}::test_vertex_links_make_one_side_dict_per_distinct_side"],
    ),
    (  # the cube limit counts each level against the whole budget
        POCSET,
        "        room -= len(grown)\n",
        "",
        ["tests/test_pocset.py::test_sageev_stops_past_its_cube_limit"],
    ),
    (  # the kept ultrafilter walk never read: every call walks again
        POCSET,
        "        if masks is not None and len(masks) <= limit:\n            return masks\n",
        "",
        ["tests/test_pocset.py::test_ultrafilters_then_sageev_enumerate_once"],
    ),
    (  # the walk's edge check skipped: every walk accepted
        POCSET,
        "if None in signs or [signs[u] ^ signs[v] for u, v in ends] != flips:",
        "if None in signs:",
        ["tests/test_pocset.py::test_four_cycle_halfspaces_are_rejected",
         f"{WALK}::test_the_cuts_name_what_the_walk_refuses"],
    ),
    (  # the walk's bits by class index, not by the sorted position of the pair id
        POCSET,
        "        bit[int(hid[1:])] = 1 << p\n",
        "        bit[p] = 1 << p\n",
        [f"{WALK}::test_with_eleven_hyperplanes_the_bits_follow_the_sorted_ids",
         f"{WALK}::test_walk_equals_the_cuts_on_trees_and_grids"],
    ),
    (  # the walk started from the last vertex: some "+" side holds the least one
        POCSET,
        "    signs[0] = 0\n    reached = [0]\n",
        "    signs[-1] = 0\n    reached = [len(signs) - 1]\n",
        ["tests/test_pocset.py::test_halfspaces_of_path_are_nested",
         f"{WALK}::test_walk_equals_the_cuts_on_trees_and_grids"],
    ),
    (  # the walk trusted on a square whose two pairs are one class
        POCSET,
        "    if any(label[e] == label[g] for e, _, g, _ in op.squares):\n        return None\n",
        "",
        [f"{WALK}::test_a_square_crossing_itself_is_left_to_the_cuts"],
    ),
]


def copy_tree(dest: Path) -> Path:
    """The sources, tests and project file, without caches."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    return dest


def run_tests(tree: Path, tests: list[str]) -> int:
    env = {"PYTHONPATH": str(tree / "src"), "PATH": "/usr/bin:/bin", "HOME": str(tree)}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    stale = [
        (k, path) for k, (path, old, _, _) in enumerate(MUTANTS, 1)
        if (ROOT / path).read_text().count(old) != 1
    ]
    for k, path in stale:
        print(f"mutant {k}: its old text does not occur exactly once in {path}")
    if stale:
        return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({t for k in chosen for t in MUTANTS[k - 1][3]})
        if run_tests(copy_tree(Path(tmp) / "base"), tests) != 0:
            print("the named tests fail on the unmutated tree")
            return 2
        survived = 0
        for k in chosen:
            path, old, new, tests = MUTANTS[k - 1]
            tree = copy_tree(Path(tmp) / f"mutant{k}")
            target = tree / path
            target.write_text(target.read_text().replace(old, new))
            code = run_tests(tree, tests)
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            survived += code != 1
            print(f"mutant {k} ({path}): {verdict}", flush=True)
            shutil.rmtree(tree)
    print(f"{len(chosen) - survived} of {len(chosen)} killed in {time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
