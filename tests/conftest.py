import pytest
from hypothesis import settings

from clcc import ColoredComplex, gen_cross_polytope, gen_cycle
from clcc.clcc_core import CubeComplex
from clcc.simplicial import SimplicialComplex

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def c4():
    return gen_cycle(2)


@pytest.fixture
def c6():
    return gen_cycle(3)


@pytest.fixture
def o2():
    return gen_cross_polytope(2)


@pytest.fixture
def o3():
    return gen_cross_polytope(3)


@pytest.fixture
def edge3():
    """Three vertices on three colors with a single edge (v1, v2)."""
    return ColoredComplex.build(
        3, [("v1", 1), ("v2", 2), ("v3", 3)], [["v1", "v2"], ["v3"]]
    )


@pytest.fixture
def twopt():
    """Two isolated vertices on two colors."""
    return ColoredComplex.build(2, [("v1", 1), ("v2", 2)], [["v1"], ["v2"]])


@pytest.fixture
def tetra_boundary():
    return SimplicialComplex.from_maximal(
        ["p", "q", "r", "s"],
        [["p", "q", "r"], ["p", "q", "s"], ["p", "r", "s"], ["q", "r", "s"]],
    )


@pytest.fixture
def one_triangle():
    return SimplicialComplex.from_maximal(["p", "q", "r"], [["p", "q", "r"]])


def grid_complex(rows: int, cols: int) -> CubeComplex:
    """(rows x cols)-square grid as a cube complex."""
    verts = [f"g{i},{j}" for i in range(rows + 1) for j in range(cols + 1)]
    edges = []
    squares = []
    for i in range(rows + 1):
        for j in range(cols + 1):
            if i < rows:
                edges.append(frozenset({f"g{i},{j}", f"g{i+1},{j}"}))
            if j < cols:
                edges.append(frozenset({f"g{i},{j}", f"g{i},{j+1}"}))
            if i < rows and j < cols:
                squares.append(
                    frozenset({f"g{i},{j}", f"g{i+1},{j}", f"g{i},{j+1}", f"g{i+1},{j+1}"})
                )
    return CubeComplex.from_cells(
        {0: [frozenset({v}) for v in verts], 1: edges, 2: squares}
    )


def tree_complex(edges) -> CubeComplex:
    verts = sorted({v for e in edges for v in e})
    return CubeComplex.from_cells(
        {0: [frozenset({v}) for v in verts], 1: [frozenset(e) for e in edges]}
    )
