"""Coupled-link cube complexes and their verifiable invariants."""

from clcc.errors import (
    ComplexError,
    DomainError,
    NotTwoSidedError,
    PairError,
    PocsetError,
)
from clcc.simplicial import (
    ColoredComplex,
    ColoredMap,
    CoordSimplex,
    EMPTY_SIMPLEX,
    SimplicialComplex,
    SquareWitness,
    barycentric_subdivision_2d,
    is_5_large,
    is_flag,
    is_obes,
    pairwise_5_large,
    simplicial_join,
)
from clcc.clcc_core import (
    CubeComplex,
    CubicalMap,
    ConnGraph,
    build_clcc,
    classify_vertex_links,
    conn_graph,
    dimension,
    doubly_smartly_paired,
    induced_map,
    is_connected,
    is_npc,
    link_of_cube,
    prune_to_smart_pair,
    smartly_paired,
)
from clcc.homology_z2 import (
    BettiVector,
    Chain2,
    betti,
    boundary,
    chain,
    clcc_cycle,
    fundamental_class,
    is_boundary,
    is_cycle,
    join_chains,
    localize,
    smartly_paired_chains,
    top_chain,
    zero_chain,
)
from clcc.pocset_hyperplanes import (
    CrossingGraph,
    Hyperplane,
    Pocset,
    crossing_graph,
    directions,
    halfspace_pocset,
    hyperplanes,
    roller_duality_check,
    sageev,
    ultrafilters,
)
from clcc.hyperbolicity import (
    Certificate,
    certify,
    certify_barycentric,
    moussong,
)
from clcc.generators import (
    flag_complex_from_graph,
    gen_barycentric_pair,
    gen_cross_polytope,
    gen_cycle,
    gen_racg_pair,
    gen_salvetti_pair,
    gen_surface_pair,
)

__version__ = "0.1.0"
