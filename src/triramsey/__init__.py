"""Defective Ramsey numbers and sparse-set thresholds in triangle-free graphs."""

from .canon import CanonKey, are_isomorphic, canonical_form, canonical_graph, decode_key
from .defect import (
    alpha_k,
    dense_cap_check,
    has_k_dense_set,
    has_k_dense_set_containing,
    has_k_sparse_set,
    has_k_sparse_set_containing,
    is_k_dense_set,
    is_k_sparse_set,
    sparse_bound_witness,
)
from .driver import (
    CAPPED,
    COMPLETED,
    ProbeCell,
    RunLimits,
    RunReport,
    checkpoint_resume,
    compute_number,
    probe_conjecture,
)
from .enumeration import (
    LevelCardinalityExceeded,
    LevelSet,
    ProblemSpec,
    extend_graph,
    find_forbidden_set,
    initial_level,
    level_at,
    level_step,
    verify_membership,
)
from .errors import (
    CapacityError,
    ConstructionError,
    DecodeError,
    IntegrityError,
    SpecConflictError,
    TriramseyError,
)
from .formats import graph6_decode, graph6_encode, read_level, render_report, write_level
from .graphs import (
    MAX_N,
    Graph,
    VertexSet,
    add_vertex,
    blow_up,
    build_graph,
    complement,
    complete_bipartite,
    cycle,
    empty_graph,
    independent_set_masks,
    induced_subgraph,
    is_triangle_free,
    path,
    permute,
    set_members,
    single_vertex,
    validate_graph,
    vertex_set,
)

__version__ = "0.1.0"
