"""Exact combinatorics of support-tilting exchange polytopes from Cartan data."""

from .algebra import (
    AlgebraData,
    algebra_from_dict,
    algebra_to_dict,
    build_algebra,
    components,
    euler_form,
    injective_dimv,
    is_connected,
    length,
    load_algebra,
    projective_dimv,
    restrict,
)
from .errors import ClusterComplexError
from .fixtures import FINITE_FIXTURES, RANK2_INFINITE_FIXTURES, fixture, fixture_names
from .homext import (
    hom_ext,
    independent_dimvs,
    is_rigid,
    iter_rigid_sets,
    rigid_dimv_unique,
    support,
)
from .measure import (
    Mu,
    MU_ZERO,
    descent_path,
    descent_step,
    lambda_compare,
    lambda_vector,
    mu,
    mu_compare,
    verify_descent,
    verify_endos,
    verify_endos_all,
    verify_rank2_inequality,
    verify_total_order,
)
from .polytope import (
    ClusterComplex,
    build_complex,
    coface_profile,
    decode_face,
    encode_face,
    exchange_graph,
    rank2_window_complex,
    verify_ap_axioms,
    verify_flag_connected,
)
from .roots import (
    FINITE,
    Indec,
    PREINJ,
    PREPROJ,
    RANK2_INFINITE,
    RootCatalog,
    UNSUPPORTED,
    catalog_for,
    classify_type,
    positive_roots,
    rank2_sequences,
    simple_reflection,
    symmetrized_form,
)
from .tilting import (
    SupportTilting,
    as_facet,
    bongartz,
    bongartz_split,
    complements,
    dual_bongartz,
    dual_bongartz_split,
    enumerate_support_tilting,
    relative_bongartz,
    relative_dual_bongartz,
    verify_b2_structure,
    zero_facet,
)

__version__ = "0.1.0"
