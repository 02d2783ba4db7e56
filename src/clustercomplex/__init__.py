"""Exact combinatorics of support-tilting exchange polytopes from Cartan data."""

from .algebra import (
    AlgebraData,
    algebra_from_dict,
    algebra_to_dict,
    build_algebra,
    euler_form,
    length,
    load_algebra,
)
from .errors import ClusterComplexError
from .fixtures import FINITE_FIXTURES, RANK2_INFINITE_FIXTURES, fixture, fixture_names
from .homext import (
    hom_ext,
    is_rigid,
    support,
)
from .measure import (
    descent_step,
    mu,
    verify_descent,
    verify_endos,
    verify_endos_all,
    verify_rank2_inequality,
    verify_total_order,
)
from .polytope import (
    ClusterComplex,
    build_complex,
    exchange_graph,
    face_label,
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
)
from .tilting import (
    bongartz,
    complements,
    decode_face,
    dual_bongartz,
    enumerate_support_tilting,
    zero_facet,
)

__version__ = "0.1.0"
