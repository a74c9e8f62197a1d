"""Desk-scale toolkit for building and verifying bipartite unique-neighbour expanders.

The pieces fit together as a pipeline: certify a biregular graph as bipartite
Ramanujan (`spectral`), bound non-backtracking path counts through it
(`nbwalk`), sample and exhaustively verify a small unique-neighbour gadget
(`gadget`), route the big graph through the gadget (`product`), and compute
the parameter thresholds that make the composition work (`params`).
"""

from expanderlab.bigraph import (
    BipartiteMultigraph,
    VertexSet,
    GraphFormatError,
    MalformedHeaderError,
    TruncatedFileError,
    IndexOutOfRangeError,
    degrees,
    neighbourhood,
    unique_neighbours,
    read_graph,
    write_graph,
)
from expanderlab.spectral import (
    RegularGraph,
    SpectrumReport,
    spectrum,
    incidence_graph,
    incidence_spectrum_identity_check,
    kahale_bound,
    read_regular_graph,
    write_regular_graph,
)
from expanderlab.nbwalk import (
    NbOperatorSet,
    RationalPolynomial,
    CharRoots,
    RecurrenceSolution,
    build_nb_operators,
    count_nb_paths_operator,
    count_nb_paths_bruteforce,
    nb_path_matrix_bruteforce,
    p_polynomial,
    verify_operator_polynomial_identity,
    solve_linear_recurrence,
    char_roots,
    ell_min,
    lemma6_bound_check,
    lemma6_sweep,
    lemma8_upper_check,
    lemma8_exhaustive_check,
    lemma9_lower_check,
)
from expanderlab.gadget import (
    GadgetParams,
    GadgetCertificate,
    lemma7_k_bound,
    sample_biregular,
    sample_gadget,
    verify_unique_neighbour_upto,
    repeats_probability_bound,
    lemma7_series_report,
)
from expanderlab.product import (
    RoutedProduct,
    routed_product,
    port_set,
    inheritance_check,
    per_vertex_isomorphism_check,
    export_parity_check,
)
from expanderlab.params import (
    ParamReport,
    Theorem2Constants,
    qhat,
    theorem2_constants,
    theorem2_bound,
    eml_bound,
    is_prime_power,
    prime_power,
    theorem1_wiring,
)

__version__ = "0.1.0"
