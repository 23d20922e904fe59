"""Exact-arithmetic PSD relaxations of the symmetric TSP polytope's dual body.

The library enumerates Hamiltonian cycles of K_n, builds facet functionals
(subtour elimination, edge bounds, 2-matching), assembles their moment
matrices in exact rational arithmetic (by enumeration for any degree, in
closed form for degree 1 at any n), decides positive semidefiniteness and
hence membership in the relaxation P_k, reproduces the closed-form
eigensystems of the subtour facets, and computes the metric approximation
constants a_k = n/k + alpha_k with their enumeration oracles.
"""

from tsppsd.bounds import (
    bound_oracle,
    bound_report,
    eo_subsets,
    f_counts,
    g_counts,
    lemma_bound,
    proposition_bound,
    theorem1_constants,
)
from tsppsd.cycles import (
    Edge,
    HamiltonianCycle,
    PathSystem,
    TourArray,
    count_cycles_containing,
    count_cycles_with_edge_set,
    edge,
    enumerate_cycles,
    num_cycles,
    tour_array,
)
from tsppsd.errors import ResourceLimitError
from tsppsd.functionals import (
    FacetSpec,
    LinearFunctional,
    average_on_x,
    combine,
    functional_from_spec,
    make_edge_bound,
    make_ones,
    make_subtour,
    make_two_matching,
)
from tsppsd.moment import (
    GroundSet,
    MomentMatrix,
    moment_matrix_closed_form_k1,
    moment_matrix_enumerated,
    moment_matrix_enumerated_cycles,
    quadratic_form_value,
    trace_of,
    zero_one_certificate,
)
from tsppsd.psd import (
    PsdVerdict,
    boundary_certificate,
    is_psd_exact,
    is_psd_float,
    membership_p1,
    membership_pk_enumerated,
    verify_certificate,
    zero_one_collapse_check,
)
from tsppsd.spectra import (
    closed_form_spectrum,
    eigenvector_families,
    ones_spectrum,
    residual_pair,
    sqrt_n_nonpositivity,
    verify_eigenpairs_exact,
)

__version__ = "0.1.0"

__all__ = [
    "Edge",
    "FacetSpec",
    "GroundSet",
    "HamiltonianCycle",
    "LinearFunctional",
    "MomentMatrix",
    "PathSystem",
    "PsdVerdict",
    "ResourceLimitError",
    "TourArray",
    "average_on_x",
    "bound_oracle",
    "bound_report",
    "boundary_certificate",
    "closed_form_spectrum",
    "combine",
    "count_cycles_containing",
    "count_cycles_with_edge_set",
    "edge",
    "eigenvector_families",
    "enumerate_cycles",
    "eo_subsets",
    "f_counts",
    "functional_from_spec",
    "g_counts",
    "is_psd_exact",
    "is_psd_float",
    "lemma_bound",
    "make_edge_bound",
    "make_ones",
    "make_subtour",
    "make_two_matching",
    "membership_p1",
    "membership_pk_enumerated",
    "moment_matrix_closed_form_k1",
    "moment_matrix_enumerated",
    "moment_matrix_enumerated_cycles",
    "num_cycles",
    "ones_spectrum",
    "proposition_bound",
    "quadratic_form_value",
    "residual_pair",
    "sqrt_n_nonpositivity",
    "theorem1_constants",
    "tour_array",
    "trace_of",
    "verify_certificate",
    "verify_eigenpairs_exact",
    "zero_one_certificate",
    "zero_one_collapse_check",
]
