"""epspectra: spectra and exceptional-point unfolding of the PT-symmetric
two-mode Bose-Hubbard model.

The package builds the non-Hermitian Hamiltonian H = -2i gamma L_z + 2 v L_x
+ 2 c L_z^2 for N particles, computes complex spectra and eigenvalue
trajectories, derives exact characteristic polynomials in the interaction
parameter, performs Newton-polygon unfolding analysis of the order-(N+1)
degeneracy, and locates second-order exceptional points across parameter
space.
"""

from .exact_poly import (
    CharPoly,
    GaussianRational,
    ParamPoly,
    Rational,
    charpoly_of_tridiagonal,
    faddeev_leverrier,
    parse_exact_decimal,
    rat,
    verify_trace_structure,
)
from .operators import (
    AngularMomentumRep,
    HamiltonianFamily,
    ModelParams,
    OperatorMatrix,
    UsageError,
    build_cartesian,
    build_generalized_hamiltonian,
    build_ladder,
    build_rotated_hamiltonian,
    parity_matrix,
)
from .newton_polygon import (
    DiagramPoint,
    HullSegment,
    RingPrediction,
    UnfoldingAnalysis,
    UnfoldingBranch,
    analyze_unfolding,
    build_points,
    group_rings,
    lower_hull,
    predict_ring_counts,
    reduced_polynomial,
    solve_leading_coefficients,
    unfolding_charpoly,
)
from .spectra import (
    Classification,
    Spectrum,
    Trajectory,
    analytic_c0_spectrum,
    classify,
    eigenvalues,
    exact_spectrum,
    match_branches,
    matched_sweep,
    optimal_match_distance,
    sweep,
)
from .ep_locator import (
    EPMap,
    EPRecord,
    StrongCouplingPrediction,
    ep_map,
    locate_eps,
    mother_ep_check,
    strong_coupling_predictions,
    strong_coupling_validation,
)

__version__ = "0.1.0"
