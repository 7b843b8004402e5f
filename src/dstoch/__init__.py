"""dstoch: exact arithmetic for doubly stochastic matrices.

Core quantities (Frobenius norm squared, maximal trace, permanent, the
Marcus-Ree gap), the complete order-3 saturation classifier with
certificates, the weak-form parameter regions, and enumeration / search
harnesses.  Everything decision-relevant runs in exact arithmetic.
"""

from .ratmat import (
    ColSumMismatch,
    DomainError,
    DoublyStochastic,
    NegativeEntry,
    OrderTooLarge,
    ParseError,
    Permutation,
    RatMatrix,
    RowSumMismatch,
    SplitMix64,
    all_permutations,
    block_j_form,
    direct_sum,
    make_jn,
    make_tn,
    parse_matrix,
    parse_rational,
    perm_matrix,
    random_ds,
    read_matrix,
    validate_ds,
    write_matrix,
)
from .diagsum import (
    GapReport,
    TraceReport,
    diagonal_sum,
    frobenius_sq,
    marcus_ree_gap,
    max_diag_product,
    max_trace_assignment,
    max_trace_brute,
    permanent,
)
from .saturation import (
    CANONICAL_TAGS,
    Classification,
    canonical,
    classify2,
    classify3,
    permutation_equivalent,
)
from .weakform import (
    NegativeDiscriminant,
    NotDoublyStochastic,
    WeakFormParams,
    ZeroCellMissing,
    boundary_csv,
    boundary_curves,
    in_disc_e0,
    in_ellipse,
    in_u_minus,
    in_u_plus,
    matrix_to_params,
    params_to_matrix,
    rational_sqrt,
    solve_w,
    trace_dominant,
    weak_residual,
    weak_saturation_check,
)
from .explore import (
    BlockSpec,
    DenominatorTooLarge,
    EnumerationReport,
    ProbeCandidate,
    ProbeReport,
    ProductProbe,
    block_product_probe,
    check_asymmetry,
    enumerate_grid,
    rationality_probe,
    reconstruct_matrix,
    search_products,
    sinkhorn,
    snap_rational,
)

__version__ = "0.1.0"
