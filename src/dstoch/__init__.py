"""dstoch: exact arithmetic for doubly stochastic matrices.

Core quantities (Frobenius norm squared, maximal trace, permanent, the
Marcus-Ree gap), the complete order-3 saturation classifier with
certificates, the weak-form parameter regions, and enumeration / search
harnesses.  Everything decision-relevant runs in exact arithmetic.

Names resolve on first use: `import dstoch` loads no submodule, and
`dstoch.marcus_ree_gap` imports `dstoch.diagsum` the first time it is
read.  The package keeps no copy of the attribute, so every read returns
the home module's current binding.  `_HOME` maps each public name to the
module that defines it.
"""

import importlib

_HOME = {name: module for module, names in (
    ("ratmat", "ColSumMismatch DomainError DoublyStochastic NegativeEntry "
               "OrderTooLarge ParseError Permutation RatMatrix RowSumMismatch "
               "SplitMix64 all_permutations block_j_form direct_sum make_jn "
               "make_tn parse_matrix parse_rational perm_matrix random_ds "
               "read_matrix validate_ds"),
    ("diagsum", "GapReport TraceReport diagonal_sum frobenius_sq "
                "marcus_ree_gap max_diag_product max_trace_assignment "
                "max_trace_brute permanent"),
    ("saturation", "CANONICAL_TAGS Classification canonical classify3 "
                   "permutation_equivalent"),
    ("weakform", "NegativeDiscriminant NotDoublyStochastic WeakFormParams "
                 "ZeroCellMissing boundary_csv boundary_curves in_disc_e0 "
                 "in_ellipse in_u_minus in_u_plus matrix_to_params "
                 "params_to_matrix solve_w trace_dominant weak_residual "
                 "weak_saturation_check"),
    ("explore", "BlockSpec DenominatorTooLarge EnumerationReport "
                "ProbeCandidate ProbeReport ProductProbe block_product_probe "
                "check_asymmetry enumerate_grid rationality_probe "
                "reconstruct_matrix search_products sinkhorn"),
) for name in (module, *names.split())}

__all__ = tuple(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = importlib.import_module(f"{__name__}.{module}")
    return home if name == module else getattr(home, name)


def __dir__():
    return sorted({*globals(), *_HOME})
