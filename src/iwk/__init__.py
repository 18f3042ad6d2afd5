"""Exact Iwasawa-flavored arithmetic toolkit.

Layers: truncated p-adic arithmetic, Fitting-ideal calculus for finitely
generated Z_p-modules, torsion modules over Z_p[[T]] with exact finite-level
coinvariant orders, growth-class algebra, elliptic curves over Q with
reduction classification and quadratic twists, decision procedures for the
local-torsion / big-image / CM hypotheses, and the constructive twist that
forces the local-torsion condition.

`import iwk` loads none of the layers: each name below is imported from its
layer on first use (PEP 562), so a process that uses only the curve layers
never loads the Lambda side, nor the other way round.
"""

import importlib

# layer -> the names it exports here
_EXPORTS = {
    "errors": (
        "BadReductionPrime",
        "BudgetExceeded",
        "IwkError",
        "NotMinimalAtPrime",
        "PostconditionFailed",
        "PrecisionExhausted",
        "SearchExhausted",
    ),
    "padic": (
        "INFINITY",
        "Valuation",
        "kronecker_symbol",
        "multiplicative_order",
        "ord_p",
        "teichmuller",
    ),
    "zpmod": (
        "DeltaCharacter",
        "FgZpModule",
        "FittingIdeal",
        "GroupRingPresentation",
        "Presentation",
        "all_characters",
        "delta_decompose",
        "diagonal_presentation",
        "direct_sum",
        "fitting_from_minors",
        "module_from_presentation",
        "phi",
        "phi0_of_cokernel",
        "phi_bruteforce",
        "smith_normal_form",
    ),
    "iwasawa": (
        "DistinguishedPoly",
        "ElementaryLambdaModule",
        "TruncatedSeries",
        "coinvariant_order",
        "growth_window_check",
        "weierstrass_prepare",
    ),
    "growth": (
        "Comparison",
        "GrowthClass",
        "IwasawaInvariants",
        "class_number_growth",
        "compare",
        "doubling_discrepancy_note",
        "mordell_weil_bound",
    ),
    "ecq": (
        "EllipticCurveQ",
        "Potentially",
        "ReductionInfo",
        "ReductionKind",
        "TraceRecord",
        "TwistClass",
        "count_points_ap",
        "minimal_model",
        "quadratic_twist",
        "reduction_type",
        "torsion_in_cyclotomic_local",
    ),
    "conditions": ("Status", "Verdict", "check_c1_str", "check_c2", "check_c2_sufficient", "check_c3"),
    "twist": ("TwistCertificate", "construct_c2_twist"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_LAYER_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # each call reads the layer's attribute afresh, so a patched layer
    # function is what iwk.<name> returns
    if name in _LAYER_OF:
        return getattr(importlib.import_module("." + _LAYER_OF[name], __name__), name)
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
