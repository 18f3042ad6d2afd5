"""Exact Iwasawa-flavored arithmetic toolkit.

Layers: truncated p-adic arithmetic, Fitting-ideal calculus for finitely
generated Z_p-modules, torsion modules over Z_p[[T]] with exact finite-level
coinvariant orders, growth-class algebra, elliptic curves over Q with
reduction classification and quadratic twists, decision procedures for the
local-torsion / big-image / CM hypotheses, and the constructive twist that
forces the local-torsion condition.
"""

from .errors import (
    BadReductionPrime,
    BudgetExceeded,
    IwkError,
    NotMinimalAtPrime,
    PostconditionFailed,
    PrecisionExhausted,
    SearchExhausted,
)
from .padic import (
    INFINITY,
    Valuation,
    kronecker_symbol,
    multiplicative_order,
    ord_p,
    teichmuller,
)
from .zpmod import (
    DeltaCharacter,
    FgZpModule,
    FittingIdeal,
    GroupRingPresentation,
    Presentation,
    all_characters,
    delta_decompose,
    diagonal_presentation,
    direct_sum,
    fitting_from_minors,
    module_from_presentation,
    phi,
    phi0_of_cokernel,
    phi_bruteforce,
    smith_normal_form,
)
from .iwasawa import (
    DistinguishedPoly,
    ElementaryLambdaModule,
    TruncatedSeries,
    coinvariant_order,
    growth_window_check,
    weierstrass_prepare,
)
from .growth import (
    Comparison,
    GrowthClass,
    IwasawaInvariants,
    class_number_growth,
    compare,
    doubling_discrepancy_note,
    mordell_weil_bound,
)
from .ecq import (
    EllipticCurveQ,
    Potentially,
    ReductionInfo,
    ReductionKind,
    TraceRecord,
    TwistClass,
    count_points_ap,
    minimal_model,
    quadratic_twist,
    reduction_type,
    torsion_in_cyclotomic_local,
)
from .conditions import Status, Verdict, check_c1_str, check_c2, check_c2_sufficient, check_c3
from .twist import TwistCertificate, construct_c2_twist

__version__ = "0.1.0"
