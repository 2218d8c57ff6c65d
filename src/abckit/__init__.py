"""abckit: exact number-theoretic toolkit for abc triples, heights and bounds.

Covers Q and the nine class-number-one imaginary quadratic fields: prime and
prime-ideal factorization, Weil/projective heights satisfying the product
formula, radicals and top-norm prime selectors, explicit bound evaluators,
an order-3 recurrence zero-decision procedure, and a smooth-triple search
harness.
"""

from .arith import (
    CLASS_NUMBER_ONE_D,
    RATIONALS,
    AlgebraicInt,
    FactorEntry,
    IdealFactorization,
    QuadraticField,
    canonical_associate,
    factor_element,
    factor_int,
    factor_quad,
    ideal_coprime,
    parse_element,
    parse_field,
)
from .bounds import (
    BoundConfig,
    BoundReport,
    corollary_bound,
    empirical_min_C,
    exponent_term,
    gyory_sunit_bound,
    landau_min_constant,
    lefourn_sunit_bound,
    thm1_rhs,
    thm2_rhs,
    thm3_rhs,
    tidy_bound,
    yu_ord_bound,
)
from .heights import (
    PlaceValue,
    absolute_weil_height,
    house,
    log_projective_height,
    places,
    projective_height,
    weil_height,
)
from .radical import (
    AbcTriple,
    Selectors,
    enumerate_primitive_triples,
    make_triple,
    smoothness_S,
)
from .sml import (
    RecurrenceSpec,
    SmlVerdict,
    char_poly,
    decide_zeros,
    degeneracy_check,
    find_roots,
    solve_coefficients,
    strip_common_primes,
    zero_bound,
)
from .xyz import (
    SmoothTriple,
    Thm4Result,
    enumerate_triples,
    primorial_chain_violations,
    rosser_violations,
    smooth_numbers,
    thm4_filter,
    thm4_status,
    verify_lemma9,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
