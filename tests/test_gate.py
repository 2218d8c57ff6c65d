"""Every public integer argument goes through `arith.as_int`: a numpy integer
acts as the int, a float or numeric string raises BadParameter naming the
argument, and a value below the argument's minimum names that minimum.  The
real-valued arguments gated so far go through `arith.as_real`: any real number
is taken, and a string, None, a complex number or a nan raises BadParameter."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from abckit import (
    RATIONALS,
    BoundConfig,
    QuadraticField,
    RecurrenceSpec,
    SmoothTriple,
    corollary_bound,
    decide_zeros,
    empirical_min_C,
    enumerate_primitive_triples,
    enumerate_triples,
    exponent_term,
    factor_int,
    gyory_sunit_bound,
    landau_min_constant,
    lefourn_sunit_bound,
    make_triple,
    primorial_chain_violations,
    radical,
    rosser_violations,
    smooth_numbers,
    thm4_status,
    tidy_bound,
    verify_lemma9,
    yu_ord_bound,
    zero_bound,
)
from abckit.arith import (
    as_element,
    as_int,
    as_real,
    first_primes,
    is_probable_prime,
    prime_ideals_in_norm_order,
    primes_above,
    primes_upto,
    splitting_type,
)
from abckit.cli import dispatch
from abckit.errors import BadParameter, UnsupportedField

from conftest import GAUSSIAN

SPEC = (10, -31, 30, 31, 112, 452)
T = make_triple(5, 27, -32)


def _spec_with(i):
    return lambda v: decide_zeros(RecurrenceSpec(*SPEC[:i], v, *SPEC[i + 1:]), cap=40)


# (id, call taking the value, argument name, a valid value, minimum or None)
GATED = [
    ("QuadraticField.d", QuadraticField, "d", -7, None),
    ("as_element", as_element, "a field element", 12, None),
    ("factor_int", factor_int, "n", 360, None),
    *[(f"RecurrenceSpec.{name}", _spec_with(i), name, SPEC[i], None)
      for i, name in enumerate(("c1", "c2", "c3", "a0", "a1", "a2"))],
    ("primes_upto", primes_upto, "n", 30, None),
    ("is_probable_prime", is_probable_prime, "n", 97, None),
    ("splitting_type.p", lambda v: splitting_type(GAUSSIAN, v), "p", 5, 2),
    ("primes_above.p", lambda v: primes_above(GAUSSIAN, v), "p", 5, 2),
    ("first_primes", first_primes, "k", 12, 1),
    ("prime_ideals_in_norm_order", lambda v: prime_ideals_in_norm_order(GAUSSIAN, v),
     "count", 6, 1),
    ("landau_min_constant", lambda v: landau_min_constant(RATIONALS, v), "R", 4, 1),
    ("yu_ord_bound.n_terms", lambda v: yu_ord_bound(v, 1, 1, 2, [1.0], 3), "n_terms", 1, 1),
    ("yu_ord_bound.degree", lambda v: yu_ord_bound(1, v, 1, 2, [1.0], 3), "degree", 2, 1),
    ("yu_ord_bound.e_p", lambda v: yu_ord_bound(1, 1, v, 2, [1.0], 3), "e_p", 2, 1),
    ("yu_ord_bound.norm_p", lambda v: yu_ord_bound(1, 1, 1, v, [1.0], 3), "norm_p", 5, 2),
    ("zero_bound.G", lambda v: zero_bound(v, 1.0), "G", 7, None),
    ("exponent_term.G", lambda v: exponent_term(v, 1.0), "G", 30030, None),
    ("decide_zeros.cap", lambda v: decide_zeros(RecurrenceSpec(*SPEC), cap=v), "cap", 40, 0),
    ("enumerate_primitive_triples", enumerate_primitive_triples, "H_limit", 20, 2),
    ("smooth_numbers.P", lambda v: smooth_numbers(v, 100), "P", 7, None),
    ("smooth_numbers.limit", lambda v: smooth_numbers(7, v), "limit", 100, 1),
    ("enumerate_triples.P", lambda v: enumerate_triples(v, 200), "P", 7, None),
    ("enumerate_triples.H_limit", lambda v: enumerate_triples(7, v), "H_limit", 200, 2),
    ("enumerate_triples.workers", lambda v: enumerate_triples(7, 200, v), "workers", 1, 1),
    ("rosser_violations", rosser_violations, "n_max", 30, 1),
    ("primorial_chain_violations", primorial_chain_violations, "k_max", 30, 1),
    ("corollary_bound.cid", lambda v: corollary_bound(v, T, alpha=0.5), "corollary id", 5, None),
    ("corollary_bound.form", lambda v: corollary_bound(9, T, alpha=0.5, form=v), "form", 1, None),
    ("gyory_sunit_bound.t", lambda v: gyory_sunit_bound(2.0, 3.0, t=v, P=7.0), "t", 1, 0),
    ("gyory_sunit_bound.class_number",
     lambda v: gyory_sunit_bound(2.0, 3.0, t=1, P=7.0, class_number=v), "class_number", 1, 1),
    ("lefourn_sunit_bound.degree",
     lambda v: lefourn_sunit_bound(1.0, 2.0, degree=v, t=3, P3=5.0), "degree", 2, 1),
    ("lefourn_sunit_bound.t",
     lambda v: lefourn_sunit_bound(1.0, 2.0, degree=2, t=v, P3=5.0), "t", 3, 0),
]


@pytest.mark.parametrize("call, name, good, minimum", [case[1:] for case in GATED],
                         ids=[case[0] for case in GATED])
def test_integer_gate(call, name, good, minimum):
    for bad in (float(good), good + 0.5, str(good)):
        with pytest.raises(BadParameter, match=f"^{name} must be an integer, got {bad!r}"):
            call(bad)
    if minimum is not None:
        with pytest.raises(BadParameter,
                           match=f"^{name} must be at least {minimum}, got {minimum - 1}$"):
            call(minimum - 1)
        assert call(np.int64(minimum)) == call(minimum)
    assert call(np.int64(good)) == call(good)


def test_as_int():
    assert as_int(np.int64(5), "n") == 5 and type(as_int(np.int64(5), "n")) is int
    assert as_int(3, "n", minimum=3) == 3
    with pytest.raises(BadParameter, match=r"^n must be at least 4, got 3$"):
        as_int(3, "n", minimum=4)
    with pytest.raises(BadParameter, match=r"^n must be an integer, got None$"):
        as_int(None, "n")


# (id, call taking the value, argument name, a valid value)
REAL_GATED = [
    ("tidy_bound.x", tidy_bound, "x", 3),
    ("zero_bound.h_max", lambda v: zero_bound(30030, v), "h_max", 2),
    ("yu_ord_bound.B", lambda v: yu_ord_bound(1, 1, 1, 2, [1.0], v), "B", 3),
    ("yu_ord_bound.heights", lambda v: yu_ord_bound(2, 1, 1, 2, [1.0, v], 3), "heights[1]", 2),
    ("gyory_sunit_bound.h_alpha", lambda v: gyory_sunit_bound(v, 3.0, t=1, P=7.0), "h_alpha", 2),
    ("gyory_sunit_bound.h_beta", lambda v: gyory_sunit_bound(2.0, v, t=1, P=7.0), "h_beta", 3),
    ("gyory_sunit_bound.P", lambda v: gyory_sunit_bound(2.0, 3.0, t=1, P=v), "P", 7),
    ("gyory_sunit_bound.R", lambda v: gyory_sunit_bound(2.0, 3.0, t=1, P=7.0, R=v), "R", 2),
    ("gyory_sunit_bound.R_S",
     lambda v: gyory_sunit_bound(2.0, 3.0, t=1, P=7.0, R_S=v), "R_S", 3),
    ("lefourn_sunit_bound.h_alpha",
     lambda v: lefourn_sunit_bound(v, 2.0, degree=2, t=3, P3=5.0), "h_alpha", 4),
    ("lefourn_sunit_bound.h_beta",
     lambda v: lefourn_sunit_bound(1.0, v, degree=2, t=3, P3=5.0), "h_beta", 2),
    ("lefourn_sunit_bound.R_S",
     lambda v: lefourn_sunit_bound(1.0, 2.0, degree=2, t=3, R_S=v, P3=5.0), "R_S", 3),
    ("lefourn_sunit_bound.P3",
     lambda v: lefourn_sunit_bound(1.0, 2.0, degree=2, t=3, P3=v), "P3", 5),
    ("gyory_sunit_bound.C13", lambda v: gyory_sunit_bound(2.0, 3.0, t=1, P=7.0, C13=v),
     "C13", 2),
    ("gyory_sunit_bound.C14", lambda v: gyory_sunit_bound(2.0, 3.0, t=1, P=7.0, C14=v),
     "C14", 3),
    ("lefourn_sunit_bound.C118",
     lambda v: lefourn_sunit_bound(1.0, 2.0, degree=2, t=1, R_S=3.0, C118=v), "C118", 2),
    ("lefourn_sunit_bound.C119",
     lambda v: lefourn_sunit_bound(1.0, 2.0, degree=2, t=3, P3=5.0, C119=v), "C119", 3),
    ("BoundConfig.C_main", lambda v: BoundConfig(C_main=v), "C_main", 2),
    ("BoundConfig.G_min", lambda v: BoundConfig(G_min=v), "G_min", 20),
    ("empirical_min_C.tol", lambda v: empirical_min_C([T], 2, tol=v), "tol", 1),
    # past the nesting threshold, about 3.81 * 10^6
    ("thm4_status.s", lambda v: thm4_status(v, 10**15), "s", 5),
    ("thm4_status.h", lambda v: thm4_status(5, v), "h", 10**15),
]

SUNIT_CONSTANTS = [case for case in REAL_GATED if case[2] in ("C13", "C14", "C118", "C119")]
FINITE_ONLY = [case for case in REAL_GATED if case[2] in ("C_main", "G_min", "tol")]


@pytest.mark.parametrize("call, name, good", [case[1:] for case in REAL_GATED],
                         ids=[case[0] for case in REAL_GATED])
def test_real_gate(call, name, good):
    for bad in (str(good), None, complex(good), math.nan):
        with pytest.raises(BadParameter, match=f"^{re.escape(name)} must be a real number, "
                                               f"got {re.escape(repr(bad))}$"):
            call(bad)
    for same in (float(good), np.float64(good), np.int64(good), Fraction(good)):
        assert call(same) == call(good)


def test_as_real():
    for value in (3, 2.5, Fraction(1, 3), np.float32(0.5), True, math.inf):
        assert as_real(value, "x") is value
    for bad in ("1", None, 1j, float("nan"), np.float64("nan")):
        with pytest.raises(BadParameter, match=r"^x must be a real number, got "):
            as_real(bad, "x")


def test_first_primes_past_the_float_range():
    # 2k log k, the sieve bound, passes the float range: BadParameter, not
    # OverflowError, from first_primes and every caller of it
    calls = [first_primes, rosser_violations, primorial_chain_violations,
             lambda v: landau_min_constant(RATIONALS, v)]
    for k in (10**307, 10**400):
        for call in calls:
            with pytest.raises(BadParameter, match="^k is too large"):
                call(k)


def test_real_slots_past_the_float_range():
    # an int past the float range passes as_real as it is; the bounds take it
    # in mpmath, so each returns a float (inf past the float range) and none
    # raises OverflowError
    huge = 10**400
    assert yu_ord_bound(1, 1, 1, 2, [huge], 3) == math.inf
    assert yu_ord_bound(1, 1, 1, 2, [1.0], huge) == pytest.approx(
        yu_ord_bound(1, 1, 1, 2, [1.0], 3) * math.log(huge) / math.log(3), rel=1e-12)
    assert gyory_sunit_bound(2.0, 3.0, t=1, P=huge) == math.inf
    assert gyory_sunit_bound(huge, 3.0) == math.inf
    assert lefourn_sunit_bound(1.0, 2.0, degree=2, t=3, P3=huge) == math.inf
    # the S-unit reference constants likewise
    assert gyory_sunit_bound(2.0, 3.0, C13=huge) == math.inf
    assert gyory_sunit_bound(2.0, 3.0, C13=10**300) == pytest.approx(3e300, rel=1e-12)
    for _, call, _, _ in SUNIT_CONSTANTS:
        assert call(huge) == math.inf


@pytest.mark.parametrize("call, name, good", [case[1:] for case in SUNIT_CONSTANTS],
                         ids=[case[0] for case in SUNIT_CONSTANTS])
def test_sunit_constants_finite_and_positive(call, name, good):
    for bad in (0, 0.0, Fraction(0), -1, -10**400, math.inf, -math.inf):
        with pytest.raises(BadParameter, match=f"^{name} must be finite and positive$"):
            call(bad)


@pytest.mark.parametrize("call, name, good", [case[1:] for case in FINITE_ONLY],
                         ids=[case[0] for case in FINITE_ONLY])
def test_finite_slots(call, name, good):
    # an int or a fraction past the float range counts as infinite: refused
    # with BadParameter, not OverflowError
    for bad in (math.inf, -math.inf, np.float64("inf"), 10**400, -10**400, Fraction(10**400)):
        with pytest.raises(BadParameter, match=f"^{name} must be finite$"):
            call(bad)


def test_smoothness_filter_slots():
    # past the nesting threshold H is finite, and may be an int of any size
    for bad in (math.inf, np.float64("inf")):
        with pytest.raises(BadParameter, match="^h must be finite$"):
            thm4_status(5, bad)
    assert thm4_status(5, 10**400) == "pass"
    # a Fraction past the float range is decided like the int next to it
    for s in (5, 30):
        assert thm4_status(s, Fraction(10**400, 3)) == thm4_status(s, 10**400 // 3)
    # lemma 9 takes a real S and a positive G, and gives no nan slack
    for s, g in ((2, 0), (2, -6), (2, None), (2, "6"), ("2", 6), (None, 6),
                 (math.nan, 6), (2, math.nan), (math.inf, math.inf)):
        with pytest.raises(BadParameter, match="^lemma 9 needs a real S and a positive G"):
            verify_lemma9(SmoothTriple(1, 1, 2, s, g, 2))


def test_full_exponent_is_a_bool():
    assert BoundConfig(full_exponent=True).full_exponent is True
    for bad in ("no", "", 1, 0, None, np.bool_(True)):
        with pytest.raises(BadParameter, match="^full_exponent must be a bool, got "):
            BoundConfig(full_exponent=bad)


def test_lift_entries_take_primes_only():
    # a composite would come back as one "inert prime" (65 = 5 * 13, and both
    # split in Z[i]) and 9 as inert; a float would hit the cache of its int
    primes_above(GAUSSIAN, 5)
    for call in (primes_above, splitting_type):
        for bad in (65, 25, 9, 1763, 2**64 + 1):
            with pytest.raises(BadParameter, match=f"^p must be a prime, got {bad}$"):
                call(GAUSSIAN, bad)
        with pytest.raises(BadParameter, match=r"^p must be an integer, got 5\.0$"):
            call(GAUSSIAN, 5.0)
        with pytest.raises(UnsupportedField):
            call(RATIONALS, 5)
    assert [e.norm for e in primes_above(GAUSSIAN, 13)] == [13, 13]
    assert splitting_type(GAUSSIAN, 13) == "split"


def test_primitive_triples_ceiling(monkeypatch, capsys):
    # past the ceiling the call raises before it factors anything
    monkeypatch.setattr(radical, "factor_int", None)
    limit = radical.H_LIMIT_MAX + 1
    message = f"H_limit must be at most {radical.H_LIMIT_MAX}, got {limit}"
    with pytest.raises(BadParameter, match=f"^{message}$"):
        enumerate_primitive_triples(limit)
    with pytest.raises(BadParameter, match=f"^{message}$"):
        enumerate_primitive_triples(np.int64(limit))
    code = dispatch(["calibrate", "--theorem", "2", "--H-limit", str(limit)])
    assert code == 1 and message in capsys.readouterr().err
