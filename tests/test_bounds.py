import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from abckit import (
    RATIONALS,
    AlgebraicInt,
    QuadraticField,
    corollary_bound,
    empirical_min_C,
    exponent_term,
    factor_element,
    gyory_sunit_bound,
    landau_min_constant,
    lefourn_sunit_bound,
    enumerate_primitive_triples,
    house,
    make_triple,
    places,
    thm1_rhs,
    thm2_rhs,
    thm3_rhs,
    tidy_bound,
    weil_height,
    yu_ord_bound,
    zero_bound,
)
from abckit.arith import prime_ideals_in_norm_order, primes_upto
from abckit import bounds
from abckit.bounds import (
    BoundConfig,
    DEFAULT_CONFIG,
    E_SQUARED_GUARD,
    _finite_real,
    _log_base,
    _log_height,
    _needed_C_mp,
    _ord_at_top_prime,
    _theorem_report,
    _theorem_report_mp,
)
from abckit.errors import (
    BadAlpha,
    BadParameter,
    BadRadical,
    EmptyDataset,
    HypothesisFails,
    NotApplicable,
)
from abckit.radical import _third_largest_norm

from conftest import ALL_FIELDS, random_element
from test_radical import random_triple

Q = RATIONALS
T189 = make_triple(1, 8, -9)


def float_kappa(G: int) -> float:
    """logloglog G / loglog G in float64, apart from `exponent_term`'s mpmath."""
    llg = math.log(math.log(G))
    return math.log(llg) / llg


class TestExponentTerm:
    def test_reference_value(self):
        # logloglog(30030)/loglog(30030)
        lg = math.log(30030)
        expected = math.log(math.log(lg)) / math.log(lg)
        assert abs(exponent_term(30030, 1.0) - expected) < 1e-12
        assert abs(expected - 0.3632) < 5e-4

    def test_small_radical_guard(self):
        assert exponent_term(6, 1.0) == 0.0
        assert exponent_term(2, 100.0) == 0.0

    def test_boundary_value(self):
        # just above e^(e^e) the term is close to (log e)/e
        assert abs(exponent_term(3814280, 2.0) - 2 / math.e) < 1e-3

    def test_bad_radical(self):
        with pytest.raises(BadRadical):
            exponent_term(1, 1.0)

    def test_scales_linearly_in_C(self):
        assert abs(exponent_term(30030, 3.0) - 3 * exponent_term(30030, 1.0)) < 1e-12

    def test_full_exponent_adds_lower_order_terms(self):
        cfg = BoundConfig(full_exponent=True)
        lg = math.log(30030)
        llg = math.log(lg)
        expected = math.log(llg) / llg + 1 / llg + llg / lg
        assert abs(exponent_term(30030, 1.0, cfg) - expected) < 1e-12


class TestTheoremEvaluators:
    def test_thm1_reference_triple(self):
        report = thm1_rhs(T189)
        assert abs(report.rhs - 54 ** (1 / 3)) < 1e-12
        assert abs(report.lhs - math.log(9)) < 1e-12
        assert report.holds and report.regime == "small-radical"

    def test_thm2_reference_triple(self):
        report = thm2_rhs(T189)
        assert abs(report.rhs - 3 * math.sqrt(2)) < 1e-12
        assert abs(report.margin - 2.0454161097830654) < 1e-9

    def test_thm3_reference_triple(self):
        report = thm3_rhs(T189)
        assert abs(report.rhs - 6 ** (1 / 3)) < 1e-12
        assert abs(report.weak_rhs - 6 ** (1 / 3)) < 1e-12

    def test_selectors_use_height_order(self):
        # storing the coordinates in a different order must not change the rhs
        for perm in [(8, 1, -9), (-9, 8, 1), (1, -9, 8)]:
            assert abs(thm1_rhs(make_triple(*perm)).rhs - 54 ** (1 / 3)) < 1e-12

    def test_thm1_against_brute_force_selector_oracle(self):
        # selectors of (3, 125, -128) recomputed by plain trial division
        def top_prime(n):
            n, best = abs(n), 1
            d = 2
            while d * d <= n:
                while n % d == 0:
                    best, n = d, n // d
                d += 1
            return max(best, n) if n > 1 else best

        coords = sorted((3, 125, -128), key=abs)
        n_a, n_b, n_c = (top_prime(v) for v in coords)
        assert (n_a, n_b, n_c) == (3, 5, 2)
        g = 2 * 3 * 5
        expected = (n_a * n_b * n_c**2 * max(n_b, n_c)) ** (1 / 3) * g ** exponent_term(g, 1.0)
        report = thm1_rhs(make_triple(3, 125, -128))
        assert report.rhs == pytest.approx(expected, rel=1e-12)
        assert report.holds == (report.rhs >= math.log(128))

    def test_monotone_in_C(self, rng):
        for _ in range(40):
            t = random_triple(rng)
            for evaluator in (thm1_rhs, thm2_rhs, thm3_rhs):
                values = [
                    evaluator(t, DEFAULT_CONFIG.with_C(c)).rhs
                    for c in (0.01, 0.5, 1.0, 2.0)
                ]
                assert values == sorted(values)

    def test_rhs_at_least_one(self, rng):
        for _ in range(60):
            t = random_triple(rng)
            assert thm3_rhs(t).rhs >= 1.0

    def test_thm3_weak_form_dominates_product_form(self, rng):
        # the selector product never exceeds G, so G^(1/3) can only be larger
        for _ in range(120):
            report = thm3_rhs(random_triple(rng))
            assert report.weak_rhs >= report.rhs * (1 - 1e-12)


def _top3_and_radical(limit):
    """Per n <= limit: three largest distinct primes (0-padded) and the radical."""
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    top = np.zeros((limit + 1, 3), dtype=np.int64)
    rad = np.ones(limit + 1, dtype=np.int64)
    for n in range(2, limit + 1):
        m, primes = n, []
        while m > 1:
            p = spf[m]
            primes.append(p)
            while m % p == 0:
                m //= p
        primes.sort(reverse=True)
        for i, p in enumerate(primes[:3]):
            top[n, i] = p
        for p in primes:
            rad[n] *= p
    return top, rad


class TestThm3ProductDominatedByRadical:
    def test_exhaustive_height_10000(self):
        # N_a N_b N_c N'_c N_q <= G for every primitive triple with H <= 10^4,
        # in exact integer arithmetic
        limit = 10**4
        top, rad = _top3_and_radical(limit)
        maxp = top[:, 0]
        worst = 0
        for z in range(2, limit + 1):
            xs = np.arange(1, z // 2 + 1)
            xs = xs[np.gcd(xs, z) == 1]
            if xs.size == 0:
                continue
            ys = z - xs
            n_a = np.maximum(maxp[xs], 1)
            n_b = np.maximum(maxp[ys], 1)
            n_c = max(int(maxp[z]), 1)
            n_c3 = max(int(top[z, 2]), 1)
            merged = np.stack(
                [top[ys, 0], top[ys, 1], top[ys, 2],
                 np.full(xs.size, top[z, 0]), np.full(xs.size, top[z, 1]),
                 np.full(xs.size, top[z, 2])],
                axis=1,
            )
            third = np.partition(merged, 3, axis=1)[:, 3]
            n_q = np.maximum(third, 1)
            product = n_a * n_b * n_c * n_c3 * n_q
            g = rad[xs] * rad[ys] * rad[z]
            worst = max(worst, int(product.max()))
            assert np.all(product <= g), f"violation at Z={z}"
        assert worst < 2**62  # int64 never overflowed

    def test_random_triples_all_fields(self, rng):
        for _ in range(300):
            t = random_triple(rng)
            sel = t.height_selectors
            assert sel.n_a * sel.n_b * sel.n_c * sel.n_c_third * sel.n_q <= t.G


def entry_sorted_key(e):
    """The old prime order, (norm, coordinates), which the selectors used to sort by."""
    return (e.norm, e.prime.x, e.prime.y)


class TestPrimeOrder:
    """The top prime and the third-largest norm read the factorization's own
    order; the oracle is the entry-sorted rule they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(field=st.sampled_from(ALL_FIELDS), seed=st.integers(0, 2**32 - 1))
    def test_top_prime_and_third_norm_match_entry_sorted_rule(self, field, seed):
        rng = random.Random(seed)
        v, w, u = (random_element(rng, field, 10**6) for _ in range(3))
        # v's primes come twice and their conjugates once: norm ties with
        # different exponents
        facs = [factor_element(x) for x in (v * v.conjugate() * v, w, u, field.units()[-1])]
        for fac in facs:
            top = max(fac, key=entry_sorted_key, default=None)
            assert _ord_at_top_prime(fac) == (top.exponent if top else 1)
        for k in range(1, 4):
            for group in (facs[:k], facs[-k:]):
                entries = sorted((e for fac in group for e in fac), key=entry_sorted_key,
                                 reverse=True)
                expected = entries[2].norm if len(entries) >= 3 else 1
                assert _third_largest_norm(*group) == expected


class TestCorollaries:
    def test_not_applicable_ids(self):
        for cid in (1, 2, 8):
            with pytest.raises(NotApplicable):
                corollary_bound(cid, T189)

    def test_cor3(self):
        t = make_triple(1, -16, 15)  # ordered: N_b = 5 > N_c = 2
        report = corollary_bound(3, t)
        assert report.exponent_used == pytest.approx(2 / 3 + exponent_term(t.G, 1.0))
        with pytest.raises(HypothesisFails):
            corollary_bound(3, T189)  # N_b = 2 < N_c = 3

    def test_cor4_both_branches(self):
        t = make_triple(7, 25, -32)  # 7 > 5 > 2
        report = corollary_bound(4, t)
        assert report.exponent_used == pytest.approx(5 / 9 + exponent_term(t.G, 1.0))
        t = make_triple(11, 16, -27)  # 11 > 3 >= 2
        report = corollary_bound(4, t)
        assert report.exponent_used == pytest.approx(2 / 3 + exponent_term(t.G, 1.0))
        with pytest.raises(HypothesisFails):
            corollary_bound(4, T189)

    def test_cor5(self):
        report = corollary_bound(5, T189, alpha=1.0)
        assert report.exponent_used == pytest.approx(1.0)  # trivial boundary
        report = corollary_bound(5, T189, alpha=0.7)
        assert report.exponent_used == pytest.approx((1 + 1.4) / 3)
        with pytest.raises(BadAlpha):
            corollary_bound(5, T189, alpha=1.5)
        with pytest.raises(BadAlpha):
            corollary_bound(5, T189)

    def test_cor6(self):
        t = make_triple(13, 243, -256)
        report = corollary_bound(6, t, alpha=0.65)
        assert report.exponent_used == pytest.approx(1 / (3 - 1.3) + exponent_term(t.G, 1.0))
        with pytest.raises(HypothesisFails):
            corollary_bound(6, T189, alpha=0.5)
        with pytest.raises(BadAlpha):
            corollary_bound(6, t, alpha=0.7)

    def test_cor7_hypothesis_needs_huge_heights(self):
        with pytest.raises(HypothesisFails):
            corollary_bound(7, T189, alpha=0.5)
        with pytest.raises(BadAlpha):
            corollary_bound(7, T189, alpha=0.61)
        # the scaled exponent it would apply: C/(3 - 5a) doubles at a = 1/2
        scaled = exponent_term(30030, 1.0 / (3 - 5 * 0.5))
        assert scaled == pytest.approx(2 * exponent_term(30030, 1.0), rel=1e-12)
        assert scaled == pytest.approx(2 * 0.3632, abs=2e-3)

    def test_cor7_sub_exponential(self):
        # N_max < (log H)^a with a < 3/5 needs H > e^(N_max^(5/3)), so N_a = 1
        # is planted on a triple with max(N_b, N_c) = 3 < (log H)^(1/2)
        t = make_triple(7153, 524288, -531441)  # 23 * 311 + 2^19 = 3^12
        t = t._replace(height_selectors=t.height_selectors._replace(n_a=1))
        report = corollary_bound(7, t, alpha=0.5)
        assert report.exponent_used == pytest.approx(2 * float_kappa(t.G), rel=1e-12)
        assert report.rhs == pytest.approx(t.G ** (2 * float_kappa(t.G)), rel=1e-12)
        assert report.lhs == pytest.approx(math.log(531441), rel=1e-15)
        assert report.holds and report.detail == "sub-exponential, a=0.5"

    def test_cor9_form_selection(self):
        report = corollary_bound(9, T189, alpha=0.7)  # max(N_b,N_c)=3 < 6^0.7
        assert report.exponent_used == pytest.approx(3 * 0.7 / 2)  # G=6: no extra term
        assert "3a/2" in report.detail
        # at alpha = 0.6 only the max-ord route is open: ord exponents of 9 = 2
        report = corollary_bound(9, T189, alpha=0.6)
        assert report.exponent_used == pytest.approx((1 + 0.6) / 2)
        with pytest.raises(HypothesisFails):
            corollary_bound(9, T189, alpha=0.6, form=2)
        with pytest.raises(HypothesisFails):  # N_c = 3 and max ord 2 exceed 6^0.3
            corollary_bound(9, T189, alpha=0.3, form=1)

    def test_cor10(self):
        t = make_triple(3, 125, -128)
        report = corollary_bound(10, t, alpha=0.5)
        assert report.exponent_used == pytest.approx(1 / (2 - 0.5) + exponent_term(t.G, 1.0))
        with pytest.raises(HypothesisFails):
            corollary_bound(10, t, alpha=0.5, form=2)
        with pytest.raises(HypothesisFails):  # N_c = 2 and max ord 7 exceed log(128)^0.3
            corollary_bound(10, t, alpha=0.3, form=1)

    def test_cor10_sub_exponential(self):
        t = make_triple(7153, 524288, -531441)  # max(N_b, N_c) = 3 < log(3^12)^(1/2)
        kappa = 0.7 / (2 - 1.5) * float_kappa(t.G)
        for form in (None, 2):  # the strong hypothesis holds, so it is the default
            report = corollary_bound(10, t, alpha=0.5, form=form, config=BoundConfig(C_main=0.7))
            assert report.exponent_used == pytest.approx(kappa, rel=1e-12)
            assert report.rhs == pytest.approx(t.G ** kappa, rel=1e-12)
            assert report.holds and report.detail == "sub-exponential, a=0.5"
        report = corollary_bound(10, t, alpha=0.5, form=1)
        assert report.exponent_used == pytest.approx(1 / 1.5 + float_kappa(t.G), rel=1e-12)

    def test_cor11(self):
        t = make_triple(13, 35, -48)  # 13^3 <= 2730
        report = corollary_bound(11, t)
        assert report.exponent_used == pytest.approx(1 / 2 + exponent_term(t.G, 1.0))
        t = make_triple(7, 9, -16)
        report = corollary_bound(11, t, alpha=0.4)
        assert report.exponent_used == pytest.approx((3 - 1.2) / 2 + exponent_term(t.G, 1.0))
        with pytest.raises(HypothesisFails):
            corollary_bound(11, T189, alpha=0.4)
        t = make_triple(5, 27, -32)  # 5 > 30^(1/3): only the form-1 branch applies
        report = corollary_bound(11, t, alpha=0.4)
        assert report.exponent_used == pytest.approx((3 - 1.2) / 2 + exponent_term(t.G, 1.0))
        with pytest.raises(HypothesisFails, match=r"N_max <= G\^\(1/3\)"):
            corollary_bound(11, t, alpha=0.4, form=2)

    def test_form_outside_1_and_2_is_refused(self):
        t = make_triple(5, 27, -32)
        for form in (7, 0, -1):
            with pytest.raises(BadParameter, match=f"form must be None, 1 or 2, got {form}"):
                corollary_bound(9, t, alpha=0.5, form=form)
        with pytest.raises(BadParameter, match="form must be an integer, got 2.0"):
            corollary_bound(9, t, alpha=0.5, form=2.0)
        assert corollary_bound(9, t, alpha=0.5, form=np.int64(1)) == \
            corollary_bound(9, t, alpha=0.5, form=1)

    def test_alpha_must_be_a_real_number(self):
        t = make_triple(5, 27, -32)
        for alpha in ("0.4", b"0.4", 0.4j, [0.4]):
            with pytest.raises(BadAlpha, match="alpha must be a real number"):
                corollary_bound(5, t, alpha=alpha)
        report = corollary_bound(5, t, alpha=0.4)
        for alpha in (np.float64(0.4), np.float32(0.4), Fraction(2, 5)):
            assert corollary_bound(5, t, alpha=alpha).exponent_used == \
                pytest.approx(report.exponent_used)
        assert corollary_bound(12, t, alpha=np.int64(1)) == corollary_bound(12, t, alpha=1)

    def test_cor12(self):
        t = make_triple(3, 125, -128)  # ord at top prime of c: 2^7
        term = exponent_term(t.G, 1.0)
        report = corollary_bound(12, t, alpha=1.0)
        assert report.exponent_used == pytest.approx(1.0 + term)
        report = corollary_bound(12, t, alpha=0.8)
        assert report.exponent_used == pytest.approx(0.8 + term)
        with pytest.raises(HypothesisFails):
            corollary_bound(12, t, alpha=0.5)  # 30^0.5 < 7

    def test_cor13(self):
        report = corollary_bound(13, T189, alpha=0.9)  # ord 2 < log(9)^0.9
        expected = max(6 ** 0.75, math.log(6) ** 10)
        assert report.rhs == pytest.approx(expected, rel=1e-9)
        with pytest.raises(HypothesisFails):
            corollary_bound(13, make_triple(3, 125, -128), alpha=0.5)

    def test_unknown_id(self):
        with pytest.raises(BadParameter):
            corollary_bound(14, T189)


class TestYuBound:
    def test_reference_value(self):
        got = yu_ord_bound(1, 1, 1, 2, [math.log(3)], 3)
        expected = (
            (16 * math.e) ** 4
            * math.log(2) ** 2
            * (2 / math.log(2) ** 2)
            * math.log(3)
            * math.log(3)
        )
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(8.6e6, rel=0.01)

    def test_monotone_in_prime_norm_past_e_squared(self):
        lo = yu_ord_bound(1, 1, 1, 8, [1.0], 3)
        hi = yu_ord_bound(1, 1, 1, 11, [1.0], 3)
        assert hi > lo

    def test_height_floor_applies(self):
        # a zero height is replaced by 1/(16 e^2 d^2), not dropped
        assert yu_ord_bound(1, 1, 1, 2, [0.0], 3) > 0

    def test_parameter_validation(self):
        with pytest.raises(BadParameter):
            yu_ord_bound(0, 1, 1, 2, [], 3)
        with pytest.raises(BadParameter):
            yu_ord_bound(1, 1, 1, 1, [1.0], 3)
        with pytest.raises(BadParameter):
            yu_ord_bound(1, 1, 1, 2, [1.0], 2)
        with pytest.raises(BadParameter):
            yu_ord_bound(1, 1, 1, 2, [1.0, 2.0], 3)

    def test_non_finite_rejected(self):
        for heights, B in (([math.nan], 3), ([math.inf], 3), ([1.0], math.nan),
                           ([1.0], math.inf)):
            with pytest.raises(BadParameter):
                yu_ord_bound(1, 1, 1, 2, heights, B)
        for value in (math.nan, math.inf):
            for name in ("C_main", "G_min"):
                with pytest.raises(BadParameter):
                    BoundConfig(**{name: value})
            for name in ("C13", "C14"):
                with pytest.raises(BadParameter):
                    gyory_sunit_bound(2.0, 3.0, **{name: value})
            for name in ("C118", "C119"):
                with pytest.raises(BadParameter):
                    lefourn_sunit_bound(1.0, 2.0, degree=2, t=1, **{name: value})


class TestTidyBound:
    def test_examples(self):
        assert tidy_bound(10) == pytest.approx(20 * math.log(10))
        assert tidy_bound(1) == pytest.approx(math.e)
        # a = 35 has a/log a < 10 and is indeed below tidy_bound(10)
        assert 35 / math.log(35) < 10 < 35 < tidy_bound(10)

    def test_contract_100k_random_pairs(self, rng):
        for _ in range(100_000):
            a = rng.uniform(1e-6, 1e9)
            x = rng.uniform(1e-6, 1e6)
            if a != 1.0 and a / math.log(a) < x:
                assert a < tidy_bound(x) * (1 + 1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(BadParameter):
            tidy_bound(0.0)

    def test_rejects_non_finite(self):
        for x in (math.nan, math.inf):
            with pytest.raises(BadParameter):
                tidy_bound(x)


class TestLandau:
    def test_rationals_first_prime(self):
        assert landau_min_constant(Q, 1) == pytest.approx(math.log(2) / 2, rel=1e-12)

    def test_gaussian_first_three_ideals(self):
        # norms in order are 2, 5, 5: scan the three partial products directly
        ratios = [2 / math.log(2), 5 / math.log(5), 5 / math.log(5)]
        best, prod = 0.0, 1.0
        for r, ratio in enumerate(ratios, start=1):
            prod *= ratio
            best = max(best, r / prod ** (1 / r))
        assert landau_min_constant(QuadraticField(-1), 3) == pytest.approx(best, rel=1e-12)

    def test_certifies_defining_inequality(self):
        for field in (Q, QuadraticField(-1), QuadraticField(-3), QuadraticField(-163)):
            R = 100 if field.degree == 1 else 50
            c = landau_min_constant(field, R)
            log_prod = 0.0
            for r, entry in enumerate(prime_ideals_in_norm_order(field, R), start=1):
                log_prod += math.log(entry.norm) - math.log(math.log(entry.norm))
                assert log_prod >= r * (math.log(r) - math.log(c)) - 1e-9

    def test_monotone_in_R(self):
        values = [landau_min_constant(Q, r) for r in (1, 5, 20, 100)]
        assert values == sorted(values)

    def test_bad_R(self):
        with pytest.raises(BadParameter):
            landau_min_constant(Q, 0)


class TestSUnitEvaluators:
    def test_gyory_no_finite_places(self):
        assert gyory_sunit_bound(2.0, 3.0) == pytest.approx(3.0)
        assert gyory_sunit_bound(0.1, 0.2) == pytest.approx(1.0)  # max with 1
        assert gyory_sunit_bound(2.0, 3.0, C13=2.0) == pytest.approx(6.0)

    def test_gyory_with_finite_places(self):
        v1 = gyory_sunit_bound(2.0, 3.0, t=1, P=7.0, R=2.0, R_S=2.0)
        v2 = gyory_sunit_bound(2.0, 3.0, t=2, P=7.0, R=2.0, R_S=2.0)
        assert 0 < v1 < v2  # extra places only enlarge the bound

    def test_gyory_past_the_float_range_is_inf(self):
        assert gyory_sunit_bound(1.0, 1.0, t=2000, P=2.0, R=2.0) == math.inf
        # R * script_r^(t+1) * P with log* 2 = 1: 2 * 2^1001 * 2 still fits
        assert gyory_sunit_bound(1.0, 1.0, t=1000, P=2.0, R=2.0) == 2.0**1003

    def test_lefourn_branches(self):
        small = lefourn_sunit_bound(1.0, 2.0, degree=2, t=1, R_S=3.0, C118=2.5)
        assert small == pytest.approx(2.5 * 3.0 * math.log(3.0) * 2.0)
        general = lefourn_sunit_bound(1.0, 2.0, degree=2, t=3, R_S=3.0, P3=5.0)
        expected = 5.0 * 3.0 * (1 + math.log(3.0) / math.log(5.0)) * 2.0
        assert general == pytest.approx(expected)
        with pytest.raises(BadParameter):
            lefourn_sunit_bound(1.0, 2.0, degree=2, t=3, R_S=3.0, P3=1.0)

    def test_constants_must_be_positive(self):
        for value in (0.0, -1.0):
            with pytest.raises(BadParameter):
                gyory_sunit_bound(2.0, 3.0, C14=value)
            with pytest.raises(BadParameter):
                lefourn_sunit_bound(1.0, 2.0, degree=2, t=3, P3=5.0, C119=value)


class TestCalibration:
    def test_already_holds_at_zero(self):
        assert empirical_min_C([T189], 2) == 0.0

    def test_positive_when_needed(self):
        t = make_triple(3, 125, -128)  # log 128 > sqrt(5) * 2
        c = empirical_min_C([t], 2)
        assert c > 0
        report = thm2_rhs(t, DEFAULT_CONFIG.with_C(c))
        assert report.holds
        # the tol/2 = 5e-7 outward rounding leaves a slim positive margin
        tight = thm2_rhs(t, DEFAULT_CONFIG.with_C(max(c - 1e-4, 0.0)))
        assert not tight.holds

    def test_monotone_under_dataset_growth(self):
        small = empirical_min_C([T189], 2)
        grown = empirical_min_C([T189, make_triple(3, 125, -128)], 2)
        assert grown >= small

    def test_partition_invariant(self, rng):
        dataset = [random_triple(rng, Q, 500) for _ in range(80)]
        dataset.append(make_triple(3, 125, -128))
        whole = empirical_min_C(dataset, 2)
        assert whole > 0
        assert whole == max(empirical_min_C(dataset[::2], 2),
                            empirical_min_C(dataset[1::2], 2))

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            empirical_min_C([], 2)
        with pytest.raises(EmptyDataset):
            empirical_min_C((t for t in ()), 2)

    @pytest.mark.parametrize("theorem", [1, 2, 3])
    def test_reads_a_one_shot_generator(self, primitive_300, theorem):
        dataset = primitive_300
        if theorem == 3:
            dataset = [t for t in dataset if t.G > DEFAULT_CONFIG.G_min]
        rows = (t for t in dataset)
        assert empirical_min_C(rows, theorem) == empirical_min_C(dataset, theorem)
        with pytest.raises(EmptyDataset):  # read once, so nothing is left
            empirical_min_C(rows, theorem)

    def test_all_unit_triple_has_no_radical(self):
        field = QuadraticField(-3)  # 1 + (w - 1) + (-w) = 0, all units
        units = make_triple(AlgebraicInt(field, 1), AlgebraicInt(field, -1, 1),
                            AlgebraicInt(field, 0, -1), field)
        assert units.G == 1
        with pytest.raises(BadRadical):
            empirical_min_C([units], 2)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(BadParameter):
            empirical_min_C([make_triple(3, 125, -128)], 2, tol=tol)

    def test_thm3_needs_the_radical_guard_respected(self):
        from abckit.radical import enumerate_primitive_triples
        from abckit.errors import BadParameter as BP

        dataset = enumerate_primitive_triples(120)
        # small-radical triples sink the bare product form at every C
        with pytest.raises(BP):
            empirical_min_C(dataset, 3)
        filtered = [t for t in dataset if t.G > DEFAULT_CONFIG.G_min]
        c3 = empirical_min_C(filtered, 3)
        assert c3 >= 0
        config = DEFAULT_CONFIG.with_C(c3)
        from abckit import thm3_rhs as thm3

        assert all(thm3(t, config).holds for t in filtered)


def bisection_min_c(lhs: float, base: float, kappa_log_g: float, tol: float) -> float:
    """Reference: smallest C with lhs <= base * exp(C * kappa_log_g), by
    bisection to tol."""
    if lhs <= base:
        return 0.0
    if kappa_log_g <= 0:
        raise BadParameter("a small-radical triple violates its bound at every C")
    hi = 1.0
    while base * math.exp(hi * kappa_log_g) < lhs:
        hi *= 2
    lo = 0.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if base * math.exp(mid * kappa_log_g) >= lhs:
            hi = mid
        else:
            lo = mid
    return hi


def empirical_min_c_mp(triples, theorem: int, config: BoundConfig = DEFAULT_CONFIG,
                       tol: float = 1e-6) -> float:
    """Reference: `empirical_min_C` with every row in mpmath."""
    if _finite_real(tol, "tol") <= 0:
        raise BadParameter(f"tol must be positive and finite, got {tol}")
    triples = list(triples)
    if not triples:
        raise EmptyDataset("calibration needs at least one triple")
    needed = [c for c in (_needed_C_mp(t, theorem, config) for t in triples)
              if c is not None]
    return max(needed) + tol / 2 if needed else 0.0


class TestCalibrationAgainstBisection:
    """The closed form against a per-triple bisection on the same rows."""

    TOL = 1e-6
    REPORTS = {1: thm1_rhs, 2: thm2_rhs, 3: thm3_rhs}

    @pytest.mark.parametrize("d", [None, -1, -7])
    @pytest.mark.parametrize("theorem", [1, 2, 3])
    def test_matches_bisection_and_is_minimal(self, d, theorem):
        field = Q if d is None else QuadraticField(d)
        positive = 0
        for seed in range(4):
            rng = random.Random(seed)
            dataset = [random_triple(rng, field, rng.choice((30, 100, 1000)))
                       for _ in range(60)]
            if theorem == 3:
                dataset = [t for t in dataset if t.G > DEFAULT_CONFIG.G_min]
            oracle = max(bisection_min_c(
                _log_height(t),
                math.exp(_log_base(t.height_selectors, theorem)),
                exponent_term(t.G, 1.0) * math.log(t.G), self.TOL) for t in dataset)
            c = empirical_min_C(dataset, theorem, tol=self.TOL)
            assert abs(c - oracle) <= self.TOL
            report = self.REPORTS[theorem]
            config = DEFAULT_CONFIG.with_C(c)
            assert all(report(t, config).holds for t in dataset)
            if c > 0:
                positive += 1
                below = DEFAULT_CONFIG.with_C(max(c - 2 * self.TOL, 0.0))
                assert not all(report(t, below).holds for t in dataset)
        if theorem == 3:
            assert positive  # the minimality check ran


# ---------------------------------------------------------------------------
# The float64 report and calibrator against their mpmath oracles


ERR_UNIT = 2.0**-48  # the error bounds documented in bounds._theorem_report


def documented_errors(report, triple, theorem, config):
    """(E_l, E_r, E_weak) of `_theorem_report`'s docstring, at the float report."""
    spread = (1 + 40 * config.C_main) * math.log(triple.G) + 4
    e_l = ERR_UNIT * (report.lhs + 1)
    e_r = ERR_UNIT * report.rhs * (abs(_log_base(triple.height_selectors, theorem)) + spread)
    e_w = ERR_UNIT * report.weak_rhs * spread if theorem == 3 else 0.0
    return e_l, e_r, e_w


def float_exponent_parts(triple, theorem):
    """(log H, log base, kappa * log G), each in float64, kappa at C = 1."""
    log_g = math.log(triple.G)
    llg = math.log(log_g)
    return (math.log(max(abs(v.norm()) for v in triple.coordinates())),
            _log_base(triple.height_selectors, theorem), math.log(llg) / llg * log_g)


def planted_row(abc, fraction):
    """The triple and the config at which its float theorem 2 rhs sits
    `fraction` of the documented bound E_l + E_r above its lhs."""
    triple = make_triple(*abc)
    lhs, log_base, kappa_log_g = float_exponent_parts(triple, 2)
    assert lhs > math.exp(log_base) and triple.G > E_SQUARED_GUARD
    at_zero = DEFAULT_CONFIG.with_C((math.log(lhs) - log_base) / kappa_log_g)
    e_l, e_r, _ = documented_errors(_theorem_report_mp(2, triple, at_zero), triple, 2,
                                    at_zero)
    C = (math.log(lhs + fraction * (e_l + e_r)) - log_base) / kappa_log_g
    return triple, DEFAULT_CONFIG.with_C(C)


@pytest.fixture
def mp_fallbacks(monkeypatch):
    """Counts calls of the mpmath report made by the float one."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _theorem_report_mp(*args)

    monkeypatch.setattr(bounds, "_theorem_report_mp", spy)
    return calls


class TestFloatReportAgainstMpmath:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32), field=st.sampled_from(ALL_FIELDS),
           size=st.sampled_from((30, 10**3, 10**6, 10**9)), C=st.floats(0, 5),
           full=st.booleans())
    def test_holds_identical_and_values_within_bound(self, seed, field, size, C, full):
        triple = random_triple(random.Random(seed), field, size)
        config = replace(DEFAULT_CONFIG, C_main=C, full_exponent=full)
        for theorem in (1, 2, 3):
            if triple.G < 2:  # all units
                with pytest.raises(BadRadical):
                    _theorem_report_mp(theorem, triple, config)
                with pytest.raises(BadRadical):
                    _theorem_report(theorem, triple, config)
                continue
            got = _theorem_report(theorem, triple, config)
            want = _theorem_report_mp(theorem, triple, config)
            assert got.holds == want.holds
            assert (got.theorem, got.regime) == (want.theorem, want.regime)
            e_l, e_r, e_w = documented_errors(got, triple, theorem, config)
            assert abs(got.lhs - want.lhs) <= e_l
            assert abs(got.rhs - want.rhs) <= e_r
            assert abs(got.margin - want.margin) <= e_l + e_r
            if theorem == 3:
                assert abs(got.weak_rhs - want.weak_rhs) <= e_w
            else:
                assert got.weak_rhs is want.weak_rhs is None

    @pytest.mark.parametrize("abc", [(3, 125, -128), (5, 27, -32), (13, 243, -256),
                                     (1, 4095, -4096), (47, 81, -128)])
    @pytest.mark.parametrize("fraction", [-1 / 2, -1 / 8, -1 / 64, 0.0, 1 / 64, 1 / 8, 1 / 2])
    def test_planted_boundary_rows_take_the_fallback(self, abc, fraction, mp_fallbacks):
        triple, config = planted_row(abc, fraction)
        assert thm2_rhs(triple, config) == _theorem_report_mp(2, triple, config)
        assert len(mp_fallbacks) == 1

    @pytest.mark.parametrize("abc", [(3, 125, -128), (1, 4095, -4096)])
    @pytest.mark.parametrize("fraction", [-4.0, 4.0])
    def test_rows_outside_the_bound_stay_in_float(self, abc, fraction, mp_fallbacks):
        triple, config = planted_row(abc, fraction)
        report = thm2_rhs(triple, config)
        assert not mp_fallbacks
        assert report.holds == (fraction > 0) == _theorem_report_mp(2, triple, config).holds

    @pytest.mark.parametrize("theorem", [1, 2, 3])
    def test_exponent_past_float_range_takes_the_fallback(self, theorem, mp_fallbacks):
        triple = make_triple(3, 125, -128)
        config = DEFAULT_CONFIG.with_C(2000.0)
        _, log_base, kappa_log_g = float_exponent_parts(triple, theorem)
        assert log_base + config.C_main * kappa_log_g > 709.8  # math.exp would overflow
        report = _theorem_report(theorem, triple, config)
        assert report == _theorem_report_mp(theorem, triple, config)
        assert len(mp_fallbacks) == 1
        assert report.holds and not math.isnan(report.margin)

    def test_small_radical_rows_take_the_fallback(self, mp_fallbacks):
        for abc in [(1, 8, -9), (1, 2, -3), (1, 4, -5)]:
            triple = make_triple(*abc)
            assert triple.G <= DEFAULT_CONFIG.G_min
            assert thm3_rhs(triple) == _theorem_report_mp(3, triple, DEFAULT_CONFIG)
        assert len(mp_fallbacks) == 3


@pytest.fixture(scope="module")
def primitive_300():
    return enumerate_primitive_triples(300)


class TestCalibrationFloatFilter:
    # below e^e, a G_min of 3 lets theorem 3 meet a G with a negative kappa
    @pytest.mark.parametrize("g_min", [DEFAULT_CONFIG.G_min, 6.0, 3.0])
    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("theorem", [1, 2, 3])
    def test_bit_identical_at_height_300(self, primitive_300, theorem, full, g_min):
        config = replace(DEFAULT_CONFIG, full_exponent=full, G_min=g_min)
        dataset = primitive_300
        if theorem == 3:
            dataset = [t for t in dataset if t.G > config.G_min]
        assert (_outcome(empirical_min_C, dataset, theorem, config)
                == _outcome(empirical_min_c_mp, dataset, theorem, config))

    def test_theorem_2_at_height_1000(self):
        dataset = enumerate_primitive_triples(1000)
        full = replace(DEFAULT_CONFIG, full_exponent=True)
        assert empirical_min_C(dataset, 2) == 0.41127528566033666
        assert empirical_min_C(iter(dataset), 2, full) == 0.08437629729769093

    def test_rows_near_the_base_take_the_mpmath_row(self, primitive_300, monkeypatch):
        """A wider filter sends rows with log H near the base to `_needed_C_mp`;
        the result is still the all-mpmath one."""
        err_unit = 2.0**-10
        calls = []

        def spy(triple, theorem, config):
            c_row = _needed_C_mp(triple, theorem, config)
            calls.append((triple, theorem, c_row))
            return c_row

        monkeypatch.setattr(bounds, "_ERR_UNIT", err_unit)
        monkeypatch.setattr(bounds, "_needed_C_mp", spy)
        for theorem in (1, 2, 3):
            dataset = primitive_300
            if theorem == 3:
                dataset = [t for t in dataset if t.G > DEFAULT_CONFIG.G_min]
            assert empirical_min_C(dataset, theorem) == empirical_min_c_mp(dataset, theorem)
        near_rows_with_c = []
        for triple, theorem, c_row in calls:
            lhs = _log_height(triple)
            base = math.exp(_log_base(triple.height_selectors, theorem))
            if c_row is not None and lhs <= base + err_unit * (lhs + 1):
                near_rows_with_c.append(triple)  # only the loop sends such rows
        assert near_rows_with_c

    @pytest.mark.parametrize("d", [None, -1, -7])
    @pytest.mark.parametrize("theorem", [1, 2, 3])
    def test_bit_identical_on_the_bisection_datasets(self, d, theorem):
        # the datasets of TestCalibrationAgainstBisection
        field = Q if d is None else QuadraticField(d)
        for seed in range(4):
            rng = random.Random(seed)
            dataset = [random_triple(rng, field, rng.choice((30, 100, 1000)))
                       for _ in range(60)]
            if theorem == 3:
                dataset = [t for t in dataset if t.G > DEFAULT_CONFIG.G_min]
            for tol in (1e-6, 1e-12):
                assert (empirical_min_C(dataset, theorem, tol=tol)
                        == empirical_min_c_mp(dataset, theorem, tol=tol))

    @pytest.mark.parametrize("args", [
        ([], 2, {}),
        ([make_triple(3, 125, -128)], 2, {"tol": 0.0}),
        ([make_triple(3, 125, -128)], 2, {"tol": math.nan}),
        ([make_triple(3, 125, -128)], 4, {}),
        ("small-radical", 3, {}),
        ("units-after-small-radical", 3, {}),
        ("units", 2, {}),
    ])
    def test_errors_identical(self, args):
        dataset, theorem, kwargs = args
        field = QuadraticField(-3)
        units = make_triple(AlgebraicInt(field, 1), AlgebraicInt(field, -1, 1),
                            AlgebraicInt(field, 0, -1), field)
        if dataset == "small-radical":
            dataset = enumerate_primitive_triples(120)
        elif dataset == "units-after-small-radical":
            dataset = enumerate_primitive_triples(120) + [units]
        elif dataset == "units":
            dataset = [make_triple(3, 125, -128), units]
        with pytest.raises(Exception) as want:
            empirical_min_c_mp(dataset, theorem, **kwargs)
        with pytest.raises(type(want.value)) as got:
            empirical_min_C(dataset, theorem, **kwargs)
        assert str(got.value) == str(want.value)


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the error it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


class TestGlobalMpmathPrecision:
    """Every mpmath value is taken at heights.MP_BITS, whatever the caller's
    mp.prec is."""

    @staticmethod
    def values():
        rng = random.Random(15)
        triples = [make_triple(1, 8, -9), make_triple(3, 125, -128), make_triple(5, 27, -32)]
        triples += [random_triple(rng, f, 10**6) for f in ALL_FIELDS]
        full = replace(DEFAULT_CONFIG, full_exponent=True)
        out = []
        for t in triples:
            out += [thm1_rhs(t), thm2_rhs(t), thm3_rhs(t), thm3_rhs(t, full),
                    _theorem_report_mp(2, t, DEFAULT_CONFIG)]
            out += [_outcome(corollary_bound, cid, t, alpha=0.55) for cid in (3, 4, 5, 11, 13)]
        out += [empirical_min_C(triples, 2), empirical_min_C(triples, 2, full),
                empirical_min_c_mp(triples, 1)]
        out += [zero_bound(30, 0.7), zero_bound(10**6 + 3, 2.5)]
        for f in ALL_FIELDS:
            for _ in range(5):
                num, den = random_element(rng, f), random_element(rng, f)
                out += [weil_height(num, den), house(num), places(num, den)]
        out += [yu_ord_bound(3, 2, 1, 5, [0.5, 1.2, 0.0], 1000.0), tidy_bound(1234.5)]
        out += [landau_min_constant(f, 50) for f in ALL_FIELDS[:3]]
        return out

    def test_results_ignore_mp_prec(self):
        want = self.values()
        saved = mp.prec
        try:
            for prec in (12, 200):
                mp.prec = prec
                assert self.values() == want
        finally:
            mp.prec = saved


@pytest.fixture(scope="module")
def primorial_triple():
    """1 + 1019# = p with p prime (a primorial prime), so G = 1019# p has
    2,820 bits: past the float range."""
    a = math.prod(primes_upto(1019))
    return make_triple(1, a, -(a + 1))


class TestPastTheFloatRange:
    """Values past 2^1024 come back as inf or as a typed error; below it every
    decision is the one the float expressions G**a and math.exp take."""

    def test_corollaries_give_inf_or_hypothesis_fails(self, primorial_triple):
        t = primorial_triple
        assert t.G.bit_length() == 2820
        # N_c = 1019# + 1 is about G^(1/2), so it is above G^0.4, below G^0.6
        for cid, alpha in [(5, 0.6), (9, 0.6), (12, 0.5)]:
            report = corollary_bound(cid, t, alpha=alpha)
            assert report.rhs == report.margin == math.inf and report.holds
        for cid, alpha, form in [(5, 0.4, None), (9, 0.4, 2), (11, 0.5, None)]:
            with pytest.raises(HypothesisFails):
                corollary_bound(cid, t, alpha=alpha, form=form)
        assert corollary_bound(9, t, alpha=0.4).detail == "theta=(1+a)/2, a=0.4"

    def test_calibration_skips_rows_whose_base_is_past_exp(self, primorial_triple):
        rows = [primorial_triple, T189]
        assert _log_base(primorial_triple.height_selectors, 2) > 700
        for theorem in (1, 2):
            assert empirical_min_C(rows, theorem) == empirical_min_c_mp(rows, theorem) == 0.0
        assert _needed_C_mp(primorial_triple, 3, DEFAULT_CONFIG) is None

    def test_cli_corollary_prints_no_traceback(self, primorial_triple, capsys):
        from abckit.cli import dispatch

        t = primorial_triple
        args = ["corollary", "--id", "5", "--field", "Q", "--a", str(t.a),
                "--b", str(t.b), f"--c={t.c}", "--alpha"]
        assert dispatch(args + ["0.4"]) == 1
        assert "corollary 5" in capsys.readouterr().err
        assert dispatch(args + ["0.6"]) == 0
        assert "rhs=inf" in capsys.readouterr().out

    def test_below_the_float_range_matches_the_float_expressions(self, monkeypatch):
        rng = random.Random(17)
        triples = [random_triple(rng, f, size) for f in ALL_FIELDS
                   for size in (30, 10**4, 10**9, 10**15) for _ in range(4)]
        triples += [T189, make_triple(3, 125, -128), make_triple(13, 35, -48),
                    make_triple(7, 9, -16)]

        def outcomes():
            return [_outcome(corollary_bound, cid, t, alpha=alpha, form=form)
                    for t in triples for cid in (5, 9, 11, 12)
                    for alpha in (0.1, 0.35, 0.5, 0.9, 1.0) for form in (None, 1, 2)]

        # up to the largest int that float() takes, G ** a is Python's float
        for G in [t.G for t in triples] + [(1 << 1023) + 1, (1 << 1024) - (1 << 970) - 1]:
            for a in (1 / 3, 0.55, 1.0):
                assert type(bounds._power(G, a)) is float and bounds._power(G, a) == G**a
        want = outcomes()
        monkeypatch.setattr(bounds, "_compare_power",
                            lambda N, G, a: (N > G**a) - (N < G**a))
        assert outcomes() == want
        assert sum(isinstance(o, tuple) for o in want) > 100  # both decisions occur


class TestExactPowerComparison:
    """Corollary hypotheses N < G^a are decided as N^q < G^p when a is p/q
    with q <= 256, and on the float G**a otherwise."""

    def test_cor5_fails_where_the_float_said_it_holds(self):
        # a = 2q with q and a + 1 prime, so G = a(a + 1) < (a + 1)^2 = N_c^2;
        # the float G**0.5 rounds to above a + 1
        a = 765204344816141266
        t = make_triple(1, a, -(a + 1))
        assert t.G == a * (a + 1) and a + 1 < t.G**0.5
        with pytest.raises(HypothesisFails):
            corollary_bound(5, t, alpha=0.5)

    def test_integer_roots_are_compared_exactly(self):
        rng = random.Random(256)
        for bits in (60, 200, 3000):
            G = rng.getrandbits(bits) | 1 << (bits - 1)
            for p, q in ((1, 2), (1, 3), (3, 8), (1, 256), (7, 20)):
                root, exact = sympy.integer_nthroot(G**p, q)
                assert bounds._compare_power(root, G, p / q) == (0 if exact else -1)
                assert bounds._compare_power(root + 1, G, p / q) == 1
            cube = sympy.integer_nthroot(G, 3)[0] ** 3
            assert bounds._compare_power(sympy.integer_nthroot(cube, 3)[0], cube, 1 / 3) == 0

    def test_other_exponents_keep_the_float_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bounds, "_power", lambda G, a: calls.append(a) or G**a)
        # 1000 ** (1/3) is 9.999999999999998 in float
        assert bounds._compare_power(10, 1000, 1 / 3) == 0
        assert bounds._compare_power(10, 1000, 0.3333) == 1
        assert bounds._compare_power(10, 1000, 1 / 257) == 1
        assert calls == [0.3333, 1 / 257]
