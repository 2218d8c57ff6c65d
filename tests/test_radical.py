import itertools
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import sympy

from abckit import (
    AlgebraicInt,
    RATIONALS,
    QuadraticField,
    Selectors,
    enumerate_primitive_triples,
    factor_element,
    log_projective_height,
    make_triple,
    projective_height,
    smoothness_S,
    thm2_rhs,
)
from abckit.errors import (
    BadParameter,
    NotCoprime,
    SumNotZero,
    UnsupportedField,
    ZeroCoordinate,
)

from abckit.heights import MP

from conftest import ALL_FIELDS, GAUSSIAN, random_element

Q = RATIONALS


def random_triple(rng, field=None, max_size=10**4):
    while True:
        f = field or rng.choice(ALL_FIELDS)
        a = random_element(rng, f, max_size)
        b = random_element(rng, f, max_size)
        c = -(a + b)
        if c.is_zero():
            continue
        try:
            return make_triple(a, b, c, f)
        except NotCoprime:
            continue


class TestMakeTriple:
    def test_canonical_example(self):
        t = make_triple(1, 8, -9)
        assert t.G == 6
        assert (t.selectors.n_a, t.selectors.n_b, t.selectors.n_c) == (1, 2, 3)
        assert t.H == 9

    def test_gaussian_example(self):
        t = make_triple(
            AlgebraicInt(GAUSSIAN, 1, 0),
            AlgebraicInt(GAUSSIAN, 0, 2),
            AlgebraicInt(GAUSSIAN, -1, -2),
        )
        assert t.G == 10

    def test_two_is_the_only_prime(self):
        assert make_triple(1, 1, -2).G == 2

    def test_rejections(self):
        with pytest.raises(SumNotZero):
            make_triple(1, 2, 3)
        with pytest.raises(ZeroCoordinate):
            make_triple(0, 2, -2)
        # a prime shared by two coordinates divides the third, so each
        # order of the coordinates is caught
        pi = AlgebraicInt(QuadraticField(-1), 2, 1)
        for coords in ((2, 4, -6), (pi * 3, pi * pi, -(pi * 3 + pi * pi))):
            for order in itertools.permutations(coords):
                with pytest.raises(NotCoprime):
                    make_triple(*order)
        with pytest.raises(UnsupportedField):
            make_triple(1, 1, -2, QuadraticField(-10))

    def test_non_integer_coordinates_rejected(self):
        # never truncated: floats, Fractions (whole ones too) and strings are refused
        for coords in ((1.7, 8.2, -9), (Fraction(1, 2), Fraction(1, 2), -1),
                       (Fraction(2, 1), 7, -9), ("1", "8", "-9")):
            with pytest.raises(BadParameter):
                make_triple(*coords)

    def test_numpy_integers_accepted(self):
        t = make_triple(np.int64(1), np.int32(8), np.int64(-9))
        assert t == make_triple(1, 8, -9)
        assert type(t.a.x) is int

    def test_radical_equals_independent_refactorization(self, rng):
        # G re-derived by factoring the product a*b*c in one go: over Q via
        # sympy, over quadratic fields via a single factor_element call
        # (coprimality makes the distinct-prime sets identical)
        for _ in range(200):
            t = random_triple(rng)
            if t.field.degree == 1:
                product = abs((t.a * t.b * t.c).x)
                expected = 1
                for p in sympy.factorint(product):
                    expected *= p
                assert t.G == expected
            else:
                assert t.G == factor_element(t.a * t.b * t.c).radical()

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=[f.label() for f in ALL_FIELDS])
    def test_height_matches_projective_height(self, rng, field):
        for _ in range(30):
            t = random_triple(rng, field)
            assert projective_height(t.coordinates(), t.field) == t.H
            # the log H column of `abckit radical` reads t.H
            assert float(MP.log(t.H)) == log_projective_height(t.coordinates(), t.field)


class TestSmoothness:
    def test_examples(self):
        assert smoothness_S(make_triple(1, 8, -9)) == 3
        assert smoothness_S(make_triple(3, 125, -128)) == 5
        assert smoothness_S(make_triple(1, 1, -2)) == 2

    def test_no_triple_over_q_has_three_unit_coordinates(self):
        # +-1 +-1 +-1 is odd, so smoothness_S never meets an all-unit triple
        for signs in itertools.product((1, -1), repeat=3):
            with pytest.raises(SumNotZero):
                make_triple(*signs)

    def test_quadratic_rejected(self):
        t = make_triple(
            AlgebraicInt(GAUSSIAN, 1, 0),
            AlgebraicInt(GAUSSIAN, 0, 2),
            AlgebraicInt(GAUSSIAN, -1, -2),
        )
        with pytest.raises(UnsupportedField):
            smoothness_S(t)


class TestSelectors:
    def test_single_prime_coordinates(self):
        sel = make_triple(1, 8, -9).selectors
        assert sel.n_c_third == 1 and sel.n_q == 1

    def test_third_largest_of_bc(self):
        # primes of c = {3, 5}, of bc = {2, 3, 5}: third largest of bc is 2
        sel = make_triple(1, -16, 15).selectors
        assert sel.n_c_third == 1 and sel.n_q == 2

    def test_third_largest_within_c(self):
        # c = 105 = 3 * 5 * 7 sorted desc: 7, 5, 3
        sel = make_triple(-106, 1, 105).selectors
        assert sel.n_c_third == 3

    def test_monotonicity(self, rng):
        for _ in range(200):
            sel = random_triple(rng).selectors
            assert sel.n_c_third <= sel.n_c
            assert sel.n_q <= max(sel.n_b, sel.n_c)

    def test_ordered_selectors_sorted_by_size(self):
        t = make_triple(8, 1, -9)  # stored order not height-sorted
        assert t.selectors.n_a == 2 and t.selectors.n_b == 1
        sel = t.height_selectors
        assert (sel.n_a, sel.n_b, sel.n_c) == (1, 2, 3)


class TestOrdHeightLemma:
    def test_log_norm_bounded_by_max_ord_times_log_radical(self, rng):
        # |norm(a)| <= G_a^(max ord), exactly in the integers
        checked = 0
        while checked < 500:
            f = rng.choice(ALL_FIELDS)
            a = random_element(rng, f, 10**6)
            if a.is_unit():
                continue
            fac = factor_element(a)
            radical = fac.radical()
            assert abs(a.norm()) <= radical ** fac.max_exponent()
            checked += 1


class TestEnumeratePrimitiveTriples:
    def test_equals_make_triple_up_to_200(self):
        oracle = [make_triple(x, z - x, -z) for z in range(2, 201)
                  for x in range(1, z // 2 + 1) if gcd(x, z) == 1]
        for H in (2, 3, 4, 5, 6, 7, 8, 30, 97, 128, 199, 200):
            count = sum(-t.c.x <= H for t in oracle)
            assert enumerate_primitive_triples(H) == oracle[:count]

    def test_height_is_z(self):
        triples = enumerate_primitive_triples(300)
        assert len(triples) == 13_699
        assert all(t.H == -t.c.x for t in triples)


# (record, a field, a new value for it)
RECORDS = [
    (Selectors(1, 2, 3, 1, 1), "n_b", 5),
    (make_triple(1, 8, -9), "G", 7),
    (thm2_rhs(make_triple(3, 125, -128)), "theorem", "thm9"),
]


@pytest.mark.parametrize("record, name, value", RECORDS,
                         ids=[type(case[0]).__name__ for case in RECORDS])
def test_records(record, name, value):
    cls = type(record)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    same = cls(*(getattr(record, f) for f in cls._fields))
    assert same == record and hash(same) == hash(record)
    changed = record._replace(**{name: value})
    assert getattr(changed, name) == value and getattr(record, name) != value
    assert all(getattr(changed, f) == getattr(record, f) for f in cls._fields if f != name)
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in cls._fields)
    assert repr(record) == f"{cls.__name__}({fields})"
