import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from abckit import (
    AlgebraicInt,
    QuadraticField,
    RATIONALS,
    absolute_weil_height,
    factor_element,
    house,
    log_projective_height,
    places,
    projective_height,
    weil_height,
)
import abckit
from abckit import heights
from abckit.arith import primes_above
from abckit.errors import AllZero, BadParameter, ZeroInput

from conftest import ALL_FIELDS, GAUSSIAN, random_element

Q = RATIONALS


class TestWeilHeight:
    def test_units_have_zero_height(self):
        assert weil_height(1) == 0.0
        assert weil_height(-1) == 0.0
        for u in GAUSSIAN.units():
            assert weil_height(u) == 0.0

    def test_reduced_fraction_over_q(self):
        assert abs(weil_height(3, 2) - math.log(3)) < 1e-12
        assert abs(weil_height(2, 3) - math.log(3)) < 1e-12
        # unreduced input gives the same height
        assert abs(weil_height(30, 20) - math.log(3)) < 1e-12

    def test_degree_two_scaling(self):
        g3, g2 = AlgebraicInt(GAUSSIAN, 3, 0), AlgebraicInt(GAUSSIAN, 2, 0)
        assert abs(weil_height(g3, g2) - 2 * math.log(3)) < 1e-12
        assert abs(absolute_weil_height(g3, g2) - math.log(3)) < 1e-12

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            weil_height(0)
        with pytest.raises(ZeroInput):
            weil_height(1, 0)

    def test_zero_height_only_for_units(self, rng):
        for f in ALL_FIELDS:
            for _ in range(100):
                a = random_element(rng, f, 10**6)
                h = weil_height(a)
                assert (h == 0.0) == a.is_unit()

    def test_matches_projective_height_of_one_x(self, rng):
        # relative height of x equals log H(1, x)
        for f in ALL_FIELDS:
            one = AlgebraicInt(f, 1, 0)
            for _ in range(100):
                num = random_element(rng, f, 10**6)
                den = random_element(rng, f, 10**6)
                h = weil_height(num, den)
                # H(den, num) is the projective form of (1, num/den)
                log_h = log_projective_height([den, num], f)
                assert abs(h - log_h) < 1e-9


    def test_common_factors_cancel_exactly(self):
        f = QuadraticField(-11)
        a, b = AlgebraicInt(f, -6920, 8384), AlgebraicInt(f, 7308, 652)
        assert weil_height(a * b * b, b * b) == weil_height(a * b, b) == weil_height(a)


class TestProductFormula:
    def test_sum_of_local_logs_vanishes(self, rng):
        for f in ALL_FIELDS:
            for _ in range(60):
                num = random_element(rng, f)
                den = random_element(rng, f)
                total = sum(p.log_abs() for p in places(num, den))
                assert abs(total) < 1e-9

    def test_place_values_structure(self):
        plc = places(AlgebraicInt(Q, 12), AlgebraicInt(Q, 5))
        finite = [p for p in plc if p.kind == "finite"]
        infinite = [p for p in plc if p.kind == "infinite"]
        assert {(p.norm, p.exponent) for p in finite} == {(2, 2), (3, 1), (5, -1)}
        assert len(infinite) == 1
        assert infinite[0].local_degree == 1
        assert abs(infinite[0].modulus - 2.4) < 1e-12


class TestProjectiveHeight:
    def test_coprime_integers(self):
        assert projective_height([1, 8, -9]) == 9

    def test_scale_invariance_examples(self):
        assert projective_height([2, 16, -18]) == 9
        assert projective_height([Fraction(1, 2), 4, Fraction(-9, 2)]) == 9

    def test_degree_two_square(self):
        coords = [AlgebraicInt(GAUSSIAN, v, 0) for v in (1, 8, -9)]
        assert projective_height(coords) == 81

    def test_all_zero_rejected(self):
        with pytest.raises(AllZero):
            projective_height([0, 0, 0])

    def test_zero_coordinate_is_ignored(self):
        assert projective_height([0, 3, 5]) == 5

    def test_coordinates_must_be_integers(self):
        for coords in ([1.5, 2, 3], [1, "8", -9]):
            with pytest.raises(BadParameter):
                projective_height(coords)
        assert projective_height([np.int64(2), np.int32(16), -18]) == 9

    def test_exact_scale_invariance_random(self, rng):
        for f in ALL_FIELDS:
            for _ in range(60):
                coords = [random_element(rng, f, 10**4) for _ in range(3)]
                k = random_element(rng, f, 10**3)
                h1 = projective_height(coords, f)
                h2 = projective_height([k * c for c in coords], f)
                assert h1 == h2  # exact rational equality
                assert abs(log_projective_height(coords, f)
                           - log_projective_height([k * c for c in coords], f)) < 1e-9

    def test_height_at_least_one(self, rng):
        for f in ALL_FIELDS:
            for _ in range(50):
                coords = [random_element(rng, f, 10**4) for _ in range(3)]
                assert projective_height(coords, f) >= 1

    def test_bounded_by_twice_degree_times_max_absolute_height(self, rng):
        # log H(x, y, z) <= 2 d max(h_abs(x/z), h_abs(y/z))
        for f in ALL_FIELDS:
            for _ in range(60):
                x, y, z = (random_element(rng, f, 10**4) for _ in range(3))
                lhs = log_projective_height([x, y, z], f)
                bound = 2 * f.degree * max(
                    absolute_weil_height(x, z), absolute_weil_height(y, z)
                )
                assert lhs <= bound + 1e-9


def _height_by_factoring(coords) -> Fraction:
    """The earlier route: factor every nonzero coordinate and divide by
    N(pi)^(least order of pi) for each prime pi that occurs."""
    nonzero = [c for c in coords if not c.is_zero()]
    facs = [factor_element(c) for c in nonzero]
    finite = Fraction(1)
    for prime, norm in {e.prime: e.norm for fac in facs for e in fac}.items():
        finite /= Fraction(norm) ** min(fac.ord_of(prime) for fac in facs)
    return finite * max(abs(c.x) if c.field.degree == 1 else abs(c.norm())
                        for c in nonzero)


class TestProjectiveHeightAgainstFactoring:
    """projective_height (factor the gcd of the norms) against factoring
    every coordinate."""

    def test_scaled_and_zero_coordinates(self, rng):
        for f in ALL_FIELDS:
            for _ in range(80):
                coords = [random_element(rng, f, 10**6) for _ in range(rng.randint(1, 4))]
                scale = random_element(rng, f, 10**4)
                # a common factor of only some coordinates must not count
                part = random_element(rng, f, 10**3)
                coords = [c * scale * (part if i < 2 else 1) for i, c in enumerate(coords)]
                coords += [AlgebraicInt(f, 0, 0)] * rng.randint(0, 2)
                rng.shuffle(coords)
                assert projective_height(coords, f) == _height_by_factoring(coords)

    def test_prime_powers_shared_by_some_coordinates(self, rng):
        for f in ALL_FIELDS:
            primes = [e.prime for p in (2, 3, 5, 7, 13) for e in primes_above(f, p)] \
                if f.degree == 2 else [AlgebraicInt(f, p) for p in (2, 3, 5, 7, 13)]
            for _ in range(60):
                coords = []
                for _ in range(3):
                    c = AlgebraicInt(f, 1, 0)
                    for pi in primes:
                        c = c * pi ** rng.choice([0, 0, 1, 2, 3])
                    coords.append(c)
                assert projective_height(coords, f) == _height_by_factoring(coords)

    def test_pairwise_but_not_common_factors(self):
        assert projective_height([6, 10, 15]) == 15
        assert projective_height([4, 6, 0, 9]) == 9
        g = [AlgebraicInt(GAUSSIAN, *xy) for xy in ((2, 0), (1, 1), (3, 3), (0, 6))]
        assert projective_height(g) == _height_by_factoring(g) == 18

    def test_fraction_coordinates_over_q(self, rng):
        for _ in range(100):
            fracs = [Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**3))
                     for _ in range(3)]
            if not any(fracs):
                continue
            lcm = math.lcm(*(q.denominator for q in fracs))
            ints = [AlgebraicInt(Q, int(q * lcm)) for q in fracs]
            assert projective_height(fracs) == _height_by_factoring(ints)


class TestHouse:
    def test_examples(self):
        assert house(AlgebraicInt(Q, 3)) == 3.0
        assert house(AlgebraicInt(GAUSSIAN, 0, 1)) == 1.0
        assert abs(house(AlgebraicInt(GAUSSIAN, 1, 1)) - math.sqrt(2)) < 1e-12

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            house(AlgebraicInt(Q, 0))

    def test_past_the_float_range_is_inf(self):
        for f in (Q, GAUSSIAN):
            big = AlgebraicInt(f, 10**400)
            assert house(big) == house(-big) == math.inf
            infinite = places(big)[-1]
            assert infinite.kind == "infinite" and infinite.modulus == math.inf
            assert infinite.log_abs() == pytest.approx(400 * f.degree * math.log(10))

    def test_rational_is_correctly_rounded(self, rng):
        # m odd with 53 bits, then 0 and 59 ones: just below the halfway point,
        # so 64-bit rounding first would land on it and round up to even
        tricky = [(m << 60) + (1 << 59) - 1
                  for m in (rng.randrange(2**52, 2**53) | 1 for _ in range(50))]
        plain = [rng.getrandbits(rng.randint(54, 1000)) | 1 << 53 for _ in range(200)]
        for n in tricky + plain:
            h = house(AlgebraicInt(Q, -n))
            below, above = math.nextafter(h, 0), math.nextafter(h, math.inf)
            err = abs(Fraction(h) - n)
            assert err <= abs(Fraction(below) - n) and err <= abs(Fraction(above) - n)

    def test_square_is_norm_exactly(self, rng):
        # house(a)^2 = |norm(a)| in imaginary quadratic rings
        for f in ALL_FIELDS[1:]:
            for _ in range(80):
                a = random_element(rng, f, 10**6)
                n = abs(a.norm())
                assert abs(house(a) ** 2 - n) <= n * 1e-12
                assert abs(house(a) - abs(a.embed())) <= 1e-9 * (1 + abs(a.embed()))


class TestCorrectedExponentBound:
    def test_prime_power_divisor_bounded_by_height(self, rng):
        # norm(p)^ord_p(x) <= H(a, b, c) for coprime integral triples, exactly
        checked = 0
        while checked < 500:
            f = rng.choice(ALL_FIELDS)
            a = random_element(rng, f, 10**4)
            b = random_element(rng, f, 10**4)
            c = -(a + b)
            if c.is_zero():
                continue
            from abckit import ideal_coprime

            if not (ideal_coprime(a, b) and ideal_coprime(a, c) and ideal_coprime(b, c)):
                continue
            h = projective_height([a, b, c], f)
            for coord in (a, b, c):
                for entry in factor_element(coord):
                    assert Fraction(entry.norm) ** entry.exponent <= h
            checked += 1


def test_heights_owns_the_only_mpmath_context():
    """Every mpmath value goes through heights.MP at MP_BITS: no other module
    imports mpmath, and none sets a working precision call by call."""
    assert heights.MP.prec == heights.MP_BITS == 64
    for path in sorted(Path(abckit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                modules = []
            if path.stem != "heights":
                assert not [m for m in modules if m.split(".")[0] == "mpmath"], path.name
            assert not (isinstance(node, ast.Attribute) and node.attr == "workprec"), path.name


def test_library_has_no_assert_statement():
    """`python -O` strips assert statements, so the library checks its
    invariants with a raise (arith.AbckitInternal for a broken one)."""
    for path in sorted(Path(abckit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"
