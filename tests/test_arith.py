import random
from collections import Counter
from math import gcd, isqrt, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from abckit import (
    AlgebraicInt,
    QuadraticField,
    RATIONALS,
    arith,
    canonical_associate,
    factor_element,
    factor_int,
    factor_quad,
    ideal_coprime,
    parse_element,
    parse_field,
)
from abckit.arith import (
    _factor_nat,
    _is_strong_lucas_prp,
    _is_strong_prp,
    first_primes,
    is_probable_prime,
    prime_ideals_in_norm_order,
    primes_above,
    primes_upto,
    splitting_type,
    sqrt_mod,
)
from abckit.errors import (
    BadParameter,
    FactoringLimit,
    ParseError,
    UnsupportedField,
    ZeroInput,
)

from conftest import ALL_FIELDS, GAUSSIAN, QUADRATIC_FIELDS, random_element

Q = RATIONALS


class TestFieldsAndElements:
    def test_field_invariants(self):
        assert Q.degree == 1 and Q.is_rational
        for f in QUADRATIC_FIELDS:
            assert f.degree == 2
            expected = f.d if f.d % 4 == 1 else 4 * f.d
            assert f.disc == expected
            n_units = {-1: 4, -3: 6}.get(f.d, 2)
            assert len(f.units()) == n_units
            for u in f.units():
                assert abs(u.norm()) == 1

    def test_rejects_unsupported_d(self):
        for d in (-5, -6, 2, 3, -165):
            with pytest.raises(UnsupportedField):
                QuadraticField(d)

    def test_d_must_be_an_integer(self):
        # a float or a string equal to an allowed d is refused, not hashed
        # together with that field
        for d in (-7.0, "-7", -7.5):
            with pytest.raises(BadParameter):
                QuadraticField(d)

    def test_numpy_integer_d_becomes_an_int(self):
        numpy = pytest.importorskip("numpy")
        K = QuadraticField(numpy.int64(-7))
        assert type(K.d) is int and K == QuadraticField(-7)
        assert hash(K) == hash(QuadraticField(-7))
        assert primes_above(K, 2) == primes_above(QuadraticField(-7), 2)

    def test_rational_elements_have_zero_y(self):
        with pytest.raises(BadParameter):
            AlgebraicInt(Q, 3, 1)

    def test_norm_zero_iff_zero(self, rng):
        for f in ALL_FIELDS:
            assert AlgebraicInt(f, 0, 0).norm() == 0
            for _ in range(50):
                assert random_element(rng, f, 10**6).norm() != 0

    @given(x1=st.integers(-500, 500), y1=st.integers(-500, 500),
           x2=st.integers(-500, 500), y2=st.integers(-500, 500),
           d=st.sampled_from([-1, -2, -3, -7, -163]))
    def test_norm_multiplicative_hypothesis(self, x1, y1, x2, y2, d):
        f = QuadraticField(d)
        a, b = AlgebraicInt(f, x1, y1), AlgebraicInt(f, x2, y2)
        assert (a * b).norm() == a.norm() * b.norm()

    def test_norm_multiplicative_bulk(self, rng):
        for _ in range(1000):
            f = rng.choice(ALL_FIELDS)
            a, b = random_element(rng, f, 10**5), random_element(rng, f, 10**5)
            assert (a * b).norm() == a.norm() * b.norm()

    def test_conjugate_and_embedding(self, rng):
        for f in QUADRATIC_FIELDS:
            for _ in range(20):
                a = random_element(rng, f, 10**6)
                prod = a * a.conjugate()
                assert prod.y == 0 and prod.x == a.norm()
                assert abs(a.embed() * a.conjugate().embed() - a.norm()) < 1e-6 * abs(a.norm()) + 1e-6

    def test_exact_division(self, rng):
        for f in ALL_FIELDS:
            for _ in range(30):
                a = random_element(rng, f, 10**4)
                b = random_element(rng, f, 10**4)
                prod = a * b
                assert a.divides(prod)
                assert prod.exact_div(a) == b
        three = AlgebraicInt(GAUSSIAN, 3, 0)
        with pytest.raises(BadParameter):
            AlgebraicInt(GAUSSIAN, 1, 1).exact_div(three)

    def test_units_order(self):
        def coords(f):
            return [(u.x, u.y) for u in f.units()]

        assert coords(GAUSSIAN) == [(1, 0), (0, 1), (-1, 0), (0, -1)]
        assert coords(QuadraticField(-3)) == [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
        for f in ALL_FIELDS:
            if f.d not in (-1, -3):
                assert coords(f) == [(1, 0), (-1, 0)]


class TestRingFormulasAgainstSympy:
    """*, conjugate, norm and exact_div in the nine quadratic rings against
    sympy, with omega = (t + sqrt(D))/2 symbolic and t, D derived here from d."""

    @staticmethod
    def omega(f: QuadraticField):
        D = f.d if f.d % 4 == 1 else 4 * f.d
        t = D % 4
        assert (f.t, f.n) == (t, (D - t) // 4)
        return (t + sympy.sqrt(D)) / 2

    @classmethod
    def value(cls, a: AlgebraicInt):
        return a.x + a.y * cls.omega(a.field)

    @classmethod
    def coords(cls, f: QuadraticField, z) -> tuple:
        """(X, Y) with z = X + Y*omega, as sympy rationals."""
        w = cls.omega(f)
        z = sympy.expand(z)
        y = sympy.im(z) / sympy.im(w)
        return sympy.re(z) - y * sympy.re(w), y

    ELEMENTS = st.tuples(st.sampled_from(QUADRATIC_FIELDS), st.integers(-10**6, 10**6),
                         st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
                         st.integers(-10**6, 10**6))

    @settings(max_examples=200, deadline=None)
    @given(ELEMENTS)
    def test_product_conjugate_norm(self, drawn):
        f, x1, y1, x2, y2 = drawn
        a, b = AlgebraicInt(f, x1, y1), AlgebraicInt(f, x2, y2)
        va, vb = self.value(a), self.value(b)
        assert sympy.expand(self.value(a * b) - va * vb) == 0
        assert sympy.expand(self.value(a.conjugate()) - sympy.conjugate(va)) == 0
        assert sympy.expand(va * sympy.conjugate(va)) == a.norm()

    @settings(max_examples=200, deadline=None)
    @given(ELEMENTS, st.booleans())
    def test_exact_div(self, drawn, multiple):
        f, x1, y1, x2, y2 = drawn
        b = AlgebraicInt(f, x2, y2)
        if b.is_zero():
            return
        if multiple:  # a = c*b with the product taken by sympy
            x1, y1 = self.coords(f, (x1 + y1 * self.omega(f)) * self.value(b))
        a = AlgebraicInt(f, int(x1), int(y1))
        va, vb = self.value(a), self.value(b)
        qx, qy = self.coords(f, va * sympy.conjugate(vb) / sympy.expand(vb * sympy.conjugate(vb)))
        if qx.is_integer and qy.is_integer:
            assert a.exact_div(b) == AlgebraicInt(f, int(qx), int(qy))
        else:
            assert not multiple
            with pytest.raises(BadParameter):
                a.exact_div(b)


class TestFactorInt:
    def test_72(self):
        fac = factor_int(72)
        assert [(e.prime.x, e.exponent, e.norm) for e in fac] == [(2, 3, 2), (3, 2, 3)]
        assert fac.unit.x == 1 and fac.value().x == 72

    def test_one_is_empty(self):
        fac = factor_int(1)
        assert len(fac) == 0 and fac.unit.x == 1

    def test_30030_is_squarefree_product_of_first_six_primes(self):
        fac = factor_int(30030)
        assert [e.prime.x for e in fac] == [2, 3, 5, 7, 11, 13]
        assert all(e.exponent == 1 for e in fac)

    def test_sign_goes_to_unit(self):
        fac = factor_int(-72)
        assert fac.unit.x == -1 and fac.value().x == -72

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            factor_int(0)

    def test_against_sympy_oracle(self, rng):
        for _ in range(120):
            n = rng.randint(2, 10**12)
            got = {e.prime.x: e.exponent for e in factor_int(n)}
            assert got == sympy.factorint(n)

    def test_large_semiprime_goes_through_rho(self):
        p, q = 10**9 + 7, 10**9 + 9
        fac = factor_int(p * q)
        assert [(e.prime.x, e.exponent) for e in fac] == [(p, 1), (q, 1)]

    def test_primality_against_sympy(self, rng):
        for n in range(2, 2000):
            assert is_probable_prime(n) == sympy.isprime(n)
        for _ in range(200):
            n = rng.randint(2, 10**15)
            assert is_probable_prime(n) == sympy.isprime(n)

    def test_sqrt_mod_roundtrip(self, rng):
        for p in first_primes(60)[1:]:
            for _ in range(5):
                a = rng.randrange(p)
                r = sqrt_mod(a, p)
                if r is not None:
                    assert r * r % p == a % p
                else:
                    assert pow(a, (p - 1) // 2, p) == p - 1


# Composites below 10^5 passing the strong base-2 test (OEIS A001262) and the
# strong Lucas test with Selfridge's parameters (OEIS A217255)
STRONG_BASE2_PSEUDOPRIMES = [2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799,
                             49141, 52633, 65281, 74665, 80581, 85489, 88357, 90751]
STRONG_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                             40309, 58519, 75077, 97439]
# the largest prime below 2^b is 2^b - offset
PRIME_BELOW_POW2 = {65: 49, 128: 159, 256: 189, 512: 569, 1024: 105, 2048: 1557}


def _chernick_carmichaels(count: int) -> list[int]:
    """(6k+1)(12k+1)(18k+1) with all three factors prime, all above 2^64."""
    out, k = [], 250_000
    while len(out) < count:
        k += 1
        parts = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(sympy.isprime(p) for p in parts):
            out.append(parts[0] * parts[1] * parts[2])
    return out


class TestBailliePSW:
    def test_known_pseudoprimes_fail_the_other_half(self):
        for n in STRONG_BASE2_PSEUDOPRIMES:
            assert _is_strong_prp(n, 2) and not _is_strong_lucas_prp(n)
        for n in STRONG_LUCAS_PSEUDOPRIMES:
            assert _is_strong_lucas_prp(n) and not _is_strong_prp(n, 2)
        for n in STRONG_BASE2_PSEUDOPRIMES + STRONG_LUCAS_PSEUDOPRIMES:
            assert not is_probable_prime(n) and not sympy.isprime(n)

    def test_primes_above_2_64(self):
        big = [2**b - off for b, off in PRIME_BELOW_POW2.items()]
        big += [2**89 - 1, 2**127 - 1, 2**521 - 1, 2**607 - 1]
        for p in big:
            assert sympy.isprime(p)
            assert is_probable_prime(p) and _is_strong_lucas_prp(p)

    def test_random_odd_numbers_against_sympy(self, rng):
        for bits in (65, 66, 80, 100, 128, 200, 256, 512, 1024, 2048):
            count = 40 if bits <= 256 else 10
            for _ in range(count):
                n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
                assert is_probable_prime(n) == sympy.isprime(n), n

    def test_composites_built_from_primes(self, rng):
        primes = [2**b - off for b, off in PRIME_BELOW_POW2.items()][:4]
        primes += [sympy.prevprime(rng.randrange(2**33, 2**40)) for _ in range(20)]
        for i, p in enumerate(primes):
            # no D has (D/p^2) = -1, so squares must be caught before the D search
            assert not _is_strong_lucas_prp(p * p)
            for n in (p * p, p * primes[i - 1], p**3):
                if n >= 1 << 64:
                    assert not is_probable_prime(n) and not sympy.isprime(n)

    def test_strong_pseudoprime_to_every_base_up_to_31(self):
        n = 3825123056546413051
        assert n == 149491 * 747451 * 34233211
        assert all(_is_strong_prp(n, a) for a in primes_upto(31))
        assert not is_probable_prime(n) and not sympy.isprime(n)

    def test_smallest_strong_pseudoprimes_to_the_first_prime_bases(self):
        # the least strong pseudoprimes to all prime bases up to 7, 11, 13 and 17
        # (OEIS A014233); none has a factor <= 37, so the Lucas half decides
        for n in (3215031751, 2152302898747, 3474749660383, 341550071728321):
            assert _is_strong_prp(n, 2)
            assert not is_probable_prime(n) and not sympy.isprime(n)

    def test_random_odd_32_to_64_bits_against_sympy(self, rng):
        for _ in range(600):
            bits = rng.randint(32, 64)
            n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            assert is_probable_prime(n) == sympy.isprime(n), n

    def test_primes_of_21_to_64_bits(self, rng):
        for _ in range(200):
            bits = rng.randint(21, 64)
            p = sympy.randprime(1 << (bits - 1), 1 << bits)
            assert is_probable_prime(p), p

    def test_chernick_carmichael_numbers_below_2_64(self):
        # (6k+1)(12k+1)(18k+1) with all three factors prime and above 37
        count = 0
        for k in range(7, 100_000):
            parts = (6 * k + 1, 12 * k + 1, 18 * k + 1)
            n = parts[0] * parts[1] * parts[2]
            if n >= 1 << 64:
                break
            if all(sympy.isprime(p) for p in parts):
                count += 1
                assert not is_probable_prime(n) and not sympy.isprime(n), n
        assert count > 100

    def test_chernick_carmichael_numbers(self):
        numbers = _chernick_carmichaels(40)
        assert all(n > 1 << 64 for n in numbers)
        # some pass the base-2 test, so only the Lucas half rejects them
        assert any(_is_strong_prp(n, 2) for n in numbers)
        for n in numbers:
            assert not is_probable_prime(n) and not sympy.isprime(n)


# numbers in [10^12, 10^25] built from planted primes beyond trial division
BEYOND_TRIAL = st.integers(1010, 10**6).map(sympy.prevprime)  # primes in (10^3, 10^6]
BEYOND_2_60 = st.integers(2**60 + 1000, 2**70).map(sympy.prevprime)


@st.composite
def planted_numbers(draw) -> int:
    n = draw(st.integers(1, 1000))
    if draw(st.booleans()):
        n *= draw(BEYOND_2_60)
    for p, k in draw(st.lists(st.tuples(BEYOND_TRIAL, st.integers(1, 6)), max_size=3)):
        while k and n * p**k > 10**25:
            k -= 1
        n *= p**k
    while n < 10**12:
        n *= draw(BEYOND_TRIAL)
    return n


def _planted_cases(rng: random.Random) -> list[int]:
    cases = [999983 * 1000003, (10**9 + 7) * (10**9 + 9),
             sympy.prevprime(10**9) * sympy.nextprime(10**9),
             9973**6, 1009**6 * 999983, 999983**2 * 1000003, 2**20 * 999983**3]
    while len(cases) < 80:
        n = rng.choice([1, 2, 6, 30, 997, rng.randint(1, 1000)])
        for _ in range(rng.randint(1, 3)):
            n *= sympy.prevprime(rng.randint(1010, 10**6)) ** rng.choice([1, 1, 2, 3, 6])
        if rng.random() < 0.5:
            n *= sympy.prevprime(rng.randint(2**60 + 1000, 2**70))
        if 10**12 <= n <= 10**25:
            cases.append(n)
    return cases


class TestFactorDifferential:
    """_factor_nat against sympy.factorint beyond the 10^12 random oracle."""

    def test_planted_factors(self, rng):
        for n in _planted_cases(rng):
            assert dict(_factor_nat(n)) == sympy.factorint(n), n

    @settings(max_examples=50, deadline=None)
    @given(n=planted_numbers())
    def test_planted_factors_hypothesis(self, n):
        assert dict(_factor_nat(n)) == sympy.factorint(n)

    def test_many_primes_above_2_16_against_sympy(self, rng):
        mid = [p for p in primes_upto(1 << 18) if p > 1 << 16]
        for count in (20, 100):
            n = 1
            for p in rng.sample(mid, count):
                n *= p ** rng.choice([1, 1, 1, 2])
            assert dict(_factor_nat(n)) == sympy.factorint(n, use_ecm=False)

    def test_many_primes_no_primality_test_at_full_size(self, monkeypatch):
        # rho splits such a product before the part is worth a primality
        # test, so the shrinking cofactor is not tested once per prime
        mid = [p for p in primes_upto(1 << 18) if p > 1 << 16]
        primes = random.Random(7).sample(mid, 100)
        tested = []

        def recording(m):
            tested.append(m.bit_length())
            return is_probable_prime(m)

        monkeypatch.setattr(arith, "is_probable_prime", recording)
        n = prod(primes)
        assert _factor_nat(n) == tuple((p, 1) for p in sorted(primes))
        assert max(tested) < n.bit_length() // 2


class TestStripSmallPrimes:
    """Parts above 2^128 lose their primes below 2^16 through one gcd."""

    def test_mid_primes_big_prime_and_semiprime_against_sympy(self, rng):
        mid = [p for p in primes_upto(1 << 16) if p > 1000]
        big = sympy.nextprime(rng.getrandbits(140) | (1 << 139))
        semi = sympy.prevprime(rng.randrange(2**24, 2**26)) * sympy.nextprime(
            rng.randrange(2**26, 2**28))
        for count in (3, 40, 400):
            n = big * semi
            for p in rng.sample(mid, count):
                n *= p ** rng.choice([1, 1, 2, 3])
            # sympy's ECM stalls on products of many primes above 2^10; its
            # trial division, rho and p-1 factor them in well under a second
            assert dict(_factor_nat(n)) == sympy.factorint(n, use_ecm=False)

    def test_only_small_primes(self):
        n = 1
        for p in primes_upto(6000)[3:]:
            n *= p
        assert _factor_nat(n) == tuple((p, 1) for p in primes_upto(6000)[3:])

    def test_big_part_without_small_factors(self):
        # the gcd is 1, so the part leaves the strip step unchanged and goes to rho
        big = sympy.nextprime(1 << 200)
        p, q = sympy.prevprime(2**30), sympy.nextprime(2**31)
        assert _factor_nat(big * p * q) == ((p, 1), (q, 1), (big, 1))
        assert _factor_nat(big * 997**3) == ((997, 3), (big, 1))


def _affine_add(P, Q, A, B, p):
    """P + Q on B y^2 = x^3 + A x^2 + x over F_p, in affine coordinates; None
    is the point at infinity."""
    if P is None or Q is None:
        return Q if P is None else P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + 2 * A * x1 + 1) * pow(2 * B * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (B * lam * lam - A - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _affine_mul(k, P, A, B, p):
    R = None
    for bit in bin(k)[2:]:
        R = _affine_add(R, R, A, B, p)
        if bit == "1":
            R = _affine_add(R, P, A, B, p)
    return R


def _suyama_point_order(p: int, sigma: int) -> int | None:
    """The order mod the prime p of Suyama's start point for sigma, or None
    when the curve or the point degenerates mod p.

    The point (u^3/v^3, 1) lies on B y^2 = x^3 + A x^2 + x for one B.  Baby
    steps and giant steps find a multiple M of its order in the Hasse
    interval [p + 1 - 2 sqrt p, p + 1 + 2 sqrt p]; the order is the least
    divisor of M that kills the point.
    """
    u, v = (sigma * sigma - 5) % p, 4 * sigma % p
    if u * v % p == 0:
        return None
    A = ((v - u) ** 3 * (3 * u + v) * pow(4 * u**3 * v, -1, p) - 2) % p
    x = u**3 * pow(v**3, -1, p) % p
    B = (x**3 + A * x * x + x) % p
    if B == 0 or (A * A - 4) % p == 0:
        return None
    P = (x, 1)
    lo, s = p + 1 - 2 * isqrt(p) - 2, isqrt(4 * isqrt(p) + 4) + 1
    baby, R = {}, None
    for j in range(s + 1):
        baby.setdefault(None if R is None else R[0], j)
        R = _affine_add(R, P, A, B, p)
    G, S = _affine_mul(lo, P, A, B, p), _affine_mul(s, P, A, B, p)
    for i in range(s + 2):
        j = baby.get(None if G is None else G[0])
        if j is not None:
            M = next(M for M in (lo + i * s - j, lo + i * s + j)
                     if _affine_mul(M, P, A, B, p) is None)
            for q in sympy.primefactors(M):
                while M % q == 0 and _affine_mul(M // q, P, A, B, p) is None:
                    M //= q
            return M
        G = _affine_add(G, S, A, B, p)
    raise AssertionError("no multiple of the order in the Hasse interval")


class TestEllipticCurveMethod:
    """Rho hands a composite part to ECM after _RHO_HANDOVER squarings."""

    def test_curves_find_p_exactly_when_the_point_order_allows(self):
        # With e = ord(Q) / gcd(ord(Q), k) for the stage 1 scalar k, a curve
        # finds p iff e = 1 (stage 1) or e is a prime in (B1, B2] (stage 2),
        # on either side of its giant step, m*D + j or m*D - j.
        p, r, D = 16_777_259, 2**61 - 1, arith._ECM_D
        B1, B2, _ = arith._ECM_LEVELS[0]
        k = prod(q ** sympy.integer_log(B1, q)[0] for q in sympy.primerange(B1 + 1))
        seen = set()
        for sigma in range(6, 60):
            order = _suyama_point_order(p, sigma)
            if order is None:
                continue
            e = order // gcd(order, k)
            if e == 1 or sympy.isprime(e) and B1 < e <= B2:
                case = "stage 1" if e == 1 else ("m*D + j" if e % D < D // 2 else "m*D - j")
            elif e > B2 + D // 2:
                case = "missed"
            else:
                continue
            got = arith._ecm_curve(p * r, sigma, B1, B2)
            assert got == (1 if case == "missed" else p), (sigma, order, e)
            seen.add(case)
        assert seen == {"stage 1", "m*D + j", "m*D - j", "missed"}

    def test_planted_semiprimes(self):
        rng = random.Random(24)
        for _ in range(20):
            p, q = (sympy.nextprime(rng.getrandbits(b) | 1 << (b - 1))
                    for b in (rng.randint(24, 48), rng.randint(24, 48)))
            got = _factor_nat(p * q)
            assert got == tuple(sorted(Counter((p, q)).items()))
            assert all(sympy.isprime(f) for f, _ in got)

    def test_square_of_a_35_bit_prime(self):
        p = sympy.prevprime(1 << 35)
        assert _factor_nat(p * p) == ((p, 2),)

    def test_prime_above_2_128_never_reaches_ecm(self, monkeypatch):
        def spy(n):
            raise AssertionError(f"{n} reached ECM")

        monkeypatch.setattr(arith, "_ecm", spy)
        p = sympy.nextprime((1 << 130) + 4321)
        assert _factor_nat(p) == ((p, 1),)

    def test_part_past_the_curve_cap_raises_factoring_limit(self, monkeypatch):
        monkeypatch.setattr(arith, "_ECM_LEVELS", ((250, 15_000, 3),))
        n = sympy.nextprime(1 << 70) * sympy.nextprime(1 << 75)
        with pytest.raises(FactoringLimit, match="B1 = 250"):
            _factor_nat(n)

    def test_cli_factor_splits_what_rho_hands_over(self, monkeypatch, capsys):
        from abckit.cli import dispatch

        calls, ecm = [], arith._ecm

        def spy(n):
            calls.append(n)
            return ecm(n)

        monkeypatch.setattr(arith, "_RHO_HANDOVER", 1 << 4)
        monkeypatch.setattr(arith, "_ecm", spy)
        p, q = sympy.prevprime(1 << 32), sympy.nextprime(3 << 30)
        assert dispatch(["factor", "--field", "Q", "--element", str(p * q)]) == 0
        out = capsys.readouterr().out
        assert str(p) in out and str(q) in out and calls == [p * q]


def _factor_quad_by_divides(alpha: AlgebraicInt) -> tuple:
    """Entries and unit by the earlier lift: for each p | N(alpha), test and
    divide by every prime above p with `divides` and `exact_div` until one fails."""
    remaining, entries = alpha, []
    for p, _ in _factor_nat(abs(alpha.norm())):
        for cand in primes_above(alpha.field, p):
            e = 0
            while cand.prime.divides(remaining):
                remaining = remaining.exact_div(cand.prime)
                e += 1
            if e:
                entries.append((cand.prime, e, cand.norm))
    assert remaining.is_unit()
    return sorted(entries, key=lambda t: (t[2], t[0].x, t[0].y)), remaining


class TestFactorQuadLift:
    """factor_quad's budgeted lift against the divides/exact_div lift."""

    @staticmethod
    def _assert_same(alpha):
        fac = factor_quad(alpha)
        entries, unit = _factor_quad_by_divides(alpha)
        assert [(e.prime, e.exponent, e.norm) for e in fac] == entries, alpha
        assert fac.unit == unit, alpha

    def test_planted_in_every_field(self, rng):
        # unit * prod over p in {2, 3, three random p} of the primes above p,
        # each to a random power: pi^e pi_bar^f, inert p^g and ramified pi^e
        kinds = set()
        for f in QUADRATIC_FIELDS:
            kinds |= {splitting_type(f, 2), splitting_type(f, 3)}
            for _ in range(60):
                alpha = rng.choice(f.units())
                for p in [2, 3] + rng.sample(primes_upto(400), 3):
                    for entry in primes_above(f, p):
                        alpha = alpha * entry.prime ** rng.choice([0, 0, 1, 2, 3, 5])
                self._assert_same(alpha)
        assert kinds == {"split", "inert", "ramified"}

    def test_one_split_prime_takes_the_whole_norm(self):
        for f in QUADRATIC_FIELDS:
            for p in primes_upto(60):
                above = [e.prime for e in primes_above(f, p)]
                for pi, other in zip(above, reversed(above)):
                    for e in (1, 2, 5):
                        self._assert_same(pi**e)
                        self._assert_same(pi**e * other ** (e - 1))

    def test_random_elements(self, rng):
        for _ in range(300):
            self._assert_same(random_element(rng, rng.choice(QUADRATIC_FIELDS), 10**12))


class TestFactorQuad:
    def test_five_splits_in_gaussians(self):
        fac = factor_quad(AlgebraicInt(GAUSSIAN, 5, 0))
        assert len(fac) == 2 and all(e.norm == 5 and e.exponent == 1 for e in fac)
        assert fac.value() == AlgebraicInt(GAUSSIAN, 5, 0)

    def test_two_ramifies_in_gaussians(self):
        fac = factor_quad(AlgebraicInt(GAUSSIAN, 2, 0))
        assert len(fac) == 1
        entry = fac.entries[0]
        assert entry.exponent == 2 and entry.norm == 2
        assert entry.prime == AlgebraicInt(GAUSSIAN, 1, 1)

    def test_three_inert_in_gaussians(self):
        fac = factor_quad(AlgebraicInt(GAUSSIAN, 3, 0))
        assert len(fac) == 1 and fac.entries[0].norm == 9 and fac.entries[0].exponent == 1

    def test_zero_and_wrong_field_rejected(self):
        with pytest.raises(ZeroInput):
            factor_quad(AlgebraicInt(GAUSSIAN, 0, 0))
        with pytest.raises(UnsupportedField):
            factor_quad(AlgebraicInt(Q, 6, 0))

    def test_reassembly_exact_1000_random(self, rng):
        for _ in range(1000):
            f = rng.choice(QUADRATIC_FIELDS)
            a = random_element(rng, f)
            assert factor_quad(a).value() == a

    def test_entries_sorted_and_canonical(self, rng):
        for _ in range(200):
            f = rng.choice(QUADRATIC_FIELDS)
            fac = factor_quad(random_element(rng, f, 10**6))
            keys = [(e.norm, e.prime.x, e.prime.y) for e in fac]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            for e in fac:
                assert canonical_associate(e.prime) == e.prime
                assert _is_prime_power(e.norm)


def _is_prime_power(n: int) -> bool:
    # norms are p or p^2 with p prime
    if is_probable_prime(n):
        return True
    from math import isqrt

    r = isqrt(n)
    return r * r == n and is_probable_prime(r)


class TestSplitting:
    def test_splitting_consistency_small(self):
        # norms of the primes over p multiply to p^2 in every admissible field
        for f in QUADRATIC_FIELDS:
            for p in primes_upto(500):
                entries = primes_above(f, p)
                kind = splitting_type(f, p)
                if kind == "inert":
                    assert [e.norm for e in entries] == [p * p]
                elif kind == "ramified":
                    assert [e.norm for e in entries] == [p]
                    assert f.disc % p == 0
                else:
                    assert [e.norm for e in entries] == [p, p]
                for e in entries:
                    assert abs(e.prime.norm()) == e.norm or kind == "inert"

    def test_split_primes_are_conjugate_non_associates(self):
        for f in QUADRATIC_FIELDS:
            for p in primes_upto(200):
                if splitting_type(f, p) == "split":
                    a, b = (e.prime for e in primes_above(f, p))
                    assert a != b
                    assert canonical_associate(a.conjugate()) == b

    def test_legendre_rule_matches_sympy(self):
        for f in QUADRATIC_FIELDS:
            for p in primes_upto(300):
                kind = splitting_type(f, p)
                if f.disc % p == 0:
                    assert kind == "ramified"
                elif p == 2:
                    assert kind == ("split" if f.disc % 8 == 1 else "inert")
                else:
                    legendre = sympy.legendre_symbol(f.disc % p, p)
                    assert kind == ("split" if legendre == 1 else "inert")


class TestCanonicalAssociate:
    def test_examples(self):
        assert canonical_associate(AlgebraicInt(Q, -3, 0)) == AlgebraicInt(Q, 3, 0)
        # i*(2+i) = -1+2i normalizes back to 2+i
        assert canonical_associate(AlgebraicInt(GAUSSIAN, -1, 2)) == AlgebraicInt(GAUSSIAN, 2, 1)
        assert canonical_associate(AlgebraicInt(GAUSSIAN, 2, 1)) == AlgebraicInt(GAUSSIAN, 2, 1)

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            canonical_associate(AlgebraicInt(Q, 0, 0))

    def test_matches_unit_enumeration_on_a_box(self):
        for f in ALL_FIELDS:
            units = f.units() if f.degree == 2 else (AlgebraicInt(f, 1), AlgebraicInt(f, -1))
            for x in range(-15, 16):
                for y in range(-15, 16) if f.degree == 2 else (0,):
                    if x == 0 and y == 0:
                        continue
                    a = AlgebraicInt(f, x, y)
                    associates = [u * a for u in units]
                    if f.d == -1:
                        (want,) = [c for c in associates if c.x > 0 and c.y >= 0]
                    else:
                        want = min((c for c in associates if c.x > 0 or (c.x == 0 and c.y > 0)),
                                   key=lambda c: (c.x, c.y))
                    got = canonical_associate(a)
                    assert got == want, (f, a)
                    assert canonical_associate(got) == got

    def test_idempotent_and_constant_on_classes(self, rng):
        for f in ALL_FIELDS:
            for _ in range(120):
                a = random_element(rng, f, 10**6)
                c = canonical_associate(a)
                assert canonical_associate(c) == c
                images = {canonical_associate(u * a) for u in (f.units() if f.degree == 2 else (AlgebraicInt(f, 1), AlgebraicInt(f, -1)))}
                assert images == {c}


class TestIdealCoprime:
    def test_examples(self):
        assert ideal_coprime(AlgebraicInt(Q, 8), AlgebraicInt(Q, 9))
        assert not ideal_coprime(AlgebraicInt(GAUSSIAN, 2, 1), AlgebraicInt(GAUSSIAN, 5, 0))
        assert ideal_coprime(AlgebraicInt(GAUSSIAN, 1, 1), AlgebraicInt(GAUSSIAN, 3, 0))

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            ideal_coprime(AlgebraicInt(Q, 1), AlgebraicInt(Q, 0))

    def test_agrees_with_factorizations(self, rng):
        for _ in range(150):
            f = rng.choice(ALL_FIELDS)
            a, b = random_element(rng, f, 10**5), random_element(rng, f, 10**5)
            shared = set(factor_element(a).primes()) & set(factor_element(b).primes())
            assert ideal_coprime(a, b) == (not shared)


class TestPrimeIdealOrdering:
    def test_rationals(self):
        entries = prime_ideals_in_norm_order(Q, 5)
        assert [e.norm for e in entries] == [2, 3, 5, 7, 11]

    def test_gaussian_norm_sequence(self):
        norms = [e.norm for e in prime_ideals_in_norm_order(GAUSSIAN, 8)]
        assert norms == [2, 5, 5, 9, 13, 13, 17, 17]

    def test_complete_and_sorted_everywhere(self):
        for f in QUADRATIC_FIELDS:
            entries = prime_ideals_in_norm_order(f, 30)
            norms = [e.norm for e in entries]
            assert norms == sorted(norms)
            # every listed ideal is genuinely prime: its norm is p or p^2
            assert all(_is_prime_power(n) for n in norms)


class TestParsing:
    def test_field_literals(self):
        assert parse_field("Q") is RATIONALS or parse_field("Q") == RATIONALS
        assert parse_field("Q(i)").d == -1
        assert parse_field("Q(sqrt(-1))").d == -1
        assert parse_field("Q(sqrt(-163))").d == -163
        with pytest.raises(ParseError):
            parse_field("Q[sqrt(-1)]")
        with pytest.raises(UnsupportedField):
            parse_field("Q(sqrt(-5))")

    def test_element_roundtrip(self, rng):
        for f in ALL_FIELDS:
            for _ in range(60):
                a = random_element(rng, f, 10**6)
                assert parse_element(str(a), f) == a

    def test_element_forms(self):
        f = GAUSSIAN
        assert parse_element("3", f) == AlgebraicInt(f, 3, 0)
        assert parse_element("-4+2*w", f) == AlgebraicInt(f, -4, 2)
        assert parse_element("1-w", f) == AlgebraicInt(f, 1, -1)
        assert parse_element(" -w ", f) == AlgebraicInt(f, 0, -1)
        with pytest.raises(ParseError):
            parse_element("w", Q)
        with pytest.raises(ParseError):
            parse_element("2w", f)


@settings(max_examples=200)
@given(n=st.integers(2, 10**9))
def test_factor_int_reassembles(n):
    assert factor_int(n).value().x == n
