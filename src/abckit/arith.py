"""Exact arithmetic over Z, Q and the nine class-number-one imaginary quadratic rings.

Supported fields are Q and Q(sqrt(d)) for d in {-1, -2, -3, -7, -11, -19,
-43, -67, -163}.  Every ring of integers here is a PID with a finite unit
group, so prime ideals are represented by canonical prime elements and all
factorizations reassemble exactly.

Elements are x + y*w.  With D the field discriminant, the ring of integers
is Z[w] for w = (t + sqrt(D))/2, and every ring formula follows from the one
rule w^2 = t*w + n, where t = D mod 4 and n = (D - t)/4 (Cohen, GTM 138,
5.2).  That is t = 1 and n = (d - 1)/4 when d = 1 mod 4, and t = 0 and n = d
otherwise; Q has t = n = 0 and y = 0 throughout.
"""

from __future__ import annotations

import operator
import random
import re
from bisect import bisect_right
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from math import gcd, isqrt, log, prod

from .errors import BadParameter, FactoringLimit, ParseError, UnsupportedField, ZeroInput


class AbckitInternal(AssertionError):
    """Broken internal invariant; indicates a bug, not bad input."""


CLASS_NUMBER_ONE_D = (-1, -2, -3, -7, -11, -19, -43, -67, -163)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# ---------------------------------------------------------------------------
# Fields and elements


@dataclass(frozen=True)
class QuadraticField:
    """Q (d is None) or the imaginary quadratic field Q(sqrt(d)), class number one.

    The ring of integers is Z[omega] with omega^2 = t*omega + n: t and n are
    derived from d, not options, and take no part in equality or hashing.
    """

    d: int | None = None
    t: int = dataclass_field(init=False, repr=False, compare=False)
    n: int = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d is not None:
            # a numpy integer d becomes an int, so the field hashes as one; a
            # float or string equal to an allowed d is refused
            try:
                object.__setattr__(self, "d", operator.index(self.d))
            except TypeError:
                raise BadParameter(f"d must be an integer or None, got {self.d!r}") from None
        if self.d is not None and self.d not in CLASS_NUMBER_ONE_D:
            raise UnsupportedField(
                f"d={self.d}: only Q and the class-number-one imaginary "
                f"quadratic fields {CLASS_NUMBER_ONE_D} are supported"
            )
        # n = (D - t)/4 with t = D mod 4; Q takes D = 0, so t = n = 0 there
        n, t = divmod(0 if self.d is None else self.disc, 4)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "n", n)

    @property
    def degree(self) -> int:
        return 1 if self.d is None else 2

    @property
    def is_rational(self) -> bool:
        return self.d is None

    @property
    def disc(self) -> int:
        """Field discriminant: d when d = 1 mod 4, else 4d (1 for Q)."""
        if self.d is None:
            return 1
        return self.d if self.d % 4 == 1 else 4 * self.d

    def omega_complex(self) -> complex:
        if self.d is None:
            raise UnsupportedField("Q has no ring generator")
        return complex(self.t, abs(self.disc) ** 0.5) / 2

    def units(self) -> tuple["AlgebraicInt", ...]:
        """Roots of unity in the ring: the powers of omega when omega is a unit
        (n = -1: d = -1 gives 4, d = -3 gives 6), else 1 and -1."""
        one = AlgebraicInt(self, 1, 0)
        if self.n != -1:
            return (one, -one)
        omega, powers = AlgebraicInt(self, 0, 1), [one]
        while (power := powers[-1] * omega) != one:
            powers.append(power)
        return tuple(powers)

    def label(self) -> str:
        if self.d is None:
            return "Q"
        if self.d == -1:
            return "Q(i)"
        return f"Q(sqrt({self.d}))"

    def __repr__(self) -> str:
        return f"QuadraticField({self.label()})"


RATIONALS = QuadraticField(None)


@dataclass(frozen=True)
class AlgebraicInt:
    """x + y*omega in the ring of integers of `field` (y = 0 over Q)."""

    field: QuadraticField
    x: int
    y: int = 0

    def __post_init__(self):
        if self.field.degree == 1 and self.y != 0:
            raise BadParameter("rational elements must have y = 0")

    # -- ring structure ------------------------------------------------

    def __add__(self, other: "AlgebraicInt") -> "AlgebraicInt":
        self._check_same_field(other)
        return AlgebraicInt(self.field, self.x + other.x, self.y + other.y)

    def __sub__(self, other: "AlgebraicInt") -> "AlgebraicInt":
        self._check_same_field(other)
        return AlgebraicInt(self.field, self.x - other.x, self.y - other.y)

    def __neg__(self) -> "AlgebraicInt":
        return AlgebraicInt(self.field, -self.x, -self.y)

    def __mul__(self, other) -> "AlgebraicInt":
        if isinstance(other, int):
            return AlgebraicInt(self.field, self.x * other, self.y * other)
        self._check_same_field(other)
        f, yy = self.field, self.y * other.y
        return AlgebraicInt(f, self.x * other.x + f.n * yy,
                            self.x * other.y + self.y * other.x + f.t * yy)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "AlgebraicInt":
        if n < 0:
            raise BadParameter("negative powers leave the ring of integers")
        out = AlgebraicInt(self.field, 1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "AlgebraicInt":
        # conj(omega) = t - omega
        return AlgebraicInt(self.field, self.x + self.field.t * self.y, -self.y)

    def norm(self) -> int:
        """Field norm; equals the element itself over Q."""
        f = self.field
        if f.degree == 1:
            return self.x
        return self.x * (self.x + f.t * self.y) - f.n * self.y * self.y

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_unit(self) -> bool:
        return abs(self.norm()) == 1

    def divides(self, other: "AlgebraicInt") -> bool:
        return self._quotient_coords(other) is not None

    def exact_div(self, other: "AlgebraicInt") -> "AlgebraicInt":
        """self / other, raising BadParameter if the quotient leaves the ring."""
        coords = other._quotient_coords(self)
        if coords is None:
            raise BadParameter(f"{other} does not divide {self}")
        return AlgebraicInt(self.field, *coords)

    def _quotient_coords(self, other: "AlgebraicInt") -> tuple[int, int] | None:
        # other / self, as coordinates, or None when not divisible.
        self._check_same_field(other)
        if self.is_zero():
            raise ZeroInput("division by zero")
        if self.field.degree == 1:
            q, r = divmod(other.x, self.x)
            return (q, 0) if r == 0 else None
        return _quotient(self.field, other.x, other.y, self, self.norm())

    # -- embeddings and formatting --------------------------------------

    def embed(self) -> complex:
        if self.field.degree == 1:
            return complex(self.x, 0)
        return self.x + self.y * self.field.omega_complex()

    def _check_same_field(self, other: "AlgebraicInt") -> None:
        if self.field != other.field:
            raise BadParameter("elements of different fields")

    def __str__(self) -> str:
        if self.y == 0:
            return str(self.x)
        w = "w" if self.y == 1 else ("-w" if self.y == -1 else f"{self.y}*w")
        if self.x == 0:
            return w
        sign = "+" if self.y > 0 else "-"
        mag = "w" if abs(self.y) == 1 else f"{abs(self.y)}*w"
        return f"{self.x}{sign}{mag}"

    def __repr__(self) -> str:
        return f"AlgebraicInt({self.field.label()}, {self})"


def as_element(value, field: QuadraticField | None = None) -> AlgebraicInt:
    """An AlgebraicInt as it is; an integer, or anything else `operator.index`
    accepts (numpy integers too), as that integer in `field` (Q when None).

    Raises BadParameter for anything else: floats, Fractions and strings are
    refused, not truncated.
    """
    if isinstance(value, AlgebraicInt):
        return value
    try:
        x = operator.index(value)
    except TypeError:
        raise BadParameter(f"cannot interpret {value!r} as a field element") from None
    return AlgebraicInt(field or RATIONALS, x, 0)


def field_of(values) -> QuadraticField:
    """The field of the first AlgebraicInt among `values`, else Q."""
    return next((v.field for v in values if isinstance(v, AlgebraicInt)), RATIONALS)


def _quotient(field: QuadraticField, x: int, y: int, pi: AlgebraicInt,
              norm: int) -> tuple[int, int] | None:
    """(x + y*omega) / pi as coordinates, or None when pi does not divide it.

    `field` is quadratic and `norm` is N(pi).  The quotient is
    (x + y*omega) * conj(pi) / norm, computed once: it is integral exactly
    when both coordinates of the product are multiples of the norm.  With
    conj(pi) = (u + t*v) - v*omega and omega^2 = t*omega + n the product is
    (x*(u + t*v) - n*y*v) + (y*u - x*v)*omega.
    """
    u, v = pi.x, pi.y
    qx, r = divmod(x * (u + field.t * v) - field.n * y * v, norm)
    if r:
        return None
    qy, r = divmod(y * u - x * v, norm)
    return None if r else (qx, qy)


def _divide_out(field: QuadraticField, x: int, y: int, entry: "FactorEntry",
                cap: int) -> tuple[int, int, int]:
    """Divide entry.prime out of x + y*omega while it divides, at most cap
    times: (times divided, quotient coordinates)."""
    e = 0
    while e < cap:
        q = _quotient(field, x, y, entry.prime, entry.norm)
        if q is None:
            break
        x, y = q
        e += 1
    return e, x, y


# ---------------------------------------------------------------------------
# Factorizations


@dataclass(frozen=True)
class FactorEntry:
    prime: AlgebraicInt
    exponent: int
    norm: int


@dataclass(frozen=True)
class IdealFactorization:
    """unit * prod(prime^exponent), primes canonical.

    The entries are sorted by `_entry_key`, (norm, coordinates), the one prime
    order: the last entry is the top prime.
    """

    field: QuadraticField
    unit: AlgebraicInt
    entries: tuple[FactorEntry, ...]

    def value(self) -> AlgebraicInt:
        out = self.unit
        for e in self.entries:
            out = out * e.prime**e.exponent
        return out

    def primes(self) -> tuple[AlgebraicInt, ...]:
        return tuple(e.prime for e in self.entries)

    def radical(self) -> int:
        """Product of the norms of the distinct primes (1 for units)."""
        out = 1
        for e in self.entries:
            out *= e.norm
        return out

    def max_norm(self, default: int = 1) -> int:
        return max((e.norm for e in self.entries), default=default)

    def max_exponent(self, default: int = 1) -> int:
        return max((e.exponent for e in self.entries), default=default)

    def ord_of(self, prime: AlgebraicInt) -> int:
        for e in self.entries:
            if e.prime == prime:
                return e.exponent
        return 0

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _entry_key(e: FactorEntry) -> tuple[int, int, int]:
    return (e.norm, e.prime.x, e.prime.y)


# ---------------------------------------------------------------------------
# Rational primes: sieves, primality, Pollard-Brent rho


_sieve_primes: list[int] = []
_sieve_limit = 0


def primes_upto(n: int) -> list[int]:
    """All rational primes <= n, cached and extended on demand."""
    global _sieve_primes, _sieve_limit
    if n > _sieve_limit:
        limit = max(n, 2 * _sieve_limit, 1 << 10)
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
        _sieve_primes = [i for i, b in enumerate(sieve) if b]
        _sieve_limit = limit
    return _sieve_primes[: bisect_right(_sieve_primes, n)]


def first_primes(k: int) -> list[int]:
    """The first k rational primes; the sieve bound covers p_k, since
    p_k < k (log k + log log k) <= 2k log k for k >= 6 (Rosser-Schoenfeld)."""
    if k < 1:
        raise BadParameter("k must be positive")
    return primes_upto(13 if k <= 6 else int(2 * k * log(k)) + 10)[:k]


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_prp(n: int, a: int) -> bool:
    """Miller-Rabin: odd n > 2 is a strong probable prime to base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    v = pow(a, (n - 1) >> s, n)
    if v in (1, n - 1):
        return True
    for _ in range(s - 1):
        v = v * v % n
        if v == n - 1:
            return True
    return False


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 2.

    Squares fail at once (no D below would have (D/n) = -1).  D is the first
    of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and Q = (1 - D)/4; with
    n + 1 = d*2^s, n passes iff U_d = 0 or V_{d*2^r} = 0 (mod n) for some
    0 <= r < s.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s

    def half(v: int) -> int:
        v %= n
        return (v + n if v & 1 else v) // 2

    # U_1 = 1, V_1 = P = 1; doubling: U_2k = U_k V_k, V_2k = V_k^2 - 2Q^k;
    # step: U_{k+1} = (U_k + V_k)/2, V_{k+1} = (D U_k + V_k)/2
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Primality by Baillie-PSW, after division by the primes up to 37.

    n must pass a strong base-2 test and a strong Lucas test with Selfridge's
    parameters (Baillie-Wagstaff 1980).  Below 2^64 this is a proof: no
    composite there passes both (Gilchrist 2013, against Feitsma's list of
    the base-2 strong pseudoprimes below 2^64).  Above, no composite is known
    to pass both.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return _is_strong_prp(n, 2) and _is_strong_lucas_prp(n)


# Squarings rho spends on a part known to be composite before it hands the
# part to ECM.  Rho's cost grows as the square root of the smaller prime and
# ECM's far slower, so ECM at its first level is the cheaper of the two once
# rho has run this long.  Over quad_reports seeds 1-3 rho hands over 96 of
# the 2,066 composite parts it gets, those left with a second prime of more
# than about 24 bits.
_RHO_HANDOVER = 1 << 13


def _brent_rho(n: int, rng: random.Random, tested: bool = False) -> int:
    """A nontrivial factor of odd n > 1, n itself when n is prime, or 1 when
    n is composite and rho has spent _RHO_HANDOVER squarings on it, counted
    across restarts (Brent's cycle variant).

    Unless n is already `tested` (known composite), rho runs before n's
    primality is known: only a doubling round that would take the squarings
    past n.bit_length(), about what a primality test of n costs, is preceded
    by one `is_probable_prime(n)`.  So a large composite with a small prime
    factor splits without a test at its own size, and a prime costs about
    twice its test.  A composite n goes through the same steps and gives the
    same factor either way.  Rho gives up, returning 1, only before a
    doubling round that would take the squarings past _RHO_HANDOVER and only
    once n is known to be composite, so a prime never reaches ECM.
    """
    steps = 0
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1:
            if not tested and steps + 2 * r > n.bit_length():
                if is_probable_prime(n):
                    return n
                tested = True
            if tested and steps + 2 * r > _RHO_HANDOVER:
                return 1
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
            steps += r + min(k, r)
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
                steps += 1
        if g != n:
            return g


# ---------------------------------------------------------------------------
# Lenstra's elliptic curve method on Montgomery's x-only curves

# (B1, B2, curves): ECM runs each level's curves in turn.  The first level
# splits what rho hands over on the quad_reports norms in about two curves;
# the others are the usual B1 table for 15-, 20- and 25-digit primes, with
# fewer curves at the last so that a part past them all fails in about a
# minute.
_ECM_LEVELS = ((250, 15_000, 20), (2_000, 200_000, 25), (11_000, 1_100_000, 90),
               (50_000, 5_000_000, 150))
_ECM_D = 210


def _ladder(k: int, x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    """k * (x : z) for k >= 1 on the curve with (A + 2)/4 = a24, by
    Montgomery's ladder from R0 = 0 = (1 : 0) and R1 = P: R0 = iP and
    R1 = (i + 1)P throughout, so R0 + R1 has the known difference P."""
    x0, z0, x1, z1 = 1, 0, x, z
    for bit in bin(k)[2:]:
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
        # R1 <- R0 + R1 (`_xadd`, inlined: stage 1 is half of ECM's time), R0 <- 2 R0
        u, v = (x0 - z0) * (x1 + z1) % n, (x0 + z0) * (x1 - z1) % n
        x1, z1 = z * (u + v) ** 2 % n, x * (u - v) ** 2 % n
        s, t = (x0 + z0) ** 2 % n, (x0 - z0) ** 2 % n
        x0, z0 = s * t % n, (s - t) * (t + a24 * (s - t)) % n
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
    return x0, z0


def _xadd(p: tuple[int, int], q: tuple[int, int], diff: tuple[int, int],
          n: int) -> tuple[int, int]:
    """P + Q from x-coordinates, given P - Q (not the point at infinity)."""
    u, v = (p[0] - p[1]) * (q[0] + q[1]) % n, (p[0] + p[1]) * (q[0] - q[1]) % n
    return diff[1] * (u + v) ** 2 % n, diff[0] * (u - v) ** 2 % n


@lru_cache(maxsize=None)
def _stage1_scalar(B1: int) -> int:
    """The product over primes p <= B1 of the largest power of p that is <= B1."""
    k = 1
    for p in primes_upto(B1):
        q = p
        while q * p <= B1:
            q *= p
        k *= q
    return k


@lru_cache(maxsize=None)
def _stage2_steps(B1: int, B2: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(m, js) in increasing m: each prime q in (B1, B2] is m*D + j or m*D - j
    for one giant step m and one j in js, odd, coprime to D and below D/2."""
    steps: dict[int, set[int]] = {}
    for q in primes_upto(B2)[len(primes_upto(B1)):]:
        m, j = divmod(q, _ECM_D)
        if j > _ECM_D // 2:
            m, j = m + 1, _ECM_D - j
        steps.setdefault(m, set()).add(j)
    return tuple((m, tuple(sorted(js))) for m, js in sorted(steps.items()))


def _ecm_curve(n: int, sigma: int, B1: int, B2: int) -> int:
    """gcd(n, Z) after stage 1 on Suyama's curve for sigma >= 6, or else
    gcd(n, the stage 2 product); B1 >= D/2, so every giant step m is at
    least 1 (Montgomery 1987, section 10).

    Stage 1 multiplies the start point Q by every prime power up to B1, so
    p | n turns up when the order of Q mod p divides that product.  Stage 2
    then catches an order that has one more prime q in (B1, B2]: with
    q = m*D +- j, q*Q = 0 mod p makes x(m*D*Q) = x(j*Q) mod p whichever the
    sign, so one cross product covers both m*D + j and m*D - j.
    """
    u, v = (sigma * sigma - 5) % n, 4 * sigma % n
    den = 16 * u ** 3 * v % n
    g = gcd(den, n)
    if g != 1:
        return g
    a24 = (v - u) ** 3 * (3 * u + v) * pow(den, -1, n) % n
    point = _ladder(_stage1_scalar(B1), u ** 3 % n, v ** 3 % n, a24, n)
    g = gcd(point[1], n)
    if g != 1:
        return g
    two = _ladder(2, *point, a24, n)
    odd = [point, _xadd(two, point, point, n)]  # odd[i] = (2i + 1) * point
    while len(odd) < _ECM_D // 4:
        odd.append(_xadd(odd[-1], two, odd[-2], n))
    steps = _stage2_steps(B1, B2)
    step = _ladder(_ECM_D, *point, a24, n)
    m = steps[0][0]
    giant = _ladder(m * _ECM_D, *point, a24, n)
    ahead = _ladder((m + 1) * _ECM_D, *point, a24, n)
    acc = 1
    for target, js in steps:
        while m < target:
            m, giant, ahead = m + 1, ahead, _xadd(ahead, step, giant, n)
        xg, zg = giant
        for j in js:
            xj, zj = odd[j >> 1]
            acc = acc * (xg * zj - xj * zg) % n
    return gcd(acc, n)


def _ecm(n: int) -> int:
    """A nontrivial factor of the odd composite n, by the curves of each level
    of _ECM_LEVELS in turn.  Their sigmas come from random.Random(n), so the
    factor found is deterministic.  Raises FactoringLimit after the last
    level's curves."""
    rng = random.Random(n)
    for B1, B2, curves in _ECM_LEVELS:
        for _ in range(curves):
            g = _ecm_curve(n, rng.randrange(6, n - 1), B1, B2)
            if 1 < g < n:
                return g
    raise FactoringLimit(
        f"ECM found no factor of the {n.bit_length()}-bit composite {n} with "
        f"curves up to B1 = {B1}; its prime factors are too large"
    )


_SMALL_LIMIT = 1 << 16


@lru_cache(maxsize=1)
def _small_prime_product() -> int:
    """The product of the primes below _SMALL_LIMIT (about 94,000 bits)."""
    return prod(primes_upto(_SMALL_LIMIT))


def _strip_small_primes(n: int, out: dict[int, int]) -> int:
    """Divide every prime below _SMALL_LIMIT out of n into `out`; return the rest.

    One gcd against the product of those primes finds the ones that divide n,
    so a large part with no small factor costs one gcd and nothing else.
    """
    g = gcd(n, _small_prime_product())
    for p in primes_upto(_SMALL_LIMIT):
        if g == 1:
            break
        if g % p == 0:
            g //= p
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
    return n


@lru_cache(maxsize=1 << 16)
def _factor_nat(n: int) -> tuple[tuple[int, int], ...]:
    """Sorted (prime, exponent) pairs of n >= 1.

    Trial division by the primes up to min(sqrt(n), 1000); a cofactor above
    2^128 then loses every prime below 2^16 through one gcd with their
    product, so rho never peels small primes off a huge part one primality
    test at a time.  A part below 1000^2 is prime by the trial division.  A
    part up to 2^128 holds at most 12 primes above 1000, so it is checked by
    `is_probable_prime` first, which costs little; if composite it goes to
    Pollard-Brent rho, which finds a factor p in about sqrt(p) steps.  A
    larger part goes to rho straight away, and rho tests its primality only
    once it has spent about what the test costs.  So a product of many
    primes that rho finds quickly is not tested once per prime at its full
    size: 300 random primes in (2^16, 2^18), 5,158 bits, take 0.55 s, not
    19.7 s.

    Rho finds a prime below about 2^24 within _RHO_HANDOVER = 2^13
    squarings.  A part it has not split by then, once known to be composite,
    goes to ECM (`_ecm`), whose cost grows far more slowly with the size of
    the smaller prime: its first level, B1 = 250, splits a part whose second
    prime has 24 to 35 bits in about two curves.  (2^61 - 1)(2^64 - 59)
    splits in about a second.  A part whose prime factors all exceed about
    2^80 usually outlasts the last level's curves and raises FactoringLimit,
    exit 1 in the CLI, after about a minute at 200 bits and ten at 1024: the
    curve count is fixed and each curve's cost grows with the size of n.
    """
    out: dict[int, int] = {}
    if n <= 1:
        return ()
    bound, huge = 1000, 1 << 128
    for p in primes_upto(min(isqrt(n), bound)):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > huge:
        n = _strip_small_primes(n, out)
    # no prime <= min(sqrt(n), bound) is left, so any part below bound^2 is prime
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < bound * bound or m <= huge and is_probable_prime(m):
            g = m
        else:
            g = _brent_rho(m, random.Random(m), tested=m <= huge)
            if g == 1:
                g = _ecm(m)
        if g == m:
            out[m] = out.get(m, 0) + 1
        else:
            stack.extend((g, m // g))
    return tuple(sorted(out.items()))


@lru_cache(maxsize=1 << 16)
def _int_entries(n: int) -> tuple[FactorEntry, ...]:
    return tuple(
        FactorEntry(AlgebraicInt(RATIONALS, p, 0), e, p) for p, e in _factor_nat(n)
    )


def factor_int(n: int) -> IdealFactorization:
    """Factor a nonzero rational integer; the unit is its sign."""
    if n == 0:
        raise ZeroInput("cannot factor 0")
    unit = AlgebraicInt(RATIONALS, 1 if n > 0 else -1, 0)
    return IdealFactorization(RATIONALS, unit, _int_entries(abs(n)))


# ---------------------------------------------------------------------------
# Quadratic splitting: Tonelli-Shanks, Cornacchia, primes above p


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod p (odd prime), or None when a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _cornacchia_4p(D: int, p: int) -> tuple[int, int] | None:
    """(u, v) with u^2 + |D|*v^2 = 4p for a negative discriminant D, or None.

    Modified Cornacchia descent; always succeeds here because the supported
    fields have class number one, so every split or ramified p is a norm.
    """
    if p == 2:
        t = D + 8
        u = isqrt(t) if t >= 0 else -1
        return (u, 1) if u >= 0 and u * u == t else None
    x0 = sqrt_mod(D % p, p)
    if x0 is None:
        return None
    if (x0 - D) % 2:
        x0 = p - x0
    a, b = 2 * p, x0
    limit = isqrt(4 * p)
    while b > limit:
        a, b = b, a % b
    rem = 4 * p - b * b
    if rem % abs(D):
        return None
    v2 = rem // abs(D)
    v = isqrt(v2)
    return (b, v) if v * v == v2 else None


def splitting_type(field: QuadraticField, p: int) -> str:
    """'ramified' iff p | disc; odd p splits iff disc is a nonzero QR mod p;
    p = 2 follows disc mod 8 (split at 1, inert at 5)."""
    if field.degree != 2:
        raise UnsupportedField("splitting is defined for quadratic fields")
    disc = field.disc
    if disc % p == 0:
        return "ramified"
    if p == 2:
        return "split" if disc % 8 == 1 else "inert"
    return "split" if pow(disc % p, (p - 1) // 2, p) == 1 else "inert"


def _element_of_norm(field: QuadraticField, p: int) -> AlgebraicInt:
    uv = _cornacchia_4p(field.disc, p)
    if uv is None:
        raise AbckitInternal(f"no element of norm {p} in {field.label()}")
    u, v = uv
    # sqrt(disc) = 2*omega - t, so (u + v*sqrt(disc))/2 = (u - t*v)/2 + v*omega
    return AlgebraicInt(field, (u - field.t * v) // 2, v)


@lru_cache(maxsize=1 << 16)
def primes_above(field: QuadraticField, p: int) -> tuple[FactorEntry, ...]:
    """The canonical prime elements over the rational prime p, with norms.

    Split p yields two primes of norm p, ramified one of norm p, inert one
    of norm p^2 (the entry exponents are placeholders set to 1).
    """
    kind = splitting_type(field, p)
    if kind == "inert":
        return (FactorEntry(canonical_associate(AlgebraicInt(field, p, 0)), 1, p * p),)
    pi = canonical_associate(_element_of_norm(field, p))
    if kind == "ramified":
        return (FactorEntry(pi, 1, p),)
    pi_bar = canonical_associate(pi.conjugate())
    return tuple(sorted((FactorEntry(pi, 1, p), FactorEntry(pi_bar, 1, p)), key=_entry_key))


def factor_quad(alpha: AlgebraicInt) -> IdealFactorization:
    """Factor a nonzero quadratic integer into canonical primes times a unit.

    Route (Cohen, GTM 138, ch. 5): factor |norm(alpha)| over Z, lift each
    rational prime p through the splitting rule, and divide out; valid
    because every ideal is principal.  If p^k exactly divides the norm, then
    k = sum of e_i * f_i over the primes above p, where e_i is the order of
    the i-th prime in alpha and f_i is 2 for an inert p and 1 otherwise.  So
    the divisions by the primes above p stop once they have spent k: the
    conjugate of a split p is not tried when the first prime took all of k,
    and no division is tried that must fail.  Each division is one quotient
    on the coordinates.
    """
    field = alpha.field
    if field.degree != 2:
        raise UnsupportedField("factor_quad needs a quadratic field element")
    if alpha.is_zero():
        raise ZeroInput("cannot factor 0")
    x, y = alpha.x, alpha.y
    entries: list[FactorEntry] = []
    for p, k in _factor_nat(abs(alpha.norm())):
        for cand in primes_above(field, p):
            step = 1 if cand.norm == p else 2
            e, x, y = _divide_out(field, x, y, cand, k // step)
            if e:
                entries.append(FactorEntry(cand.prime, e, cand.norm))
                k -= e * step
        if k:
            raise AbckitInternal(f"the primes above {p} do not account for {alpha}'s norm")
    entries.sort(key=_entry_key)
    return IdealFactorization(field, AlgebraicInt(field, x, y), tuple(entries))


def factor_element(alpha: AlgebraicInt) -> IdealFactorization:
    """Dispatch to factor_int or factor_quad by field degree."""
    if alpha.field.degree == 1:
        return factor_int(alpha.x)
    return factor_quad(alpha)


def canonical_associate(alpha: AlgebraicInt) -> AlgebraicInt:
    """The unique associate in the canonical region; idempotent.

    Over Q: positive.  In Z[i]: x > 0 and y >= 0.  For d = -3: the
    lexicographically (x, y)-smallest associate in the half-plane
    x > 0 or (x = 0, y > 0).  Elsewhere: that half-plane directly.

    Computed on the coordinates: the units are +-1 except in Z[i] and for
    d = -3, where omega itself is a unit of order 4 and 6, and multiplying
    by omega maps (x, y) to (n*y, x + t*y).
    """
    if alpha.is_zero():
        raise ZeroInput("0 has no canonical associate")
    f, x, y = alpha.field, alpha.x, alpha.y
    if f.degree == 1:
        return AlgebraicInt(f, abs(x), 0)
    t, n = f.t, f.n
    if f.d == -1:
        while x <= 0 or y < 0:
            x, y = n * y, x + t * y
    elif f.d == -3:
        best = None
        for _ in range(6):
            if (x > 0 or (x == 0 and y > 0)) and (best is None or (x, y) < best):
                best = (x, y)
            x, y = n * y, x + t * y
        x, y = best
    elif not (x > 0 or (x == 0 and y > 0)):
        x, y = -x, -y
    return AlgebraicInt(f, x, y)


def ideal_gcd_norm(elements, norms=None) -> int:
    """N(gcd ideal) = prod N(pi)^m(pi), m(pi) the least order of pi in the
    given nonzero elements of one field, whose |N(x)| are `norms` if known.

    Over Q this is the gcd of the |x|.  Over a quadratic field pi lies over a
    rational p dividing g = gcd of the |N(x)|, and m(pi) is at most the
    exponent k of p in g (k // 2 for an inert p): only g is factored, and
    each pi is divided out of each element at most that often.
    """
    if norms is None:
        norms = [abs(x.norm()) for x in elements]
    g = gcd(*norms)
    field = elements[0].field
    if g == 1 or field.degree == 1:
        return g
    common = 1
    for p, k in _factor_nat(g):
        for entry in primes_above(field, p):
            m = k if entry.norm == p else k // 2
            for x in elements:
                m = _divide_out(field, x.x, x.y, entry, m)[0]
                if not m:
                    break
            common *= entry.norm**m
    return common


def ideal_coprime(a: AlgebraicInt, b: AlgebraicInt) -> bool:
    """True iff a and b share no prime (ideal gcd is the unit ideal)."""
    if a.is_zero() or b.is_zero():
        raise ZeroInput("coprimality needs nonzero elements")
    a._check_same_field(b)
    return ideal_gcd_norm((a, b)) == 1


def prime_ideals_in_norm_order(field: QuadraticField, count: int) -> list[FactorEntry]:
    """The first `count` prime ideals sorted by (norm, canonical coordinates)."""
    if count < 1:
        raise BadParameter("count must be positive")
    if field.degree == 1:
        return [
            FactorEntry(AlgebraicInt(field, p, 0), 1, p) for p in first_primes(count)
        ]
    bound = 16
    while True:
        found: list[FactorEntry] = []
        for p in primes_upto(bound):
            found.extend(primes_above(field, p))
        complete = [e for e in found if e.norm <= bound]
        if len(complete) >= count:
            complete.sort(key=_entry_key)
            return complete[:count]
        bound *= 2


# ---------------------------------------------------------------------------
# Literal parsing: fields as "Q" / "Q(i)" / "Q(sqrt(-7))", elements as "x+y*w"


_FIELD_SQRT_RE = re.compile(r"^Q\(sqrt\((-\d+)\)\)$")
_INT_RE = re.compile(r"^([+-]?\d+)$")
_W_ONLY_RE = re.compile(r"^([+-]?)(?:(\d+)\*)?w$")
_FULL_RE = re.compile(r"^([+-]?\d+)([+-])(?:(\d+)\*)?w$")


def parse_field(text: str) -> QuadraticField:
    s = text.strip()
    if s == "Q":
        return RATIONALS
    if s == "Q(i)":
        return QuadraticField(-1)
    m = _FIELD_SQRT_RE.match(s)
    if not m:
        raise ParseError(f"unrecognized field literal {text!r}")
    return QuadraticField(int(m.group(1)))


def parse_element(text: str, field: QuadraticField) -> AlgebraicInt:
    s = text.replace(" ", "")
    m = _INT_RE.match(s)
    if m:
        return AlgebraicInt(field, int(m.group(1)), 0)
    if field.degree == 1:
        raise ParseError(f"{text!r}: Q has no ring generator w")
    m = _W_ONLY_RE.match(s)
    if m:
        coeff = int(m.group(2)) if m.group(2) else 1
        return AlgebraicInt(field, 0, -coeff if m.group(1) == "-" else coeff)
    m = _FULL_RE.match(s)
    if m:
        coeff = int(m.group(3)) if m.group(3) else 1
        return AlgebraicInt(field, int(m.group(1)), -coeff if m.group(2) == "-" else coeff)
    raise ParseError(f"unrecognized element literal {text!r}")
