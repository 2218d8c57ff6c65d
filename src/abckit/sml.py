"""Zero decision for order-3 integer recurrences with distinct characteristic roots.

Pipeline: characteristic polynomial -> exact roots (rational, or one rational
plus a conjugate pair in an admissible imaginary quadratic field) -> degeneracy
gate -> exact closed-form coefficients -> denominator clearing and common-prime
stripping, whose factorizations also give the radical G -> the bound on the
last possible zero from G -> a modular scan of the
sequence up to that bound, in which every candidate zero is confirmed in
exact integer arithmetic before it is reported.

The scan runs in one process.  Up to 256 terms it steps the sequence modulo
the prime 2^61 - 1.  Past that, a sieve first keeps only the indices at which
the sequence vanishes modulo each of a few small primes, as in the modular
step of Skolem's method: mod p the sequence is periodic, so its zero
residues, tiled as a bitmask, rule out every other index.  If no prime
narrows the indices enough, the scan steps the sequence modulo 2^61 - 1
there too.  The few indices that survive are reached by binary jumps, with
one table of powers of the companion matrix for the whole scan.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import ceil, exp, floor, gcd, inf, isinf, isqrt, lcm, log, prod

from .arith import (
    AbckitInternal,
    AlgebraicInt,
    QuadraticField,
    RATIONALS,
    _factor_nat,
    as_int,
    as_real,
    canonical_associate,
    factor_element,
    primes_upto,
)
from .bounds import (
    BoundConfig,
    DEFAULT_CONFIG,
    E_SQUARED_GUARD,
    _ERR_CAP,
    _ERR_UNIT,
    _EXP_MAX,
    _check_radical,
    _kappa,
    exponent_term,
)
from .errors import (
    BadParameter,
    DegenerateHeight,
    RepeatedRoots,
    RootsNotCoprime,
    SingularSystem,
    UnsupportedField,
    ZeroInput,
)
from .heights import MP, _to_float

HARD_ENUMERATION_LIMIT = 10**9
DEFAULT_CAP = 10**6
SCAN_MODULUS = (1 << 61) - 1  # a Mersenne prime: a_n = 0 implies a_n = 0 mod it
CHECK_MODULUS = (1 << 127) - 1  # a second Mersenne prime, to recheck candidates
SIEVE_PRIMES = tuple(primes_upto(199)[1:])  # the odd primes below 200
SIEVE_PERIOD_CAP = 256  # a prime whose period mod it is longer is skipped
SIEVE_BUDGET = 4096  # at most this many steps mod small primes, in all
SIEVE_SURVIVORS = 4  # a block takes no more primes once this few indices survive
SIEVE_BLOCK = 1 << 16  # indices sieved at a time


@dataclass(frozen=True)
class RecurrenceSpec:
    """a(n) = c1 a(n-1) + c2 a(n-2) + c3 a(n-3) with integer data; c3 != 0."""

    c1: int
    c2: int
    c3: int
    a0: int
    a1: int
    a2: int

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, as_int(getattr(self, f.name), f.name))
        if self.c3 == 0:
            raise BadParameter("c3 = 0: the recurrence does not have order 3")


@dataclass(frozen=True)
class SmlVerdict:
    """Outcome of decide_zeros.

    status is one of ZerosFound / NoZerosUpToBound / Degenerate / Unsupported.
    N is the bound actually enumerated; `bound` keeps the raw real bound (inf
    past the float range) and `truncated` flags enumeration cut short of it,
    with `reason` saying why: the cap, the hard enumeration limit or the
    float range.
    """

    status: str
    zeros: tuple[int, ...] = ()
    N: int = 0
    bound: float | None = None
    G: int | None = None
    h_max: float | None = None
    C: float | None = None
    n0: int = 0
    truncated: bool = False
    reason: str = ""

    def machine_line(self) -> str:
        zeros = ";".join(str(n) for n in self.zeros)
        return f"{self.status},{self.N},{self.G if self.G is not None else ''},{zeros}"


def char_poly(spec: RecurrenceSpec) -> tuple[int, int, int, int]:
    """Monic characteristic polynomial x^3 - c1 x^2 - c2 x - c3, as coefficients."""
    return (1, -spec.c1, -spec.c2, -spec.c3)


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in _factor_nat(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = m^2 * f with f squarefree; returns (m, f)."""
    m, f = 1, 1
    for p, e in _factor_nat(n):
        m *= p ** (e // 2)
        if e % 2:
            f *= p
    return m, f


def find_roots(cubic: tuple[int, int, int, int]) -> tuple[tuple[AlgebraicInt, ...], QuadraticField]:
    """Exact roots of a monic integer cubic with nonzero constant term.

    Returns three rational roots over Q, or one rational root plus a conjugate
    pair inside an admissible imaginary quadratic field.  Raises RepeatedRoots
    on a vanishing discriminant and UnsupportedField for irreducible cubics,
    real quadratic splitting fields, and fields off the allow-list.
    """
    lead, b, c, d = cubic
    if lead != 1:
        raise BadParameter("cubic must be monic")
    if d == 0:
        raise BadParameter("constant term must be nonzero (roots must be nonzero)")

    def f(t: int) -> int:
        return ((t + b) * t + c) * t + d

    int_roots = sorted(t for u in _divisors(abs(d)) for t in (u, -u) if f(t) == 0)
    if not int_roots:
        raise UnsupportedField("irreducible cubic: the splitting field is not quadratic")
    r = int_roots[0]
    B, C = b + r, c + r * (b + r)  # quotient x^2 + Bx + C
    disc = B * B - 4 * C
    if disc == 0:
        raise RepeatedRoots(f"double root of {cubic}")
    field = RATIONALS
    if disc > 0:
        m = isqrt(disc)
        if m * m != disc:
            raise UnsupportedField("real quadratic splitting field is not supported")
        t1, t2 = (-B - m) // 2, (-B + m) // 2
        roots = (r, t1, t2)
        if len(set(roots)) < 3:
            raise RepeatedRoots(f"repeated rational root of {cubic}")
        return tuple(AlgebraicInt(field, t, 0) for t in sorted(roots)), field
    m, f0 = _squarefree_split(-disc)
    field = QuadraticField(-f0)  # raises UnsupportedField off the allow-list
    # the root is (-B + m*sqrt(-f0))/2 and sqrt(-f0) = (2w - t)/(2 - t); both
    # divisions are exact because B^2 = m^2 * (-f0) (mod 4)
    t = field.t
    s = m // (2 - t)
    if s * (2 - t) != m or (B + s * t) % 2:
        raise AbckitInternal(f"inexact root coordinates for {cubic}: B={B}, m={m}, f={f0}")
    root = AlgebraicInt(field, (-B - s * t) // 2, s)
    return (AlgebraicInt(field, r, 0), root, root.conjugate()), field


def degeneracy_check(roots: tuple[AlgebraicInt, ...]) -> bool:
    """True iff some ratio of distinct nonzero roots is a root of unity.

    In the supported rings the roots of unity are exactly the units, so a
    ratio is one exactly when the two roots are associates, that is, when
    they have the same canonical associate.
    """
    return len({canonical_associate(r) for r in roots}) < len(roots)


# ---------------------------------------------------------------------------
# Exact rational elements of the field (numerator / positive integer denominator)


@dataclass(frozen=True)
class FieldRatio:
    """num / den with num integral and den a positive rational integer."""

    num: AlgebraicInt
    den: int

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "FieldRatio") -> "FieldRatio":
        den = lcm(self.den, other.den)
        return _ratio(self.num * (den // self.den) + other.num * (den // other.den), den)

    def __mul__(self, other: AlgebraicInt) -> "FieldRatio":
        return _ratio(self.num * other, self.den)

    def __str__(self) -> str:
        return str(self.num) if self.den == 1 else f"({self.num})/{self.den}"


def _ratio(num: AlgebraicInt, den: int) -> FieldRatio:
    if den == 0:
        raise ZeroInput("zero denominator")
    if den < 0:
        num, den = -num, -den
    g = gcd(gcd(abs(num.x), abs(num.y)), den)
    if g > 1:
        num = AlgebraicInt(num.field, num.x // g, num.y // g)
        den //= g
    return FieldRatio(num, den)


def solve_coefficients(roots: tuple[AlgebraicInt, ...], a0: int, a1: int,
                       a2: int) -> tuple[FieldRatio, FieldRatio, FieldRatio]:
    """Exact solution k of the Vandermonde system sum_i k_i r_i^n = a_n, n = 0, 1, 2.

    In Lagrange form k_i = (a2 - (r_j + r_l) a1 + r_j r_l a0) / ((r_i - r_j)(r_i - r_l))
    for {i, j, l} = {0, 1, 2}; the quotient num / den is num conj(den) / N(den),
    reduced by the gcd of its two coordinates and N(den).  The arithmetic runs
    on the coordinates (x, y) of x + y*omega, with omega^2 = t*omega + n; over
    Q, t = n = y = 0, so conj(den) = den and N(den) = den^2 > 0.
    """
    field = roots[0].field
    if not field.d == roots[1].field.d == roots[2].field.d:
        raise BadParameter("elements of different fields")
    t, n = field.t, field.n
    out = []
    for i in range(3):
        ri, rj, rl = roots[i], roots[i - 1], roots[i - 2]
        # num = a2 - (r_j + r_l) a1 + r_j r_l a0
        yy = rj.y * rl.y
        nx = a2 - (rj.x + rl.x) * a1 + (rj.x * rl.x + n * yy) * a0
        ny = -(rj.y + rl.y) * a1 + (rj.x * rl.y + rj.y * rl.x + t * yy) * a0
        # den = (r_i - r_j)(r_i - r_l)
        ux, uy, vx, vy = ri.x - rj.x, ri.y - rj.y, ri.x - rl.x, ri.y - rl.y
        dx, dy = ux * vx + n * uy * vy, ux * vy + uy * vx + t * uy * vy
        if not (dx or dy):
            raise SingularSystem("coincident roots make the Vandermonde matrix singular")
        # num * conj(den), conj(den) = (dx + t dy) - dy omega, over N(den)
        cx = dx + t * dy
        x, y = nx * cx - n * ny * dy, ny * cx - nx * dy - t * ny * dy
        norm = dx * cx - n * dy * dy
        g = gcd(x, y, norm)
        out.append(FieldRatio(AlgebraicInt(field, x // g, y // g), norm // g))
    return tuple(out)


def closed_form_value(ks, roots, n: int) -> FieldRatio:
    """sum k_i r_i^n, exactly."""
    total = _ratio(AlgebraicInt(roots[0].field, 0, 0), 1)
    for k, r in zip(ks, roots):
        total = total + k * r**n
    return total


# ---------------------------------------------------------------------------
# Common-prime stripping


@dataclass(frozen=True)
class StripEvent:
    prime: AlgebraicInt
    norm: int
    stripped: int          # exponent removed from the terms
    absorbed_index: int | None  # coordinate whose root supplies the missing power
    deficit: int
    n0: int


@dataclass(frozen=True)
class StripCertificate:
    """The strip's events, and n0: from this index on, the stripped terms are
    pairwise coprime.  G is the radical of the stripped terms k_i r_i^n: the
    product of the distinct prime norms of the roots and of the primes left
    in some k_i after the strip."""

    events: tuple[StripEvent, ...]
    n0: int
    G: int


def _strip_plan(k: tuple[AlgebraicInt, ...], r: tuple[AlgebraicInt, ...]
                ) -> tuple[list[list[tuple[AlgebraicInt, int]]], StripCertificate]:
    """The strip of strip_common_primes without its divisions: for each
    coordinate the (prime, exponent) pairs to divide out of its k, and the
    certificate.

    Each k and each root is factored once.  The factorizations become dicts
    keyed by each prime's coordinates (x, y), which name a canonical prime
    uniquely once all six values lie in one field, so every exponent is a
    lookup and the primes dividing all three terms are one set intersection.
    """
    if len({v.field.d for v in (*k, *r)}) > 1:
        raise BadParameter("elements of different fields")
    if any(v.is_zero() for v in k):
        raise BadParameter("closed-form coefficients must be nonzero")
    fr = [{(e.prime.x, e.prime.y): e for e in factor_element(v).entries} for v in r]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if fr[i].keys() & fr[j].keys():
            raise RootsNotCoprime(f"roots {r[i]} and {r[j]} share a prime")
    fk = [{(e.prime.x, e.prime.y): e for e in factor_element(v).entries} for v in k]
    entries = {key: e for fac in (*fr, *fk) for key, e in fac.items()}
    # q divides k_i r_i^n for every n >= 1 iff it divides k_i or r_i
    common = ((fk[0].keys() | fr[0].keys()) & (fk[1].keys() | fr[1].keys())
              & (fk[2].keys() | fr[2].keys()))
    events: list[StripEvent] = []
    amounts: list[list[tuple[AlgebraicInt, int]]] = [[], [], []]
    for norm, key in sorted((entries[key].norm, key) for key in common):
        q = entries[key].prime
        e = [fac[key].exponent if key in fac else 0 for fac in fk]
        o = [fac[key].exponent if key in fac else 0 for fac in fr]
        # the roots are coprime, so at most one of them is divisible by q
        absorbed = next((i for i in range(3) if o[i]), None)
        c = min(e[i] for i in range(3) if i != absorbed)
        deficit = n0 = 0
        for i in range(3):
            amount = c if i != absorbed else min(c, e[i])
            if amount:
                amounts[i].append((q, amount))
            if i == absorbed:
                deficit = c - amount
                n0 = ceil(deficit / o[i]) if deficit else 0
        events.append(StripEvent(q, norm, c, absorbed, deficit, n0))
        if absorbed is None and max(e) == c:  # q is gone from every term
            del entries[key]
    n0 = max((ev.n0 for ev in events), default=0)
    G = prod(e.norm for e in entries.values())
    return amounts, StripCertificate(tuple(events), n0, G)


def strip_common_primes(
    k: tuple[AlgebraicInt, ...], r: tuple[AlgebraicInt, ...]
) -> tuple[tuple[AlgebraicInt, ...], StripCertificate]:
    """Remove every prime dividing all three terms k_i r_i^n (n >= 1) from the k's.

    Roots must be pairwise coprime, so at most one root is divisible by a given
    prime q; the common power is c = min of ord_q(k_i) over the coordinates
    whose root is coprime to q.  A coordinate whose k cannot absorb the whole
    division has the shortfall covered by its root's power once n >= n0, which
    the certificate records (smaller n are checked directly by decide_zeros).
    The certificate holds one StripEvent per stripped prime, in the one prime
    order (norm, then coordinates), the largest n0, and G, the radical of the
    stripped terms.  Each k and each root is factored once; G comes from
    those factorizations.
    """
    amounts, certificate = _strip_plan(k, r)
    stripped = []
    for v, strips in zip(k, amounts):
        for q, amount in strips:
            for _ in range(amount):
                v = v.exact_div(q)
        stripped.append(v)
    return tuple(stripped), certificate


# ---------------------------------------------------------------------------
# The zero bound and the decision procedure


def _float_zero_bound(G: int, h_max, config: BoundConfig) -> tuple[float, float] | None:
    """(bound, E): zero_bound in float64 and its relative error radius E, or
    None where the float path does not apply (see zero_bound)."""
    if config.G_min < G <= E_SQUARED_GUARD:  # the term is nonzero and loglog G <= 1
        return None
    log_g = log(G)
    term = 0.0 if G <= config.G_min else config.C_main * _kappa(log_g, config)
    x = (1 / 3 + term) * log_g
    if not x < _EXP_MAX:
        return None
    bound = exp(x) / _to_float(h_max)
    err = _ERR_UNIT * ((1 + 40 * config.C_main) * log_g + 8)
    if not (2.0**-1022 <= bound < inf and err < _ERR_CAP):  # a normal float
        return None
    return bound, err


def _mp_zero_bound(G: int, h_max, config: BoundConfig) -> float:
    """G^(1/3 + exponent_term) / h_max in mpmath at 64 bits, inf past the
    float range: the fallback and oracle of the float path."""
    term = exponent_term(G, config.C_main, config)
    return float(MP.mpf(G) ** (MP.mpf(1) / 3 + term) / h_max)


def zero_bound(G: int, h_max: float, config: BoundConfig = DEFAULT_CONFIG) -> float:
    """G^(1/3 + exponent term) / h_max: past this index the sequence cannot vanish.

    The bound is taken in float64 as exp(x) / h_max with
    x = (1/3 + C kappa) log G and kappa from `bounds._kappa`, the formula of
    `exponent_term`.  It comes from `_mp_zero_bound`, mpmath at 64 bits,
    where that does not apply: G_min < G <= e^e (the term is nonzero and
    loglog G <= 1), x >= _EXP_MAX, a value that is not a normal float, and
    E >= 2^-10.  So a bound past the float range is inf.

    Error bound, under the error model of `bounds._ERR_UNIT`.  Let l = log G
    and C = C_main.  For G <= G_min the term is 0; for G > e^e the float
    kappa is within 22u of the true one and the float log G within 4u l
    (`bounds._kappa`).  So s = 1/3 + C kappa is within
    u (0.7 + 26 C), x within u l (2.4 + 36 C) and exp(x) within a relative
    u l (2.4 + 36 C) + 2u of the true values.
    decide_zeros takes h_max = math.log of the largest root norm (within 4u
    relative of the true log) on this path, and float(MP.log) of it (within
    1.01u) on the mpmath one; the division and mpmath's final rounding add
    u each.  The mpmath path rounds C kappa to float, so its exponent is
    within 2.01 u C of the true one and its bound within a relative
    u (2.1 C l + 0.01 l + 2.1).  Summing both paths, the float bound is
    within a relative u ((2.41 + 38.1 C) l + 9.1) of the mpmath one, to
    first order.  The radius

        E = 2^-48 ((1 + 40 C) l + 8) = 32 u ((1 + 40 C) l + 8)

    is at least 8 times that; with E < 2^-10 the second-order terms, and the
    roundings of bound (1 - E) and bound (1 + E), fit in the slack.  So the
    64-bit mpmath bound lies in [bound (1 - E), bound (1 + E)], and a decision
    that is the same at both ends of that range is the mpmath path's.
    """
    G = as_int(G, "G")
    _check_radical(G)
    h_max = as_real(h_max, "h_max")
    if h_max <= 0:
        raise DegenerateHeight("largest root height must be positive")
    fast = _float_zero_bound(G, h_max, config)
    return _mp_zero_bound(G, h_max, config) if fast is None else fast[0]


def _certified_bound(G: int, h_max: float, config: BoundConfig) -> float | None:
    """zero_bound's float value when its radius E certifies both decisions
    decide_zeros takes from it, else None: the bound is past the hard
    enumeration limit at both ends of [bound (1 - E), bound (1 + E)], or
    below it at both ends with one floor."""
    fast = _float_zero_bound(G, h_max, config)
    if fast is None:
        return None
    bound, err = fast
    lo, hi = bound * (1 - err), bound * (1 + err)
    if lo >= HARD_ENUMERATION_LIMIT + 1 or (hi < HARD_ENUMERATION_LIMIT + 1
                                            and floor(lo) == floor(hi)):
        return bound
    return None


def _square(A: tuple[int, ...], modulus: int | None) -> tuple[int, ...]:
    """A^2 for a 3x3 matrix A in row order, reduced mod `modulus` unless it
    is None."""
    a, b, c, d, e, f, g, h, i = A
    S = (a * a + b * d + c * g, a * b + b * e + c * h, a * c + b * f + c * i,
         d * a + e * d + f * g, d * b + e * e + f * h, d * c + e * f + f * i,
         g * a + h * d + i * g, g * b + h * e + i * h, g * c + h * f + i * i)
    return S if modulus is None else tuple(x % modulus for x in S)


def _state_at(spec: RecurrenceSpec, n: int, modulus: int | None = None,
              state: tuple[int, int, int] | None = None,
              powers: list[tuple[int, ...]] | None = None) -> tuple[int, int, int]:
    """(a_n, a_{n+1}, a_{n+2}) by binary jumping: exact, or reduced mod
    `modulus` after every product.  Given the state (a_m, a_{m+1}, a_{m+2})
    instead of the initial values, it returns the state at m + n.

    powers[k] is M^(2^k) for the companion matrix M of the recurrence, and
    the state is multiplied by powers[k] for each set bit k of n.  The list
    is extended in place only as far as n needs, so a caller that passes
    one list to every jump with one modulus squares M once per bit in all
    (Fiduccia's method for linear recurrences).
    """
    if powers is None:
        powers = []
    if not powers:
        M = (0, 1, 0, 0, 0, 1, spec.c3, spec.c2, spec.c1)
        powers.append(M if modulus is None else tuple(x % modulus for x in M))
    while len(powers) < n.bit_length():
        powers.append(_square(powers[-1], modulus))
    x, y, z = state if state is not None else (spec.a0, spec.a1, spec.a2)
    for k in range(n.bit_length()):
        if n >> k & 1:
            a, b, c, d, e, f, g, h, i = powers[k]
            x, y, z = a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z
            if modulus is not None:
                x, y, z = x % modulus, y % modulus, z % modulus
    return (x, y, z) if modulus is None else (x % modulus, y % modulus, z % modulus)


def _scan_scalar(spec: RecurrenceSpec, total: int) -> list[int]:
    """The n < total with a_n = 0 mod SCAN_MODULUS, one term at a time."""
    c1, c2, c3 = (c % SCAN_MODULUS for c in (spec.c1, spec.c2, spec.c3))
    w0, w1, w2 = (a % SCAN_MODULUS for a in (spec.a0, spec.a1, spec.a2))
    candidates = []
    for n in range(total):
        if not w0:
            candidates.append(n)
        w0, w1, w2 = w1, w2, (c1 * w2 + c2 * w1 + c3 * w0) % SCAN_MODULUS
    return candidates


def _period_mod(spec: RecurrenceSpec, p: int,
                steps: int = SIEVE_PERIOD_CAP) -> tuple[int, int] | None:
    """(T, Z) for a prime p that does not divide c3: T is the period of the
    sequence mod p and bit z of Z, for z < T, is set iff a_z = 0 mod p.  None
    when T exceeds `steps`, after that many steps.

    With c3 a unit mod p the companion matrix is invertible mod p, so the
    states (a_n, a_{n+1}, a_{n+2}) mod p run through a pure cycle.  T is the
    first step at which the state is the initial one again; from then on
    a_{n+T} = a_n mod p for every n >= 0.
    """
    c1, c2, c3 = spec.c1 % p, spec.c2 % p, spec.c3 % p
    s0, s1, s2 = w0, w1, w2 = spec.a0 % p, spec.a1 % p, spec.a2 % p
    zeros = 0
    for t in range(steps):
        if not w0:
            zeros |= 1 << t
        w0, w1, w2 = w1, w2, (c1 * w2 + c2 * w1 + c3 * w0) % p
        if w0 == s0 and w1 == s1 and w2 == s2:
            return t + 1, zeros
    return None


def _sieve_patterns(spec: RecurrenceSpec, width: int, budget: int):
    """(T, mask) for each prime of SIEVE_PRIMES in turn that does not divide
    c3, whose period is at most SIEVE_PERIOD_CAP and which leaves out some
    residue, with at most `budget` steps spent on the periods in all: bit i
    of mask, for i < width + T, is set iff a_i = 0 mod p, so mask >> (s mod T)
    covers the indices s to s + width - 1."""
    spent = 0
    for p in SIEVE_PRIMES:
        if spent >= budget:
            return
        if spec.c3 % p == 0:
            continue
        steps = min(SIEVE_PERIOD_CAP, budget - spent)
        period = _period_mod(spec, p, steps)
        if period is None:
            spent += steps
            continue
        T, mask = period
        spent += T
        if mask == (1 << T) - 1:
            continue
        length = T
        while length < width + T:
            mask |= mask << length
            length *= 2
        yield T, mask


def _sieve(spec: RecurrenceSpec, total: int) -> list[int] | None:
    """The n < total with a_n = 0 mod every small prime taken for n's block,
    or None when SIEVE_PRIMES run out, or min(SIEVE_BUDGET, total) steps
    have gone into their periods, before some block is down to
    SIEVE_SURVIVORS indices.  So a sequence that defeats the sieve pays at
    most twice the steps of the scalar scan.

    The indices run in blocks of SIEVE_BLOCK, one Python-int bitmask each.
    A block takes every prime an earlier block took, and further primes only
    while more than SIEVE_SURVIVORS of its indices survive.  No zero is ever
    dropped, because a_n = 0 implies a_n = 0 mod p.
    """
    width = min(total, SIEVE_BLOCK)
    patterns = _sieve_patterns(spec, width, min(SIEVE_BUDGET, total))
    taken = []
    survivors = []
    for start in range(0, total, width):
        mask = (1 << min(width, total - start)) - 1
        for T, pattern in taken:
            mask &= pattern >> (start % T)
        while mask.bit_count() > SIEVE_SURVIVORS:
            period = next(patterns, None)
            if period is None:
                return None
            taken.append(period)
            T, pattern = period
            mask &= pattern >> (start % T)
        while mask:
            low = mask & -mask
            survivors.append(start + low.bit_length() - 1)
            mask ^= low
    return survivors


def _enumerate_zeros(spec: RecurrenceSpec, limit: int) -> tuple[int, ...]:
    """All n in [0, limit] with a_n = 0.

    Up to SIEVE_PERIOD_CAP terms the sequence is scanned one term at a
    time modulo SCAN_MODULUS, since one period search of the sieve may
    cost that many steps.  Past that _sieve keeps only the indices at
    which a_n vanishes modulo a few small primes, and only if it gives up
    is the whole sequence scanned one term at a time after all.  Every zero
    is a candidate, because a_n = 0 implies a_n = 0 modulo any prime, and
    passes a recheck mod CHECK_MODULUS for the same reason; a candidate that
    passes is kept only if a_n = 0 exactly.  The exact state moves only from
    one passing candidate to the next: a false one costs a modular jump, and
    no sequence costs more than an exact scan.  The jumps of each kind share
    one table of M^(2^k), built as far as the longest jump needs, so a
    false survivor costs a few products of a matrix and a vector.

    Best-of-n times on a 2-vCPU Intel Xeon, Python 3.11.7, of the scan one
    term at a time for A = RecurrenceSpec(10, -31, 30, 10^6 + 3, 112, 452),
    and of the whole call for A, which some prime rules out everywhere, and
    for the capped catalogue spec B = RecurrenceSpec(-3, 17, -77, 0, 8, 1528),
    whose one zero is a_0 and whose false survivors each cost a recheck:

        terms   one at a time   sieve, A   sieve, B (survivors)
          600         0.26 ms   0.010 ms   0.064 ms (1)
       10,000          3.1 ms   0.010 ms    0.14 ms (3)
      100,000           32 ms   0.031 ms    0.34 ms (4)
    1,000,000          370 ms    0.18 ms     2.0 ms (37)
       10^7                       1.4 ms     16 ms (361)

    Over the 120 capped specs of the recurrence_batch catalogue at 10^4
    the call takes 0.036 ms in the median and 0.42 ms at most.  A spec
    that no prime narrows pays the sieve's steps, at most as many as the
    scan one term at a time and about 0.07 ms at 600 terms, on top of it.
    """
    total = limit + 1
    candidates = _sieve(spec, total) if total > SIEVE_PERIOD_CAP else None
    if candidates is None:
        candidates = _scan_scalar(spec, total)
    zeros = []
    at, state, exact_powers = 0, (spec.a0, spec.a1, spec.a2), []
    checked_at, checked, check_powers = 0, tuple(a % CHECK_MODULUS for a in state), []
    for n in candidates:
        checked = _state_at(spec, n - checked_at, CHECK_MODULUS, checked, check_powers)
        checked_at = n
        if checked[0]:
            continue
        state = _state_at(spec, n - at, None, state, exact_powers)
        at = n
        if state[0] == 0:
            zeros.append(n)
    return tuple(zeros)


def decide_zeros(spec: RecurrenceSpec, config: BoundConfig = DEFAULT_CONFIG,
                 cap: int | None = None) -> SmlVerdict:
    """Decide whether the recurrence has zeros, with an explicit enumeration bound.

    Degenerate and unsupported inputs are reported in the verdict rather than
    raised; root triples that are not pairwise coprime as ideals are rejected
    with RootsNotCoprime.
    """
    if cap is not None:
        cap = as_int(cap, "cap", 0)
    try:
        roots, field = find_roots(char_poly(spec))
    except (RepeatedRoots, UnsupportedField) as exc:
        return SmlVerdict(status="Unsupported", C=config.C_main, reason=str(exc))

    if degeneracy_check(roots):
        return SmlVerdict(
            status="Degenerate", C=config.C_main,
            reason="a root ratio is a root of unity; zeros may recur periodically "
                   "(run a periodic-zero analysis)",
        )
    ks = solve_coefficients(roots, spec.a0, spec.a1, spec.a2)
    if all(k.is_zero() for k in ks):
        return SmlVerdict(status="Degenerate", C=config.C_main,
                          reason="identically zero sequence")
    if any(k.is_zero() for k in ks):
        return SmlVerdict(
            status="Unsupported", C=config.C_main,
            reason="a closed-form coefficient vanishes; the three-term bound "
                   "does not apply",
        )
    denominator_lcm = lcm(*(k.den for k in ks))
    cleared = tuple(k.num * (denominator_lcm // k.den) for k in ks)
    certificate = _strip_plan(cleared, roots)[1]
    G = certificate.G
    # the Weil height of an algebraic integer r is the log projective height
    # of (1 : r), which is log |N(r)|; the largest of the three is the log of
    # the largest |N(r)|
    norm = max(abs(r.norm()) for r in roots)
    h_max = log(norm)
    bound = _certified_bound(G, h_max, config)
    if bound is None:
        # zero_bound's mpmath path; past the degeneracy gate at most one root
        # is a unit and no root prime is stripped, so G >= 2 and h_max > 0
        h_max = float(MP.log(norm))
        bound = _mp_zero_bound(G, h_max, config)
    truncated = False
    reason = ""
    if bound >= HARD_ENUMERATION_LIMIT + 1:  # also when bound is inf
        limit = cap if cap is not None else DEFAULT_CAP
        truncated = True
        reason = ("the zero bound exceeds float range" if isinf(bound) else
                  f"the zero bound exceeds the hard limit {HARD_ENUMERATION_LIMIT}")
    else:
        limit = floor(bound)
        if cap is not None and cap < limit:
            reason = f"the cap {cap} is below the zero bound {limit}"
            limit = cap
            truncated = True
    limit = max(limit, certificate.n0, 2)

    zeros = _enumerate_zeros(spec, limit)
    status = "ZerosFound" if zeros else "NoZerosUpToBound"
    return SmlVerdict(
        status=status, zeros=zeros, N=limit, bound=bound, G=G, h_max=h_max,
        C=config.C_main, n0=certificate.n0, truncated=truncated, reason=reason,
    )
