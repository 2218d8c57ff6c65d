"""Radicals, smoothness, and top-norm prime selectors for coprime sum-zero triples."""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .arith import (
    AlgebraicInt,
    IdealFactorization,
    QuadraticField,
    RATIONALS,
    as_element,
    as_int,
    factor_element,
    factor_int,
    field_of,
    ideal_coprime,
)
from .errors import (
    BadParameter,
    NotCoprime,
    SumNotZero,
    UnsupportedField,
    ZeroCoordinate,
)

# Largest H_limit enumerate_primitive_triples takes: its triples must fit in
# 4 GiB.  A triple takes about 347 bytes (tracemalloc over the 152,096 of
# H <= 1000, shared factorizations included) and there are at most H^2/4 of
# them, so H^2/4 * 347 <= 2^32 gives H <= 7036, rounded down.
H_LIMIT_MAX = 7000


class Selectors(NamedTuple):
    """Norm selectors of a triple: largest prime norm dividing each coordinate
    (1 for units), third-largest dividing c, third-largest dividing b*c."""

    n_a: int
    n_b: int
    n_c: int
    n_c_third: int
    n_q: int


class AbcTriple(NamedTuple):
    """Coprime a + b + c = 0 over Q or an admissible imaginary quadratic field.

    ``selectors`` follow the given order of (a, b, c).  The bounds read
    ``by_height``, the factorizations relabeled by |norm| ascending (ties
    broken by coordinates), ``height_selectors``, the selectors of that
    order, and ``H``, the exact projective height max |N(a)|, |N(b)|, |N(c)|
    (max |a|, |b|, |c| over Q; coprime coordinates have no finite local
    factor); all are computed once, when the triple is built.  A named
    tuple: immutable, ``_replace`` gives a changed copy.
    """

    field: QuadraticField
    a: AlgebraicInt
    b: AlgebraicInt
    c: AlgebraicInt
    fac_a: IdealFactorization
    fac_b: IdealFactorization
    fac_c: IdealFactorization
    G: int
    selectors: Selectors
    by_height: tuple[IdealFactorization, IdealFactorization, IdealFactorization]
    height_selectors: Selectors
    H: int

    def coordinates(self) -> tuple[AlgebraicInt, AlgebraicInt, AlgebraicInt]:
        return (self.a, self.b, self.c)

    def factorizations(self) -> tuple[IdealFactorization, ...]:
        return (self.fac_a, self.fac_b, self.fac_c)


def _third_largest_norm(*facs: IdealFactorization) -> int:
    """Third-largest norm among the distinct primes of facs, counted once
    each; 1 when fewer than three."""
    norms = sorted((e.norm for fac in facs for e in fac), reverse=True)
    return norms[2] if len(norms) >= 3 else 1


def selector_record(fa: IdealFactorization, fb: IdealFactorization,
                    fc: IdealFactorization) -> Selectors:
    return Selectors(
        n_a=fa.max_norm(),
        n_b=fb.max_norm(),
        n_c=fc.max_norm(),
        n_c_third=_third_largest_norm(fc),
        n_q=_third_largest_norm(fb, fc),
    )


def make_triple(a, b, c, field: QuadraticField | None = None) -> AbcTriple:
    """Validate and populate a triple: nonzero, sum zero, pairwise ideal-coprime."""
    field = field or field_of((a, b, c))
    a, b, c = (as_element(v, field) for v in (a, b, c))
    if a.is_zero() or b.is_zero() or c.is_zero():
        raise ZeroCoordinate("all three coordinates must be nonzero")
    if not (a + b + c).is_zero():
        raise SumNotZero(f"{a} + {b} + {c} != 0")
    # with a + b + c = 0 a prime dividing two coordinates divides the third
    if not ideal_coprime(a, b):
        raise NotCoprime("coordinates must be pairwise coprime as ideals")
    fa, fb, fc = factor_element(a), factor_element(b), factor_element(c)
    # coprimality means the three prime sets are disjoint, so the radical is
    # the plain product of every distinct prime norm
    big_g = fa.radical() * fb.radical() * fc.radical()
    coords, facs = (a, b, c), (fa, fb, fc)
    sizes = [abs(v.norm()) for v in coords]
    order = sorted(range(3), key=lambda i: (sizes[i], coords[i].x, coords[i].y))
    by_height = tuple(facs[i] for i in order)
    selectors = selector_record(fa, fb, fc)
    height_selectors = selectors if order == [0, 1, 2] else selector_record(*by_height)
    return AbcTriple(field, a, b, c, fa, fb, fc, big_g, selectors, by_height,
                     height_selectors, max(sizes))


def smoothness_S(triple: AbcTriple) -> int:
    """Largest rational prime dividing a*b*c; defined over Q only."""
    if triple.field.degree != 1:
        raise UnsupportedField("smoothness is defined over Q")
    # a coprime a + b + c = 0 over Q has a non-unit: +-1 +-1 +-1 is odd
    return max(fac.max_norm(default=0) for fac in triple.factorizations())


def enumerate_primitive_triples(H_limit: int) -> list[AbcTriple]:
    """Every primitive triple over Q with height at most H_limit.

    These are (X, Y, -Z) with X + Y = Z <= H_limit, 1 <= X <= Y and
    gcd(X, Z) = 1; the projective height of such a triple is Z.

    Equal to ``make_triple(X, Z - X, -Z)`` for each, but every n <= H_limit
    is factored once, and its element, factorization and selector inputs are
    shared by all triples using it.  Coprime X < Y < Z are already in height
    order, and over Q the norm ordering of primes is the ordering of the
    primes themselves.

    H_limit above H_LIMIT_MAX raises BadParameter before any work: the
    triples would not fit in 4 GiB.
    """
    H_limit = as_int(H_limit, "H_limit", 2)
    if H_limit > H_LIMIT_MAX:
        raise BadParameter(f"H_limit must be at most {H_LIMIT_MAX}, got {H_limit}")
    # index 0 is a placeholder, never used
    fac = [factor_int(1)] + [factor_int(n) for n in range(1, H_limit + 1)]
    element = [AlgebraicInt(RATIONALS, n) for n in range(H_limit + 1)]
    radical = [f.radical() for f in fac]
    top = [f.max_norm() for f in fac]
    third = [_third_largest_norm(f) for f in fac]
    norms = [tuple(e.norm for e in f.entries) for f in fac]
    out = []
    for z in range(2, H_limit + 1):
        c = AlgebraicInt(RATIONALS, -z)
        fc = factor_int(-z)
        nz, rad_z = norms[z], radical[z]
        for x in range(1, z // 2 + 1):
            if gcd(x, z) != 1:
                continue
            y = z - x
            nyz = norms[y] + nz
            n_q = sorted(nyz, reverse=True)[2] if len(nyz) >= 3 else 1
            sel = Selectors(top[x], top[y], top[z], third[z], n_q)
            fa, fb = fac[x], fac[y]
            out.append(AbcTriple(RATIONALS, element[x], element[y], c, fa, fb, fc,
                                 radical[x] * radical[y] * rad_z, sel, (fa, fb, fc), sel, z))
    return out
