"""Weil and projective heights with places normalized to satisfy the product formula.

Normalization: a finite place attached to a prime element pi contributes
|x|_v = norm(pi)^(-ord_pi(x)); the infinite place contributes |sigma(x)|^dv
with dv = 1 for the real place of Q and dv = 2 for the complex place of an
imaginary quadratic field.  With this choice H_K = H_Q^[K:Q] on rational
points, and for integral coordinates both heights are exact rationals:
|sigma(x)|^2 is the integer norm(x).

The relative Weil height of x = num/den is the log projective height of
(den : num) (Bombieri-Gubler, Heights in Diophantine Geometry, 1.5), so
weil_height is log_projective_height of that point, and both factor only
the gcd of the norms of the coordinates (arith.ideal_gcd_norm).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf

import mpmath
from mpmath.ctx_iv import MPIntervalContext

from .arith import (
    AlgebraicInt,
    FactorEntry,
    QuadraticField,
    _entry_key,
    as_element,
    factor_element,
    field_of,
    ideal_gcd_norm,
)
from .errors import AllZero, BadParameter, ZeroInput

MP_BITS = 64  # mpmath's working precision, the float filter's reference in bounds
MP = mpmath.MPContext()  # every mpmath value, never at the caller's mpmath.mp.prec
MP.prec = MP_BITS
# interval arithmetic for a decision that a float filter leaves open; its
# one user, xyz.thm4_status, sets the precision each enclosure needs (an
# enclosure is sound at any precision, only wider at a lower one)
_IV = MPIntervalContext()


@dataclass(frozen=True)
class PlaceValue:
    """One normalized local absolute value of a nonzero field element.

    Finite: prime, norm and the (possibly negative) valuation exponent.
    Infinite: embedding modulus and the local degree; `sq_modulus` keeps the
    exact rational |sigma(x)|^2 so the product formula can be checked tightly.
    """

    kind: str  # "finite" | "infinite"
    prime: AlgebraicInt | None = None
    norm: int | None = None
    exponent: int | None = None
    modulus: float | None = None
    local_degree: int | None = None
    sq_modulus: Fraction | None = None

    def log_abs(self) -> float:
        """log |x|_v under the product-formula normalization."""
        if self.kind == "finite":
            return float(-self.exponent * MP.log(self.norm))
        sq = self.sq_modulus
        return float(self.local_degree * (MP.log(sq.numerator) - MP.log(sq.denominator)) / 2)


def places(num, den=None, field: QuadraticField | None = None) -> list[PlaceValue]:
    """All places where num/den has a local value != 1, plus the infinite place."""
    num = as_element(num, field)
    den = as_element(den if den is not None else 1, num.field)
    if num.is_zero() or den.is_zero():
        raise ZeroInput("places of 0 are not defined")
    ords = {e.prime: e for e in factor_element(num)}
    for e in factor_element(den):
        old = ords[e.prime].exponent if e.prime in ords else 0
        ords[e.prime] = FactorEntry(e.prime, old - e.exponent, e.norm)
    out = [
        PlaceValue(kind="finite", prime=e.prime, norm=e.norm, exponent=e.exponent)
        for e in sorted(ords.values(), key=_entry_key) if e.exponent
    ]
    if num.field.degree == 1:
        sq = Fraction(num.x * num.x, den.x * den.x)
        modulus = _to_float(abs(Fraction(num.x, den.x)))
    else:
        # |sigma(x)|^2 is exactly the norm ratio for imaginary quadratic fields
        sq = Fraction(abs(num.norm()), abs(den.norm()))
        modulus = float(MP.sqrt(MP.mpf(sq.numerator) / sq.denominator))
    out.append(PlaceValue(kind="infinite", modulus=modulus, local_degree=num.field.degree,
                          sq_modulus=sq))
    return out


def weil_height(num, den=None, field: QuadraticField | None = None) -> float:
    """Relative logarithmic Weil height of num/den over its ambient field.

    The sum of log+ of the normalized local values, which is the log
    projective height of (den : num); so neither num nor den is factored,
    only the gcd of their norms.  Equals degree times the absolute height,
    and vanishes exactly on the roots of unity.
    """
    num = as_element(num, field)
    den = as_element(den if den is not None else 1, num.field)
    if num.is_zero() or den.is_zero():
        raise ZeroInput("height of 0 is not defined here")
    return log_projective_height([den, num], num.field)


def absolute_weil_height(num, den=None, field: QuadraticField | None = None) -> float:
    """Absolute (degree-normalized) logarithmic height."""
    num = as_element(num, field)
    return weil_height(num, den, field) / num.field.degree


def projective_height(coords, field: QuadraticField | None = None) -> Fraction:
    """Exact projective height of a coordinate vector (>= 1, scale invariant).

    prod over places of max_i |x_i|_v.  Integral coordinates make every local
    factor rational, so the result is an exact Fraction; over Q with coprime
    integer coordinates it is max |x_i|.  Fraction inputs over Q are cleared
    to a common denominator first (the height does not change).

    The finite places contribute 1 / N(gcd ideal) = 1 / prod N(pi)^m(pi),
    where m(pi) is the least order of pi in a nonzero coordinate, and the
    infinite place max |N(x_i)|: over Q both come from |x_i| = |N(x_i)|.
    """
    field = field or field_of(coords)
    if any(isinstance(c, Fraction) for c in coords):
        if field.degree != 1:
            raise BadParameter("Fraction coordinates are only supported over Q")
        lcm = 1
        for c in coords:
            if isinstance(c, Fraction):
                lcm = lcm * c.denominator // gcd(lcm, c.denominator)
        coords = [int(c * lcm) if isinstance(c, Fraction) else c * lcm for c in coords]
    elements = [as_element(c, field) for c in coords]
    if any(c.field != field for c in elements):
        raise BadParameter("coordinates must share one ambient field")
    nonzero = [c for c in elements if not c.is_zero()]
    if not nonzero:
        raise AllZero("projective height needs a nonzero coordinate")

    sizes = [abs(c.norm()) for c in nonzero]
    return Fraction(max(sizes), ideal_gcd_norm(nonzero, sizes))


def log_projective_height(coords, field: QuadraticField | None = None) -> float:
    h = projective_height(coords, field)
    return float(MP.log(h.numerator) - MP.log(h.denominator))


def house(alpha: AlgebraicInt) -> float:
    """Maximum modulus over the complex embeddings, inf past the float range.

    The two embeddings of an imaginary quadratic element are conjugate, so
    the house is sqrt(|norm|); over Q it is |x|, correctly rounded.
    """
    if alpha.is_zero():
        raise ZeroInput("house of 0 is not defined")
    if alpha.field.degree == 1:
        return _to_float(abs(alpha.x))
    return float(MP.sqrt(abs(alpha.norm())))


def _to_float(x: int | Fraction) -> float:
    """float(x), correctly rounded, or inf where it overflows."""
    try:
        return float(x)
    except OverflowError:
        return inf


def _in_ctx(ctx, x):
    """The real x as a number of ctx (MP or _IV): a rational (an int of any
    size, a numpy integer, a Fraction) exactly as the quotient of its terms,
    any other real through float, since mpmath takes neither a Fraction nor
    a numpy number."""
    if isinstance(x, numbers.Rational):
        return ctx.mpf(int(x.numerator)) / int(x.denominator)
    return ctx.mpf(float(x))
