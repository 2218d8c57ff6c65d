"""Right-hand-side evaluators for the abc-type bounds and their corollaries.

The effective constants in the underlying inequalities are not numeric, so
every evaluator takes the leading constant from a BoundConfig and reports the
inequality's two sides and margin instead of asserting truth.  The radical
exponent uses only the dominant logloglog/loglog term by default; the dropped
lower-order terms are available via ``full_exponent``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .arith import QuadraticField, prime_ideals_in_norm_order
from .errors import (
    BadAlpha,
    BadParameter,
    BadRadical,
    EmptyDataset,
    HypothesisFails,
    NotApplicable,
)
from .heights import MP
from .radical import AbcTriple, Selectors, triple_height

E_SQUARED_GUARD = math.e**math.e  # below this the triple-log exponent turns negative


@dataclass(frozen=True)
class BoundConfig:
    """User-supplied effective constants and numeric-guard settings.

    C_main stands in for the leading constant of whichever bound is being
    evaluated.
    """

    C_main: float = 1.0
    G_min: float = E_SQUARED_GUARD
    full_exponent: bool = False

    def __post_init__(self):
        for name in ("C_main", "G_min"):
            if not math.isfinite(getattr(self, name)):
                raise BadParameter(f"{name} must be finite")
        # C_main = 0 is allowed: it drops the radical exponent entirely, and
        # the calibrator legitimately returns 0 for datasets that need no help
        if self.C_main < 0:
            raise BadParameter("C_main must be nonnegative")
        if self.G_min <= math.e:
            raise BadParameter("G_min must exceed e")

    def with_C(self, C: float) -> "BoundConfig":
        return replace(self, C_main=C)


DEFAULT_CONFIG = BoundConfig()


@dataclass(frozen=True)
class BoundReport:
    """Evaluated inequality: holds iff margin = rhs - lhs >= 0."""

    theorem: str
    lhs: float
    rhs: float
    holds: bool
    margin: float
    exponent_used: float
    regime: str  # "normal" | "small-radical"
    weak_rhs: float | None = None
    detail: str = ""


def is_small_radical(G: int, config: BoundConfig = DEFAULT_CONFIG) -> bool:
    return G <= config.G_min


def _check_radical(G: int) -> None:
    if G < 2:
        raise BadRadical(f"radical must be at least 2, got {G}")


def exponent_term(G: int, C: float, config: BoundConfig = DEFAULT_CONFIG) -> float:
    """C * (logloglog G / loglog G) for G above the small-radical guard, else 0.

    With ``full_exponent`` the dropped lower-order terms 1/loglog G and
    loglog G / log G are added back in.
    """
    _check_radical(G)
    if is_small_radical(G, config):
        return 0.0
    lg = MP.log(G)
    llg = MP.log(lg)
    term = MP.log(llg) / llg
    if config.full_exponent:
        term += 1 / llg + llg / lg
    return float(C * term)


def _regime(G: int, config: BoundConfig) -> str:
    return "small-radical" if is_small_radical(G, config) else "normal"


def _report(theorem: str, lhs: float, rhs: float, exponent: float, regime: str,
            weak_rhs: float | None = None, detail: str = "") -> BoundReport:
    margin = rhs - lhs
    return BoundReport(theorem, lhs, rhs, margin >= 0, margin, exponent, regime,
                       weak_rhs, detail)


def _log_height(triple: AbcTriple) -> float:
    return float(MP.log(triple_height(triple)))


def _power(G: int, a: float):
    """G ** a as Python's float below 2^1024; past the float range an mpf,
    which compares exactly with an int."""
    try:
        return G**a
    except OverflowError:
        return MP.mpf(G) ** a


def _compare_power(N: int, G: int, a: float) -> int:
    """The sign of N - G^a for N >= 0 and a >= 0.

    When a is the float nearest to a fraction p/q with q <= 256, which takes
    in every alpha with at most 8 binary places, such as 0.5, and also 1/3,
    the sign is exact: that of N^q - G^p in integers.  Any other exponent is
    compared with `_power(G, a)`, so an N within rounding of G^a may land on
    the wrong side.
    """
    f = Fraction(a).limit_denominator(256)
    if float(f) == a:
        lhs, rhs = N**f.denominator, G**f.numerator
    else:
        lhs, rhs = N, _power(G, a)
    return (lhs > rhs) - (lhs < rhs)


def _log_base(sel: Selectors, theorem: int) -> float:
    """log of theorem 1, 2 or 3's selector factor, from the exact integer product."""
    if theorem == 1:
        return math.log(sel.n_a * sel.n_b * sel.n_c**2 * max(sel.n_b, sel.n_c)) / 3
    if theorem == 2:
        return math.log(sel.n_b * sel.n_c**2) / 2
    if theorem == 3:
        return math.log(sel.n_a * sel.n_b * sel.n_c * sel.n_c_third * sel.n_q) / 3
    raise BadParameter("theorem must be 1, 2 or 3")


# Float64 filter (Shewchuk, "Adaptive Precision Floating-Point Arithmetic and
# Fast Robust Geometric Predicates", DCG 1997): a decision is taken in float
# only when it is outside a proven bound on the float path's distance from
# the mpmath one; every other case goes to the mpmath code.
_ERR_UNIT = 2.0**-48  # 32 units of roundoff u = 2^-53
_EXP_MAX = 700.0  # math.exp overflows past 709.78


def _float_kappa(G: int, config: BoundConfig) -> tuple[float, float]:
    """(log G, kappa) in float64, kappa = logloglog G / loglog G plus the
    lower-order terms with ``full_exponent``; for G > e^e only."""
    log_g = math.log(G)
    llg = math.log(log_g)
    kappa = math.log(llg) / llg
    if config.full_exponent:
        kappa += 1 / llg + llg / log_g
    return log_g, kappa


def _theorem_report(theorem: int, triple: AbcTriple, config: BoundConfig) -> BoundReport:
    """Theorem 1, 2 or 3's report, from float64 when the error bound certifies
    ``holds``, else from `_theorem_report_mp`.

    Error bound.  Let u = 2^-53, l = log G, C = C_main, b the float log base
    (the same float in both paths), and assume math.log and math.exp are
    within 1 ulp (2u relative) and mpmath's log and exp within 1 ulp at
    64 bits.  For G > e^e, loglog G > 1, so the float kappa is
    within 8.1u of the true value (21.1u with ``full_exponent``; kappa < 2),
    the float exponent x = b + C kappa l within u(|b| + 36 C l) of the true
    one, and rhs = exp(x) within a relative u(|b| + 36 C l) + 2u.  The
    mpmath report rounds C kappa to float and its results to float, so its
    rhs lies within a relative 4.1 u C l + 1.01 u of the true one, and its
    lhs within u log H + 2^-63 log H.  Summing both sides and multiplying by
    32 for second-order terms and slack in the libm assumption:

        |lhs - lhs_mp|  <= E_l = 2^-48 (lhs + 1)
        |rhs - rhs_mp|  <= E_r = 2^-48 rhs (|b| + (1 + 40 C) l + 4)
        |weak - weak_mp| <= 2^-48 weak ((1 + 40 C) l + 4)
        |margin - margin_mp| <= E_l + E_r

    (the lone l covers the rounding of 1/3 in the weak form).  When
    |margin| > E_l + E_r both paths' margins have the float one's sign, so
    ``holds`` agrees.  The mpmath report is returned instead when |margin| is
    within that bound, when G <= max(G_min, e^e), when an exponent exceeds
    _EXP_MAX and for a non-finite value.
    """
    G, C = triple.G, config.C_main
    if G <= max(config.G_min, E_SQUARED_GUARD):
        return _theorem_report_mp(theorem, triple, config)
    log_base = _log_base(triple.height_selectors, theorem)
    lhs = math.log(triple_height(triple))
    log_g, kappa = _float_kappa(G, config)
    term = C * kappa
    x = log_base + term * log_g
    x_weak = (1 / 3 + term) * log_g if theorem == 3 else 0.0
    if max(x, x_weak) < _EXP_MAX:
        rhs = math.exp(x)
        margin = rhs - lhs
        err = _ERR_UNIT * (lhs + 1 + rhs * (log_base + (1 + 40 * C) * log_g + 4))
        if abs(margin) > err:
            weak = math.exp(x_weak) if theorem == 3 else None
            return _report(f"thm{theorem}", lhs, rhs, term, "normal", weak_rhs=weak)
    return _theorem_report_mp(theorem, triple, config)


def _theorem_report_mp(theorem: int, triple: AbcTriple, config: BoundConfig) -> BoundReport:
    """log H against rhs = exp(log base + term * log G), selectors taken in
    height order; theorem 3 also reports its weak form G^(1/3 + term).  All in
    mpmath at 64 bits: the fallback and oracle of `_theorem_report`."""
    lhs = _log_height(triple)
    term = exponent_term(triple.G, config.C_main, config)
    log_g = MP.log(triple.G)
    rhs = float(MP.exp(_log_base(triple.height_selectors, theorem) + term * log_g))
    weak = float(MP.exp((MP.mpf(1) / 3 + term) * log_g)) if theorem == 3 else None
    return _report(f"thm{theorem}", lhs, rhs, term, _regime(triple.G, config),
                   weak_rhs=weak)


def thm1_rhs(triple: AbcTriple, config: BoundConfig = DEFAULT_CONFIG) -> BoundReport:
    """(N_a N_b N_c^2 max(N_b, N_c))^(1/3) * G^exponent."""
    return _theorem_report(1, triple, config)


def thm2_rhs(triple: AbcTriple, config: BoundConfig = DEFAULT_CONFIG) -> BoundReport:
    """N_b^(1/2) * N_c * G^exponent."""
    return _theorem_report(2, triple, config)


def thm3_rhs(triple: AbcTriple, config: BoundConfig = DEFAULT_CONFIG) -> BoundReport:
    """(N_a N_b N_c N'_c N_q)^(1/3) * G^exponent, plus the weakened all-radical
    form G^(1/3 + exponent) in ``weak_rhs``."""
    return _theorem_report(3, triple, config)


# ---------------------------------------------------------------------------
# Corollary table


_CLASS_GROUP_IDS = (1, 2, 8)
_VALID_IDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)


def _require_alpha(alpha, lo: float, hi: float, *, lo_open=True, hi_open=True) -> float:
    if alpha is None:
        raise BadAlpha("this corollary needs an alpha parameter")
    a = float(alpha)
    ok_lo = a > lo if lo_open else a >= lo
    ok_hi = a < hi if hi_open else a <= hi
    if not (ok_lo and ok_hi):
        lo_b = "(" if lo_open else "["
        hi_b = ")" if hi_open else "]"
        raise BadAlpha(f"alpha must lie in {lo_b}{lo}, {hi}{hi_b}, got {a}")
    return a


def _ord_at_top_prime(fac) -> int:
    """Exponent of the largest-norm prime, the last entry (canonical
    coordinates break ties); 1 for units."""
    return fac.entries[-1].exponent if fac.entries else 1


def corollary_bound(cid: int, triple: AbcTriple, config: BoundConfig = DEFAULT_CONFIG,
                    alpha: float | None = None, form: int | None = None) -> BoundReport:
    """Evaluate corollary `cid` of the main bounds as G^(theta + exponent term).

    Corollaries 1, 2 and 8 condition on the class group; with class number one
    their hypotheses are vacuous, so they raise NotApplicable.  The others
    check their hypothesis against the triple and raise HypothesisFails when
    violated.  ``form`` picks a branch where a corollary states two bounds
    (default: the stronger branch whose hypothesis holds).
    """
    if cid not in _VALID_IDS:
        raise BadParameter(f"corollary id must be one of {_VALID_IDS}")
    if cid in _CLASS_GROUP_IDS:
        raise NotApplicable(
            f"corollary {cid} conditions on nontrivial class-group structure; "
            "with class number one its hypothesis is vacuous"
        )
    lhs = _log_height(triple)
    sel, fc = triple.height_selectors, triple.by_height[2]
    G = triple.G
    C = config.C_main
    term = exponent_term(G, C, config)
    regime = _regime(G, config)
    n_max = max(sel.n_a, sel.n_b, sel.n_c)
    max_ord_c = fc.max_exponent(default=1)
    ord_top_c = _ord_at_top_prime(fc)

    def power_of_G(theta: float, extra_term: float, detail: str) -> BoundReport:
        rhs = float(MP.mpf(G) ** (theta + extra_term))
        return _report(f"cor{cid}", lhs, rhs, theta + extra_term, regime, detail=detail)

    if cid == 3:
        if not sel.n_b > sel.n_c:
            raise HypothesisFails(3, f"needs N_b > N_c, got {sel.n_b} <= {sel.n_c}")
        return power_of_G(2 / 3, term, "theta=2/3")

    if cid == 4:
        if not (sel.n_a > sel.n_b and sel.n_a > sel.n_c):
            raise HypothesisFails(
                4, f"needs N_a strictly largest, got ({sel.n_a}, {sel.n_b}, {sel.n_c})"
            )
        if sel.n_b > sel.n_c:
            return power_of_G(5 / 9, term, "theta=5/9 (N_b > N_c)")
        return power_of_G(2 / 3, term, "theta=2/3 (N_c >= N_b)")

    if cid == 5:
        a = _require_alpha(alpha, 0, 1, hi_open=False)
        if _compare_power(max(sel.n_b, sel.n_c), G, a) >= 0:
            raise HypothesisFails(5, f"needs max(N_b, N_c) < G^{a}")
        return power_of_G((1 + 2 * a) / 3, term, f"theta=(1+2a)/3, a={a}")

    if cid == 6:
        a = _require_alpha(alpha, 0, 2 / 3)
        if not max(sel.n_b, sel.n_c) < lhs**a:
            raise HypothesisFails(6, f"needs max(N_b, N_c) < (log H)^{a}")
        return power_of_G(1 / (3 - 2 * a), term, f"theta=1/(3-2a), a={a}")

    if cid == 7:
        a = _require_alpha(alpha, 0, 3 / 5)
        if not n_max < lhs**a:
            raise HypothesisFails(7, f"needs N_max < (log H)^{a}")
        scaled = exponent_term(G, C / (3 - 5 * a), config)
        return power_of_G(0.0, scaled, f"sub-exponential, a={a}")

    if cid == 9:
        a = _require_alpha(alpha, 0, 1)
        strong = _compare_power(max(sel.n_b, sel.n_c), G, a) < 0
        if form == 2 or (form is None and strong):
            if not strong:
                raise HypothesisFails(9, f"needs max(N_b, N_c) < G^{a}")
            return power_of_G(3 * a / 2, term, f"theta=3a/2, a={a}")
        if _compare_power(sel.n_c, G, a) >= 0 and _compare_power(max_ord_c, G, a) >= 0:
            raise HypothesisFails(9, f"needs N_c < G^{a} or max ord_c < G^{a}")
        return power_of_G((1 + a) / 2, term, f"theta=(1+a)/2, a={a}")

    if cid == 10:
        a = _require_alpha(alpha, 0, 1)
        strong = a < 2 / 3 and max(sel.n_b, sel.n_c) < lhs**a
        if form == 2 or (form is None and strong):
            if not strong:
                raise HypothesisFails(
                    10, f"needs max(N_b, N_c) < (log H)^{a} with a < 2/3"
                )
            scaled = exponent_term(G, C / (2 - 3 * a), config)
            return power_of_G(0.0, scaled, f"sub-exponential, a={a}")
        if not (sel.n_c < lhs**a or max_ord_c < lhs**a):
            raise HypothesisFails(10, f"needs N_c < (log H)^{a} or max ord_c < (log H)^{a}")
        return power_of_G(1 / (2 - a), term, f"theta=1/(2-a), a={a}")

    if cid == 11:
        if form != 1 and _compare_power(n_max, G, 1 / 3) <= 0:
            return power_of_G(1 / 2, term, "theta=1/2 (N_max <= G^(1/3))")
        a = _require_alpha(alpha, 1 / 3, 1, hi_open=False)
        if not (_compare_power(n_max, G, a) > 0 and sel.n_a == n_max):
            raise HypothesisFails(11, f"needs N_a = N_max > G^{a}")
        return power_of_G((3 - 3 * a) / 2, term, f"theta=(3-3a)/2, a={a}")

    if cid == 12:
        a = _require_alpha(alpha, 0, 1, hi_open=False)
        if _compare_power(ord_top_c, G, a) >= 0:
            raise HypothesisFails(12, f"needs ord at the top prime of c < G^{a}")
        return power_of_G(max(a, 3 / 4), term, f"theta=max(a, 3/4), a={a}")

    if cid == 13:
        a = _require_alpha(alpha, 0, 1)
        if not ord_top_c < lhs**a:
            raise HypothesisFails(13, f"needs ord at the top prime of c < (log H)^{a}")
        g_branch = MP.mpf(G) ** (3 / 4 + term)
        log_branch = C * MP.log(G) ** (1 / (1 - a))
        rhs = float(max(g_branch, log_branch))
        return _report(f"cor{cid}", lhs, rhs, 3 / 4 + term, regime,
                       detail=f"max(G^(3/4+term), C*(log G)^(1/(1-a))), a={a}")

    raise BadParameter(f"unhandled corollary id {cid}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Explicit auxiliary bounds


def yu_ord_bound(n_terms: int, degree: int, e_p: int, norm_p: int,
                 heights: list[float], B: float) -> float:
    """Explicit upper bound for the order at a prime ideal of a product of
    powers minus one:

        (16 e d)^(2(n+1)) n^(5/2) log(2nd) log(2d) e_p^n
            * norm_p / (log norm_p)^2 * prod h'_i * log B,

    with h'_i = max(h_i, 1/(16 e^2 d^2)) and B >= 3.
    """
    if n_terms < 1 or degree < 1 or e_p < 1:
        raise BadParameter("n_terms, degree and e_p must be positive")
    if norm_p < 2:
        raise BadParameter("norm_p must be at least 2")
    if B < 3:
        raise BadParameter("B must be at least 3 (it is a max with 3)")
    if len(heights) != n_terms:
        raise BadParameter("need exactly one height per term")
    if not all(math.isfinite(h) for h in (*heights, B)):
        raise BadParameter("heights and B must be finite")
    if any(h < 0 for h in heights):
        raise BadParameter("heights are nonnegative")
    n, d = n_terms, degree
    floor_h = 1 / (16 * MP.e**2 * d**2)
    out = (16 * MP.e * d) ** (2 * (n + 1))
    out *= MP.mpf(n) ** MP.mpf(2.5)
    out *= MP.log(2 * n * d) * MP.log(2 * d)
    out *= MP.mpf(e_p) ** n
    out *= norm_p / MP.log(norm_p) ** 2
    for h in heights:
        out *= max(MP.mpf(h), floor_h)
    out *= MP.log(B)
    return float(out)


def tidy_bound(x: float) -> float:
    """max(e, 2x log x): any a with a / log a < x satisfies a < tidy_bound(x)."""
    if not (0 < x < math.inf):
        raise BadParameter("x must be positive and finite")
    return float(max(MP.e, 2 * x * MP.log(x)))


def landau_min_constant(field: QuadraticField, R: int) -> float:
    """Smallest C with prod_{i<=r} norm(p_i)/log norm(p_i) >= (r/C)^r for r <= R,
    over the field's prime ideals in (norm, canonical) order.

    Returns max_r r / (prod_r)^(1/r); the defining inequality is strict for
    every r except the maximizer, where it holds with equality.
    """
    if R < 1:
        raise BadParameter("R must be at least 1")
    ideals = prime_ideals_in_norm_order(field, R)
    log_prod = MP.mpf(0)
    best = MP.mpf(0)
    for r, entry in enumerate(ideals, start=1):
        log_prod += MP.log(entry.norm) - MP.log(MP.log(entry.norm))
        best = max(best, MP.exp(MP.log(r) - log_prod / r))
    return float(best)


def _check_constants(**constants: float) -> None:
    for name, value in constants.items():
        if not (math.isfinite(value) and value > 0):
            raise BadParameter(f"{name} must be finite and positive")


def gyory_sunit_bound(h_alpha: float, h_beta: float, t: int = 0, P: float = 1.0,
                      R: float = 1.0, R_S: float = 1.0, class_number: int = 1, *,
                      C13: float = 1.0, C14: float = 1.0) -> float:
    """S-unit height bound shaped like Gyory's Theorem A, with the reference
    constants C13 and C14 supplied by the caller (they are not derived here).

    t = 0 (no finite places): C13 * max(h_alpha, h_beta, 1).  For t > 0 the
    caller supplies the regulator data; unit-rank-zero fields have R = 1.
    log* means max(log x, 1).
    """
    _check_constants(C13=C13, C14=C14)
    if t < 0:
        raise BadParameter("t must be nonnegative")
    height_factor = max(h_alpha, h_beta, 1.0)
    if t == 0:
        return C13 * height_factor
    if P < 1 or R <= 0 or R_S <= 0 or class_number < 1:
        raise BadParameter("P >= 1, R > 0, R_S > 0 and class_number >= 1 required")

    def logstar(x: float) -> float:
        return max(math.log(x), 1.0)

    script_r = max(float(class_number), C13 * R)
    try:
        power = script_r ** (t + 1)
    except OverflowError:  # past the float range: inf, as house returns
        power = math.inf
    return (
        C14
        * class_number
        * R
        * logstar(R)
        * power
        * logstar(script_r)
        * (P / logstar(P))
        * R_S
        * height_factor
    )


def lefourn_sunit_bound(h_alpha: float, h_beta: float, degree: int, t: int,
                        R_S: float = 1.0, P3: float = 1.0, *,
                        C118: float = 1.0, C119: float = 1.0) -> float:
    """S-unit height bound shaped like the third-largest-norm refinement.

    At most two finite places: C118 * R_S * log+(R_S) * H.  Otherwise
    C119 * P3 * R_S * (1 + log+(R_S)/log+(P3)) * H with P3 the third-largest
    norm among the finite places of S (so P3 >= 2 there).  C118 and C119
    are the reference constants, supplied by the caller.
    """
    _check_constants(C118=C118, C119=C119)
    if degree < 1 or t < 0 or R_S <= 0:
        raise BadParameter("degree >= 1, t >= 0 and R_S > 0 required")
    height_factor = max(h_alpha, h_beta, 1.0, math.pi / degree)
    log_plus = lambda x: max(math.log(x), 0.0)  # noqa: E731
    if t <= 2:
        return C118 * R_S * log_plus(R_S) * height_factor
    if P3 < 2:
        raise BadParameter("with three or more finite places P3 is a prime norm >= 2")
    ratio = 1 + log_plus(R_S) / log_plus(P3)
    return C119 * P3 * R_S * ratio * height_factor


# ---------------------------------------------------------------------------
# Calibration of the leading constant from data


def _needed_C_mp(triple: AbcTriple, theorem: int, config: BoundConfig) -> float | None:
    """C_row of one triple in mpmath: None when log H <= base.  This is the
    mpmath fallback of `empirical_min_C`."""
    log_base = _log_base(triple.height_selectors, theorem)
    _check_radical(triple.G)
    lhs = _log_height(triple)
    if log_base > _EXP_MAX or lhs <= math.exp(log_base):  # base > e^700 > log H
        return None
    kappa_log_g = exponent_term(triple.G, 1.0, config) * math.log(triple.G)
    if kappa_log_g <= 0:
        raise BadParameter(
            "a small-radical triple violates its bound at every C; no finite C exists"
        )
    return (math.log(lhs) - log_base) / kappa_log_g


def empirical_min_C(triples, theorem: int, config: BoundConfig = DEFAULT_CONFIG,
                    tol: float = 1e-6) -> float:
    """Smallest C_main making the chosen theorem's inequality hold on every
    triple, rounded up by at most ``tol``.

    A triple with log H <= base holds at C = 0.  Any other needs
    log H <= base * G^(C * kappa), kappa = exponent_term(G, 1), which solves
    in closed form to C_row = (log log H - log base) / (kappa * log G).  The
    result is max C_row + tol/2, or 0.0 when no triple needs C; the tol/2
    outward rounding keeps the theorem's report holding at the returned C.
    Being a max plus a constant, it does not depend on how the dataset is
    partitioned.

    The rows are filtered in float64, and the result is bit-identical to
    taking every row in mpmath by `_needed_C_mp`, errors included.  With
    u = 2^-53 and the assumptions of `_theorem_report`, the float log H is
    within E_l = 2^-48 (log H + 1) of the mpmath one, so a row is sent to the
    mpmath code when |log H - base| <= E_l.  For a row that needs C, with
    n = log log H - log base and d = kappa log G, the float n is within
    4u log log H + 4.02u + 2u n of the mpmath one and d within 27.2u log G
    (kappa >= 0.019 for G >= 16, so d is never near 0), hence

        |C_row - C_row_mp| <= E_C = 2^-48 ((5 + 4 log log H + 2n
                                             + 32 C_row log G) / d + 2 C_row).

    Only rows with C_row + E_C >= max(C_row - E_C) can hold the mpmath
    maximum; those are recomputed in mpmath and their maximum is the
    all-mpmath one.  Rows with G <= max(G_min, e^e) always take the mpmath row.
    """
    if not 0 < tol < math.inf:
        raise BadParameter(f"tol must be positive and finite, got {tol}")
    triples = list(triples)
    if not triples:
        raise EmptyDataset("calibration needs at least one triple")
    floor = -math.inf  # the largest certain lower bound on any C_row
    exact: list[float] = []  # C_row of rows computed in mpmath
    approx: list[tuple[float, float, AbcTriple]] = []  # float (C_row, E_C, triple)
    for triple in triples:
        log_base = _log_base(triple.height_selectors, theorem)
        _check_radical(triple.G)
        if log_base > _EXP_MAX:  # base > e^700, above log H of any H in memory
            continue
        lhs = math.log(triple_height(triple))
        base = math.exp(log_base)
        err_l = _ERR_UNIT * (lhs + 1)
        if lhs < base - err_l:
            continue
        if lhs <= base + err_l or triple.G <= max(config.G_min, E_SQUARED_GUARD):
            c_row = _needed_C_mp(triple, theorem, config)
            if c_row is not None:
                exact.append(c_row)
                floor = max(floor, c_row)
            continue
        log_g, kappa = _float_kappa(triple.G, config)
        d = kappa * log_g
        log_lhs = math.log(lhs)
        n = log_lhs - log_base
        c_row = n / d
        err_c = _ERR_UNIT * ((5 + 4 * log_lhs + 2 * n + 32 * c_row * log_g) / d + 2 * c_row)
        approx.append((c_row, err_c, triple))
        floor = max(floor, c_row - err_c)
    exact.extend(_needed_C_mp(triple, theorem, config)
                 for c_row, err_c, triple in approx if c_row + err_c >= floor)
    return max(exact) + tol / 2 if exact else 0.0
