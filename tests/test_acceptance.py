"""Acceptance suite: the ten gate criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Each
criterion states its tolerance inline; expected values are recomputed here
from independent formulas or brute-force oracles, never copied from the
implementation under test.
"""

import math
import time
from fractions import Fraction

import numpy as np

from abckit import (
    AlgebraicInt,
    CLASS_NUMBER_ONE_D,
    QuadraticField,
    RATIONALS,
    RecurrenceSpec,
    char_poly,
    decide_zeros,
    empirical_min_C,
    enumerate_triples,
    find_roots,
    make_triple,
    projective_height,
    smoothness_S,
    solve_coefficients,
    thm2_rhs,
    verify_lemma9,
    weil_height,
    yu_ord_bound,
)
from abckit.arith import first_primes, primes_above, primes_upto
from abckit.bounds import DEFAULT_CONFIG
from abckit.heights import log_projective_height, places
from abckit.radical import enumerate_primitive_triples

from conftest import GAUSSIAN, random_element

Q = RATIONALS


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def recurrence_values(spec: RecurrenceSpec, count: int) -> list[int]:
    vals = [spec.a0, spec.a1, spec.a2]
    while len(vals) < count:
        vals.append(spec.c1 * vals[-1] + spec.c2 * vals[-2] + spec.c3 * vals[-3])
    return vals[:count]


def test_criterion_1_worked_recurrence_example():
    spec = RecurrenceSpec(10, -31, 30, 31, 112, 452)
    start = time.monotonic()

    roots, field = find_roots(char_poly(spec))
    ks = solve_coefficients(roots, 31, 112, 452)
    verdict = decide_zeros(spec)

    elapsed = time.monotonic() - start

    roots_ok = field.degree == 1 and sorted(r.x for r in roots) == [2, 3, 5]
    ks_ok = [(k.num.x, k.den) for k in ks] == [(7, 1), (11, 1), (13, 1)]
    g_ok = verdict.G == 30030

    # independent recomputation of the bound: G^(1/3 + logloglog G/loglog G)/log 5
    lg = math.log(30030)
    exponent = 1 / 3 + math.log(math.log(lg)) / math.log(lg)
    expected_n = math.floor(30030**exponent / math.log(5))
    n_ok = abs(verdict.N - expected_n) <= 1

    values = recurrence_values(spec, verdict.N + 1)
    positive_ok = all(v > 0 for v in values)
    status_ok = verdict.status == "NoZerosUpToBound" and verdict.zeros == ()

    report(
        1,
        roots_ok and ks_ok and g_ok and n_ok and positive_ok and status_ok
        and elapsed < 1.0,
        f"roots {{2,3,5}}, k=(7,11,13), G=30030, N={verdict.N} "
        f"(recomputed {expected_n} +-1), a_n > 0 up to N, {elapsed:.3f}s",
    )


def test_criterion_2_constructed_zero():
    start = time.monotonic()
    verdict = decide_zeros(RecurrenceSpec(10, -31, 30, 1, 0, -12))
    elapsed = time.monotonic() - start
    report(
        2,
        verdict.status == "ZerosFound" and verdict.zeros == (1,) and elapsed < 1.0,
        f"ZerosFound({list(verdict.zeros)}) in {elapsed:.3f}s",
    )


def test_criterion_3_radical_height_smoothness():
    triple = make_triple(1, 8, -9)
    height = projective_height(triple.coordinates(), Q)
    smooth = smoothness_S(triple)
    lemma9_ok = math.log(triple.G) <= 3 * smooth
    report(
        3,
        triple.G == 6 and height == 9 and smooth == 3 and lemma9_ok,
        f"G={triple.G}, H={height}, S={smooth}, log 6 <= 9 holds",
    )


def test_criterion_4_lemma9_exhaustive_13_smooth():
    start = time.monotonic()
    triples = enumerate_triples(13, 10**6, workers=1)
    violations = [t for t in triples if not verify_lemma9(t)[0]]
    elapsed = time.monotonic() - start
    report(
        4,
        not violations and elapsed < 60.0,
        f"{len(triples)} primitive 13-smooth triples with Z <= 1e6, "
        f"{len(violations)} violations, {elapsed:.1f}s",
    )


def test_criterion_5_rosser_suite():
    ps = first_primes(10**4)
    lower_bad = [n for n, p in enumerate(ps, 1) if not n * math.log(n) * (1 - 1e-9) < p]
    upper_bad = [
        n for n, p in enumerate(ps, 1)
        if n >= 3 and not p <= 2 * n * math.log(n) * (1 + 1e-9)
    ]
    report(
        5,
        not lower_bad and not upper_bad,
        f"n log n < p_n for n <= 1e4 and p_n <= 2n log n for 3 <= n <= 1e4 "
        f"({len(lower_bad)}+{len(upper_bad)} violations)",
    )


def test_criterion_6_yu_bound_consistency():
    violations = []
    h3 = math.log(3)
    for p in (2, 5, 7):
        for b in range(1, 61):
            value = 3**b - 1
            ord_p = 0
            while value % p == 0:
                value //= p
                ord_p += 1
            bound = yu_ord_bound(1, 1, 1, p, [h3], max(b, 3))
            if not ord_p < bound:
                violations.append((p, b, ord_p, bound))
    report(6, not violations, f"ord_p(3^b - 1) < bound for p in (2,5,7), b <= 60 "
                              f"({len(violations)} violations)")


def test_criterion_7_product_formula_and_scale_invariance(rng):
    worst_pf = 0.0
    worst_scale = 0.0
    for field in (Q, GAUSSIAN):
        for _ in range(250):
            num = random_element(rng, field)
            den = random_element(rng, field)
            residue = abs(sum(p.log_abs() for p in places(num, den)))
            worst_pf = max(worst_pf, residue)

            coords = [random_element(rng, field, 10**4) for _ in range(3)]
            k = random_element(rng, field, 10**3)
            drift = abs(
                log_projective_height([k * c for c in coords], field)
                - log_projective_height(coords, field)
            )
            worst_scale = max(worst_scale, drift)
    report(
        7,
        worst_pf < 1e-9 and worst_scale < 1e-9,
        f"500 random elements/triples over Q and Q(i): max |sum log|x|_v| = "
        f"{worst_pf:.2e}, max log-height drift = {worst_scale:.2e}",
    )


def test_criterion_8_corrected_exponent_bound_exhaustive():
    limit = 10**4
    # max prime power dividing n, by smallest-prime-factor sieve
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    mpp = np.ones(limit + 1, dtype=np.int64)
    for n in range(2, limit + 1):
        m = n
        while m > 1:
            p = spf[m]
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            if q > mpp[n]:
                mpp[n] = q
    checked = 0
    for z in range(2, limit + 1):
        xs = np.arange(1, z // 2 + 1)
        xs = xs[np.gcd(xs, z) == 1]
        if xs.size == 0:
            continue
        # norm(p)^ord_p(x) <= H = z for each coordinate, exactly
        assert mpp[z] <= z
        assert np.all(mpp[xs] <= z) and np.all(mpp[z - xs] <= z)
        checked += int(xs.size)
    # the same statement through the library's factorizations, smaller range
    for z in range(2, 301):
        for x in range(1, z // 2 + 1):
            if math.gcd(x, z) != 1:
                continue
            triple = make_triple(x, z - x, -z)
            h = projective_height(triple.coordinates(), Q)
            for fac in triple.factorizations():
                for entry in fac:
                    assert Fraction(entry.norm) ** entry.exponent <= h
    report(8, True, f"ord_p bound exact on {checked} primitive triples with H <= 1e4 "
                    "(plus factorization-level check to H <= 300)")


def test_criterion_9_calibration_sanity():
    dataset = enumerate_primitive_triples(10**3)
    c_star = empirical_min_C(dataset, 2)
    finite_ok = c_star >= 0 and math.isfinite(c_star)

    config = DEFAULT_CONFIG.with_C(c_star)
    violations = [t for t in dataset if not thm2_rhs(t, config).holds]

    halves = max(empirical_min_C(dataset[::2], 2), empirical_min_C(dataset[1::2], 2))
    stable_ok = halves == c_star

    report(
        9,
        finite_ok and not violations and stable_ok,
        f"min C = {c_star:.6f} over {len(dataset)} triples (H <= 1e3), "
        f"{len(violations)} violations at that C, halves agree: {stable_ok}",
    )


def test_criterion_10_quadratic_splitting_exhaustive():
    primes = primes_upto(10**4)
    bad = []
    for d in CLASS_NUMBER_ONE_D:
        field = QuadraticField(d)
        for p in primes:
            entries = primes_above(field, p)
            product = 1
            for e in entries:
                product *= e.norm
            # a ramified prime appears once with norm p but the ideal squares
            if len(entries) == 1 and entries[0].norm == p:
                product *= p
            if product != p * p:
                bad.append((d, p, product))
    report(
        10,
        not bad,
        f"norm products equal p^2 for all p <= 1e4 across {len(CLASS_NUMBER_ONE_D)} "
        f"fields ({len(bad)} violations)",
    )
