"""Search harness for smooth primitive solutions of X + Y = Z over the integers.

Enumerates P-smooth primitive triples up to a height limit, checks the
radical-versus-smoothness inequality G <= e^(3S) exhaustively, and applies
the slow-growth smoothness filter with pluggable phi functions.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain

from .arith import as_int, first_primes, is_probable_prime, primes_upto
from .errors import BadParameter, BadPhi

NESTING_THRESHOLD = math.exp(math.e**math.e)  # four nested logs need H above this


@dataclass(frozen=True)
class SmoothTriple:
    """Primitive X + Y = Z with X <= Y, all three P-smooth for the run's P.

    Cached: S (largest prime of XYZ), G (product of the distinct primes of
    XYZ), H (projective height; coprime positive integers make it Z).
    """

    x: int
    y: int
    z: int
    s: int
    g: int
    h: int

    @property
    def log_h(self) -> float:
        return math.log(self.h)


def smooth_numbers(P: int, limit: int) -> list[int]:
    """Ascending, duplicate-free list of n <= limit with all prime factors <= P."""
    limit = as_int(limit, "limit", 1)
    P = as_int(P, "P")
    if not is_probable_prime(P):
        raise BadParameter(f"P must be prime, got {P}")
    values = [1]
    for p in primes_upto(min(P, limit)):  # a prime above limit divides no n <= limit
        grown = []
        for v in values:
            while v <= limit:
                grown.append(v)
                v *= p
        grown.sort()
        values = grown
    return values


def _support_mask(n: int, primes: list[int]) -> int:
    """Bit i set exactly when primes[i] divides n."""
    return sum(1 << i for i, p in enumerate(primes) if n % p == 0)


def _make_triple(x: int, z: int, masks: dict[int, int], radicals: dict[int, int],
                 primes: list[int]) -> SmoothTriple:
    y = z - x
    mx, my, mz = masks[x], masks[y], masks[z]
    top = primes[(mx | my | mz).bit_length() - 1]  # z >= 2, so the support is not empty
    return SmoothTriple(x, y, z, top, radicals[mx] * radicals[my] * radicals[mz], z)


def _join_groups(args) -> list[tuple[int, int]]:
    """(X, Z) of every triple whose Z lies in group start, start + step, ...

    smooth is the ascending smooth list and masks its support masks.  The
    numbers are grouped by mask, the groups ordered by their smallest numbers.
    The Y list of a Z group holds the numbers of every disjoint mask in
    [ceil(min Z/2), max Z); each Z of the group probes the part in
    [ceil(Z/2), Z).  The list comes the cheaper of two ways: filter that slice
    of smooth by mask, or merge the slices of the disjoint groups whose
    smallest number is below max Z.  A group visited costs about four numbers
    filtered (160-340 ns against 60-75 ns on a 2-vCPU Xeon), so the filter
    wins when the groups are many and small, as with many primes.
    """
    smooth, masks, start, step = args
    grouped: dict[int, list[int]] = {}
    for n, m in zip(smooth, masks):
        grouped.setdefault(m, []).append(n)
    groups = list(grouped.items())
    members = set(smooth)
    smallest = [values[0] for _, values in groups]  # ascending: groups come in that order
    found = []
    for mz, zs in groups[start::step]:
        lo, hi = (zs[0] + 1) // 2, zs[-1]
        a, b = bisect_left(smooth, lo), bisect_left(smooth, hi)
        k = bisect_left(smallest, hi)
        if b - a <= 4 * k:
            ys = [y for y, m in zip(smooth[a:b], masks[a:b]) if not m & mz]
        else:
            ys = sorted(chain.from_iterable([
                values[bisect_left(values, lo):bisect_left(values, hi)]
                for m, values in groups[:k] if not m & mz]))
        for z in zs:
            for y in ys[bisect_left(ys, (z + 1) // 2):bisect_left(ys, z)]:
                if z - y in members:
                    found.append((z - y, z))
    return found


def enumerate_triples(P: int, H_limit: int, workers: int = 1) -> list[SmoothTriple]:
    """Exactly the primitive P-smooth triples with Z <= H_limit, sorted by (Z, X).

    Support-mask join.  Each smooth number gets the bitmask of the primes
    dividing it, and the numbers are grouped by mask.  X + Y = Z is primitive
    exactly when the supports of X, Y and Z are pairwise disjoint: a prime
    dividing two of them divides the third.  So a Z probes only the smooth Y
    in [ceil(Z/2), Z) whose mask is disjoint from its own (gcd(Y, Z) = 1),
    and a hit is X = Z - Y in the smooth set; Y >= ceil(Z/2) is exactly
    X <= Y.  Smooth numbers thin out as they grow, so this upper half-window
    holds far fewer candidates than the X <= Z/2 below it.  The Y list is
    built once per Z-mask group.  The groups split into min(workers, CPU
    count) tasks, one process each; task i takes every step-th group from
    group i in order of the groups' smallest members, which gives each a near
    equal share of the probes.  One task, or under 64 smooth numbers, runs in
    this process.  The result does not depend on workers.
    """
    H_limit = as_int(H_limit, "H_limit", 2)
    workers = as_int(workers, "workers", 1)
    P = as_int(P, "P")
    smooth = smooth_numbers(P, H_limit)
    primes = primes_upto(min(P, H_limit))
    masks = [_support_mask(n, primes) for n in smooth]
    step = 1 if len(smooth) < 64 else min(workers, os.cpu_count() or 1)
    tasks = [(smooth, masks, start, step) for start in range(step)]
    if step == 1:
        chunks = map(_join_groups, tasks)
    else:
        with ProcessPoolExecutor(max_workers=step) as pool:
            chunks = list(pool.map(_join_groups, tasks))
    pairs = [p for chunk in chunks for p in chunk]
    # built after the pool, so that no worker copies them
    mask_of = dict(zip(smooth, masks))
    radicals = {m: math.prod(p for i, p in enumerate(primes) if m >> i & 1) for m in set(masks)}
    pairs.sort(key=lambda xz: (xz[1], xz[0]))
    return [_make_triple(x, z, mask_of, radicals, primes) for x, z in pairs]


def verify_lemma9(triple: SmoothTriple) -> tuple[bool, float]:
    """Check log G <= 3S; returns (holds, slack = 3S - log G)."""
    slack = 3 * triple.s - math.log(triple.g)
    return slack >= 0, slack


# ---------------------------------------------------------------------------
# Smoothness filter with nested-log guard


def _phi1(x: float) -> float | None:
    return math.log(math.log(x)) / 2 if x > math.e else None


def _phi2(x: float) -> float | None:
    return math.sqrt(math.log(math.log(x))) if x > math.e else None


def _phi3(x: float) -> float | None:
    return math.log(math.log(math.log(x))) if x > math.e**math.e else None


PHI_BUILTINS = {1: _phi1, 2: _phi2, 3: _phi3}


def thm4_status(s: int, h: int, phi_id: int = 2) -> str:
    """'pass' / 'fail' for the smoothness-filter predicate

        S <= loglog H * (logloglog H) / (loglogloglog H * phi(loglog H)),

    or 'below-threshold' when H is too small for the four nested logs or for
    the chosen phi's domain.  Custom phi functions can be registered in
    PHI_BUILTINS; they must satisfy phi(x) < loglog x with phi -> infinity.
    """
    phi = PHI_BUILTINS.get(phi_id)
    if phi is None:
        raise BadPhi(f"unknown phi id {phi_id}; built-ins: {sorted(PHI_BUILTINS)}")
    if h <= NESTING_THRESHOLD:
        return "below-threshold"
    ll = math.log(math.log(h))
    lll = math.log(ll)
    llll = math.log(lll)
    if llll <= 0:
        return "below-threshold"
    phi_value = phi(ll)
    if phi_value is None or phi_value <= 0:
        return "below-threshold"
    rhs = ll * lll / (llll * phi_value)
    return "pass" if s <= rhs else "fail"


@dataclass(frozen=True)
class Thm4Result:
    passed: tuple[SmoothTriple, ...]
    failed: tuple[SmoothTriple, ...]
    below_threshold: int


def thm4_filter(triples, phi_id: int = 2) -> Thm4Result:
    """Split triples by the smoothness-filter predicate; guarded-out triples are
    counted separately, never silently dropped."""
    passed, failed, below = [], [], 0
    for t in triples:
        status = thm4_status(t.s, t.h, phi_id)
        if status == "pass":
            passed.append(t)
        elif status == "fail":
            failed.append(t)
        else:
            below += 1
    return Thm4Result(tuple(passed), tuple(failed), below)


# ---------------------------------------------------------------------------
# Prime-growth inequalities used by the radical-versus-smoothness lemma


def rosser_violations(n_max: int) -> tuple[list[int], list[int]]:
    """Indices violating n log n < p_n (n >= 1) and p_n <= 2n log n (n >= 3).

    Float comparisons get a 1e-9 relative slack on the float side only; the
    prime side is exact.
    """
    ps = first_primes(as_int(n_max, "n_max", 1))
    lower_bad, upper_bad = [], []
    for n, p in enumerate(ps, start=1):
        nlogn = n * math.log(n)
        if not nlogn * (1 - 1e-9) < p:
            lower_bad.append(n)
        if n >= 3 and not p <= 2 * nlogn * (1 + 1e-9):
            upper_bad.append(n)
    return lower_bad, upper_bad


def primorial_chain_violations(k_max: int) -> list[int]:
    """k where prod_{i<=k} p_i > 2^k k^k prod_{i=3..k} log i, compared in log
    space: log of the exact integer primorial against
    k log 2 + k log k + sum_{i=3..k} log log i."""
    ps = first_primes(as_int(k_max, "k_max", 1))
    bad = []
    primorial = 1
    log_log_sum = 0.0
    slack = math.log1p(1e-9)
    for k, p in enumerate(ps, start=1):
        primorial *= p
        if k >= 3:
            log_log_sum += math.log(math.log(k))
        log_bound = k * math.log(2) + k * math.log(k) + log_log_sum
        if math.log(primorial) > log_bound + slack:
            bad.append(k)
    return bad
