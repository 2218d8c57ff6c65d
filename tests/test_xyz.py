import math
import os
from bisect import bisect_right
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abckit import (
    SmoothTriple,
    enumerate_triples,
    primorial_chain_violations,
    rosser_violations,
    smooth_numbers,
    thm4_filter,
    thm4_status,
    verify_lemma9,
)
from abckit import xyz
from abckit.arith import factor_int, primes_upto
from abckit.cli import dispatch
from abckit.errors import BadParameter, BadPhi
from abckit.xyz import NESTING_THRESHOLD, Thm4Result

FAKE_CPUS = 4


def brute_largest_prime_factors(limit: int) -> list[int]:
    lpf = [0] * (limit + 1)
    for p in range(2, limit + 1):
        if lpf[p] == 0:
            for m in range(p, limit + 1, p):
                lpf[m] = p
    return lpf


def probe_join(P: int, limit: int) -> list[SmoothTriple]:
    """The pair-probing join the support-mask join replaced, kept as its
    oracle: every smooth Z probes every smooth X <= Z/2, and S and G come
    from trial division of XYZ."""
    smooth = smooth_numbers(P, limit)
    members = set(smooth)
    primes = primes_upto(P)
    triples = []
    for z in smooth:
        for x in smooth[:bisect_right(smooth, z // 2)]:
            if z - x in members and gcd(x, z) == 1:
                support = [p for p in primes if x * (z - x) * z % p == 0]
                triples.append(SmoothTriple(x, z - x, z, max(support), math.prod(support), z))
    return triples


class TestSmoothNumbers:
    def test_examples(self):
        assert smooth_numbers(3, 10) == [1, 2, 3, 4, 6, 8, 9]
        assert smooth_numbers(2, 8) == [1, 2, 4, 8]

    def test_count_matches_brute_force_scan(self):
        limit = 10**6
        lpf = brute_largest_prime_factors(limit)
        expected = 1 + sum(1 for n in range(2, limit + 1) if lpf[n] <= 7)
        assert len(smooth_numbers(7, limit)) == expected

    def test_sorted_and_smooth(self):
        values = smooth_numbers(5, 10**4)
        assert values == sorted(set(values))
        for v in values[1:]:
            assert all(e.prime.x <= 5 for e in factor_int(v))

    def test_parameter_validation(self):
        with pytest.raises(BadParameter):
            smooth_numbers(4, 10)  # not prime
        with pytest.raises(BadParameter):
            smooth_numbers(3, 0)

    def test_prime_far_above_limit_sieves_to_limit(self):
        # a prime above the limit divides no n <= limit, so no sieve to P
        assert smooth_numbers(100000000003, 10) == smooth_numbers(7, 10)
        with pytest.raises(BadParameter):
            smooth_numbers(100000000001, 10)  # 11 * 9090909091, not prime


class TestEnumerateTriples:
    def test_contains_1_8_9(self):
        triples = enumerate_triples(3, 10)
        assert (1, 8, 9) in {(t.x, t.y, t.z) for t in triples}

    def test_two_smooth_forces_1_1_2(self):
        assert [(t.x, t.y, t.z) for t in enumerate_triples(2, 100)] == [(1, 1, 2)]

    def test_matches_brute_force_double_loop(self):
        limit = 500
        lpf = brute_largest_prime_factors(limit)
        expected = sorted(
            [
                (x, z)
                for z in range(2, limit + 1)
                if lpf[z] <= 5
                for x in range(1, z // 2 + 1)
                if lpf[x] <= 5 and lpf[z - x] <= 5 and gcd(x, z) == 1
            ],
            key=lambda xz: (xz[1], xz[0]),
        )
        got = [(t.x, t.z) for t in enumerate_triples(5, limit)]
        assert got == expected

    def test_every_triple_reverified_by_factorization(self):
        for t in enumerate_triples(7, 2000):
            assert t.x + t.y == t.z and t.x <= t.y
            assert gcd(gcd(t.x, t.y), t.z) == 1
            primes = set()
            for v in (t.x, t.y, t.z):
                primes.update(e.prime.x for e in factor_int(v))
            assert max(primes) <= 7 and max(primes) == t.s
            product = 1
            for p in primes:
                product *= p
            assert product == t.g
            assert t.h == t.z

    def test_worker_counts_agree(self):
        seq = enumerate_triples(5, 2000, workers=1)
        par = enumerate_triples(5, 2000, workers=3)
        assert seq == par

    def test_23_smooth_count_to_one_million(self):
        assert len(enumerate_triples(23, 10**6)) == 8314

    def test_prime_far_above_limit(self):
        assert enumerate_triples(100000000003, 10) == enumerate_triples(7, 10)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and tasks, runs serially."""

    def __init__(self, log, max_workers):
        self.log = log
        log.append({"max_workers": max_workers})

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.log[-1]["tasks"] = len(tasks)
        return map(fn, tasks)


@pytest.fixture
def pools(monkeypatch):
    log = []
    monkeypatch.setattr(os, "cpu_count", lambda: FAKE_CPUS)
    monkeypatch.setattr(xyz, "ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(log, max_workers))
    return log


class TestWorkers:
    """workers >= 1, capped at the CPU count, and results that do not depend on it."""

    @pytest.mark.parametrize("workers", [0, -1])
    def test_below_one_rejected(self, workers):
        with pytest.raises(BadParameter, match="workers must be at least 1"):
            enumerate_triples(5, 2000, workers=workers)

    def test_huge_count_capped_at_cpus(self, pools):
        assert len(smooth_numbers(5, 2000)) >= 64
        capped = enumerate_triples(5, 2000, workers=10**6)
        assert pools == [{"max_workers": FAKE_CPUS, "tasks": FAKE_CPUS}]
        assert capped == enumerate_triples(5, 2000, workers=1)

    def test_one_worker_builds_no_pool(self, pools):
        enumerate_triples(5, 2000, workers=1)
        assert pools == []

    def test_few_smooth_numbers_build_no_pool(self, pools):
        assert len(smooth_numbers(5, 50)) < 64
        assert enumerate_triples(5, 50, workers=10**6) == probe_join(5, 50)
        assert pools == []

    @pytest.mark.parametrize("argv", [
        ["sml", "decide", "--c1", "10", "--c2", "-31", "--c3", "30",
         "--a0", "1", "--a1", "0", "--a2", "-12"],
        ["calibrate", "--theorem", "2", "--H-limit", "20"],
        ["xyz", "search", "--P", "5", "--limit", "100", "--out", os.devnull],
    ])
    def test_cli_rejects_zero_workers(self, capsys, argv):
        assert dispatch(argv + ["--workers", "0"]) == 1
        err = capsys.readouterr().err
        if argv[0] in ("sml", "calibrate"):  # serial: neither has a --workers flag
            assert "unrecognized arguments: --workers 0" in err
        else:
            assert "workers must be at least 1" in err


class TestMaskJoinAgainstProbeJoin:
    @settings(max_examples=25, deadline=None)
    @given(P=st.sampled_from(primes_upto(31)), limit=st.integers(2, 3 * 10**4),
           workers=st.sampled_from([1, 3]))
    def test_matches_probe_join(self, P, limit, workers):
        assert enumerate_triples(P, limit, workers=workers) == probe_join(P, limit)

    def test_masks_wider_than_64_bits(self):
        # 331 is the 67th prime; 313, 317 and 331 take bits 64-66
        triples = enumerate_triples(331, 400)
        assert triples == probe_join(331, 400)
        assert {313, 317, 331} <= {t.s for t in triples}


class TestDeWegerCompleteSets:
    """de Weger (1987) proved these sets complete: every primitive X + Y = Z
    with XYZ P-smooth has Z at most the largest Z listed."""

    @pytest.mark.parametrize("P, count, largest_z", [(5, 17, 128), (7, 63, 4375),
                                                     (13, 545, 1771561)])
    def test_counts_and_largest_z(self, P, count, largest_z):
        triples = enumerate_triples(P, 10**8)
        assert len(triples) == count
        assert triples[-1].z == largest_z == max(t.z for t in triples)


class TestLemma9:
    def test_examples(self):
        t189 = next(t for t in enumerate_triples(3, 10) if t.z == 9)
        holds, slack = verify_lemma9(t189)
        assert holds and slack == pytest.approx(9 - math.log(6))
        t112 = enumerate_triples(2, 10)[0]
        holds, slack = verify_lemma9(t112)
        assert holds and slack == pytest.approx(6 - math.log(2))

    def test_exhaustive_small(self):
        for t in enumerate_triples(7, 10**4):
            holds, slack = verify_lemma9(t)
            assert holds and slack >= 0


class TestThm4Filter:
    def test_guard_below_nesting_threshold(self):
        assert thm4_status(3, 9) == "below-threshold"
        assert thm4_status(2, int(NESTING_THRESHOLD)) == "below-threshold"

    def test_pass_and_fail_beyond_threshold(self):
        h = 485165195  # log H = 20
        assert thm4_status(10, h) == "pass"
        assert thm4_status(200, h) == "fail"

    def test_monotone_in_smoothness(self):
        h = 485165195
        for s in range(2, 150):
            if thm4_status(s, h) == "pass":
                assert thm4_status(s - 1, h) == "pass"

    def test_phi3_needs_deeper_nesting(self):
        h = 485165195  # loglog H = 3 < e^e, out of phi_3's domain
        assert thm4_status(2, h, phi_id=3) == "below-threshold"
        big = 10 ** (2 * 10**6)  # loglog H = 15.34 just clears e^e
        assert thm4_status(2, big, phi_id=3) == "pass"

    def test_filter_counts_match_predicate_scan(self):
        triples = enumerate_triples(7, 10**6)
        result = thm4_filter(triples, phi_id=2)
        statuses = [thm4_status(t.s, t.h, 2) for t in triples]
        assert len(result.passed) == statuses.count("pass")
        assert len(result.failed) == statuses.count("fail")
        assert result.below_threshold == statuses.count("below-threshold")
        assert (len(result.passed) + len(result.failed)
                + result.below_threshold) == len(triples)

    def test_filter_fills_passed_and_failed(self):
        h = 485165195  # log H = 20: the bound on S is about 116
        small, fails, passes = (SmoothTriple(1, 8, 9, 3, 6, 9), SmoothTriple(1, 1, 2, 200, 2, h),
                                SmoothTriple(1, 2, 3, 10, 6, h))
        result = thm4_filter([small, fails, passes, fails], phi_id=2)
        assert result == Thm4Result((passes,), (fails, fails), 1)

    def test_bad_phi(self):
        with pytest.raises(BadPhi):
            thm4_status(3, 10**9, phi_id=9)


class TestPrimeGrowthInequalities:
    def test_rosser_examples(self):
        lower, upper = rosser_violations(2000)
        assert lower == [] and upper == []

    def test_rosser_lower_is_tight_early(self):
        # p_1 = 2 > 1*log 1 = 0 and p_2 = 3 > 2 log 2
        lower, _ = rosser_violations(2)
        assert lower == []

    def test_primorial_chain_to_50(self):
        assert primorial_chain_violations(50) == []

    def test_primorial_chain_past_float_range(self):
        # 2^k k^k passes the float range near k = 144; the log-space
        # comparison keeps going
        assert primorial_chain_violations(143) == []
        assert primorial_chain_violations(150) == []
        assert primorial_chain_violations(1000) == []

    def test_validation(self):
        with pytest.raises(BadParameter):
            rosser_violations(0)
        with pytest.raises(BadParameter):
            primorial_chain_violations(0)
