"""The benchmark's four workloads.

Each workload builds its inputs from the seed (outside the timed region),
runs one job of calls into abckit's public functions, checks every output
against the reference results recorded by ``record.py`` and against its own
independent re-computation, and reports the per-layer numbers of a traced
job.  ``workloads.json`` says why each workload was chosen, which layers it
bypasses and which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from bisect import bisect_right
from math import gcd

from abckit import (
    RATIONALS,
    AlgebraicInt,
    BoundConfig,
    QuadraticField,
    RecurrenceSpec,
    decide_zeros,
    empirical_min_C,
    enumerate_primitive_triples,
    enumerate_triples,
    factor_element,
    make_triple,
    projective_height,
    smooth_numbers,
    thm1_rhs,
    thm2_rhs,
    thm3_rhs,
    thm4_status,
    verify_lemma9,
)
from abckit import xyz

import qarith
from generators import RECURRENCE_CAP, load_reference, sample_quads, sample_recurrences

MARGIN_RTOL = 1e-9  # quad_reports margins against the reference, relative

clock = time.perf_counter


def pairs_digest(pairs) -> str:
    """sha256 of the (x, z) pairs in order, one "x,z" line each."""
    h = hashlib.sha256()
    for x, z in pairs:
        h.update(f"{x},{z}\n".encode())
    return h.hexdigest()


def _median_ms(values: list[float]) -> float:
    return 1000 * statistics.median(values) if values else 0.0


class Calibrate:
    """Every primitive triple up to height H, the smallest C for theorem 2,
    then thm2_rhs on every triple at that C."""

    name = "calibrate"
    pool_workers = 0
    H = 300
    TOL = 1e-6

    def inputs(self, seed: int) -> dict:
        return {"H": self.H}

    def run(self, inputs: dict, tr) -> tuple[dict, list[float]]:
        calls = []
        with tr.span("radical.enumerate_primitive_triples"):
            triples = enumerate_primitive_triples(inputs["H"])
        tr.count("radical.triples_built", len(triples))
        with tr.span("bounds.empirical_min_C"):
            C = empirical_min_C(triples, theorem=2, tol=self.TOL)
        config = BoundConfig().with_C(C)
        reports = []
        for triple in triples:
            t0 = clock()
            with tr.span("bounds.thm2_rhs"):
                reports.append(thm2_rhs(triple, config))
            calls.append(clock() - t0)
        return {"triples": triples, "C": C, "reports": reports}, calls

    def reference_record(self, inputs: dict, out: dict) -> dict:
        pairs = [(t.a.x, -t.c.x) for t in out["triples"]]
        return {"H": inputs["H"], "triples": len(pairs), "digest": pairs_digest(pairs),
                "C": out["C"]}

    def check(self, inputs: dict, out: dict, ref: dict) -> tuple[int, int]:
        """One operation per primitive triple (present and holding at C), plus C."""
        H = inputs["H"]
        expected = {(x, z) for z in range(2, H + 1) for x in range(1, z // 2 + 1)
                    if gcd(x, z) == 1}
        rad = _radicals(H)
        seen, bad = set(), 0
        for triple, report in zip(out["triples"], out["reports"]):
            x, y, z = triple.a.x, triple.b.x, -triple.c.x
            ok = ((x, z) in expected and (x, z) not in seen and x + y == z
                  and triple.G == rad[x] * rad[y] * rad[z]
                  and report.holds and report.margin >= 0)
            seen.add((x, z))
            bad += not ok
        bad += len(out["triples"]) != len(out["reports"])
        missing = len(expected - seen)
        if not bad and not missing and pairs_digest(
                (t.a.x, -t.c.x) for t in out["triples"]) != ref["digest"]:
            missing = 1  # the right triples in another order
        c_off = abs(out["C"] - ref["C"]) > self.TOL or len(expected) != ref["triples"]
        attempted = len(expected) + 1
        return attempted, min(attempted, bad + missing + c_off)

    def layers(self, inputs: dict, out: dict, calls: list[float]) -> dict:
        return {"bounds.rows": len(out["triples"])}


def _radicals(n: int) -> list[int]:
    rad = [1] * (n + 1)
    for p in range(2, n + 1):
        if rad[p] == 1:
            for m in range(p, n + 1, p):
                rad[m] *= p
    return rad


class SmoothSearch:
    """Every primitive 23-smooth X + Y = Z up to 10^6 on a two-process pool,
    then the lemma 9 check and the phi=2 smoothness filter on each."""

    name = "smooth_search"
    pool_workers = 2
    P = 23
    LIMIT = 10**6
    BLOCK = 64  # one timed call filters this many triples; one alone is under 1 us

    def inputs(self, seed: int) -> dict:
        return {"P": self.P, "limit": self.LIMIT}

    def run(self, inputs: dict, tr) -> tuple[dict, list[float]]:
        calls, lemma, status = [], [], []
        with tr.span("xyz.enumerate_triples"), tr.wrap(xyz, "smooth_numbers",
                                                       "xyz.smooth_numbers"):
            triples = enumerate_triples(inputs["P"], inputs["limit"],
                                        workers=self.pool_workers)
        with tr.span("xyz.filter"):
            for start in range(0, len(triples), self.BLOCK):
                t0 = clock()
                for t in triples[start:start + self.BLOCK]:
                    lemma.append(verify_lemma9(t))
                    status.append(thm4_status(t.s, t.h, 2))
                calls.append(clock() - t0)
        return {"triples": triples, "lemma": lemma, "status": status}, calls

    def reference_record(self, inputs: dict, out: dict) -> dict:
        pairs = [(t.x, t.z) for t in out["triples"]]
        return {**inputs, "triples": len(pairs), "digest": pairs_digest(pairs)}

    def check(self, inputs: dict, out: dict, ref: dict) -> tuple[int, int]:
        """One operation per reference triple: present, primitive, smooth, and
        with S, G, H and the lemma 9 verdict that this check recomputes."""
        primes = qarith.small_primes(inputs["P"])
        bad = 0
        for t, (holds, slack), status in zip(out["triples"], out["lemma"], out["status"]):
            data = [_smooth_data(v, primes) for v in (t.x, t.y, t.z)]
            ok = (t.x + t.y == t.z and 1 <= t.x <= t.y and t.z <= inputs["limit"]
                  and gcd(t.x, t.z) == 1 and None not in data)
            if ok:
                s = max(top for top, _ in data)
                g = math.prod(r for _, r in data)
                ok = ((t.s, t.g, t.h) == (s, g, t.z)
                      and holds and math.isclose(slack, 3 * s - math.log(g))
                      and status in ("pass", "fail", "below-threshold"))
            bad += not ok
        missing = max(0, ref["triples"] - len(out["triples"]))
        if not bad and not missing and pairs_digest(
                (t.x, t.z) for t in out["triples"]) != ref["digest"]:
            missing = 1  # the right triples in another order
        attempted = max(ref["triples"], len(out["triples"]))
        return attempted, min(attempted, bad + missing)

    def layers(self, inputs: dict, out: dict, calls: list[float]) -> dict:
        smooth = smooth_numbers(inputs["P"], inputs["limit"])
        candidates = sum(bisect_right(smooth, z // 2) for z in smooth)
        return {"xyz.smooth_count": len(smooth), "xyz.candidate_pairs": candidates,
                "xyz.triples_per_candidate": len(out["triples"]) / candidates}


def _smooth_data(n: int, primes: list[int]) -> tuple[int, int] | None:
    """(largest prime, radical) of n by trial division, None unless smooth."""
    top, rad = 1, 1
    for p in primes:
        if n % p == 0:
            top, rad = p, rad * p
            while n % p == 0:
                n //= p
    return (top, rad) if n == 1 else None


def _verdict_record(verdict) -> dict:
    return {"status": verdict.status, "N": verdict.N, "G": verdict.G,
            "zeros": list(verdict.zeros), "truncated": verdict.truncated}


def _recurrence_value(spec, n: int) -> int:
    c1, c2, c3, a0, a1, a2 = spec
    w = [a0, a1, a2]
    for _ in range(n):
        w = [w[1], w[2], c1 * w[2] + c2 * w[1] + c3 * w[0]]
    return w[0]


class RecurrenceBatch:
    """A seeded batch of order-3 specs, each one decide_zeros call at cap 10^4."""

    name = "recurrence_batch"
    pool_workers = 0

    def inputs(self, seed: int) -> dict:
        catalogue = load_reference(self.name)["catalogue"]
        return {"batch": sample_recurrences(catalogue, seed)}

    def run(self, inputs: dict, tr) -> tuple[list, list[float]]:
        calls, verdicts = [], []
        for item in inputs["batch"]:
            spec = RecurrenceSpec(*item["spec"])
            t0 = clock()
            with tr.span("sml.decide_zeros"):
                try:
                    verdicts.append(_verdict_record(decide_zeros(spec, cap=RECURRENCE_CAP)))
                except Exception as exc:  # compared with the reference by check()
                    verdicts.append({"error": type(exc).__name__})
            calls.append(clock() - t0)
        return verdicts, calls

    def check(self, inputs: dict, out: list, ref: dict) -> tuple[int, int]:
        """One operation per spec: (status, N, G, zeros, truncated) or the
        expected exception as recorded, every planted zero of a decided spec
        found, and every reported zero a zero of the recurrence."""
        failed = 0
        for item, verdict in zip(inputs["batch"], out):
            zeros = verdict.get("zeros", [])
            decided = item["verdict"].get("status") in ("ZerosFound", "NoZerosUpToBound")
            ok = (verdict == item["verdict"]
                  and (not decided or set(item["planted"]) <= set(zeros))
                  and all(_recurrence_value(item["spec"], n) == 0 for n in zeros))
            failed += not ok
        attempted = len(inputs["batch"])
        return attempted, min(attempted, failed + abs(attempted - len(out)))

    def layers(self, inputs: dict, out: list, calls: list[float]) -> dict:
        full = [dt for v, dt in zip(out, calls)
                if v.get("status") in ("ZerosFound", "NoZerosUpToBound")
                and not v["truncated"]]
        capped = [dt for v, dt in zip(out, calls) if v.get("truncated")]
        statuses = [v.get("status") or v["error"] for v in out]
        return {
            "sml.decide_full_ms": _median_ms(full),
            "sml.decide_capped_ms": _median_ms(capped),
            "sml.terms_scanned": sum(v["N"] + 1 for v in out if v.get("G")),
            "sml.capped_ratio": len(capped) / len(out),
            **{f"sml.verdicts.{s}": statuses.count(s) for s in SML_STATUSES},
        }


SML_STATUSES = ("ZerosFound", "NoZerosUpToBound", "Degenerate", "Unsupported",
                "RootsNotCoprime")


def _element(field: QuadraticField, xy) -> AlgebraicInt:
    return AlgebraicInt(field, xy[0], xy[1])


class QuadReports:
    """Seeded coprime triples over Q and the nine fields: factor a, b and c,
    build the triple, its projective height and the three theorem reports."""

    name = "quad_reports"
    pool_workers = 0

    def inputs(self, seed: int) -> dict:
        batch = sample_quads(load_reference(self.name)["catalogue"], seed)
        return {"batch": batch, "elements": self.elements(batch)}

    @staticmethod
    def elements(batch: list[dict]) -> list[tuple[AlgebraicInt, ...]]:
        out = []
        for item in batch:
            field = RATIONALS if item["d"] is None else QuadraticField(item["d"])
            a, b = _element(field, item["a"]), _element(field, item["b"])
            out.append((a, b, -(a + b)))
        return out

    def run(self, inputs: dict, tr) -> tuple[list, list[float]]:
        calls, out = [], []
        for a, b, c in inputs["elements"]:
            t0 = clock()
            try:
                facs = []
                for v in (a, b, c):
                    with tr.span("arith.factor_element"):
                        facs.append(factor_element(v))
                with tr.span("radical.make_triple"):
                    triple = make_triple(a, b, c)
                tr.count("radical.triples_built")
                with tr.span("heights.projective_height"):
                    height = projective_height(triple.coordinates())
                margins = []
                for name, fn in (("bounds.thm1_rhs", thm1_rhs), ("bounds.thm2_rhs", thm2_rhs),
                                 ("bounds.thm3_rhs", thm3_rhs)):
                    with tr.span(name):
                        margins.append(fn(triple).margin)
                out.append({"facs": facs, "G": triple.G, "height": height,
                            "margins": margins})
            except Exception as exc:  # counted as a failed operation by check()
                out.append({"error": type(exc).__name__})
            calls.append(clock() - t0)
        return out, calls

    @staticmethod
    def reference_margins(report: dict) -> list[float]:
        # 12 significant digits stay far inside MARGIN_RTOL
        return [float(f"{m:.12g}") for m in report["margins"]]

    def check(self, inputs: dict, out: list, ref: dict) -> tuple[int, int]:
        """One operation per triple: each factorization reassembles exactly
        with prime entries of norm p or p^2, G and the height match this
        check's own computation, and the thm1-3 margins match the reference
        within MARGIN_RTOL."""
        failed = 0
        for item, (a, b, c), report in zip(inputs["batch"], inputs["elements"], out):
            ok = "error" not in report
            if ok:
                d = item["d"]
                norms = {}
                for v, fac in zip((a, b, c), report["facs"]):
                    ok = ok and _reassembles(d, (v.x, v.y), fac)
                    norms.update(((e.prime.x, e.prime.y), e.norm) for e in fac)
                own_height = max(abs(qarith.norm(d, (v.x, v.y))) for v in (a, b, c))
                ok = (ok and report["G"] == math.prod(norms.values())
                      and report["height"] == own_height
                      and all(abs(m - r) <= MARGIN_RTOL * max(1.0, abs(r))
                              for m, r in zip(report["margins"], item["margins"])))
            failed += not ok
        attempted = len(inputs["batch"])
        return attempted, min(attempted, failed + abs(attempted - len(out)))

    def layers(self, inputs: dict, out: list, calls: list[float]) -> dict:
        return {}


def _reassembles(d, value: tuple[int, int], fac) -> bool:
    """unit * prod(prime^e) == value, |norm(unit)| = 1, and every entry a
    prime element whose norm is a rational prime or its square."""
    if abs(qarith.norm(d, (fac.unit.x, fac.unit.y))) != 1:
        return False
    product = (fac.unit.x, fac.unit.y)
    for e in fac:
        prime = (e.prime.x, e.prime.y)
        if (e.exponent < 1 or abs(qarith.norm(d, prime)) != e.norm
                or not qarith.is_prime_or_prime_square(e.norm)):
            return False
        product = qarith.mul(d, product, qarith.power(d, prime, e.exponent))
    return product == value


WORKLOADS = {w.name: w for w in (Calibrate(), SmoothSearch(), RecurrenceBatch(),
                                 QuadReports())}
