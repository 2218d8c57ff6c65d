"""Seeded inputs for the batch workloads.

Each batch workload draws its inputs from a fixed catalogue that
``record.py`` builds once and stores with the reference results of this
code (``reference/*.json``).  ``sample_recurrences`` and ``sample_quads``
pick a seeded, stratified sample from it: every cell of the mix below gets
the same number of items for every seed, so the mix of verdicts, fields and
magnitudes cannot drift between seeds, and a change to it shows in the
diff of this file and of ``workloads.json``.
"""

from __future__ import annotations

import json
import os
import random
from math import gcd

from qarith import FIELDS, field_label, mul, norm, power, trace

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# recurrence_batch: order-3 specs built from their closed form

# (verdict category, field label) -> specs per batch.  "K" is any imaginary
# quadratic field, "-" a cubic whose splitting field is not supported.
RECURRENCE_MIX = {
    ("zeros", "Q"): 10,
    ("nozeros", "Q"): 24,
    ("capped", "Q"): 4,
    ("degenerate", "Q"): 7,
    ("degenerate", "K"): 7,
    ("unsupported", "Q"): 7,
    ("unsupported", "-"): 7,
    ("not_coprime", "Q"): 6,
    ("not_coprime", "K"): 6,
    **{("zeros", field_label(d)): 2 for d in FIELDS[1:]},
    **{("nozeros", field_label(d)): 2 for d in FIELDS[1:]},
    **{("capped", field_label(d)): 4 for d in FIELDS[1:]},
}
# 40 refused specs, 70 decided within SHORT_SCAN terms and 40 capped: as
# many calls sort below the decided ones as above them, so call_p50_ms lands
# in the middle of the decided specs and call_p90_ms among the capped ones.
RECURRENCE_CAP = 10**4
SHORT_SCAN = 1000  # decided specs in the mix enumerate at most this many terms
CATALOGUE_FACTOR = 3  # catalogue cells hold this many times the batch quota


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return max(1, round(10 ** rng.uniform(lo, hi)))


def _signed(rng: random.Random, lo: float, hi: float) -> int:
    return rng.choice((-1, 1)) * _log_uniform(rng, lo, hi)


def _rational_spec(roots, ks) -> tuple[int, ...]:
    r1, r2, r3 = roots
    a = [sum(k * r**n for k, r in zip(ks, roots)) for n in range(3)]
    return (r1 + r2 + r3, -(r1 * r2 + r1 * r3 + r2 * r3), r1 * r2 * r3, *a)


def _pair_spec(d: int, r: int, alpha, k: int, kappa) -> tuple[int, ...]:
    """a_n = k r^n + Tr(kappa alpha^n): integral, with roots r, alpha, conj(alpha)."""
    t, nm = trace(d, alpha), norm(d, alpha)
    a = [k * r**n + trace(d, mul(d, kappa, power(d, alpha, n))) for n in range(3)]
    return (r + t, -(r * t + nm), r * nm, *a)


def _plant_rational(rng, roots, ks):
    """Replace the last coefficient so that a_n = 0 at a small n, if integral."""
    for n in rng.sample((0, 1, 2), 3):
        rest = ks[0] * roots[0] ** n + ks[1] * roots[1] ** n
        last = roots[2] ** n
        if rest % last == 0 and rest:
            return [ks[0], ks[1], -rest // last], (n,)
    return ks, ()


def _plant_pair(rng, d, r, alpha, kappa, k):
    for n in rng.sample((0, 1, 2), 3):
        rest = trace(d, mul(d, kappa, power(d, alpha, n)))
        if rest and rest % r**n == 0:
            return -rest // r**n, (n,)
    return k, ()


def recurrence_candidate(rng: random.Random) -> dict:
    """One random spec from a template chosen by weight.

    Templates: three rational roots; a rational root plus a conjugate pair
    over one of the nine fields; each optionally with a planted zero; and
    inputs that decide_zeros must refuse (a root ratio of -1, a repeated
    root, a vanishing closed-form coefficient, an irreducible or real
    quadratic cubic, roots sharing a prime).
    """
    kind = rng.choices(
        ("rational", "pair", "degenerate_q", "degenerate_k", "repeated",
         "vanishing", "irreducible", "not_coprime_q", "not_coprime_k"),
        weights=(30, 40, 3, 3, 2, 2, 3, 2, 2))[0]
    mag = rng.choice((0.5, 1, 2, 3, 4))
    planted: tuple[int, ...] = ()
    if kind in ("rational", "degenerate_q", "repeated", "vanishing", "not_coprime_q"):
        field = "Q"
        pool = [r for r in range(-9, 10) if r]
        if kind == "not_coprime_q":
            p = rng.choice((2, 3))
            roots = [p * rng.choice((1, -1)), 2 * p * rng.choice((1, -1)),
                     rng.choice((5, -5, 7, -7))]
        else:
            roots = rng.sample(pool, 3)
        if kind == "degenerate_q":
            roots[1] = -roots[0]
        elif kind == "repeated":
            roots[1] = roots[0]
            field = "-"
        ks = [_signed(rng, 0, mag) for _ in range(3)]
        if kind == "vanishing":
            ks[2] = 0
        elif kind == "rational" and rng.random() < 0.35:
            ks, planted = _plant_rational(rng, roots, ks)
        return {"spec": _rational_spec(roots, ks), "field": field,
                "planted": planted, "kind": kind}
    if kind == "irreducible":
        c3 = rng.choice((2, 3, 5, 6, 7, 10))
        r = rng.choice((-3, -2, 2, 3))
        # x^3 - c3 has no rational root; (x - r)(x^2 - m) with m not a square
        # has a real quadratic splitting field; decide_zeros refuses both
        spec = ((0, 0, c3) if rng.random() < 0.5 else (r, c3, -r * c3))
        return {"spec": (*spec, *(_signed(rng, 0, mag) for _ in range(3))),
                "field": "-", "planted": (), "kind": kind}
    d = rng.choice(FIELDS[1:])
    field = "K" if kind in ("degenerate_k", "not_coprime_k") else field_label(d)
    if kind == "degenerate_k":
        # alpha = 1 + i in Q(i), alpha = w in Q(sqrt(-3)): conj(alpha)/alpha is a unit
        d = rng.choice((-1, -3))
        alpha = (1, 1) if d == -1 else (0, 1)
    else:
        alpha = (rng.randint(-4, 4), rng.randint(1, 3))
    r = rng.choice([x for x in range(-7, 8) if x])
    if kind == "not_coprime_k":
        n_alpha = abs(norm(d, alpha))
        r = next((p for p in (2, 3, 5, 7, 11, 13) if n_alpha % p == 0), n_alpha)
    kappa = (_signed(rng, 0, mag), _signed(rng, 0, mag))
    k = _signed(rng, 0, mag)
    if kind == "pair" and rng.random() < 0.35:
        k, planted = _plant_pair(rng, d, r, alpha, kappa, k)
    return {"spec": _pair_spec(d, r, alpha, k, kappa), "field": field,
            "d": d, "planted": planted, "kind": kind}


def recurrence_category(verdict: dict) -> str:
    """Cell of a recorded reference verdict.

    Decided specs whose scan runs past SHORT_SCAN terms are "long" and left
    out of the mix: their cost is between the algebra and the capped scan,
    and sorting them in the middle of the batch would make the median call
    jump from seed to seed.
    """
    if verdict.get("error"):
        return "not_coprime" if verdict["error"] == "RootsNotCoprime" else "error"
    if verdict["truncated"]:
        return "capped"
    if verdict["status"] in ("ZerosFound", "NoZerosUpToBound") and verdict["N"] > SHORT_SCAN:
        return "long"
    return {"ZerosFound": "zeros", "NoZerosUpToBound": "nozeros",
            "Degenerate": "degenerate", "Unsupported": "unsupported"}[verdict["status"]]


# ---------------------------------------------------------------------------
# quad_reports: coprime triples over Q and the nine fields

QUAD_BUCKETS = ((2, 4), (4, 6), (6, 8), (8, 10))  # log10 range of coordinates
QUAD_PER_CELL = 13  # triples per (field, bucket) cell in one batch
QUAD_CATALOGUE_PER_CELL = 50


def quad_candidate(rng: random.Random, d: int | None, bucket: tuple[int, int]) -> dict:
    """a + b + c = 0 with every coordinate log-uniform in the bucket and the
    three norms pairwise coprime, which makes a, b, c pairwise coprime ideals."""
    lo, hi = bucket
    while True:
        if d is None:
            a, b = (_signed(rng, lo, hi), 0), (_signed(rng, lo, hi), 0)
        else:
            a = (_signed(rng, lo, hi), _signed(rng, lo, hi))
            b = (_signed(rng, lo, hi), _signed(rng, lo, hi))
        c = (-a[0] - b[0], -a[1] - b[1])
        if c == (0, 0):
            continue
        na, nb, nc = (abs(norm(d, v)) for v in (a, b, c))
        if gcd(na, nb) == 1 and gcd(na, nc) == 1 and gcd(nb, nc) == 1:
            return {"d": d, "a": a, "b": b}


# ---------------------------------------------------------------------------
# Seeded stratified samples


def _cells(catalogue: list[dict], key) -> dict:
    cells: dict = {}
    for index, item in enumerate(catalogue):
        cells.setdefault(key(item), []).append(index)
    return cells


def _stratified(rng: random.Random, catalogue: list[dict], indices: list[int],
                count: int) -> list[int]:
    """One index from each of `count` runs of the cell sorted by recorded cost.

    ``cost_ms`` is the time of the item in the reference run; sampling across
    it keeps the batch's total work nearly the same for every seed.
    """
    ranked = sorted(indices, key=lambda i: (catalogue[i]["cost_ms"], i))
    bounds = [len(ranked) * k // count for k in range(count + 1)]
    return [rng.choice(ranked[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def sample_recurrences(catalogue: list[dict], seed: int) -> list[dict]:
    """RECURRENCE_MIX items from the catalogue, shuffled; same seed, same batch."""
    rng = random.Random(f"recurrence_batch:{seed}")
    cells = _cells(catalogue, lambda item: (item["category"], item["field"]))
    chosen = []
    for cell, count in sorted(RECURRENCE_MIX.items()):
        chosen.extend(_stratified(rng, catalogue, cells[cell], count))
    rng.shuffle(chosen)
    return [catalogue[i] for i in chosen]


def sample_quads(catalogue: list[dict], seed: int) -> list[dict]:
    """QUAD_PER_CELL triples per (field, bucket) cell, shuffled."""
    rng = random.Random(f"quad_reports:{seed}")
    cells = _cells(catalogue, lambda item: (field_label(item["d"]), item["bucket"]))
    chosen = []
    for cell in sorted(cells):
        chosen.extend(_stratified(rng, catalogue, cells[cell], QUAD_PER_CELL))
    rng.shuffle(chosen)
    return [catalogue[i] for i in chosen]


def recurrence_mix(batch: list[dict]) -> dict[str, int]:
    """Counts by reference verdict category (capped = truncated) and field."""
    out: dict[str, int] = {}
    for item in batch:
        for key in (f"category.{item['category']}", f"field.{item['field']}"):
            out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def quad_mix(batch: list[dict]) -> dict[str, int]:
    """Counts by field and coordinate-magnitude bucket of a batch."""
    out: dict[str, int] = {}
    for item in batch:
        for key in (f"field.{field_label(item['d'])}", f"log10_coords.{item['bucket']}"):
            out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))
