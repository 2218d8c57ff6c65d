import math
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abckit import (
    AlgebraicInt,
    QuadraticField,
    RATIONALS,
    RecurrenceSpec,
    char_poly,
    decide_zeros,
    degeneracy_check,
    find_roots,
    ideal_coprime,
    solve_coefficients,
    strip_common_primes,
    zero_bound,
)
from abckit.bounds import BoundConfig
from abckit.heights import weil_height
from abckit.errors import (
    BadParameter,
    BadRadical,
    DegenerateHeight,
    RepeatedRoots,
    RootsNotCoprime,
    SingularSystem,
    UnsupportedField,
)
from abckit import sml
from abckit.arith import _entry_key, factor_element, primes_upto
from abckit.sml import (
    CHECK_MODULUS,
    SCAN_MODULUS,
    SIEVE_BUDGET,
    SIEVE_PERIOD_CAP,
    SIEVE_PRIMES,
    SIEVE_SURVIVORS,
    _enumerate_zeros,
    _period_mod,
    _scan_scalar,
    _sieve,
    _state_at,
    FieldRatio,
    StripCertificate,
    StripEvent,
    closed_form_value,
)

from conftest import ALL_FIELDS, GAUSSIAN, QUADRATIC_FIELDS

Q = RATIONALS
FLAGSHIP = RecurrenceSpec(10, -31, 30, 31, 112, 452)


def q_int(v: int) -> AlgebraicInt:
    return AlgebraicInt(Q, v, 0)


def spec_from_roots(r1: int, r2: int, r3: int, a0: int, a1: int, a2: int) -> RecurrenceSpec:
    e1 = r1 + r2 + r3
    e2 = r1 * r2 + r1 * r3 + r2 * r3
    e3 = r1 * r2 * r3
    return RecurrenceSpec(e1, -e2, e3, a0, a1, a2)


def recurrence_values(spec: RecurrenceSpec, count: int) -> list[int]:
    vals = [spec.a0, spec.a1, spec.a2]
    while len(vals) < count:
        vals.append(spec.c1 * vals[-1] + spec.c2 * vals[-2] + spec.c3 * vals[-3])
    return vals[:count]


class TestCharPoly:
    def test_examples(self):
        assert char_poly(FLAGSHIP) == (1, -10, 31, -30)
        assert char_poly(RecurrenceSpec(0, 0, 1, 1, 1, 1)) == (1, 0, 0, -1)
        assert char_poly(RecurrenceSpec(1, 1, -1, 0, 0, 0)) == (1, -1, -1, 1)

    def test_order_three_required(self):
        with pytest.raises(BadParameter):
            RecurrenceSpec(1, 1, 0, 1, 1, 1)

    def test_numpy_fields_become_ints(self):
        numpy = pytest.importorskip("numpy")
        spec = RecurrenceSpec(10, -31, numpy.int64(30), numpy.int32(31), 112, numpy.int64(452))
        assert spec == RecurrenceSpec(10, -31, 30, 31, 112, 452)
        assert all(type(v) is int for v in (spec.c3, spec.a0, spec.a2))
        verdict = decide_zeros(spec)
        assert verdict == decide_zeros(RecurrenceSpec(10, -31, 30, 31, 112, 452))
        assert (verdict.status, verdict.N, verdict.G) == ("NoZerosUpToBound", 816, 30030)

    @pytest.mark.parametrize("bad", [30.0, "30", 30.5])
    def test_fields_must_be_integers(self, bad):
        with pytest.raises(BadParameter, match="c3 must be an integer"):
            RecurrenceSpec(10, -31, bad, 31, 112, 452)
        with pytest.raises(BadParameter, match="a0 must be an integer"):
            RecurrenceSpec(10, -31, 30, bad, 112, 452)


class TestFindRoots:
    def test_three_rational_roots(self):
        roots, field = find_roots((1, -10, 31, -30))
        assert field.degree == 1
        assert sorted(r.x for r in roots) == [2, 3, 5]

    def test_cyclotomic_cubic(self):
        roots, field = find_roots((1, 0, 0, -1))
        assert field.d == -3
        assert any(r == AlgebraicInt(field, 1, 0) for r in roots)
        for r in roots:
            assert (r**3) == AlgebraicInt(field, 1, 0)

    def test_irreducible_rejected(self):
        with pytest.raises(UnsupportedField):
            find_roots((1, 0, 0, -2))

    def test_real_quadratic_rejected(self):
        # (x - 1)(x^2 - x - 1): golden-ratio pair
        with pytest.raises(UnsupportedField):
            find_roots((1, -2, 0, 1))

    def test_off_allowlist_field_rejected(self):
        # (x - 1)(x^2 + x + 6): disc = -23, squarefree, not class number one
        with pytest.raises(UnsupportedField):
            find_roots((1, 0, 5, -6))

    def test_repeated_roots_rejected(self):
        with pytest.raises(RepeatedRoots):
            find_roots((1, -7, 16, -12))  # (x-2)^2 (x-3)
        with pytest.raises(RepeatedRoots):
            find_roots((1, -3, 3, -1))  # (x-1)^3

    def test_roots_satisfy_cubic(self):
        for cubic in [(1, -2, 4, -3), (1, -1, 2, -2), (1, 3, 3, -7)]:
            try:
                roots, field = find_roots(cubic)
            except (UnsupportedField, RepeatedRoots):
                continue
            one, b, c, d = cubic
            for r in roots:
                val = r * r * r + b * (r * r) + c * r + AlgebraicInt(field, d, 0)
                assert val.is_zero()


def elements(field: QuadraticField, bound: int) -> st.SearchStrategy:
    """Nonzero elements of `field` with coordinates in [-bound, bound]."""
    ys = st.just(0) if field.degree == 1 else st.integers(-bound, bound)
    return st.builds(lambda x, y: AlgebraicInt(field, x, y),
                     st.integers(-bound, bound), ys).filter(lambda v: not v.is_zero())


def degenerate_by_units(roots: tuple[AlgebraicInt, ...]) -> bool:
    """The reference predicate: r_i = u r_j for some i != j and a listed unit u."""
    units = roots[0].field.units()
    return any(roots[i] == u * roots[j]
               for i in range(3) for j in range(3) if i != j for u in units)


@st.composite
def root_triples(draw) -> tuple[AlgebraicInt, ...]:
    """Three nonzero roots of one field; often two of them are made associates."""
    field = draw(st.sampled_from(ALL_FIELDS))
    roots = [draw(elements(field, 6)) for _ in range(3)]
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(3)))[:2]
        roots[j] = draw(st.sampled_from(field.units())) * roots[i]
    return tuple(roots)


class TestDegeneracy:
    def test_examples(self):
        assert degeneracy_check((q_int(1), q_int(-1), q_int(2))) is True
        assert degeneracy_check((q_int(2), q_int(3), q_int(5))) is False
        gi = QuadraticField(-1)
        assert degeneracy_check(
            (AlgebraicInt(gi, 1, 0), AlgebraicInt(gi, 0, 1), AlgebraicInt(gi, 2, 0))
        ) is True

    @pytest.mark.parametrize("d", [-1, -3])
    def test_every_unit_and_every_pair(self, d):
        # 4 units in Z[i], 6 for d = -3; a and b are not associates
        field = QuadraticField(d)
        a, b = AlgebraicInt(field, 2, 1), AlgebraicInt(field, 3, 0)
        assert degeneracy_check((a, b, b + a)) is False
        for u in field.units():
            for roots in ((a, u * a, b), (a, b, u * a), (b, a, u * a)):
                assert degeneracy_check(roots) is True == degenerate_by_units(roots)

    @settings(max_examples=200, deadline=None)
    @given(roots=root_triples())
    def test_matches_the_unit_loop(self, roots):
        assert degeneracy_check(roots) == degenerate_by_units(roots)


class TestSolveCoefficients:
    def test_flagship_example(self):
        roots, _ = find_roots((1, -10, 31, -30))
        ks = solve_coefficients(roots, 31, 112, 452)
        assert [(k.num.x, k.den) for k in ks] == [(7, 1), (11, 1), (13, 1)]

    def test_mixed_signs(self):
        roots, _ = find_roots((1, -10, 31, -30))
        ks = solve_coefficients(roots, 1, 0, -12)
        assert [(k.num.x, k.den) for k in ks] == [(1, 1), (1, 1), (-1, 1)]

    def test_zero_sequence(self):
        roots, _ = find_roots((1, -10, 31, -30))
        assert all(k.is_zero() for k in solve_coefficients(roots, 0, 0, 0))

    def test_rational_coefficients_stay_exact(self):
        roots, _ = find_roots((1, -10, 31, -30))
        ks = solve_coefficients(roots, 1, 1, 1)
        assert [(k.num.x, k.den) for k in ks] == [(8, 3), (-2, 1), (1, 3)]
        for n in range(8):
            v = closed_form_value(ks, roots, n)
            a_n = recurrence_values(RecurrenceSpec(10, -31, 30, 1, 1, 1), n + 1)[n]
            assert v.num == q_int(a_n * v.den)

    @pytest.mark.parametrize("order", [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    def test_coincident_roots_are_singular(self, order):
        rational = (q_int(2), q_int(3))
        with pytest.raises(SingularSystem):
            solve_coefficients(tuple(rational[i] for i in order), 1, 2, 3)
        gaussian = (AlgebraicInt(GAUSSIAN, 1, 2), AlgebraicInt(GAUSSIAN, 3, 0))
        with pytest.raises(SingularSystem):
            solve_coefficients(tuple(gaussian[i] for i in order), 1, 0, 0)

    def test_roots_of_different_fields_rejected(self):
        roots = (q_int(1), AlgebraicInt(GAUSSIAN, 0, 1), AlgebraicInt(GAUSSIAN, 0, -1))
        with pytest.raises(BadParameter, match="different fields"):
            solve_coefficients(roots, 1, 2, 3)

    def test_quadratic_field_solution_is_exact(self):
        roots, field = find_roots((1, -2, 4, -3))  # 1 and (1 +- sqrt(-11))/2
        assert field.d == -11
        for target in [(3, 2, -4), (1, 0, 0), (5, -7, 11)]:
            ks = solve_coefficients(roots, *target)
            for n, a_n in enumerate(target):
                v = closed_form_value(ks, roots, n)
                assert v.num == AlgebraicInt(field, a_n * v.den, 0)


    @settings(max_examples=200, deadline=None)
    @given(case=st.one_of(
        st.tuples(st.just(Q), st.lists(st.integers(-30, 30).filter(bool), min_size=3,
                                       max_size=3, unique=True)),
        st.tuples(st.sampled_from(QUADRATIC_FIELDS), st.integers(-30, 30).filter(bool),
                  st.integers(-20, 20), st.integers(-20, 20).filter(bool)),
    ), order=st.permutations(range(3)), a=st.tuples(*[st.integers(-10**6, 10**6)] * 3))
    def test_matches_lagrange_in_field_arithmetic(self, case, order, a):
        # rational root triples, and one rational root with a conjugate pair
        # in each admissible field, in every order
        if case[0] is Q:
            field, base = Q, tuple(q_int(v) for v in case[1])
        else:
            field, r, x, y = case
            rho = AlgebraicInt(field, x, y)
            base = (AlgebraicInt(field, r, 0), rho, rho.conjugate())
        roots = tuple(base[i] for i in order)
        ks = solve_coefficients(roots, *a)
        assert ks == lagrange_by_field_arithmetic(roots, *a)
        e1 = roots[0] + roots[1] + roots[2]
        e2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
        e3 = roots[0] * roots[1] * roots[2]
        assert e1.y == e2.y == e3.y == 0
        spec = RecurrenceSpec(e1.x, -e2.x, e3.x, *a)
        for n, a_n in enumerate(recurrence_values(spec, 6)):
            v = closed_form_value(ks, roots, n)
            assert v.num == AlgebraicInt(field, a_n * v.den, 0)


def lagrange_by_field_arithmetic(roots, a0, a1, a2) -> tuple[FieldRatio, ...]:
    """The reference solve: each Lagrange quotient num / den built from
    AlgebraicInt arithmetic as num conj(den) / N(den) (num / den over Q), with
    the denominator made positive and the gcd of all three integers divided
    out."""
    field = roots[0].field
    out = []
    for i in range(3):
        rj, rl = roots[i - 1], roots[i - 2]
        den = (roots[i] - rj) * (roots[i] - rl)
        num = AlgebraicInt(field, a2, 0) - (rj + rl) * a1 + rj * rl * a0
        if field.degree == 2:
            num, den = num * den.conjugate(), den.norm()
        else:
            den = den.x
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num.x, num.y, den)
        out.append(FieldRatio(AlgebraicInt(field, num.x // g, num.y // g), den // g))
    return tuple(out)


def radical_by_refactoring(stripped, roots) -> int:
    """The reference radical: every stripped k and every root factored anew."""
    norms = {}
    for value in (*stripped, *roots):
        for entry in factor_element(value):
            norms.setdefault(entry.prime, entry.norm)
    return math.prod(norms.values())


@st.composite
def strip_inputs(draw):
    """Coefficients with a planted common factor, and three roots, in one field."""
    field = draw(st.sampled_from(ALL_FIELDS))
    common = draw(elements(field, 4))
    k = tuple(common * draw(elements(field, 30)) for _ in range(3))
    r = tuple(draw(elements(field, 12)) for _ in range(3))
    return k, r


def strip_by_factorization_lookup(k, r):
    """The reference strip: ord_of scans of each factorization, primes
    compared as AlgebraicInts, and the divisions done in place."""
    if any(v.is_zero() for v in k):
        raise BadParameter("closed-form coefficients must be nonzero")
    fr = [factor_element(v) for v in r]
    prime_sets = [set(fac.primes()) for fac in fr]
    for i in range(3):
        for j in range(i + 1, 3):
            if prime_sets[i] & prime_sets[j]:
                raise RootsNotCoprime(f"roots {r[i]} and {r[j]} share a prime")
    fk = [factor_element(v) for v in k]
    seen = {entry.prime: entry for fac in fk for entry in fac}
    events = []
    strip_amount = [dict(), dict(), dict()]
    for entry in sorted(seen.values(), key=_entry_key):
        q, norm = entry.prime, entry.norm
        e = [fk[i].ord_of(q) for i in range(3)]
        o = [fr[i].ord_of(q) for i in range(3)]
        if min(ei + oi for ei, oi in zip(e, o)) < 1:
            continue
        clear = [i for i in range(3) if o[i] == 0]
        c = min(e[i] for i in clear)
        absorbed = next((i for i in range(3) if o[i] > 0), None)
        deficit = 0
        n0 = 0
        for i in range(3):
            amount = c if i != absorbed else min(c, e[i])
            if amount:
                strip_amount[i][q] = amount
            if i == absorbed:
                deficit = c - amount
                n0 = math.ceil(deficit / o[i]) if deficit else 0
        events.append(StripEvent(q, norm, c, absorbed, deficit, n0))
    stripped = []
    for i, v in enumerate(k):
        for q, amount in strip_amount[i].items():
            for _ in range(amount):
                v = v.exact_div(q)
        stripped.append(v)
    norms = {entry.prime: entry.norm for fac in fr for entry in fac}
    for i, fac in enumerate(fk):
        for entry in fac:
            if entry.exponent > strip_amount[i].get(entry.prime, 0):
                norms[entry.prime] = entry.norm
    n0 = max((ev.n0 for ev in events), default=0)
    return tuple(stripped), StripCertificate(tuple(events), n0, math.prod(norms.values()))


class TestStripCommonPrimes:
    def test_all_roots_coprime_to_two(self):
        k = tuple(q_int(v) for v in (2, 6, 4))
        r = tuple(q_int(v) for v in (3, 5, 7))
        stripped, cert = strip_common_primes(k, r)
        assert [v.x for v in stripped] == [1, 3, 2]
        assert cert.n0 == 0
        assert [(e.prime.x, e.stripped) for e in cert.events] == [(2, 1)]

    def test_already_coprime_untouched(self):
        k = tuple(q_int(v) for v in (7, 11, 13))
        r = tuple(q_int(v) for v in (2, 3, 5))
        stripped, cert = strip_common_primes(k, r)
        assert [v.x for v in stripped] == [7, 11, 13] and not cert.events

    def test_root_absorbs_deficit(self):
        k = tuple(q_int(v) for v in (1, 2, 4))
        r = tuple(q_int(v) for v in (2, 3, 5))
        stripped, cert = strip_common_primes(k, r)
        assert [v.x for v in stripped] == [1, 1, 2]
        assert cert.n0 == 1
        event = cert.events[0]
        assert event.prime.x == 2 and event.stripped == 1 and event.absorbed_index == 0

    def test_rejects_non_coprime_roots(self):
        k = tuple(q_int(v) for v in (1, 1, 1))
        r = tuple(q_int(v) for v in (2, 6, 5))
        with pytest.raises(RootsNotCoprime):
            strip_common_primes(k, r)

    def test_rejects_zero_coefficient(self):
        with pytest.raises(BadParameter):
            strip_common_primes(
                (q_int(0), q_int(1), q_int(1)), (q_int(2), q_int(3), q_int(5))
            )

    def test_quadratic_field_strip(self):
        # over Q(sqrt(-11)), where 2 is inert: k = (2, -2+2w, -2w) all carry
        # one factor of 2 while the roots (1, w, 1-w) carry none
        field = QuadraticField(-11)
        k = (
            AlgebraicInt(field, 2, 0),
            AlgebraicInt(field, -2, 2),
            AlgebraicInt(field, 0, -2),
        )
        r = (
            AlgebraicInt(field, 1, 0),
            AlgebraicInt(field, 0, 1),
            AlgebraicInt(field, 1, -1),
        )
        stripped, cert = strip_common_primes(k, r)
        assert stripped == (
            AlgebraicInt(field, 1, 0),
            AlgebraicInt(field, -1, 1),
            AlgebraicInt(field, 0, -1),
        )
        assert cert.n0 == 0 and len(cert.events) == 1
        assert cert.events[0].norm == 4  # 2 is inert, so its norm is 4
        # the stripped k's are units and associates of w and 1 - w, the primes above 3
        assert cert.G == radical_by_refactoring(stripped, r) == 9

    @settings(max_examples=150, deadline=None)
    @given(inputs=strip_inputs())
    def test_radical_matches_refactoring(self, inputs):
        k, r = inputs
        if not all(ideal_coprime(r[i], r[j]) for i, j in ((0, 1), (0, 2), (1, 2))):
            with pytest.raises(RootsNotCoprime):
                strip_common_primes(k, r)
            return
        stripped, cert = strip_common_primes(k, r)
        assert cert.G == radical_by_refactoring(stripped, r)

    @settings(max_examples=300, deadline=None)
    @given(inputs=strip_inputs())
    def test_matches_the_reference_strip(self, inputs):
        k, r = inputs
        try:
            want = strip_by_factorization_lookup(k, r)
        except RootsNotCoprime as exc:
            with pytest.raises(RootsNotCoprime, match=f"^{re.escape(str(exc))}$"):
                strip_common_primes(k, r)
            return
        assert strip_common_primes(k, r) == want

    def test_primes_with_equal_x_stay_apart(self):
        # 1 + w and 1 + 2w are the primes of norms 2 and 5 in Z[i]; the strip
        # must tell them apart by y.  2 divides every term, 5 only two
        f = GAUSSIAN
        pi2, pi5 = AlgebraicInt(f, 1, 1), AlgebraicInt(f, 1, 2)
        k = (pi2 * pi5, pi2, pi2 * pi5 * pi5)
        r = (AlgebraicInt(f, 3, 0), AlgebraicInt(f, 7, 0), AlgebraicInt(f, 11, 0))
        stripped, cert = strip_common_primes(k, r)
        assert stripped == (pi5, AlgebraicInt(f, 1, 0), pi5 * pi5)
        assert [(ev.prime, ev.stripped) for ev in cert.events] == [(pi2, 1)]
        assert cert.G == 5 * 9 * 49 * 121
        assert (stripped, cert) == strip_by_factorization_lookup(k, r)

    def test_elements_of_different_fields_rejected(self):
        r = (AlgebraicInt(GAUSSIAN, 3, 0), q_int(5), q_int(7))
        with pytest.raises(BadParameter, match="different fields"):
            strip_common_primes((q_int(1), q_int(1), q_int(1)), r)

    def test_no_prime_divides_all_three_terms_afterwards(self, rng):
        for _ in range(100):
            k = tuple(q_int(rng.randint(1, 400)) for _ in range(3))
            r = (q_int(2), q_int(3), q_int(5))
            stripped, cert = strip_common_primes(k, r)
            # reassembly: each coefficient lost exactly its recorded powers
            for i in range(3):
                assert k[i].x % stripped[i].x == 0
                ratio = k[i].x // stripped[i].x
                for event in cert.events:
                    while ratio % event.prime.x == 0:
                        ratio //= event.prime.x
                assert ratio == 1
            n = max(cert.n0, 1)
            terms = [stripped[i].x * r[i].x ** n for i in range(3)]
            g = math.gcd(math.gcd(terms[0], terms[1]), terms[2])
            # the original common power all moved out: nothing divides all three
            assert g == 1, (k, stripped, terms)

    def test_division_by_common_power_preserves_sums(self, rng):
        for _ in range(50):
            k = tuple(q_int(rng.randint(1, 200)) for _ in range(3))
            r = (q_int(3), q_int(5), q_int(14))
            stripped, cert = strip_common_primes(k, r)
            common = 1
            for event in cert.events:
                common *= event.prime.x ** event.stripped
            for n in range(max(cert.n0, 1), max(cert.n0, 1) + 6):
                original = sum(k[i].x * r[i].x ** n for i in range(3))
                assert original % common == 0


class TestZeroBound:
    def test_reference_values(self):
        assert zero_bound(30030, math.log(5), BoundConfig(C_main=1.0)) == pytest.approx(
            816.094179826881, rel=1e-9
        )
        assert zero_bound(30030, math.log(5), BoundConfig(C_main=0.0)) == pytest.approx(
            30030 ** (1 / 3) / math.log(5), rel=1e-12
        )
        # small radical: the exponent collapses to 1/3
        assert zero_bound(2, math.log(2)) == pytest.approx(2 ** (1 / 3) / math.log(2))

    def test_guards(self):
        with pytest.raises(BadRadical):
            zero_bound(1, 1.0)
        with pytest.raises(DegenerateHeight):
            zero_bound(30030, 0.0)


class TestDecideZeros:
    def test_flagship_example(self):
        start = time.monotonic()
        verdict = decide_zeros(FLAGSHIP)
        elapsed = time.monotonic() - start
        assert verdict.status == "NoZerosUpToBound"
        assert verdict.G == 30030
        assert verdict.zeros == ()
        assert abs(verdict.N - zero_bound(30030, math.log(5))) <= 1
        assert elapsed < 1.0

    def test_factors_each_value_once(self, monkeypatch):
        # three roots and three coefficients, each factored once
        calls = []

        def counting_factor_element(value):
            calls.append(value)
            return factor_element(value)

        monkeypatch.setattr(sml, "factor_element", counting_factor_element)
        assert decide_zeros(FLAGSHIP).G == 30030
        assert len(calls) == len(set(calls)) == 6

    def test_constructed_zero(self):
        verdict = decide_zeros(RecurrenceSpec(10, -31, 30, 1, 0, -12))
        assert verdict.status == "ZerosFound" and verdict.zeros == (1,)

    def test_degenerate_ratio(self):
        # roots 1, -1, 2
        verdict = decide_zeros(spec_from_roots(1, -1, 2, 5, 7, 9))
        assert verdict.status == "Degenerate"

    def test_identically_zero(self):
        verdict = decide_zeros(RecurrenceSpec(10, -31, 30, 0, 0, 0))
        assert verdict.status == "Degenerate"

    def test_vanishing_coefficient(self):
        # a_n = 2^n + 3^n: the 5-coefficient vanishes
        verdict = decide_zeros(RecurrenceSpec(10, -31, 30, 2, 5, 13))
        assert verdict.status == "Unsupported"

    def test_unsupported_cubic(self):
        verdict = decide_zeros(RecurrenceSpec(0, 0, 2, 1, 1, 1))  # x^3 - 2
        assert verdict.status == "Unsupported"

    def test_repeated_roots_reported(self):
        verdict = decide_zeros(RecurrenceSpec(7, -16, 12, 1, 1, 1))
        assert verdict.status == "Unsupported" and "root" in verdict.reason

    def test_non_coprime_roots_rejected(self):
        with pytest.raises(RootsNotCoprime):
            decide_zeros(spec_from_roots(2, 6, 5, 1, 1, 1))

    def test_quadratic_field_pipeline(self):
        # roots 1 and (1 +- sqrt(-11))/2 with unit coefficients
        verdict = decide_zeros(RecurrenceSpec(2, -4, 3, 3, 2, -4))
        assert verdict.status == "NoZerosUpToBound"
        assert verdict.G == 9  # the split primes over 3 each have norm 3
        assert verdict.h_max == pytest.approx(math.log(3), rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        s=st.integers(-30, 30).filter(bool),
        u=st.integers(-30, 30),
        v=st.integers(-30, 30),
        d=st.sampled_from([1, -1, -2, -3, -7, -11, -19, -43, -67, -163]),
        a=st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)),
    )
    def test_h_max_is_the_largest_root_height(self, s, u, v, d, a):
        # roots s and u +- v sqrt(d): rational for d = 1, else in Q(sqrt d).
        # decide_zeros takes the height of the root of largest |norm| alone;
        # it must equal, bit for bit, the largest of the three heights
        norm = u * u - d * v * v
        if norm == 0:
            return
        spec = RecurrenceSpec(s + 2 * u, -(2 * u * s + norm), s * norm, *a)
        try:
            verdict = decide_zeros(spec, cap=0)
        except RootsNotCoprime:
            return
        if verdict.h_max is None:
            return
        roots, _ = find_roots(char_poly(spec))
        assert verdict.h_max == max(weil_height(r) for r in roots)

    def test_zero_in_quadratic_field(self):
        # coefficients (2, -2+2w, -2w) over Q(sqrt(-11)) give a_0 = 0
        roots, field = find_roots((1, -2, 4, -3))
        ks = solve_coefficients(roots, 0, -10, -4)
        assert not any(k.is_zero() for k in ks)
        verdict = decide_zeros(RecurrenceSpec(2, -4, 3, 0, -10, -4))
        assert verdict.status == "ZerosFound" and 0 in verdict.zeros

    def test_cap_and_truncation(self):
        p1, p2, p3 = 1000003, 1000033, 1000037
        spec = spec_from_roots(
            2, 3, 5,
            p1 + p2 + p3, 2 * p1 + 3 * p2 + 5 * p3, 4 * p1 + 9 * p2 + 25 * p3,
        )
        verdict = decide_zeros(spec, cap=50)
        assert verdict.truncated and verdict.N == 50
        assert verdict.bound > 10**9
        assert "hard limit" in verdict.reason
        assert verdict.status == "NoZerosUpToBound"

    def test_stripping_keeps_radical_small(self):
        # a_n = 1*2^n + 2*3^n + 4*5^n: the 2-part is shared for n >= 1
        spec = spec_from_roots(2, 3, 5, 7, 28, 122)
        verdict = decide_zeros(spec)
        assert verdict.G == 30 and verdict.n0 == 1

    def test_scaling_invariance(self):
        for m in (2, -3, 6):
            scaled = RecurrenceSpec(10, -31, 30, 31 * m, 112 * m, 452 * m)
            verdict = decide_zeros(scaled)
            assert verdict.status == "NoZerosUpToBound"
            assert verdict.G == 30030 and abs(verdict.N - 816) <= 1
            scaled_zero = RecurrenceSpec(10, -31, 30, m, 0, -12 * m)
            assert decide_zeros(scaled_zero).zeros == (1,)

    def test_bound_past_float_range(self):
        # a_n = K1 2^n + K2 3^n + 5^n with K1, K2 the products of the primes
        # in [7, 3000) and [3000, 6000): G^(1/3 + term) passes 1e308
        K1 = K2 = 1
        for p in primes_upto(6000):
            if 7 <= p < 3000:
                K1 *= p
            elif p >= 3000:
                K2 *= p
        a = [K1 * 2**n + K2 * 3**n + 5**n for n in range(3)]
        verdict = decide_zeros(RecurrenceSpec(10, -31, 30, *a), cap=100)
        assert verdict.status == "NoZerosUpToBound" and verdict.zeros == ()
        assert verdict.truncated and verdict.N == 100
        assert math.isinf(verdict.bound)
        assert "float range" in verdict.reason

    def test_verdict_soundness_random(self, rng):
        for _ in range(25):
            roots = rng.sample([-5, -4, -3, -2, 2, 3, 4, 5], 3)
            spec = spec_from_roots(*roots, rng.randint(-20, 20),
                                   rng.randint(-20, 20), rng.randint(-20, 20))
            try:
                verdict = decide_zeros(spec, cap=800)
            except RootsNotCoprime:
                continue
            if verdict.status not in ("ZerosFound", "NoZerosUpToBound"):
                continue
            values = recurrence_values(spec, verdict.N + 1)
            expected = tuple(n for n, v in enumerate(values) if v == 0)
            assert verdict.zeros == expected


class TestClosedFormMatchesRecurrence:
    def test_rational_specs(self, rng):
        checked = 0
        while checked < 150:
            roots = rng.sample([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6], 3)
            spec = spec_from_roots(*roots, rng.randint(-50, 50),
                                   rng.randint(-50, 50), rng.randint(-50, 50))
            root_elements, _ = find_roots(char_poly(spec))
            ks = solve_coefficients(root_elements, spec.a0, spec.a1, spec.a2)
            values = recurrence_values(spec, 201)
            for n in (0, 1, 2, 3, 7, 50, 200):
                v = closed_form_value(ks, root_elements, n)
                assert v.num == q_int(values[n] * v.den)
            checked += 1

    def test_quadratic_specs(self, rng):
        candidates = [
            (p, q)
            for p in range(-6, 7)
            for q in range(1, 8)
            if p * p - 4 * q < 0
        ]
        checked = 0
        for p, q in candidates:
            for r in (1, -1, 2, 3):
                # cubic (x - r)(x^2 + px + q)
                c1, c2, c3 = r - p, r * p - q, r * q
                if c3 == 0:
                    continue
                try:
                    roots, field = find_roots((1, -c1, -c2, -c3))
                except (UnsupportedField, RepeatedRoots):
                    continue
                spec = RecurrenceSpec(c1, c2, c3, 3, -1, 4)
                ks = solve_coefficients(roots, spec.a0, spec.a1, spec.a2)
                values = recurrence_values(spec, 61)
                for n in (0, 1, 2, 5, 20, 60):
                    v = closed_form_value(ks, roots, n)
                    assert v.num == AlgebraicInt(field, values[n] * v.den, 0)
                checked += 1
                if checked >= 50:
                    return
        assert checked >= 20


def stepped_state(spec: RecurrenceSpec, state: tuple[int, int, int], n: int,
                  modulus: int | None) -> tuple[int, int, int]:
    """The state n terms on from `state`, one term at a time."""
    w0, w1, w2 = state
    for _ in range(n):
        w0, w1, w2 = w1, w2, spec.c1 * w2 + spec.c2 * w1 + spec.c3 * w0
        if modulus is not None:
            w0, w1, w2 = w0 % modulus, w1 % modulus, w2 % modulus
    return (w0, w1, w2) if modulus is None else (w0 % modulus, w1 % modulus, w2 % modulus)


# 0, 1, and 2^k - 1, 2^k, 2^k + 1: the gaps where the bits of n change most
JUMP_GAPS = [0, 1] + [g for k in (1, 2, 3, 5, 8, 10) for g in (2**k - 1, 2**k, 2**k + 1)]


class TestStateJump:
    def test_matrix_power_matches_iteration(self):
        values = recurrence_values(FLAGSHIP, 40)
        for n in (0, 1, 2, 5, 17, 37):
            assert _state_at(FLAGSHIP, n) == tuple(values[n:n + 3])

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
                    st.integers(-10**6, 10**6).filter(bool)),
        a=st.tuples(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9),
                    st.integers(-10**9, 10**9)),
        modulus=st.sampled_from([CHECK_MODULUS, SCAN_MODULUS, None]),
    )
    def test_jumps_match_stepping(self, c, a, modulus):
        # one table of powers shared by every jump, as _enumerate_zeros does;
        # a jump from a state continues from there
        spec = RecurrenceSpec(*c, *a)
        start = a if modulus is None else tuple(x % modulus for x in a)
        powers = []
        for gap in JUMP_GAPS:
            expected = stepped_state(spec, start, gap, modulus)
            assert _state_at(spec, gap, modulus, start, powers) == expected
            assert len(powers) == max(1, gap.bit_length())  # JUMP_GAPS ascend
            assert _state_at(spec, gap, modulus) == expected  # a table of its own
        state = start
        for gap in (3, 1, 6, 0):
            state = _state_at(spec, gap, modulus, state, powers)
        assert state == stepped_state(spec, start, 10, modulus)

    @pytest.mark.parametrize("modulus", [CHECK_MODULUS, SCAN_MODULUS, None])
    def test_one_jump_extends_the_table_twice(self, modulus):
        spec = RecurrenceSpec(-3, 17, -77, 0, 8, 1528)
        start = (spec.a0, spec.a1, spec.a2)
        powers = []
        _state_at(spec, 3, modulus, powers=powers)
        assert len(powers) == 2
        assert _state_at(spec, 13, modulus, powers=powers) == \
            stepped_state(spec, start, 13, modulus)
        assert len(powers) == 4
        # powers[k] is M^(2^k), whose column j is the j-th unit state 2^k terms on
        for k, P in enumerate(powers):
            for j, unit in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
                assert P[j::3] == stepped_state(spec, unit, 2**k, modulus)


def exact_zeros(spec: RecurrenceSpec, limit: int) -> tuple[int, ...]:
    """The reference scan: every a_n for n <= limit in exact integers."""
    w0, w1, w2 = spec.a0, spec.a1, spec.a2
    zeros = []
    for n in range(limit + 1):
        if w0 == 0:
            zeros.append(n)
        w0, w1, w2 = w1, w2, spec.c1 * w2 + spec.c2 * w1 + spec.c3 * w0
    return tuple(zeros)


def planted_zero(roots: tuple[int, int, int], N: int) -> RecurrenceSpec:
    """a_n = r2^N r3^N r1^n + r1^N r3^N r2^n - 2 r1^N r2^N r3^n: a_N = 0 exactly."""
    r1, r2, r3 = roots
    ks = (r2**N * r3**N, r1**N * r3**N, -2 * r1**N * r2**N)
    return spec_from_roots(r1, r2, r3, *(sum(k * r**n for k, r in zip(ks, roots))
                                        for n in range(3)))


def planted_quadratic_zero(s: int, u: int, v: int, d: int, N: int) -> RecurrenceSpec:
    """a_n = s^N t_n - t_N s^n with t_n = 2 Re((1 + sqrt d) alpha^n) and
    alpha = u + v sqrt(d): roots s, alpha and its conjugate, and a_N = 0."""
    t, x, y = [], 1, 1
    for _ in range(max(N, 2) + 1):
        t.append(2 * x)
        x, y = x * u + y * v * d, x * v + y * u
    norm = u * u - d * v * v
    return RecurrenceSpec(s + 2 * u, -(2 * u * s + norm), s * norm,
                          *(s**N * t[n] - t[N] * s**n for n in range(3)))


def planted_candidate(c: tuple[int, int, int], a0: int, a2: int, N: int,
                      M: int = SCAN_MODULUS) -> RecurrenceSpec | None:
    """A spec with a_N = 0 mod M, found by solving for a1; None when the
    coefficient of a1 in a_N is not a unit mod M."""
    row = [_state_at(RecurrenceSpec(*c, *unit), N, M)[0]
           for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    if math.gcd(row[1], M) != 1:
        return None
    a1 = -(row[0] * a0 + row[2] * a2) * pow(row[1], -1, M) % M
    return RecurrenceSpec(*c, a0, a1, a2)


class TestModularScan:
    def test_reduced_state_matches_exact(self):
        values = recurrence_values(FLAGSHIP, 40)
        for n in (0, 1, 2, 5, 17, 37):
            assert _state_at(FLAGSHIP, n, SCAN_MODULUS) == tuple(
                v % SCAN_MODULUS for v in values[n:n + 3])

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.tuples(st.integers(-6, 6), st.integers(-6, 6),
                    st.integers(-6, 6).filter(bool)),
        a=st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)),
        limit=st.integers(0, 300),
    )
    def test_matches_exact_scan(self, c, a, limit):
        spec = RecurrenceSpec(*c, *a)
        assert _enumerate_zeros(spec, limit) == exact_zeros(spec, limit)

    @pytest.mark.parametrize("spec", [
        FLAGSHIP,
        RecurrenceSpec(10, -31, 30, 1, 0, -12),
        RecurrenceSpec(10, -31, 30, -3, 0, 36),
        RecurrenceSpec(2, -4, 3, 0, -10, -4),
    ])
    def test_flagship_and_planted_zeros(self, spec):
        limit = decide_zeros(spec).N
        assert _enumerate_zeros(spec, limit) == exact_zeros(spec, limit)

    def test_confirmation_decides_when_every_term_is_a_candidate(self):
        # a_n = M (2^n + 3^n - 5^n): every term is 0 mod M, only a_1 is 0
        M = SCAN_MODULUS
        spec = RecurrenceSpec(10, -31, 30, M, 0, -12 * M)
        assert _scan_scalar(spec, 301) == list(range(301))
        assert _enumerate_zeros(spec, 300) == (1,) == exact_zeros(spec, 300)

    def test_false_candidate_far_out_needs_no_exact_jump(self, monkeypatch):
        # a_n = 0 mod every sieve prime that does not divide c3 = 30 at
        # n = 999,995 but a_n != 0: the sieve keeps n, and the recheck modulo
        # CHECK_MODULUS drops it before any exact jump
        M = math.prod(p for p in SIEVE_PRIMES if 30 % p)
        spec = planted_candidate((10, -31, 30), 31, 452, 999_995, M)
        assert 999_995 in _sieve(spec, 10**6 + 1)
        exact_jumps = []

        def counting_state_at(spec, n, modulus=None, state=None, powers=None):
            if modulus is None:
                exact_jumps.append(n)
            return _state_at(spec, n, modulus, state, powers)

        monkeypatch.setattr(sml, "_state_at", counting_state_at)
        assert _enumerate_zeros(spec, 10**6) == ()
        assert exact_jumps == []


class TestScalarFallback:
    """_enumerate_zeros past SIEVE_PERIOD_CAP terms when the sieve gives up,
    as it does here with no primes to take, and the scalar scan runs
    instead."""

    @pytest.fixture(autouse=True, scope="class")
    def no_sieve_primes(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sml, "SIEVE_PRIMES", ())
            yield

    @settings(max_examples=30, deadline=None)
    @given(
        roots=st.lists(st.sampled_from([r for r in range(-9, 10) if r]), min_size=3,
                       max_size=3, unique=True),
        total=st.integers(SIEVE_PERIOD_CAP + 1, 5000),
        where=st.floats(0, 1),
    )
    def test_planted_rational_zeros(self, roots, total, where):
        N = min(int(where * total), total - 1)
        spec = planted_zero(tuple(roots), N)
        assert _sieve(spec, total) is None
        zeros = _enumerate_zeros(spec, total - 1)
        assert N in zeros
        assert zeros == exact_zeros(spec, total - 1)

    @settings(max_examples=30, deadline=None)
    @given(
        s=st.integers(-9, 9).filter(bool),
        u=st.integers(-6, 6),
        v=st.integers(1, 6),
        d=st.sampled_from([-1, -2, -3, -7, -11]),
        total=st.integers(SIEVE_PERIOD_CAP + 1, 5000),
        where=st.floats(0, 1),
    )
    def test_planted_quadratic_zeros(self, s, u, v, d, total, where):
        N = min(int(where * total), total - 1)
        spec = planted_quadratic_zero(s, u, v, d, N)
        assert _sieve(spec, total) is None
        zeros = _enumerate_zeros(spec, total - 1)
        assert N in zeros
        assert zeros == exact_zeros(spec, total - 1)

    @settings(max_examples=30, deadline=None)
    @given(
        c=st.tuples(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12),
                    st.integers(-10**12, 10**12).filter(bool)),
        a=st.tuples(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12)),
        total=st.integers(SIEVE_PERIOD_CAP + 1, 5000),
        where=st.floats(0, 1),
        M=st.sampled_from([SCAN_MODULUS, SCAN_MODULUS * CHECK_MODULUS]),
    )
    def test_planted_false_candidates(self, c, a, total, where, M):
        # a_N = 0 mod SCAN_MODULUS, and mod CHECK_MODULUS too when M is their
        # product: the recheck or the exact confirmation must drop N
        N = min(int(where * total), total - 1)
        spec = planted_candidate(c, *a, N, M)
        if spec is None:
            return
        assert N in _scan_scalar(spec, total)
        assert _enumerate_zeros(spec, total - 1) == exact_zeros(spec, total - 1)

    @pytest.mark.parametrize("total", [SIEVE_PERIOD_CAP - 1, SIEVE_PERIOD_CAP,
                                       SIEVE_PERIOD_CAP + 1, 5001])
    def test_zeros_at_the_ends_of_the_scan(self, total):
        for N in (0, 1, total // 2, total - 2, total - 1):
            for roots in ((2, 3, 5), (-7, 11, 13)):
                spec = planted_zero(roots, N)
                assert _enumerate_zeros(spec, total - 1) == (N,) == \
                    exact_zeros(spec, total - 1)

    @pytest.mark.parametrize("k", [1, -1, 3])
    def test_c3_a_multiple_of_the_modulus(self, k):
        # c3 = 0 mod M: the scan sees an order-2 recurrence, the exact check does not
        M = SCAN_MODULUS
        total = 2055
        for a in ((0, 1, 3), (5, 0, 0), (1, 2, 3)):
            spec = RecurrenceSpec(3, -2, k * M, *a)
            assert _enumerate_zeros(spec, total - 1) == exact_zeros(spec, total - 1)
        spec = planted_candidate((3, -2, k * M), 17, 4, 1500)
        assert 1500 in _scan_scalar(spec, total)
        assert _enumerate_zeros(spec, total - 1) == exact_zeros(spec, total - 1)

    def test_confirmation_decides_when_every_term_is_a_candidate(self):
        # a_n = M (2^n + 3^n - 5^n): every term is 0 mod M, only a_1 is 0
        M = SCAN_MODULUS
        spec = RecurrenceSpec(10, -31, 30, M, 0, -12 * M)
        limit = 3072
        assert _sieve(spec, limit + 1) is None
        assert _scan_scalar(spec, limit + 1) == list(range(limit + 1))
        assert _enumerate_zeros(spec, limit) == (1,) == exact_zeros(spec, limit)


# the primes p = 3 mod 4 are inert in Q(i), so for roots there the period
# mod p need not divide p - 1
INERT_D = -1


class TestSieve:
    """The small-prime period sieve in front of the scalar scan."""

    @pytest.mark.parametrize("spec", [
        FLAGSHIP,
        spec_from_roots(2, 5, 9, 0, 1, 3),  # roots 2 and 9 repeated mod 7
        planted_quadratic_zero(3, 2, 1, INERT_D, 7),
        planted_quadratic_zero(-2, 1, 2, -7, 40),
        RecurrenceSpec(1, 1, 1, 0, 0, 1),  # tribonacci, irreducible
    ])
    def test_period_and_zero_residues(self, spec):
        values = recurrence_values(spec, SIEVE_PERIOD_CAP + 3)
        for p in SIEVE_PRIMES:
            if spec.c3 % p == 0:
                continue
            reduced = [v % p for v in values]
            returns = [t for t in range(1, SIEVE_PERIOD_CAP + 1)
                       if reduced[t:t + 3] == reduced[:3]]
            period = _period_mod(spec, p)
            if not returns:
                assert period is None
                continue
            T, zeros = period
            assert T == returns[0]
            assert zeros == sum(1 << z for z in range(T) if reduced[z] == 0)

    def test_periods_that_do_not_divide_p_minus_1(self):
        # the cases a sieve that took T = p - 1 on trust gets wrong: roots 2
        # and 9 repeated mod 7, and roots 2 +- i in F_{p^2} for p = 7, 11,
        # which are inert in Q(i)
        assert _period_mod(spec_from_roots(2, 5, 9, 0, 1, 3), 7)[0] == 42
        spec = planted_quadratic_zero(3, 2, 1, INERT_D, 7)
        assert _period_mod(spec, 7)[0] == 48
        assert _period_mod(spec, 11)[0] == 30

    @settings(max_examples=40, deadline=None)
    @given(
        roots=st.lists(st.sampled_from([r for r in range(-9, 10) if r]), min_size=3,
                       max_size=3, unique=True),
        total=st.integers(SIEVE_PERIOD_CAP + 1, 5000),
        where=st.floats(0, 1),
    )
    def test_planted_rational_zeros(self, roots, total, where):
        N = min(int(where * total), total - 1)
        spec = planted_zero(tuple(roots), N)
        zeros = _enumerate_zeros(spec, total - 1)
        assert N in zeros
        assert zeros == exact_zeros(spec, total - 1)

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.integers(-9, 9).filter(bool),
        u=st.integers(-6, 6),
        v=st.integers(1, 6),
        d=st.sampled_from([-1, -2, -3, -7, -11]),
        total=st.integers(SIEVE_PERIOD_CAP + 1, 5000),
        where=st.floats(0, 1),
    )
    def test_planted_quadratic_zeros(self, s, u, v, d, total, where):
        N = min(int(where * total), total - 1)
        spec = planted_quadratic_zero(s, u, v, d, N)
        zeros = _enumerate_zeros(spec, total - 1)
        assert N in zeros
        assert zeros == exact_zeros(spec, total - 1)

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.tuples(st.integers(-50, 50), st.integers(-50, 50),
                    st.integers(-50, 50).filter(bool)),
        a=st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
        total=st.integers(SIEVE_PERIOD_CAP + 1, 5000),
        where=st.floats(0, 1),
    )
    def test_planted_false_candidates(self, c, a, total, where):
        # a_N = 0 mod every sieve prime and mod CHECK_MODULUS, so N passes the
        # sieve and the recheck; only the exact confirmation can drop it
        N = min(int(where * total), total - 1)
        spec = planted_candidate(c, *a, N, math.prod(SIEVE_PRIMES) * CHECK_MODULUS)
        if spec is None:
            return
        survivors = _sieve(spec, total)
        assert survivors is None or N in survivors
        assert _enumerate_zeros(spec, total - 1) == exact_zeros(spec, total - 1)

    @pytest.mark.parametrize("block", [64, 97])
    def test_zeros_at_block_edges(self, monkeypatch, block):
        monkeypatch.setattr(sml, "SIEVE_BLOCK", block)
        total = 3 * block + 1029
        ends = [k * block + e for k in (0, 1, 5, total // block)
                for e in (-1, 0, 1) if 0 <= k * block + e < total]
        for N in ends + [total - 1]:
            for spec in (planted_zero((2, 3, 5), N), planted_zero((-7, 11, 13), N),
                         planted_quadratic_zero(3, 2, 1, INERT_D, N)):
                survivors = _sieve(spec, total)
                assert survivors is not None and N in survivors
                assert _enumerate_zeros(spec, total - 1) == exact_zeros(spec, total - 1)

    def test_capped_spec_keeps_a_handful_of_indices(self):
        # a capped catalogue spec over Q(sqrt -7) whose one zero below 10^4 is a_0
        spec = RecurrenceSpec(-3, 17, -77, 0, 8, 1528)
        survivors = _sieve(spec, 10**4 + 1)
        assert survivors is not None and 0 in survivors
        assert len(survivors) <= SIEVE_SURVIVORS
        assert _enumerate_zeros(spec, 10**4) == (0,)

    def test_falls_back_to_the_scalar_scan_when_no_prime_narrows(self, monkeypatch):
        # every a_n is a multiple of every sieve prime, so no prime narrows
        # anything and the scalar scan runs
        P = math.prod(SIEVE_PRIMES)
        base = planted_zero((2, 3, 5), 1500)
        spec = RecurrenceSpec(base.c1, base.c2, base.c3, P * base.a0, P * base.a1,
                              P * base.a2)
        total = 2048
        assert _sieve(spec, total) is None
        scalar_scans = []

        def counting_scan_scalar(spec, total):
            scalar_scans.append(total)
            return _scan_scalar(spec, total)

        monkeypatch.setattr(sml, "_scan_scalar", counting_scan_scalar)
        assert _enumerate_zeros(spec, total - 1) == exact_zeros(spec, total - 1)
        assert 1500 in exact_zeros(spec, total - 1)
        assert scalar_scans == [total]

    @pytest.mark.parametrize("total", [300, 600])
    def test_a_sieve_that_gives_up_spends_at_most_the_scan(self, monkeypatch, total):
        # tribonacci times the primes where its period is at most
        # SIEVE_PERIOD_CAP: mod those every term is 0, mod the others the
        # period is too long, so no prime narrows anything.  The period
        # searches may spend no more steps than the scalar scan that follows.
        values = recurrence_values(RecurrenceSpec(1, 1, 1, 0, 0, 1), SIEVE_PERIOD_CAP + 3)
        short = [p for p in SIEVE_PRIMES
                 if any([v % p for v in values[t:t + 3]] == [0, 0, 1]
                        for t in range(1, SIEVE_PERIOD_CAP + 1))]
        assert len(SIEVE_PRIMES) - len(short) > SIEVE_BUDGET // SIEVE_PERIOD_CAP
        spec = RecurrenceSpec(1, 1, 1, 0, 0, math.prod(short))
        steps = []

        def counting_period_mod(spec, p, most=SIEVE_PERIOD_CAP):
            period = _period_mod(spec, p, most)
            steps.append(most if period is None else period[0])
            return period

        monkeypatch.setattr(sml, "_period_mod", counting_period_mod)
        assert _sieve(spec, total) is None
        assert 0 < sum(steps) <= total
        assert _enumerate_zeros(spec, total - 1) == exact_zeros(spec, total - 1)
