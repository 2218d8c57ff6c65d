"""
Deciding zeros of order-3 recurrences
=====================================

The zero-decision pipeline for integer recurrences
a(n) = c1 a(n-1) + c2 a(n-2) + c3 a(n-3) whose characteristic roots are
distinct and live in Q or one of the admissible imaginary quadratic fields:
exact roots and closed-form coefficients, common-prime stripping, a radical
bound N on the last possible zero, and a scan of a(0..N) modulo the prime
2^61 - 1 in which every candidate zero is confirmed in exact integers before
it is reported.

Run: python demos/recurrence_zeros.py
"""

from abckit import RecurrenceSpec, char_poly, decide_zeros, find_roots, solve_coefficients
from abckit.bounds import BoundConfig


def show(title: str, spec: RecurrenceSpec, **kwargs) -> None:
    print("-" * 72)
    print(f"{title}: a(n) = {spec.c1} a(n-1) + {spec.c2} a(n-2) + {spec.c3} a(n-3), "
          f"a0..a2 = {spec.a0}, {spec.a1}, {spec.a2}")
    verdict = decide_zeros(spec, **kwargs)
    print(f"  verdict: {verdict.status}"
          + (f" at n = {list(verdict.zeros)}" if verdict.zeros else ""))
    if verdict.G is not None:
        print(f"  radical G = {verdict.G}, largest root height = {verdict.h_max:.4f}, "
              f"checked n <= {verdict.N} (raw bound {verdict.bound:.1f})")
    if verdict.reason:
        print(f"  reason: {verdict.reason}")
    if verdict.truncated:
        print("  note: bound exceeded the enumeration cap; result is partial")


# the flagship example: roots 2, 3, 5 with coefficients 7, 11, 13
spec = RecurrenceSpec(10, -31, 30, 31, 112, 452)
roots, field = find_roots(char_poly(spec))
ks = solve_coefficients(roots, spec.a0, spec.a1, spec.a2)
print(f"characteristic roots: {[str(r) for r in roots]} over {field.label()}")
print(f"closed form: a(n) = " + " + ".join(
    f"{k.num}*{r}^n" for k, r in zip(ks, roots)))
show("all-positive closed form", spec)

# same recurrence, initial terms chosen so a(1) = 2 + 3 - 5 = 0
show("a constructed zero", RecurrenceSpec(10, -31, 30, 1, 0, -12))

# shared factors between the closed-form terms are stripped before the
# radical is formed: here a(n) = 1*2^n + 2*3^n + 4*5^n
show("common 2-power stripped", RecurrenceSpec(10, -31, 30, 7, 28, 122))

# roots 1, -1, 2: the ratio -1 is a root of unity, so zeros may recur
# periodically and the three-term method hands off
show("degenerate root ratio", RecurrenceSpec(2, 1, -2, 5, 7, 9))

# roots 1 and (1 +- sqrt(-11))/2: the machinery runs inside Q(sqrt(-11))
show("imaginary quadratic roots", RecurrenceSpec(2, -4, 3, 3, 2, -4))

# x^3 - 2 is irreducible: a cubic splitting field is out of scope
show("unsupported cubic field", RecurrenceSpec(0, 0, 2, 1, 1, 1))

# a large C inflates the bound; the knob is explicit
print("-" * 72)
print("effect of the leading constant C on the enumeration bound:")
for c_value in (0.0, 0.5, 1.0, 1.5):
    verdict = decide_zeros(RecurrenceSpec(10, -31, 30, 31, 112, 452),
                           BoundConfig(C_main=c_value))
    print(f"  C = {c_value:3.1f}: N = {verdict.N}")
