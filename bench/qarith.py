"""Small independent arithmetic for the benchmark's input generators and checks.

Elements of Q(sqrt(d)) are pairs (x, y) meaning x + y*w, with w = sqrt(d) for
d = 2, 3 (mod 4) and w = (1 + sqrt(d))/2 for d = 1 (mod 4); over Q (d None)
y is 0.  Nothing here imports abckit, so a check built on it does not share
code with the program it checks.
"""

from __future__ import annotations

from math import isqrt

FIELDS = (None, -1, -2, -3, -7, -11, -19, -43, -67, -163)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def field_label(d: int | None) -> str:
    return "Q" if d is None else f"Q({d})"


def _half(d: int | None) -> bool:
    return d is not None and d % 4 == 1


def mul(d: int | None, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    (x1, y1), (x2, y2) = a, b
    if d is None:
        return (x1 * x2, 0)
    if _half(d):
        # w^2 = w + (d - 1)/4
        return (x1 * x2 + y1 * y2 * ((d - 1) // 4), x1 * y2 + x2 * y1 + y1 * y2)
    return (x1 * x2 + d * y1 * y2, x1 * y2 + x2 * y1)


def power(d: int | None, a: tuple[int, int], n: int) -> tuple[int, int]:
    out = (1, 0)
    for _ in range(n):
        out = mul(d, out, a)
    return out


def norm(d: int | None, a: tuple[int, int]) -> int:
    x, y = a
    if d is None:
        return x
    if _half(d):
        return x * x + x * y + y * y * ((1 - d) // 4)
    return x * x - d * y * y


def trace(d: int | None, a: tuple[int, int]) -> int:
    x, y = a
    if d is None:
        return 2 * x
    return 2 * x + y if _half(d) else 2 * x


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= 3317044064679887385961981:
        raise ValueError("is_prime is exact only below 3.3e24")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        v = pow(a, d, n)
        if v in (1, n - 1):
            continue
        for _ in range(s - 1):
            v = v * v % n
            if v == n - 1:
                break
        else:
            return False
    return True


def is_prime_or_prime_square(n: int) -> bool:
    r = isqrt(n)
    return is_prime(n) or (r * r == n and is_prime(r))


def small_primes(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if all(p % q for q in range(2, isqrt(p) + 1))]
