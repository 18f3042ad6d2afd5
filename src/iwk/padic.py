"""Exact truncated p-adic arithmetic: valuations, residue symbols, Hensel lifts.

Everything here works with plain Python integers; a p-adic integer at
precision N is its canonical representative in [0, p^N).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

from sympy import isprime

from .errors import IwkError, PostconditionFailed

# ord_p(0); compares greater than every natural number and absorbs addition.
INFINITY = float("inf")

Valuation = Union[int, float]


@functools.lru_cache(maxsize=None)
def _check_prime(p: int) -> None:
    if p < 2 or not isprime(p):
        raise ValueError(f"{p} is not prime")


def ord_p(x: int, p: int) -> Valuation:
    """Exponent of p in x, normalized by ord_p(p) = 1; INFINITY iff x = 0."""
    _check_prime(p)
    if x == 0:
        return INFINITY
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n); agrees with the Legendre symbol for odd prime n."""
    if n == 0:
        raise ValueError("Kronecker symbol undefined for n = 0")
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # (a|2) = 0 for even a, +1 for a = ±1 mod 8, -1 for a = ±3 mod 8.
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v:
        if a % 2 == 0:
            return 0
        if v % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    # Jacobi loop on the odd part.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def multiplicative_order(a: int, p: int) -> int:
    """Least f >= 1 with a^f = 1 mod p."""
    _check_prime(p)
    a %= p
    if a == 0:
        raise ValueError("a must be a unit mod p")
    # Start from f = p-1 and strip prime factors while the power stays 1.
    f = p - 1
    m = f
    q = 2
    while q * q <= m:
        while m % q == 0:
            m //= q
            while f % q == 0 and pow(a, f // q, p) == 1:
                f //= q
        q += 1
    if m > 1:
        while f % m == 0 and pow(a, f // m, p) == 1:
            f //= m
    if pow(a, f, p) != 1:
        raise PostconditionFailed(f"{a}^{f} != 1 mod {p}")
    return f


@dataclass(frozen=True)
class PadicInt:
    """Truncated p-adic integer: canonical residue in [0, p^precision)."""

    p: int
    precision: int
    value: int

    def __post_init__(self):
        _check_prime(self.p)
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        object.__setattr__(self, "value", self.value % self.p**self.precision)

    @property
    def modulus(self) -> int:
        return self.p**self.precision

    def _coerce(self, other: "PadicInt") -> int:
        if not isinstance(other, PadicInt):
            raise TypeError("expected PadicInt")
        if other.p != self.p:
            raise ValueError("mixed primes")
        return min(self.precision, other.precision)

    def __add__(self, other: "PadicInt") -> "PadicInt":
        n = self._coerce(other)
        return PadicInt(self.p, n, self.value + other.value)

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        n = self._coerce(other)
        return PadicInt(self.p, n, self.value - other.value)

    def __mul__(self, other: "PadicInt") -> "PadicInt":
        n = self._coerce(other)
        return PadicInt(self.p, n, self.value * other.value)

    def __pow__(self, k: int) -> "PadicInt":
        return PadicInt(self.p, self.precision, pow(self.value, k, self.modulus))

    def inverse(self) -> "PadicInt":
        if self.value % self.p == 0:
            raise ZeroDivisionError("not a unit")
        return PadicInt(self.p, self.precision, pow(self.value, -1, self.modulus))

    def valuation(self) -> Valuation:
        return ord_p(self.value, self.p) if self.value else INFINITY


def teichmuller(a: int, p: int, N: int) -> PadicInt:
    """The (p-1)-st root of unity in Z/p^N congruent to a mod p.

    Iterating x -> x^p converges to the fixed point; N-1 steps suffice.
    """
    _check_prime(p)
    if p == 2:
        raise IwkError("Teichmuller lift requires an odd prime")
    if a % p == 0:
        raise ValueError("a must be a unit mod p")
    if N < 1:
        raise ValueError("precision must be >= 1")
    mod = p**N
    x = a % mod
    for _ in range(N):
        x = pow(x, p, mod)
    if pow(x, p - 1, mod) != 1 or x % p != a % p:
        raise PostconditionFailed("Teichmuller lift is not a (p-1)-st root of unity lifting a")
    return PadicInt(p, N, x)


def _sqrt_mod_p(a: int, p: int) -> int:
    """Tonelli-Shanks square root of a residue a mod an odd prime p."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker_symbol(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        t = t * b * b % p
        c = b * b % p
        m = i
    return x


def hensel_sqrt(a: int, p: int, N: int) -> Optional[PadicInt]:
    """Square root of a in Z/p^N for odd p, when a is a unit residue; else None."""
    _check_prime(p)
    if p == 2:
        raise IwkError("hensel_sqrt requires an odd prime")
    if N < 1:
        raise ValueError("precision must be >= 1")
    if a % p == 0 or kronecker_symbol(a, p) != 1:
        return None
    x = _sqrt_mod_p(a, p)
    k = 1
    while k < N:
        k = min(2 * k, N)
        mod = p**k
        # Newton step: x <- x - (x^2 - a) / (2x)
        x = (x - (x * x - a) * pow(2 * x, -1, mod)) % mod
    if x * x % p**N != a % p**N:
        raise PostconditionFailed("Hensel square root does not square to a")
    return PadicInt(p, N, x)
