"""Exact truncated p-adic arithmetic: valuations, residue symbols, Teichmuller lifts,
and the integer polynomial product.

Everything here works with plain Python integers; a p-adic integer at
precision N is its canonical representative in [0, p^N).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .errors import IwkError, PostconditionFailed

# ord_p(0); compares greater than every natural number and absorbs addition.
INFINITY = float("inf")

Valuation = Union[int, float]


class _LazySympy:
    """The sympy module, imported on first attribute access: by `factorint`
    for a factor that rho leaves whole, and by conditions for a psi_p that
    no certificate decides.  A run that needs neither never imports it."""

    def __getattr__(self, name):
        import sympy

        return getattr(sympy, name)


sympy = _LazySympy()

# Miller-Rabin with the first 13 prime bases is exact below psi_13, the least
# strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def _strong_prp(n: int, a: int) -> bool:
    """Whether the odd n > 2 is a strong probable prime to the base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_prp(n: int) -> bool:
    """Whether the odd n > 2 is a strong Lucas probable prime with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D|n) = -1, P = 1 and
    Q = (1 - D)/4 (Baillie and Wagstaff, Math. Comp. 35 (1980), method A).
    No such D exists for a perfect square, which is rejected first; a D
    sharing a proper factor with n proves it composite."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and D % n:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    # U_k, V_k and Q^k mod n for k = (n + 1) / 2^s, by U_2k = U_k V_k,
    # V_2k = V_k^2 - 2Q^k, 2U_(k+1) = U_k + V_k and 2V_(k+1) = D U_k + V_k
    U, V, Qk = 1, 1, Q % n
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n * (U & 1)) // 2 % n
            V = (V + n * (V & 1)) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def isprime(n: int) -> bool:
    """Whether n is prime: read off the process's sieve below its limit,
    then deterministic Miller-Rabin to the first 13 prime bases below
    psi_13, and the strong BPSW test at or above it, Miller-Rabin to the
    base 2 and then _strong_lucas_prp, as sympy's isprime there."""
    if n < 2:
        return False
    if n < _SIEVE.limit:
        return _SIEVE.flags[n] == 1
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < _PSI_13:
        return all(_strong_prp(n, a) for a in _MR_BASES)
    return _strong_prp(n, 2) and _strong_lucas_prp(n)


# Past this limit primerange tests each candidate rather than growing the
# sieve, so a far interval costs no memory in proportion to its start.
_SIEVE_CAP = 1 << 24


class _Sieve:
    """The primes below `limit`, with the flag of each n below it, kept for
    the life of the process and re-sieved to at least twice the limit
    whenever a caller needs more."""

    def __init__(self):
        self.limit = 0
        self.flags = bytearray()
        self.primes: List[int] = []

    def below(self, n: int) -> List[int]:
        if n > self.limit:
            limit = min(max(n, 2 * self.limit, 1 << 10), _SIEVE_CAP)
            flags = bytearray([1]) * limit
            flags[:2] = b"\0\0"
            for q in range(2, math.isqrt(limit - 1) + 1):
                if flags[q]:
                    flags[q * q :: q] = bytes(len(range(q * q, limit, q)))
            self.limit, self.flags = limit, flags
            self.primes = list(itertools.compress(range(limit), flags))
        return self.primes


_SIEVE = _Sieve()


def primerange(a: int, b: int) -> Iterator[int]:
    """The primes p with a <= p < b, in increasing order, as sympy's
    primerange; the sieve grows only as far as the iteration gets."""
    lo = max(a, 2)
    while lo < b and lo < _SIEVE_CAP:
        primes = _SIEVE.below(min(b, 2 * lo))
        hi = min(b, _SIEVE.limit)
        yield from primes[bisect.bisect_left(primes, lo) : bisect.bisect_left(primes, hi)]
        lo = hi
    yield from (n for n in range(lo, b) if isprime(n))


# factorint's first stage trial-divides to this bound.
_TRIAL_LIMIT = 1 << 10
# Iterations of y -> y^2 + c that Pollard-Brent rho may spend on one factor,
# and the number of steps whose differences share one gcd.
_RHO_BUDGET = 1 << 16
_RHO_BATCH = 64


def _rho_divisor(n: int) -> Optional[int]:
    """A proper divisor of the odd composite n by Brent's cycle search on
    y -> y^2 + c (Brent, BIT 20 (1980); Cohen, GTM 138, 8.5), or None once
    _RHO_BUDGET iterations find none."""
    steps = 0
    for c in (1, 3):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps + 2 * r > _RHO_BUDGET:
                return None
            steps += 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch overshot: redo it one gcd per step from its start
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    return None


# Every prime that factorint's `isprime` gate has certified in this process;
# `_check_prime` does not test these again.
_CERTIFIED: Set[int] = set()


def _iroot(n: int, k: int) -> int:
    """The integer part of the k-th root of n >= 0, by Newton's method on
    integers from a power of two above it."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_power(m: int) -> Optional[Tuple[int, int]]:
    """(r, k) with r^k = m and k > 1 prime, for an m with no prime factor up
    to _TRIAL_LIMIT, so that 2^(10k) < m; None when m is no such power."""
    for k in primerange(2, m.bit_length() // 10 + 1):
        r = _iroot(m, k)
        if r**k == m:
            return r, k
    return None


def factorint(n: int) -> Dict[int, int]:
    """Prime factorization {prime: exponent} of n >= 1.

    A prime n below the sieve's limit is read off the sieve.  Any other n
    goes through three stages: trial division by the primes up to
    _TRIAL_LIMIT; then every factor that `isprime` does not certify is
    split, as a perfect power or by Pollard-Brent rho, and one that rho
    cannot split within _RHO_BUDGET iterations goes to sympy's factorint
    whole.  That fallback is the one call that imports sympy.  A factor
    enters the result only once the sieve or `isprime` certifies it, and
    joins _CERTIFIED.  PostconditionFailed is raised if a prime sympy
    returns fails `isprime`, or if the prime powers do not multiply back
    to n.
    """
    if n < 1:
        raise ValueError("factorint requires n >= 1")
    if n < _SIEVE.limit and _SIEVE.flags[n]:
        _CERTIFIED.add(n)
        return {n: 1}
    out: Dict[int, int] = {}
    pending = []
    m = n
    for q in primerange(2, _TRIAL_LIMIT + 1):
        if q * q > m:
            break
        if m % q == 0:
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            pending.append((q, e))
    if m > 1:
        pending.append((m, 1))
    while pending:
        m, e = pending.pop()
        if isprime(m):
            _CERTIFIED.add(m)
            out[m] = out.get(m, 0) + e
            continue
        power = _perfect_power(m)
        if power is not None:
            pending.append((power[0], e * power[1]))
            continue
        d = _rho_divisor(m)
        if d is not None:
            pending += [(d, e), (m // d, e)]
            continue
        for q, f in sympy.factorint(m).items():
            if not isprime(q):
                raise PostconditionFailed(f"sympy's factorint({m}) returned the composite {q}")
            _CERTIFIED.add(q)
            out[q] = out.get(q, 0) + e * f
    if math.prod(q**e for q, e in out.items()) != n:
        raise PostconditionFailed(f"factorint({n}) returned {out}")
    return out


@functools.lru_cache(maxsize=None)
def _check_prime(p: int) -> None:
    """ValueError unless p is prime.  A prime that factorint has certified is
    not tested again; the cache keeps every later check of p in C, and a
    composite, which raises, is never cached."""
    if p not in _CERTIFIED and not isprime(p):
        raise ValueError(f"{p} is not prime")


def ord_p(x: int, p: int) -> Valuation:
    """Exponent of p in x, normalized by ord_p(p) = 1; INFINITY iff x = 0.

    Small valuations, the common case, take one division by p per unit; a
    valuation past 16 goes on in _ord_p_doubling, whose O(log v) divisions
    replace the v that would make this loop quadratic in the size of x."""
    _check_prime(p)
    if x == 0:
        return INFINITY
    v = 0
    while x % p == 0:
        x //= p
        v += 1
        if v == 16:
            return v + _ord_p_doubling(x, p)
    return v


def _ord_p_doubling(x: int, p: int) -> int:
    """Exponent of p in the nonzero x: divide by p, p^2, p^4, ... while each
    divides, then by the same powers from the largest down."""
    v, q, powers = 0, p, []
    while True:
        y, r = divmod(x, q)
        if r:
            break
        x = y
        v += 1 << len(powers)
        powers.append(q)
        q *= q
    # what is left of the valuation is below 2^len(powers): its binary digits
    while powers:
        q = powers.pop()
        y, r = divmod(x, q)
        if not r:
            x = y
            v += 1 << len(powers)
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
    return sign * _jacobi(a, n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0."""
    sign = 1
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


@functools.lru_cache(maxsize=None)
def _unit_group_primes(p: int) -> Tuple[int, ...]:
    """The primes of p - 1, factored once per prime p; ValueError unless p is prime."""
    _check_prime(p)
    return tuple(factorint(p - 1))


def multiplicative_order(a: int, p: int) -> int:
    """Least f >= 1 with a^f = 1 mod p."""
    primes = _unit_group_primes(p)
    a %= p
    if a == 0:
        raise ValueError("a must be a unit mod p")
    # Start from f = p-1 and strip prime factors while the power stays 1.
    f = p - 1
    for q in primes:
        while f % q == 0 and pow(a, f // q, p) == 1:
            f //= q
    if pow(a, f, p) != 1:
        raise PostconditionFailed(f"{a}^{f} != 1 mod {p}")
    return f


def teichmuller(a: int, p: int, N: int) -> int:
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
    for _ in range(N - 1):
        x = pow(x, p, mod)
    if pow(x, p - 1, mod) != 1 or x % p != a % p:
        raise PostconditionFailed("Teichmuller lift is not a (p-1)-st root of unity lifting a")
    return x


def poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Product of two integer polynomials, coefficient lists in ascending degree."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out
