"""Independent oracles for checking iwk's outputs.

Nothing in this file imports iwk or sympy: every value here is computed
from first principles with plain integers, so that a check compares the
program against a second computation rather than against itself.
`self_test` pins each oracle to externally documented values.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# Primes.


def sieve(n: int) -> List[int]:
    """All primes <= n (Eratosthenes)."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for q in range(2, int(n**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = bytearray(len(range(q * q, n + 1, q)))
    return [q for q in range(n + 1) if flags[q]]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first 15 prime bases: deterministic below 3.3e24,
    a strong-pseudoprime test beyond."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(x: int, p: int) -> Optional[int]:
    """Exponent of p in x; None for x = 0."""
    if x == 0:
        return None
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def legendre(a: int, p: int) -> int:
    """(a|p) for an odd prime p by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


# ---------------------------------------------------------------------------
# Elliptic curves.


def invariants(ainvs: Sequence[int]) -> Dict[str, int]:
    """b2, b4, b6, b8, c4, c6 and the discriminant of [a1, a2, a3, a4, a6]."""
    a1, a2, a3, a4, a6 = ainvs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return {"b2": b2, "b4": b4, "b6": b6, "b8": b8, "c4": c4, "c6": c6, "disc": disc}


def count_points_naive(ainvs: Sequence[int], ell: int) -> int:
    """Points of the reduced (possibly singular) curve over F_ell, infinity
    included, by enumerating the affine plane."""
    a1, a2, a3, a4, a6 = (a % ell for a in ainvs)
    count = 1
    for x in range(ell):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % ell
        for y in range(ell):
            if (y * y + a1 * x * y + a3 * y - rhs) % ell == 0:
                count += 1
    return count


def trace(ainvs: Sequence[int], ell: int) -> int:
    """ell + 1 - #E(F_ell) of the reduction, singular or not.

    Odd ell: pure-Python Legendre sum over the completed-square model
    (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6.  ell = 2: enumeration.
    On a singular fiber this is 1 (split node), -1 (non-split node) or 0
    (cusp).
    """
    if ell == 2:
        return 3 - count_points_naive(ainvs, 2)
    inv = invariants(ainvs)
    b2, b4, b6 = inv["b2"] % ell, (2 * inv["b4"]) % ell, inv["b6"] % ell
    squares = bytearray(ell)
    for v in range(ell):
        squares[v * v % ell] = 1
    s = 0
    for x in range(ell):
        g = (((4 * x + b2) * x + b4) * x + b6) % ell
        if g:
            s += 1 if squares[g] else -1
    return -s


def node_trace(ainvs: Sequence[int], ell: int) -> int:
    """Singular-fiber trace at ell >= 5 from the tangent cone of the short
    model y^2 = x^3 - 27 c4 x - 54 c6 (model minimal at ell, ell | disc).

    A cusp (A = B = 0 mod ell) gives 0.  Otherwise the node sits at
    x0 = -3B/(2A) and the tangent cone is y^2 = 3 x0 (x - x0)^2, split
    exactly when 3 x0 is a square mod ell.
    """
    inv = invariants(ainvs)
    A, B = (-27 * inv["c4"]) % ell, (-54 * inv["c6"]) % ell
    if A == 0 and B == 0:
        return 0
    x0 = -3 * B * pow(2 * A, -1, ell) % ell
    return legendre(3 * x0, ell)


LEGENDRE_SUM_LIMIT = 20000


def fiber_trace(ainvs: Sequence[int], ell: int) -> int:
    """Singular-fiber trace at a bad prime of a minimal model."""
    if ell < 5 or ell <= LEGENDRE_SUM_LIMIT:
        return trace(ainvs, ell)
    return node_trace(ainvs, ell)


KIND_OF_TRACE = {1: "MULT_SPLIT", -1: "MULT_NONSPLIT", 0: "ADDITIVE"}


def c1_witness_ok(cls: str, a: int, ell: int, p: int) -> bool:
    """Does a trace a = a_ell (mod p) rule out the named maximal subgroup?"""
    a %= p
    D = (a * a - 4 * ell) % p
    chi = 0 if D == 0 else legendre(D, p)
    if cls == "borel":
        return chi == -1
    if cls == "split_cartan_normalizer":
        return a != 0 and chi == -1
    if cls == "nonsplit_cartan_normalizer":
        return a != 0 and chi == 1
    if cls == "exceptional":
        u = a * a * pow(ell, -1, p) % p
        return a != 0 and u not in (0, 1, 2, 4) and (u * u - 3 * u + 1) % p != 0
    return False


def _kth_root(n: int, k: int) -> Optional[int]:
    """Exact integer k-th root of n >= 0 by bisection, or None."""
    if n < 0:
        return None
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == n else None


def is_rational_power(x: Fraction, k: int) -> bool:
    return _kth_root(x.numerator, k) is not None and _kth_root(x.denominator, k) is not None


def is_squarefree(n: int, known_primes: Sequence[int] = ()) -> bool:
    """Is n squarefree?  Each known prime is divided out at most once; what
    is left must be squarefree by trial division, or a prime when large."""
    n = abs(n)
    if n == 0:
        return False
    for q in known_primes:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return False
    if n > 10**12:
        return is_prime(n)
    q = 2
    while q * q <= n:
        if n % (q * q) == 0:
            return False
        if n % q == 0:
            n //= q
        q += 1
    return True


def twist_consistent(ainvs: Sequence[int], tw_ainvs: Sequence[int], d: int) -> bool:
    """The twist by d keeps j, and c6 scales by d^3 times a rational sixth
    power (c4 by d^2 times the matching fourth power when c6 = 0)."""
    e, t = invariants(ainvs), invariants(tw_ainvs)
    if e["c4"] ** 3 * t["disc"] != t["c4"] ** 3 * e["disc"]:
        return False
    if e["c6"]:
        return is_rational_power(Fraction(t["c6"], d**3 * e["c6"]), 6)
    return t["c6"] == 0 and is_rational_power(Fraction(t["c4"], d * d * e["c4"]), 4)


# ---------------------------------------------------------------------------
# Z_p-modules and Lambda-modules.


def fitting_valuation(exponents: Sequence[int], i: int) -> int:
    """ord_p Fitt_i of the finite module sum Z/p^e: by the structure
    theorem, the sum of the len - i smallest exponents."""
    smallest_first = sorted(exponents)
    return sum(smallest_first[: max(len(smallest_first) - i, 0)])


def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def minor_valuations(M: Sequence[Sequence[int]], p: int) -> List[Optional[int]]:
    """Determinantal divisors: for k = 1..n the least ord_p over k x k minors
    (None when they all vanish)."""
    n = len(M)
    out: List[Optional[int]] = []
    for k in range(1, n + 1):
        best = None
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                v = valuation(det([[M[r][c] for c in cols] for r in rows]), p)
                if v is not None and (best is None or v < best):
                    best = v
        out.append(best)
    return out


def group_ring_matrix(p: int, entries) -> List[List[int]]:
    """Integer matrix of a Z[Delta]-presentation, Delta = (Z/p)^x, in the
    basis delta_1..delta_{p-1}: entry sum_a c_a delta_a acts on delta_b by
    sending it to sum_a c_a delta_{ab}."""
    d = p - 1
    n, m = len(entries), len(entries[0])
    M = [[0] * (m * d) for _ in range(n * d)]
    for i in range(n):
        for j in range(m):
            cell = entries[i][j]
            for b in range(1, p):
                for a in range(1, p):
                    M[i * d + (a * b % p) - 1][j * d + b - 1] += cell[a - 1]
    return M


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divides(m: Sequence[int], f: Sequence[int]) -> bool:
    """Does the monic integer polynomial m divide f over Z? (ascending lists)"""
    r = list(f)
    d = len(m) - 1
    while len(r) > d:
        c = r.pop()
        for j in range(d):
            r[len(r) - d + j] -= c * m[j]
    return not any(r)


@functools.lru_cache(maxsize=None)
def cyclotomic_shift(p: int, j: int) -> List[int]:
    """Phi_{p^j}(1+T) as an ascending coefficient list (j >= 1)."""
    one_plus_T_pow = [1]
    step = [1]
    for _ in range(p ** (j - 1)):
        step = _poly_mul(step, [1, 1])
    total = [0] * ((p - 1) * p ** (j - 1) + 1)
    for _ in range(p):
        for i, c in enumerate(one_plus_T_pow):
            total[i] += c
        one_plus_T_pow = _poly_mul(one_plus_T_pow, step)
    return total


def _mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][t] * B[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def omega_on_quotient(f: Sequence[int], p: int, m: int) -> List[List[int]]:
    """Matrix of omega_m(T) = (1+T)^{p^(m-1)} - 1 acting on Z[T]/f, for a
    monic f given ascending with its leading 1; f(companion) = 0."""
    lam = len(f) - 1
    C = [[0] * lam for _ in range(lam)]
    for i in range(1, lam):
        C[i][i - 1] = 1
    for i in range(lam):
        C[i][lam - 1] = -f[i]
    X = [[int(i == j) + C[i][j] for j in range(lam)] for i in range(lam)]
    R = [[int(i == j) for j in range(lam)] for i in range(lam)]
    e = p ** (m - 1)
    while e:
        if e & 1:
            R = _mat_mul(R, X)
        X = _mat_mul(X, X)
        e >>= 1
    return [[R[i][j] - int(i == j) for j in range(lam)] for i in range(lam)]


def coinvariants(p: int, mu: int, f: Sequence[int], m: int) -> Tuple[Optional[int], int]:
    """(ord_p of Lambda/(p^mu f) at level m, largest elementary divisor of
    Z_p[T]/(f, omega_m)); the order is None when the coinvariants are
    infinite.

    Finite case: mu * p^(m-1) + ord_p Res(f, omega_m), the resultant being
    the determinant of omega_m on Z[T]/f.  Infinite exactly when T or some
    Phi_{p^j}(1+T), j < m, divides f; the two tests must agree.
    """
    lam = len(f) - 1
    if lam == 0:
        return mu * p ** (m - 1), 0
    shares = f[0] == 0 or any(_poly_divides(cyclotomic_shift(p, j), f) for j in range(1, m))
    W = omega_on_quotient(f, p, m)
    divisors = minor_valuations(W, p)
    if divisors[-1] is None:
        if not shares:
            raise AssertionError("resultant vanishes without a common factor")
        return None, 0
    if shares:
        raise AssertionError("common factor but nonzero resultant")
    steps = [divisors[0]] + [divisors[k] - divisors[k - 1] for k in range(1, lam)]
    return mu * p ** (m - 1) + divisors[-1], max(steps)


# ---------------------------------------------------------------------------
# Self-test against documented values.


def self_test() -> List[str]:
    """Check the oracles on documented facts; returns the failures."""
    bad = []
    e11 = (0, -1, 1, -10, -20)
    if [trace(e11, q) for q in (2, 3, 5, 7, 11, 13)] != [-2, -1, 1, -2, 1, 4]:
        bad.append("11a1 a_2..a_13 (Cremona's tables: -2, -1, 1, -2, 1, 4)")
    if any(trace(e11, q) != q + 1 - count_points_naive(e11, q) for q in (3, 5, 7, 11)):
        bad.append("Legendre sum against enumeration on 11a1")
    e5077 = (0, 0, 1, -7, 6)
    if invariants(e5077)["disc"] != 5077:
        bad.append("5077a1 discriminant")
    if trace(e5077, 5077) != -1 or node_trace(e5077, 5077) != -1:
        bad.append("5077a1 non-split at 5077")
    if len(sieve(100)) != 25 or len(sieve(10**4)) != 1229:
        bad.append("prime counts pi(100) = 25, pi(10^4) = 1229")
    if not is_prime(2**61 - 1) or is_prime(3215031751) or is_prime(561):
        bad.append("Miller-Rabin")
    if [fitting_valuation((3, 1), i) for i in range(3)] != [4, 1, 0]:
        bad.append("Fitting ideals of Z/7^3 + Z/7")
    for f, expect in (((6, 3, 1), [1, 3, 5, 7]), ((-3, 1), [1, 2, 3, 4])):
        if [coinvariants(3, 0, f, m)[0] for m in range(1, 5)] != expect:
            bad.append(f"coinvariant orders of Lambda/({f}) at p = 3")
    if coinvariants(3, 0, (0, 0, 1), 2)[0] is not None:
        bad.append("Lambda/(T^2) has infinite coinvariants")
    if coinvariants(3, 1, (1,), 3)[0] != 9:
        bad.append("Lambda/(3) at level 3 has order 3^2")
    return bad
