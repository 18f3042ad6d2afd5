"""Torsion modules over Z_p[[T]]: distinguished polynomials, Weierstrass
preparation at finite precision, and exact coinvariant orders at finite
levels of the cyclotomic tower.

A level-(m, n) quotient of the power-series ring is the finite ring
Z/p^n[T]/((1+T)^{p^(m-1)} - 1); coinvariants of an elementary module
Lambda/(p^mu f) there are computed by exact linear algebra on Z[T]/(f), of
rank lambda, never asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import List, Sequence, Tuple

from .errors import PostconditionFailed, PrecisionExhausted
from .padic import ord_p, _check_prime
from .zpmod import Presentation, phi0_of_cokernel


# ---------------------------------------------------------------------------
# Integer polynomial helpers (coefficient lists, ascending degree).


def poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_mod_monic(a: Sequence[int], m: Sequence[int]) -> List[int]:
    """Remainder of a modulo the monic polynomial m, exactly over Z."""
    if m[-1] != 1:
        raise ValueError("modulus must be monic")
    r = list(a)
    d = len(m) - 1
    while len(r) > d:
        c = r.pop()
        if c:
            for j in range(d):
                r[len(r) - d + j] -= c * m[j]
    return r + [0] * (d - len(r))


def omega(m: int, p: int) -> List[int]:
    """(1+T)^{p^(m-1)} - 1 as an exact integer polynomial."""
    _check_prime(p)
    if m < 1:
        raise ValueError("level m must be >= 1")
    q = p ** (m - 1)
    return [comb(q, k) if k else 0 for k in range(q + 1)]


# ---------------------------------------------------------------------------
# Domain types.


@dataclass(frozen=True)
class DistinguishedPoly:
    """Monic polynomial of degree len(coefficients) whose lower coefficients
    are all divisible by p; the leading 1 is implicit."""

    p: int
    coefficients: Tuple[int, ...]

    def __post_init__(self):
        _check_prime(self.p)
        if any(c % self.p for c in self.coefficients):
            raise ValueError("lower coefficients must be divisible by p")

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    def as_list(self) -> List[int]:
        return list(self.coefficients) + [1]


@dataclass(frozen=True)
class ElementaryLambdaModule:
    """Cyclic data Lambda/(p^mu * prod f_k^{m_k}) of a torsion module."""

    p: int
    mu: int
    factors: Tuple[Tuple[DistinguishedPoly, int], ...] = ()

    def __post_init__(self):
        _check_prime(self.p)
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        for f, mult in self.factors:
            if f.p != self.p:
                raise ValueError("mixed primes in factors")
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")

    @property
    def lambda_invariant(self) -> int:
        return sum(mult * f.degree for f, mult in self.factors)

    def characteristic_element(self) -> List[int]:
        """p^mu * prod f_k^{m_k} as an exact integer polynomial."""
        g = [self.p**self.mu]
        for f, mult in self.factors:
            for _ in range(mult):
                g = poly_mul(g, f.as_list())
        return g


def mu_lambda(M: ElementaryLambdaModule) -> Tuple[int, int]:
    return M.mu, M.lambda_invariant


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series mod (p^N, T^D) with canonical coefficients."""

    p: int
    p_precision: int
    T_precision: int
    coefficients: Tuple[int, ...]

    def __post_init__(self):
        _check_prime(self.p)
        if self.p_precision < 1 or self.T_precision < 1:
            raise ValueError("precisions must be >= 1")
        mod = self.p**self.p_precision
        coeffs = tuple(c % mod for c in self.coefficients)[: self.T_precision]
        coeffs = coeffs + (0,) * (self.T_precision - len(coeffs))
        object.__setattr__(self, "coefficients", coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if other.p != self.p:
            raise ValueError("mixed primes")
        N = min(self.p_precision, other.p_precision)
        D = min(self.T_precision, other.T_precision)
        out = [0] * D
        for i, x in enumerate(self.coefficients[:D]):
            if x:
                for j, y in enumerate(other.coefficients[: D - i]):
                    out[i + j] += x * y
        return TruncatedSeries(self.p, N, D, tuple(out))

    def inverse(self) -> "TruncatedSeries":
        """Inverse of a unit series by back-substitution."""
        mod = self.p**self.p_precision
        c0 = self.coefficients[0]
        if c0 % self.p == 0:
            raise ZeroDivisionError("constant term is not a unit")
        inv0 = pow(c0, -1, mod)
        D = self.T_precision
        out = [0] * D
        out[0] = inv0
        for k in range(1, D):
            acc = sum(self.coefficients[j] * out[k - j] for j in range(1, k + 1))
            out[k] = (-inv0 * acc) % mod
        return TruncatedSeries(self.p, self.p_precision, D, tuple(out))


def series_from_poly(coeffs: Sequence[int], p: int, N: int, D: int) -> TruncatedSeries:
    return TruncatedSeries(p, N, D, tuple(coeffs))


def weierstrass_prepare(
    s: TruncatedSeries,
) -> Tuple[int, DistinguishedPoly, TruncatedSeries]:
    """Factor s = p^mu * f * unit with f distinguished, by p-power refinement.

    mu is the minimal coefficient valuation, lambda the first unit
    coefficient of s/p^mu; the factorization is rebuilt level by level and
    verified by re-multiplication at the working precision p^(N-mu).
    """
    p, N, D = s.p, s.p_precision, s.T_precision
    if s.is_zero():
        raise PrecisionExhausted("series vanishes identically mod p^N")
    mu = min(int(ord_p(c, p)) for c in s.coefficients if c)
    mu = min(mu, N)
    if mu >= N:
        raise PrecisionExhausted("series vanishes identically mod p^N")
    N2 = N - mu
    mod = p**N2
    sp = [(c // p**mu) % mod for c in s.coefficients]
    lam = next((k for k, c in enumerate(sp) if c % p), None)
    if lam is None:
        raise PrecisionExhausted("no unit coefficient visible; raise precision")

    # level-1 seed: f = T^lam, u = sp shifted down by lam, both mod p
    f = [0] * lam + [1]
    u = [sp[lam + k] if lam + k < D else 0 for k in range(D)]

    def mul_mod(a, b, cap):
        out = [0] * D
        for i, x in enumerate(a[:D]):
            if x % cap:
                for j, y in enumerate(b[: D - i]):
                    out[i + j] += x * y
        return [c % cap for c in out]

    # u moves only by multiples of p, so its inverse mod p is fixed
    u_inv_p = list(TruncatedSeries(p, 1, D, tuple(u)).inverse().coefficients)
    for j in range(1, N2):
        pj = p**j
        cap = p ** (j + 1)
        prod = mul_mod(f, u, cap)
        r = [(sp[k] - prod[k]) % cap for k in range(D)]
        if any(c % pj for c in r):
            raise PostconditionFailed("Weierstrass lift residue not divisible by p^j")
        E = [(c // pj) % p for c in r]
        w = mul_mod(E, u_inv_p, p)
        a, b_quot = w[:lam], w[lam:] + [0] * lam
        b = mul_mod(b_quot, u, p)
        f = [(f[k] + pj * a[k]) % mod if k < lam else f[k] for k in range(len(f))]
        u = [(u[k] + pj * b[k]) % mod for k in range(D)]

    unit = TruncatedSeries(p, N2, D, tuple(u))
    fpoly = DistinguishedPoly(p, tuple(c % mod for c in f[:lam]))

    # mandatory round-trip at working precision
    check = series_from_poly(fpoly.as_list(), p, N2, D).mul(unit)
    if list(check.coefficients) != sp:
        raise PostconditionFailed("re-multiplication check failed")
    return mu, fpoly, unit


# ---------------------------------------------------------------------------
# Exact coinvariant orders at finite levels.


def coinvariant_order(M: ElementaryLambdaModule, m: int, n: int) -> int:
    """ord_p of the (finite) coinvariant module of M at level (m, n).

    For M = Lambda/(p^mu f), mu' = min(mu, n) and d = p^(m-1), the ring
    Z/p^n[T]/(omega_m, p^mu f) is an extension of Z/p^mu'[T]/omega_m by
    Z/p^(n-mu')[T]/(f, omega_m), because multiplication by p^mu is injective
    on the free module Z_p[T]/omega_m.  The second part is the cokernel of
    omega_m acting on Z[T]/(f), of rank lambda (Washington, Cyclotomic
    Fields, 13.3), so the order is mu'*d plus its Smith divisors capped at
    n - mu'.  omega_m mod f comes from m - 1 p-th powers of 1 + T, so no
    polynomial of degree p^(m-1) is built.
    """
    p = M.p
    if m < 1 or n < 1:
        raise ValueError("levels must be >= 1")
    mu = min(M.mu, n)
    order = mu * p ** (m - 1)
    mod = p ** (n - mu)
    f = [c // p**M.mu % mod for c in M.characteristic_element()]
    lam = len(f) - 1
    if lam == 0 or mu == n:
        return order

    def mul_mod(a, b):
        return [c % mod for c in poly_mod_monic(poly_mul(a, b), f)]

    x = poly_mod_monic([1, 1], f)
    for _ in range(m - 1):
        y = x
        for _ in range(p - 1):
            y = mul_mod(y, x)
        x = y
    w = [(x[0] - 1) % mod] + x[1:]
    cols = []
    for _ in range(lam):
        cols.append(w)
        w = [c % mod for c in poly_mod_monic([0] + w, f)]
    return order + phi0_of_cokernel(Presentation(p, n - mu, tuple(zip(*cols))))


@dataclass(frozen=True)
class GrowthWindowReport:
    levels: Tuple[int, ...]
    orders: Tuple[int, ...]
    deviations: Tuple[int, ...]
    bounded: bool
    max_deviation: int


def growth_window_check(
    M: ElementaryLambdaModule, n_range: Sequence[int]
) -> GrowthWindowReport:
    """Measure coinvariant orders against mu*p^n + lambda*n over a window.

    Only reports what was measured: `bounded` records whether the deviation
    sequence is constant on a tail of the window (length >= 2).
    """
    mu, lam = mu_lambda(M)
    levels = tuple(sorted(n_range))
    orders = tuple(coinvariant_order(M, n, n) for n in levels)
    deviations = tuple(
        o - (mu * M.p**n + lam * n) for o, n in zip(orders, levels)
    )
    if len(deviations) < 2:
        bounded = True
    else:
        bounded = deviations[-1] == deviations[-2]
    max_dev = max((abs(x) for x in deviations), default=0)
    return GrowthWindowReport(levels, orders, deviations, bounded, max_dev)
