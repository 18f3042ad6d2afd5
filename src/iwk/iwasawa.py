"""Torsion modules over Z_p[[T]]: distinguished polynomials, Weierstrass
preparation at finite precision, and exact coinvariant orders at finite
levels of the cyclotomic tower.

A level-(m, n) quotient of the power-series ring is the finite ring
Z/p^n[T]/((1+T)^{p^(m-1)} - 1); coinvariants of an elementary module
Lambda/(p^mu f) there are computed by exact linear algebra on Z[T]/(f), of
rank lambda, never asymptotics.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Tuple

from ._record import Record
from .errors import PostconditionFailed, PrecisionExhausted
from .padic import ord_p, poly_mul, _check_prime
from .zpmod import Presentation, phi0_of_cokernel


# ---------------------------------------------------------------------------
# Integer polynomial helpers (coefficient lists, ascending degree).


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


# ---------------------------------------------------------------------------
# Truncated products mod (p^n, T^D) by Kronecker substitution (von zur
# Gathen & Gerhard, Modern Computer Algebra, 8.4): coefficients in [0, p^n)
# go into fixed-width slots of one int, one big-int multiply forms every
# product coefficient in its own slot, and the low D slots are read back.

# array type code per item size in bytes (1, 2, 4, 8 on common platforms)
_ARRAY_CODES = sorted({array(c).itemsize: c for c in "QIHB"}.items())


def _slot(mod: int, D: int) -> Tuple[int, str]:
    """Bytes per slot for products of D-term series with coefficients in
    [0, mod), and the array type code of that item size ('' if none).

    A slot below T^D sums at most D products below mod^2, so
    2*bitlen(mod - 1) + bitlen(D) bits hold it with no carry into the next
    slot; the slot is that rounded up to whole bytes, and to an array item
    when one is wide enough.
    """
    width = (2 * (mod - 1).bit_length() + D.bit_length() + 7) // 8
    for size, code in _ARRAY_CODES:
        if width <= size:
            return size, code
    return width, ""


def _pack(a: Sequence[int], slot: Tuple[int, str]) -> int:
    width, code = slot
    if code:
        return int.from_bytes(array(code, a).tobytes(), "little")
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in a), "little")


def _unpack(z: int, D: int, slot: Tuple[int, str], mod: int) -> List[int]:
    """The low D slots of a product of two packed series of at most D terms,
    each reduced mod `mod`."""
    width, code = slot
    raw = z.to_bytes(2 * width * D, "little")[: width * D]
    if code:
        return [c % mod for c in array(code, raw)]
    return [int.from_bytes(raw[i : i + width], "little") % mod for i in range(0, width * D, width)]


def _mul_trunc(a: Sequence[int], b: Sequence[int], mod: int, D: int) -> List[int]:
    """a*b mod (mod, T^D) for coefficient lists with entries in [0, mod)."""
    slot = _slot(mod, D)
    return _unpack(_pack(a[:D], slot) * _pack(b[:D], slot), D, slot, mod)


# ---------------------------------------------------------------------------
# Domain types.


class DistinguishedPoly(Record):
    """Monic polynomial of degree len(coefficients) whose lower coefficients
    are all divisible by p; the leading 1 is implicit."""

    _fields = ("p", "coefficients")

    def __init__(self, p: int, coefficients: Tuple[int, ...]):
        _check_prime(p)
        if any(c % p for c in coefficients):
            raise ValueError("lower coefficients must be divisible by p")
        self.__dict__.update(p=p, coefficients=coefficients)

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    def as_list(self) -> List[int]:
        return list(self.coefficients) + [1]


class ElementaryLambdaModule(Record):
    """Cyclic data Lambda/(p^mu * prod f_k^{m_k}) of a torsion module."""

    _fields = ("p", "mu", "factors")

    def __init__(self, p: int, mu: int, factors: Tuple[Tuple[DistinguishedPoly, int], ...] = ()):
        _check_prime(p)
        if mu < 0:
            raise ValueError("mu must be >= 0")
        for f, mult in factors:
            if f.p != p:
                raise ValueError("mixed primes in factors")
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
        self.__dict__.update(p=p, mu=mu, factors=factors)

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


class TruncatedSeries(Record):
    """Power series mod (p^N, T^D) with canonical coefficients."""

    _fields = ("p", "p_precision", "T_precision", "coefficients")

    def __init__(self, p: int, p_precision: int, T_precision: int, coefficients: Tuple[int, ...]):
        _check_prime(p)
        if p_precision < 1 or T_precision < 1:
            raise ValueError("precisions must be >= 1")
        mod = p**p_precision
        coeffs = tuple(c % mod for c in coefficients)[:T_precision]
        coeffs = coeffs + (0,) * (T_precision - len(coeffs))
        self.__dict__.update(p=p, p_precision=p_precision, T_precision=T_precision,
                             coefficients=coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if other.p != self.p:
            raise ValueError("mixed primes")
        N = min(self.p_precision, other.p_precision)
        D = min(self.T_precision, other.T_precision)
        mod = self.p**N
        a, b = ([c % mod for c in t.coefficients[:D]] for t in (self, other))
        return TruncatedSeries(self.p, N, D, tuple(_mul_trunc(a, b, mod, D)))

    def inverse(self) -> "TruncatedSeries":
        """Inverse of a unit series by Newton doubling, v <- v(2 - s*v): if
        s*v = 1 mod T^h then 1 - s*v(2 - s*v) = (1 - s*v)^2 = 0 mod T^2h."""
        mod = self.p**self.p_precision
        c0 = self.coefficients[0]
        if c0 % self.p == 0:
            raise ZeroDivisionError("constant term is not a unit")
        D = self.T_precision
        v = [pow(c0, -1, mod)]
        while len(v) < D:
            h = min(2 * len(v), D)
            e = [-c % mod for c in _mul_trunc(self.coefficients, v, mod, h)]
            e[0] = (e[0] + 2) % mod
            v = _mul_trunc(v, e, mod, h)
        return TruncatedSeries(self.p, self.p_precision, D, tuple(v))


def weierstrass_prepare(
    s: TruncatedSeries,
) -> Tuple[int, DistinguishedPoly, TruncatedSeries]:
    """Factor s = p^mu * f * unit with f distinguished, by p-power refinement.

    mu is the minimal coefficient valuation, lambda the first unit
    coefficient of s/p^mu; the factorization is rebuilt level by level and
    verified by re-multiplication at the working precision p^(N-mu).

    The input fixes f only mod p^min(N - mu, D // lambda): T^D is divisible
    by p^(D // lambda) modulo f, so the terms past T^D that the truncation
    drops move f by multiples of that power, and the digits of f above it
    are those of this truncation's lift, not of the series.
    """
    p, N, D = s.p, s.p_precision, s.T_precision
    if s.is_zero():
        raise PrecisionExhausted("series vanishes identically mod p^N")
    mu = min(int(ord_p(c, p)) for c in s.coefficients if c)  # < N: the coefficients are below p^N
    N2 = N - mu
    mod = p**N2
    sp = [(c // p**mu) % mod for c in s.coefficients]
    lam = next((k for k, c in enumerate(sp) if c % p), None)
    if lam is None:
        raise PrecisionExhausted("no unit coefficient visible; raise precision")

    # level-1 seed: f = T^lam, u = sp shifted down by lam, both mod p
    f = [0] * lam + [1]
    u = [sp[lam + k] if lam + k < D else 0 for k in range(D)]

    # each lift adds a multiple of p to u, so u mod p and its inverse are
    # fixed and packed once; f and u stay below p^N2, which sizes their slot
    slot, slot_p = _slot(mod, D), _slot(p, D)
    u_p = _pack([c % p for c in u], slot_p)
    u_inv_p = _pack(TruncatedSeries(p, 1, D, tuple(u)).inverse().coefficients, slot_p)
    for j in range(1, N2):
        pj = p**j
        cap = p ** (j + 1)
        prod = _unpack(_pack(f, slot) * _pack(u, slot), D, slot, cap)
        r = [(x - y) % cap for x, y in zip(sp, prod)]
        if any(c % pj for c in r):
            raise PostconditionFailed("Weierstrass lift residue not divisible by p^j")
        E = [c // pj for c in r]
        w = _unpack(_pack(E, slot_p) * u_inv_p, D, slot_p, p)
        a, b_quot = w[:lam], w[lam:]
        b = _unpack(_pack(b_quot, slot_p) * u_p, D, slot_p, p)
        f = [(c + pj * x) % mod for c, x in zip(f, a)] + [1]
        u = [(c + pj * x) % mod for c, x in zip(u, b)]

    unit = TruncatedSeries(p, N2, D, tuple(u))
    fpoly = DistinguishedPoly(p, tuple(c % mod for c in f[:lam]))

    # mandatory round-trip at working precision
    check = TruncatedSeries(p, N2, D, tuple(fpoly.as_list())).mul(unit)
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


class GrowthWindowReport(Record):
    _fields = ("levels", "orders", "deviations", "bounded", "max_deviation")

    def __init__(self, levels: Tuple[int, ...], orders: Tuple[int, ...],
                 deviations: Tuple[int, ...], bounded: bool, max_deviation: int):
        self.__dict__.update(levels=levels, orders=orders, deviations=deviations,
                             bounded=bounded, max_deviation=max_deviation)


def window_levels(levels: Sequence[int]) -> Tuple[int, ...]:
    """The levels of a growth window in ascending order: at least one, none
    repeated, or ValueError."""
    out = tuple(sorted(levels))
    if not out or len(set(out)) < len(out):
        raise ValueError(f"n-range {list(out)} must name at least one level, none twice")
    return out


def growth_window_check(
    M: ElementaryLambdaModule, n_range: Sequence[int]
) -> GrowthWindowReport:
    """Measure the order at each level n, layer n - 1, against mu*p^(n-1) + lambda*(n-1).

    Only reports what was measured: `bounded` records whether the deviation
    sequence is constant on a tail of the window of length 2, so a one-level
    window is never bounded.
    """
    mu, lam = M.mu, M.lambda_invariant
    levels = window_levels(n_range)
    orders = tuple(coinvariant_order(M, n, n) for n in levels)
    deviations = tuple(
        o - (mu * M.p ** (n - 1) + lam * (n - 1)) for o, n in zip(orders, levels)
    )
    bounded = len(deviations) >= 2 and deviations[-1] == deviations[-2]
    max_dev = max(abs(x) for x in deviations)
    return GrowthWindowReport(levels, orders, deviations, bounded, max_dev)
