import random
from math import comb

import pytest

from iwk.errors import PrecisionExhausted
from iwk.iwasawa import (
    DistinguishedPoly,
    ElementaryLambdaModule,
    TruncatedSeries,
    coinvariant_order,
    growth_window_check,
    poly_mod_monic,
    poly_mul,
    weierstrass_prepare,
)
from iwk.padic import ord_p
from iwk.zpmod import Presentation, phi0_of_cokernel


def omega(m, p):
    """(1+T)^{p^(m-1)} - 1 as an exact integer polynomial, for the whole-ring
    oracles below."""
    if m < 1:
        raise ValueError("level m must be >= 1")
    q = p ** (m - 1)
    return [comb(q, k) if k else 0 for k in range(q + 1)]


def test_omega_examples():
    assert omega(1, 5) == [0, 1]
    assert omega(2, 3) == [0, 3, 3, 1]
    w = omega(3, 3)
    assert len(w) == 10 and w[-1] == 1 and w[0] == 0
    with pytest.raises(ValueError):
        omega(0, 3)


def test_poly_helpers():
    assert poly_mul([1, 1], [5, 5, 1]) == [5, 10, 6, 1]
    assert poly_mod_monic([5, 10, 6, 1], [0, 1]) == [5]  # reduce mod T
    assert poly_mod_monic([0, 0, 1], [0, 3, 3, 1]) == [0, 0, 1]


def test_distinguished_validation():
    DistinguishedPoly(3, (3, 6))
    with pytest.raises(ValueError):
        DistinguishedPoly(3, (1, 3))


def test_mu_lambda_examples():
    def mu_lambda(M):
        return M.mu, M.lambda_invariant

    assert mu_lambda(ElementaryLambdaModule(3, 1)) == (1, 0)
    T2 = DistinguishedPoly(3, (0, 0))
    assert mu_lambda(ElementaryLambdaModule(3, 0, ((T2, 1),))) == (0, 2)
    f = DistinguishedPoly(3, (3, 3))
    assert mu_lambda(ElementaryLambdaModule(3, 1, ((f, 1),))) == (1, 2)
    # additivity over factors
    g = DistinguishedPoly(3, (3,))
    M = ElementaryLambdaModule(3, 2, ((f, 2), (g, 3)))
    assert mu_lambda(M) == (2, 7)


def test_weierstrass_constant_p_power():
    s = TruncatedSeries(5, 4, 6, (25, 0, 0, 0, 0, 0))
    mu, f, unit = weierstrass_prepare(s)
    assert mu == 2 and f.degree == 0
    assert unit.coefficients[0] % 5 != 0


def test_weierstrass_already_distinguished():
    s = TruncatedSeries(5, 4, 6, (5, 5, 1, 0, 0, 0))
    mu, f, unit = weierstrass_prepare(s)
    assert mu == 0 and f.coefficients == (5, 5)
    assert unit.coefficients == (1, 0, 0, 0, 0, 0)


def test_weierstrass_product_recovery():
    # (1+T) * (T^2 + 5T + 5) mod (5^4, T^6)
    prod = poly_mul([1, 1], [5, 5, 1])
    s = TruncatedSeries(5, 4, 6, tuple(prod))
    mu, f, unit = weierstrass_prepare(s)
    assert mu == 0
    assert f.coefficients == (5, 5)
    # the unit is only determined up to truncation; it must be 1 + T mod p
    assert [c % 5 for c in unit.coefficients] == [1, 1, 0, 0, 0, 0]
    back = TruncatedSeries(5, 4, 6, tuple(f.as_list())).mul(unit)
    assert back.coefficients == s.coefficients


def test_weierstrass_errors():
    with pytest.raises(PrecisionExhausted):
        weierstrass_prepare(TruncatedSeries(5, 2, 4, (25, 0, 0, 0)))
    # no unit coefficient within the T window after removing p^mu
    with pytest.raises(PrecisionExhausted):
        weierstrass_prepare(TruncatedSeries(5, 1, 3, (0, 0, 0)))


def test_weierstrass_random_round_trip():
    rng = random.Random(31)
    for _ in range(40):
        p = rng.choice([3, 5, 7])
        N, D = 6, 9
        mod = p**N
        mu = rng.randint(0, 2)
        lam = rng.randint(0, 3)
        f = [p * rng.randrange(p ** (N - 1)) for _ in range(lam)] + [1]
        u = [rng.randrange(mod) for _ in range(D)]
        u[0] = rng.randrange(1, mod)
        while u[0] % p == 0:
            u[0] = rng.randrange(1, mod)
        s_coeffs = [c * p**mu for c in poly_mul(f, u)[:D]]
        s = TruncatedSeries(p, N, D, tuple(s_coeffs))
        mu2, f2, u2 = weierstrass_prepare(s)
        assert (mu2, f2.degree) == (mu, lam)
        remul = TruncatedSeries(p, N - mu, D, tuple(f2.as_list())).mul(u2)
        sp = [(c // p**mu) % p ** (N - mu) for c in s.coefficients]
        assert list(remul.coefficients) == sp


def _prepared_prefix_case(rng):
    """A seeded exact product p^mu * f * u with a long tail, and the
    (N, D) and (N, 4D + 8) truncations of it."""
    p = rng.choice([2, 3, 5, 7])
    lam = rng.randint(1, 6)
    D = rng.randint(lam + 1, 40)
    N = rng.randint(2, 14)
    mu = rng.randint(0, 1)
    long_D = 4 * D + 8
    mod = p**N
    f = [p * rng.randrange(p ** (N - 1)) for _ in range(lam)] + [1]
    u = [rng.randrange(mod) for _ in range(long_D)]
    while u[0] % p == 0:
        u[0] = rng.randrange(mod)
    s = [p**mu * c % mod for c in poly_mul(f, u)[:long_D]]
    short = TruncatedSeries(p, N, D, tuple(s[:D]))
    return p, N, D, mu, lam, short, TruncatedSeries(p, N, long_D, tuple(s))


def test_weierstrass_prefix_stable():
    # the input fixes f only mod p^min(N - mu, D // lambda): its higher
    # digits change when the T-precision grows
    rng = random.Random(34)
    tight = 0
    for _ in range(600):
        p, N, D, mu, lam, short, longer = _prepared_prefix_case(rng)
        mu1, f1, _ = weierstrass_prepare(short)
        mu2, f2, _ = weierstrass_prepare(longer)
        assert (mu1, f1.degree) == (mu2, f2.degree) == (mu, lam)
        k = min(N - mu, D // lam)
        q = p**k
        assert [c % q for c in f1.coefficients] == [c % q for c in f2.coefficients], (p, N, D, mu, lam)
        if k < N - mu and [c % (q * p) for c in f1.coefficients] != [
            c % (q * p) for c in f2.coefficients
        ]:
            tight += 1
    assert tight > 0  # the bound is reached, not only respected


def _schoolbook_product(a, b, mod, D):
    out = [0] * D
    for i, x in enumerate(a[:D]):
        for j, y in enumerate(b[: D - i]):
            out[i + j] += x * y
    return tuple(c % mod for c in out)


def _back_substitution_inverse(a, mod, D):
    inv0 = pow(a[0], -1, mod)
    out = [inv0] + [0] * (D - 1)
    for k in range(1, D):
        out[k] = -inv0 * sum(a[j] * out[k - j] for j in range(1, k + 1)) % mod
    return tuple(out)


def test_packed_product_and_inverse_against_schoolbook():
    rng = random.Random(35)
    for p in (2, 3, 5, 7):
        for n in (1, 10, 30):
            mod = p**n
            for D in (1, 2, 31, 32, 33, 128):
                random_coeffs = [rng.randrange(mod) for _ in range(D)]
                cases = [
                    ([0] * D, random_coeffs),
                    ([mod - 1] * D, [mod - 1] * D),  # the largest carries
                    (random_coeffs, [rng.randrange(mod) for _ in range(D)]),
                ]
                for a, b in cases:
                    got = TruncatedSeries(p, n, D, tuple(a)).mul(TruncatedSeries(p, n, D, tuple(b)))
                    assert got.coefficients == _schoolbook_product(a, b, mod, D), (p, n, D)
                for a in ([mod - 1] * D, [1 + p * rng.randrange(mod)] + random_coeffs[1:]):
                    s = TruncatedSeries(p, n, D, tuple(a))
                    inv = s.inverse()
                    assert inv.coefficients == _back_substitution_inverse(s.coefficients, mod, D)
                    assert s.mul(inv).coefficients == (1,) + (0,) * (D - 1)
    # mixed precisions: the product lives at the smaller of each
    a = TruncatedSeries(3, 30, 40, tuple(3**30 - 1 for _ in range(40)))
    b = TruncatedSeries(3, 2, 33, tuple(8 for _ in range(33)))
    want = _schoolbook_product(a.coefficients, b.coefficients, 9, 33)
    assert a.mul(b) == TruncatedSeries(3, 2, 33, want) == b.mul(a)


def test_coinvariant_examples():
    T2 = ElementaryLambdaModule(3, 0, ((DistinguishedPoly(3, (0, 0)), 1),))
    assert coinvariant_order(T2, 1, 1) == 1
    assert coinvariant_order(T2, 2, 2) == 3
    Mp = ElementaryLambdaModule(3, 1)
    for k in range(1, 5):
        assert coinvariant_order(Mp, k, k) == 3 ** (k - 1)
    zero = ElementaryLambdaModule(3, 0)
    assert all(coinvariant_order(zero, n, n) == 0 for n in (1, 2, 3))


def test_coinvariant_past_former_budgets():
    # the ring route refused p^(m-1) > 3^5 and n > 8
    P1 = ElementaryLambdaModule(3, 1)
    assert coinvariant_order(P1, 7, 2) == 729
    assert coinvariant_order(P1, 2, 9) == 3
    # Z_3[T]/(T+3) = Z_3 with omega_m acting as (-2)^(3^(m-1)) - 1, of
    # valuation m by lifting the exponent
    F = ElementaryLambdaModule(3, 0, ((DistinguishedPoly(3, (3,)), 1),))
    for m in range(1, 31):
        for n in range(1, 33):
            assert coinvariant_order(F, m, n) == min(m, n), (m, n)


def test_coinvariant_level_one_cross_check():
    # at m = 1 the ring collapses to Z/p^n and the order is the capped
    # valuation of the characteristic element at T = 0
    rng = random.Random(32)
    for _ in range(30):
        p = rng.choice([3, 5])
        mu = rng.randint(0, 2)
        lam = rng.randint(0, 2)
        coeffs = tuple(p * rng.randrange(1, p**2) for _ in range(lam))
        factors = ((DistinguishedPoly(p, coeffs), 1),) if lam else ()
        M = ElementaryLambdaModule(p, mu, factors)
        g0 = M.characteristic_element()[0]
        for n in (1, 2, 3):
            expected = min(int(ord_p(g0, p)), n) if g0 else n
            assert coinvariant_order(M, 1, n) == expected


def _coinvariant_order_by_ring_enumeration(M, m, n):
    """Independent oracle: enumerate the finite ring Z/p^n[T]/omega_m and the
    principal ideal generated by the characteristic element directly."""
    import itertools

    p = M.p
    d = p ** (m - 1)
    mod = p**n
    w = omega(m, p)
    g = [c % mod for c in poly_mod_monic(M.characteristic_element(), w)]

    def mul(a, b):
        return [c % mod for c in poly_mod_monic(poly_mul(a, b) or [0], w)]

    ideal = set()
    for coeffs in itertools.product(range(mod), repeat=d):
        ideal.add(tuple(mul(g, list(coeffs))))
    ring_size = mod**d
    quotient = ring_size // len(ideal)
    v = 0
    while quotient % p == 0:
        quotient //= p
        v += 1
    assert quotient == 1
    return v


def test_coinvariant_against_ring_enumeration():
    T1 = ElementaryLambdaModule(3, 0, ((DistinguishedPoly(3, (0,)), 1),))
    T2 = ElementaryLambdaModule(3, 0, ((DistinguishedPoly(3, (0, 0)), 1),))
    F = ElementaryLambdaModule(3, 0, ((DistinguishedPoly(3, (3, 3)), 1),))
    P1 = ElementaryLambdaModule(3, 1)
    PT = ElementaryLambdaModule(3, 1, ((DistinguishedPoly(3, (0,)), 1),))
    for M in (T1, T2, F, P1, PT):
        for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
            assert coinvariant_order(M, m, n) == _coinvariant_order_by_ring_enumeration(
                M, m, n
            ), (M, m, n)


def _coinvariant_order_by_ring_snf(M, m, n):
    """Reference route: Smith form of multiplication by the characteristic
    element on the whole ring Z/p^n[T]/omega_m, of rank p^(m-1)."""
    p = M.p
    d = p ** (m - 1)
    w = omega(m, p)
    g = poly_mod_monic(M.characteristic_element(), w)
    mod = p**n
    cols = []
    shifted = [c % mod for c in g]
    for _ in range(d):
        cols.append(list(shifted))
        shifted = [c % mod for c in poly_mod_monic([0] + shifted, w)]
    rows = tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))
    return phi0_of_cokernel(Presentation(p, n, rows))


def test_coinvariant_against_ring_snf():
    # seeded modules within p^(m-1) <= 3^5 and n <= 8, mu >= n included
    rng = random.Random(33)
    for _ in range(300):
        p = rng.choice([3, 5, 7])
        factors = []
        for _ in range(rng.randint(0, 2)):
            coeffs = tuple(p * rng.randrange(-(p**3), p**3) for _ in range(rng.randint(1, 3)))
            factors.append((DistinguishedPoly(p, coeffs), rng.randint(1, 2)))
        M = ElementaryLambdaModule(p, rng.randint(0, 3), tuple(factors))
        m = rng.randint(1, {3: 6, 5: 4, 7: 3}[p])
        n = rng.randint(1, 8)
        want = _coinvariant_order_by_ring_snf(M, m, n)
        assert coinvariant_order(M, m, n) == want, (M, m, n)


def test_growth_window_T2():
    T2 = ElementaryLambdaModule(3, 0, ((DistinguishedPoly(3, (0, 0)), 1),))
    rep = growth_window_check(T2, range(1, 6))
    # level n is layer n - 1: orders 2n - 1 against lambda*(n - 1) = 2n - 2
    assert rep.orders == (1, 3, 5, 7, 9)
    assert rep.deviations == (1, 1, 1, 1, 1)
    assert rep.bounded and rep.max_deviation == 1


def test_growth_window_mu_reported_not_asserted():
    # mu > 0: Lambda/(3) has order p^(n-1) at level n, exactly its mu part
    # at layer n - 1, so the deviations vanish
    Mp = ElementaryLambdaModule(3, 1)
    rep = growth_window_check(Mp, range(1, 5))
    assert rep.orders == (1, 3, 9, 27)
    assert rep.deviations == (0, 0, 0, 0)
    assert rep.bounded and rep.max_deviation == 0


def test_growth_window_zero_module():
    rep = growth_window_check(ElementaryLambdaModule(3, 0), range(1, 4))
    assert rep.orders == (0, 0, 0) and rep.deviations == (0, 0, 0)
    assert rep.bounded


def test_growth_window_levels_checked():
    # an empty window or a repeated level is refused, as `iwk coinv` refuses
    # it; one level has no tail of length 2 and is not bounded
    Mp = ElementaryLambdaModule(3, 1)
    for window in ([], range(5, 2), [1, 2, 3, 3], [2, 1, 2]):
        with pytest.raises(ValueError, match="n-range"):
            growth_window_check(Mp, window)
    T2 = ElementaryLambdaModule(3, 0, ((DistinguishedPoly(3, (0, 0)), 1),))
    for M in (Mp, T2, ElementaryLambdaModule(3, 0)):
        rep = growth_window_check(M, [3])
        assert rep.levels == (3,) and not rep.bounded
    assert growth_window_check(T2, [4, 2, 3]).levels == (2, 3, 4)
