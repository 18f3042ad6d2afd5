import random

import pytest
import sympy
from sympy import factorint, primerange
from sympy.ntheory.primetest import is_strong_lucas_prp, mr

from iwk import padic
from iwk.errors import IwkError, PostconditionFailed
from iwk.padic import (
    INFINITY,
    kronecker_symbol,
    multiplicative_order,
    ord_p,
    teichmuller,
)

PSI_12 = 318665857834031151167461  # least strong pseudoprime to the bases 2..37
PSI_13 = 3317044064679887385961981  # least strong pseudoprime to the bases 2..41


def legendre_euler(a, p):
    """Independent Legendre symbol via Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def test_ord_examples():
    assert ord_p(49, 7) == 2
    assert ord_p(0, 5) == INFINITY
    assert ord_p(5077, 7) == 0
    assert ord_p(-49, 7) == 2


def test_ord_additivity():
    rng = random.Random(1)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11])
        x = rng.randint(-(10**6), 10**6)
        y = rng.randint(-(10**6), 10**6)
        assert ord_p(x * y, p) == ord_p(x, p) + ord_p(y, p)
    assert ord_p(0, 3) + 5 == INFINITY


def _ord_p_one_at_a_time(x, p):
    """The reference: one division by p per unit of valuation."""
    x, v = abs(x), 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def test_ord_matches_one_division_per_unit():
    # ord_p divides one p at a time up to 16, and past it by p, p^2, p^4, ...
    # and back down.  Every v up to 70, on both sides of each switch, and
    # seeded v up to 2,000 are compared with the reference loop; seeded v up
    # to 10^5, where that loop takes seconds, with the valuation that built
    # x.  For the 20-digit prime both ranges shrink, so that p^v stays below
    # 2 * 10^4 and 3 * 10^5 bits
    rng = random.Random(31)
    for p in (2, 3, 5, 7, 10**19 + 51):
        assert ord_p(0, p) == INFINITY
        units = [1, -1, p - 1, rng.randrange(1, 10**40) * p + 1, -(rng.randrange(1, 10**40) * p + p - 1)]
        top = min(2000, 20000 // p.bit_length())
        for v in list(range(71)) + [int(top ** rng.random()) for _ in range(20)]:
            for u in units:
                x = p**v * u
                assert ord_p(x, p) == _ord_p_one_at_a_time(x, p) == v, (p, v, u)
        top = min(10**5, 300000 // p.bit_length())
        for v in [top] + [int(top ** rng.random()) for _ in range(4)]:
            assert ord_p(p**v * rng.choice(units), p) == v, (p, v)


def test_ord_requires_prime():
    with pytest.raises(ValueError):
        ord_p(10, 6)
    # a composite is never cached as checked, so it raises on every call
    for _ in range(2):
        with pytest.raises(ValueError):
            ord_p(7, 91)


def test_kronecker_examples():
    assert kronecker_symbol(-7, 5077) == 1
    for m in (3, 5, 9, 15, 10001):
        assert kronecker_symbol(1, m) == 1
    assert kronecker_symbol(2, 7) == 1
    with pytest.raises(ValueError):
        kronecker_symbol(3, 0)


def test_kronecker_agrees_with_legendre():
    for p in primerange(3, 500):
        for a in range(1, p):
            assert kronecker_symbol(a, p) == legendre_euler(a, p), (a, p)


def test_kronecker_multiplicative_over_factorization():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randrange(3, 10**4, 2)
        a = rng.randint(-50, 50)
        expected = 1
        for q, e in factorint(n).items():
            expected *= legendre_euler(a, q) ** e
        assert kronecker_symbol(a, n) == expected, (a, n)


def test_kronecker_two_and_negative():
    # (a|2) matches the mod-8 rule; (a|-1) is the sign of a
    for a in range(-20, 21):
        if a % 2 == 0:
            assert kronecker_symbol(a, 2) == 0
        else:
            assert kronecker_symbol(a, 2) == (1 if a % 8 in (1, 7) else -1)
    assert kronecker_symbol(-3, -1) == -1
    assert kronecker_symbol(3, -1) == 1


def test_multiplicative_order_examples():
    assert multiplicative_order(5077, 7) == 3
    assert multiplicative_order(1, 13) == 1
    assert multiplicative_order(3, 7) == 6


def test_multiplicative_order_is_minimal():
    rng = random.Random(3)
    for _ in range(100):
        p = rng.choice(list(primerange(3, 200)))
        a = rng.randint(1, p - 1)
        f = multiplicative_order(a, p)
        assert pow(a, f, p) == 1
        assert all(pow(a, d, p) != 1 for d in range(1, f))
    with pytest.raises(ValueError):
        multiplicative_order(14, 7)


def test_teichmuller_examples():
    assert teichmuller(1, 7, 4) == 1
    for p, N in ((3, 5), (5, 3), (7, 2)):
        assert teichmuller(p - 1, p, N) == p**N - 1
    assert teichmuller(2, 5, 3) == 57


def test_teichmuller_uniqueness_exhaustive():
    # the lift is the unique (p-1)-st root of unity in its residue class
    for p, N in ((3, 4), (5, 3), (7, 2)):
        mod = p**N
        for a in range(1, p):
            candidates = [
                x for x in range(mod) if pow(x, p - 1, mod) == 1 and x % p == a
            ]
            assert candidates == [teichmuller(a, p, N)]


def test_teichmuller_properties():
    for p in (3, 5, 7, 11):
        for N in (1, 2, 4):
            for a in range(1, p):
                t = teichmuller(a, p, N)
                assert isinstance(t, int) and 0 <= t < p**N
                assert pow(t, p - 1, p**N) == 1
                assert t % p == a
    with pytest.raises(ValueError):
        teichmuller(5, 5, 3)
    with pytest.raises(IwkError):
        teichmuller(1, 2, 3)


# ---------------------------------------------------------------------------
# Primality and prime ranges, against sympy.


def test_isprime_matches_sympy(monkeypatch):
    # an empty sieve, so that each n below goes through Miller-Rabin
    monkeypatch.setattr(padic, "_SIEVE", padic._Sieve())
    small = [padic.isprime(n) for n in range(2 * 10**5)]
    assert small == [sympy.isprime(n) for n in range(2 * 10**5)]
    rng = random.Random(20170)
    for _ in range(10**4):
        n = rng.getrandbits(rng.randint(20, 200)) | 1
        assert padic.isprime(n) == sympy.isprime(n), n
    assert not padic.isprime(-7)
    # the strong BPSW range, where sympy's isprime is is_strong_bpsw_prp
    rng = random.Random(2803)
    cases = [PSI_13, sympy.nextprime(PSI_13)]
    cases += [rng.randint(PSI_13, 10**40) for _ in range(20000)]
    primes = 0
    for n in cases:
        expected = sympy.isprime(n)
        assert padic.isprime(n) == expected, n
        primes += expected
    assert primes >= 150, primes


def test_isprime_rejects_strong_pseudoprimes():
    # psi_4 and psi_9 (= psi_10 = psi_11) fool the first 4 and 11 prime bases
    for n in (3215031751, 3825123056546413051, PSI_12):
        assert not padic.isprime(n), n
    assert padic.isprime(2**61 - 1)  # a prime the Miller-Rabin path decides


def test_isprime_reads_the_sieve_below_its_limit(monkeypatch):
    # below a grown sieve's limit isprime and the prime check answer from the
    # sieve, with no Miller-Rabin round, and agree with it at every n there,
    # Carmichael numbers and base-2 strong pseudoprimes included
    monkeypatch.setattr(padic, "_SIEVE", padic._Sieve())
    assert list(padic.primerange(2, 1 << 16)) == list(primerange(2, 1 << 16))
    limit = padic._SIEVE.limit
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
                  46657, 52633, 62745, 63973]
    strong_base_2 = [2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281]
    assert all(pow(2, n - 1, n) == 1 and not sympy.isprime(n) for n in carmichael)
    assert all(padic._strong_prp(n, 2) and not sympy.isprime(n) for n in strong_base_2)
    assert max(carmichael + strong_base_2) < limit

    def no_round(n, a):
        raise AssertionError(f"a Miller-Rabin round on {n} below the sieve's limit {limit}")

    monkeypatch.setattr(padic, "_strong_prp", no_round)
    assert not any(padic.isprime(n) for n in carmichael + strong_base_2)
    assert [n for n in range(-3, limit) if padic.isprime(n)] == padic._SIEVE.primes
    check_prime = padic._check_prime.__wrapped__  # past its cache
    check_prime(65521)
    for n in (561, 65281):
        with pytest.raises(ValueError, match="not prime"):
            check_prime(n)
    with pytest.raises(AssertionError, match="Miller-Rabin round"):
        padic.isprime(sympy.nextprime(limit))


class _NoSympy:
    """Stands in for padic's sympy where a test must not reach it."""

    def __getattr__(self, name):
        raise AssertionError(f"padic reached sympy.{name}")


def test_isprime_rejects_psi13_without_sympy(monkeypatch):
    # psi_13 passes all 13 Miller-Rabin bases, so the strong Lucas test of
    # the BPSW path must reject it, with no help from sympy
    assert all(padic._strong_prp(PSI_13, a) for a in padic._MR_BASES)
    monkeypatch.setattr(padic, "sympy", _NoSympy())
    assert not padic.isprime(PSI_12)
    assert not padic.isprime(PSI_13)
    assert padic.isprime(sympy.nextprime(PSI_13))


def test_strong_prp_matches_sympy():
    rng = random.Random(2801)
    # strong pseudoprimes to the base 2, Carmichael numbers and psi_13
    cases = [2047, 3277, 4033, 4681, 8321, 561, 1105, 1729, 2465, PSI_12, PSI_13]
    cases += [rng.getrandbits(rng.randint(2, 100)) | 1 for _ in range(20000)]
    for n in cases:
        if n > 2:
            assert padic._strong_prp(n, 2) == mr(n, [2]), n


def test_strong_lucas_prp_matches_sympy():
    # the five strong Lucas pseudoprimes below 20000 pass, and perfect
    # squares, which have no Selfridge D, are rejected
    pseudoprimes = [5459, 5777, 10877, 16109, 18971]
    assert all(padic._strong_lucas_prp(n) and not sympy.isprime(n) for n in pseudoprimes)
    rng = random.Random(2802)
    squares = [q * q for q in (3, 5, 7, 9, 15, 1031, 2**31 - 1, PSI_13)]
    squares += [(rng.getrandbits(60) | 1) ** 2 for _ in range(200)]
    assert not any(padic._strong_lucas_prp(n) for n in squares)
    cases = pseudoprimes + squares + list(range(3, 20001, 2))
    cases += [rng.getrandbits(rng.randint(10, 140)) | 1 for _ in range(5000)]
    cases += [sympy.nextprime(rng.getrandbits(100)) for _ in range(200)]
    for n in cases:
        assert padic._strong_lucas_prp(n) == is_strong_lucas_prp(n), n


def test_primerange_matches_sympy(monkeypatch):
    # a fresh sieve, so these calls grow it from nothing; a low cap sends
    # the far intervals down the candidate-by-candidate path
    monkeypatch.setattr(padic, "_SIEVE", padic._Sieve())
    monkeypatch.setattr(padic, "_SIEVE_CAP", 1 << 14)
    intervals = [(3, 1100), (3, 5000), (3, 10**4 + 1)]  # each extends the sieve it finds
    intervals += [(10, 5), (5, 5), (-4, 2), (0, 3), (2, 3), (-10, 30),
                  (1 << 14, (1 << 14) + 500), ((1 << 14) - 300, (1 << 14) + 300)]
    rng = random.Random(1509)
    for _ in range(40):
        a = rng.randint(-20, 40000)
        intervals.append((a, a + rng.randint(-50, 3000)))
    for a, b in intervals:
        assert list(padic.primerange(a, b)) == list(primerange(a, b)), (a, b)


def test_primerange_is_lazy(monkeypatch):
    monkeypatch.setattr(padic, "_SIEVE", padic._Sieve())
    scan = padic.primerange(3, 10**30)
    assert [next(scan) for _ in range(5)] == [3, 5, 7, 11, 13]
    assert padic._SIEVE.limit <= 1 << 10


# ---------------------------------------------------------------------------
# Factorization, against sympy's factorint.


class _RecordingSympy:
    """Stands in for padic's sympy, recording the keywords of each factorint
    call; `bias` adds one to every exponent of a full (fallback) call."""

    def __init__(self, bias=0):
        self.calls, self.bias = [], bias

    def factorint(self, n, **kwargs):
        self.calls.append(kwargs)
        out = factorint(n, **kwargs)
        return {q: e + self.bias for q, e in out.items()} if not kwargs else out

    def __getattr__(self, name):
        return getattr(sympy, name)


SMALL_PRIMES = list(primerange(2, 2**15))


def _bigdisc_shape(rng):
    """(primes below 2^15) * P2 * P1, P2 a prime in [10^5, 10^6], P1 larger."""
    small = 1
    for _ in range(rng.randint(1, 5)):
        small *= rng.choice(SMALL_PRIMES) ** rng.randint(1, 3)
    P2 = sympy.nextprime(rng.randrange(10**5, 10**6 - 100))
    P1 = sympy.nextprime(rng.randrange(10**14, 10**30))
    return small * P2 * P1


def test_factorint_matches_sympy_without_calling_it(monkeypatch):
    # every case splits within the rho budget or is a perfect power, so
    # sympy is never reached
    rng = random.Random(19)
    cases = [_bigdisc_shape(rng) for _ in range(40)]
    semis = [q for q in SMALL_PRIMES if q > 2**10]
    cases += [rng.choice(semis) * rng.choice(semis) for _ in range(40)]
    for P in (1031, 32749, 999983, sympy.nextprime(2**20)):
        cases += [P**2, P**3, 3 * P**2 * 1009]
    # powers of primes far beyond what rho splits within its budget
    for P in (sympy.nextprime(10**15), sympy.nextprime(2**61)):
        cases += [P**2, 6 * P**3, P**5 * 1031**2]
    cases += [1, 2, 7, 1021, 1031, 2**10 * 3 * 1031 * 1033, sympy.nextprime(PSI_13), 2**89 - 1]
    monkeypatch.setattr(padic, "sympy", _NoSympy())
    got = [padic.factorint(n) for n in cases]
    # sympy's own answer second, as sympy 1.14 caches the factors it finds
    assert got == [factorint(n) for n in cases]
    with pytest.raises(ValueError):
        padic.factorint(0)


def _trial_division(n):
    out, q = {}, 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorint_reads_the_sieve_below_its_limit(monkeypatch):
    # below a grown sieve's limit a prime is read off the sieve, with no
    # isprime call, and certified; 1, prime powers and composites there are
    # factored as before, and every answer is trial division's
    monkeypatch.setattr(padic, "_SIEVE", padic._Sieve())
    monkeypatch.setattr(padic, "_CERTIFIED", set())
    list(padic.primerange(2, 1 << 14))
    limit = padic._SIEVE.limit
    primes = padic._SIEVE.primes
    isprime = padic.isprime

    def no_isprime(n):
        raise AssertionError(f"isprime({n}) on a prime below the sieve's limit {limit}")

    monkeypatch.setattr(padic, "isprime", no_isprime)
    assert [padic.factorint(q) for q in primes] == [{q: 1} for q in primes]
    assert padic._CERTIFIED == set(primes)
    monkeypatch.setattr(padic, "isprime", isprime)
    rng = random.Random(34)
    others = [1, 4, 8, 9, 1024, 3**8, 5**5, 7**4, 31**2, 127**2]
    others += [2 * 3 * 5 * 7 * 11, 3 * 5 * 7 * 11 * 13]
    others += [q for q in (rng.randrange(2, limit) for _ in range(300)) if not isprime(q)]
    assert max(others) < limit
    assert [padic.factorint(n) for n in others] == [_trial_division(n) for n in others]


def test_factorint_falls_back_to_sympy_past_the_rho_budget(monkeypatch):
    recorder = _RecordingSympy()
    monkeypatch.setattr(padic, "sympy", recorder)
    monkeypatch.setattr(padic, "_RHO_BUDGET", 8)
    n = 2**5 * 1031 * 32749 * 999983
    assert padic.factorint(n) == factorint(n)
    # the one sympy call factors 1031 * 32749 * 999983 whole
    assert recorder.calls == [{}]


def test_factorint_postcondition(monkeypatch):
    monkeypatch.setattr(padic, "_RHO_BUDGET", 8)
    # a wrong exponent from the fallback breaks the product
    monkeypatch.setattr(padic, "sympy", _RecordingSympy(bias=1))
    with pytest.raises(PostconditionFailed, match="returned"):
        padic.factorint(1031 * 1033)
    # an isprime that calls the prime 1009 composite sends it through rho and
    # the fallback, which must not hand it back as a prime
    monkeypatch.setattr(padic, "sympy", _RecordingSympy())
    isprime = padic.isprime
    monkeypatch.setattr(padic, "isprime", lambda n: n != 1009 and isprime(n))
    with pytest.raises(PostconditionFailed, match="composite 1009"):
        padic.factorint(3 * 1009)


def test_factorint_certificates_serve_ord_p(monkeypatch):
    # ord_p does not test again a prime that factorint has certified, and a
    # prime it has checked before is an lru_cache hit
    calls = []
    isprime = padic.isprime
    monkeypatch.setattr(padic, "isprime", lambda n: calls.append(n) or isprime(n))
    P2, P1 = sympy.nextprime(10**5 + 2025), sympy.nextprime(10**13 + 2025)
    assert padic.factorint(6 * P2 * P1) == {2: 1, 3: 1, P2: 1, P1: 1}
    assert calls.count(P2) == calls.count(P1) == 1
    calls.clear()
    assert ord_p(P1 * P2**2, P2) == 2 and ord_p(P1, P1) == 1
    assert calls == []
    hits = padic._check_prime.cache_info().hits
    assert ord_p(P2, P2) == 1 and ord_p(P1**3, P1) == 3
    assert padic._check_prime.cache_info().hits == hits + 2 and calls == []
