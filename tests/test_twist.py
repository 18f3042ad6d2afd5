import hashlib
import json
import random
from collections import Counter

import pytest
from sympy import factorint

from iwk import padic
from iwk.cli import analyze_curve
from iwk.errors import PostconditionFailed, SearchExhausted
from iwk.conditions import Status, check_c2
from iwk.ecq import EllipticCurveQ, reduction_summary
from iwk.padic import kronecker_symbol
from iwk.twist import TwistCertificate, _star, construct_c2_twist


def test_star():
    assert _star(2) == 2
    assert _star(5) == 5
    assert _star(7) == -7
    assert _star(11) == -11
    assert _star(13) == 13


def test_trivial_certificate(e5077):
    E_tw, cert = construct_c2_twist(e5077, 7)
    assert E_tw == e5077
    assert cert.trivial and cert.d == 1 and cert.q is None
    cert.validate()


def test_11a1_p3_construction(corpus):
    E11 = dict(corpus)["11a1"]
    E_tw, cert = construct_c2_twist(E11, 3)
    # ord(11 mod 3) = 2 is even, so 11 lands in S1 and 11* = -11
    assert cert.S == (11,) and cert.S0 == () and cert.S1 == (11,)
    assert cert.N1_star == -11
    assert cert.q == 5  # smallest prime 1 mod 4 coprime to 3*11
    assert cert.d == -55
    cert.validate()
    assert check_c2(E_tw, 3).status == Status.HOLDS


def test_11a1_p7_split_prime_with_empty_S1(corpus):
    # ord(11 mod 7) = 3 is odd, so the split prime 11 lands in S0; N1* = 1,
    # epsilon_11 is the empty product 1, and q must satisfy (q|11) = -1
    E11 = dict(corpus)["11a1"]
    E_tw, cert = construct_c2_twist(E11, 7)
    assert cert.S0 == (11,) and cert.S1 == () and cert.N1_star == 1
    assert cert.epsilon == {11: 1}
    assert cert.q == 13 and cert.d == 13
    assert kronecker_symbol(cert.q, 11) == -1
    cert.validate()
    assert check_c2(E_tw, 7).status == Status.HOLDS


def test_twist_splits_and_certifies_no_prime_of_E_again(monkeypatch):
    # a curve of the benchmark's bigdisc shape (bench/inputs.py): Delta =
    # -2^4 * 11 * 193 * 16493 * P2 * P1 with P2 in [10^5, 10^6], past trial
    # division; at p = 17 every prime of S lands in S1, so d = 5 * N1*
    # carries P2 and P1
    E = EllipticCurveQ(0, 0, 0, 348181972, -3956262793935)
    P2, P1 = 284407, 59391595918579
    rho, tested = [], []
    rho_divisor, isprime = padic._rho_divisor, padic.isprime
    monkeypatch.setattr(padic, "_rho_divisor", lambda n: rho.append(n) or rho_divisor(n))
    monkeypatch.setattr(padic, "isprime", lambda n: tested.append(n) or isprime(n))
    analyze_curve(E, 17, ap_bound=10**4, mu=0, lam=1, rank=1, label="big4")
    # factorint's gate certifies each prime of Delta once, with rho's help
    assert rho and tested.count(P2) == tested.count(P1) == 1
    rho.clear()
    E_tw, cert = construct_c2_twist(E, 17)
    assert cert.q == 5 and cert.d % (P2 * P1) == 0
    # the twist factors only q, which trial division splits, and no prime
    # check of the twisted curve's valuations tests P2 or P1 again
    assert rho == [] and tested.count(P2) == tested.count(P1) == 1
    assert E_tw.j_invariant == E.j_invariant and P1 in E_tw.bad_primes


def test_search_exhausted(corpus):
    E11 = dict(corpus)["11a1"]
    with pytest.raises(SearchExhausted):
        construct_c2_twist(E11, 3, search_bound=4)


def test_round_trip_and_certificates(corpus):
    done = 0
    for label, E in corpus:
        for p in (3, 7):
            if E.discriminant % p == 0:
                continue
            if check_c2(E, p).status != Status.FAILS:
                continue
            E_tw, cert = construct_c2_twist(E, p)
            cert.validate()
            assert check_c2(E_tw, p).status == Status.HOLDS, (label, p)
            assert E_tw.j_invariant == E.j_invariant
            done += 1
            if done >= 6:
                return
    assert done >= 5


def test_round_trip_on_seeded_random_curves():
    # 100 seeded pairs (E, p), p in {3, 5, 7}, where C2 fails on E
    rng = random.Random(20221019)
    done, primes = 0, set()
    while done < 100:
        try:
            E = EllipticCurveQ(*(rng.randint(-30, 30) for _ in range(5)))
        except ValueError:
            continue
        p = rng.choice((3, 5, 7))
        if E.discriminant % p == 0 or check_c2(E, p).status != Status.FAILS:
            continue
        E_tw, cert = construct_c2_twist(E, p)
        cert.validate()
        assert not cert.trivial
        assert check_c2(E_tw, p).status == Status.HOLDS, (E.ainvs, p)
        assert E_tw.j_invariant == E.j_invariant
        done += 1
        primes.add(p)
    assert primes == {3, 5, 7}


def test_legendre_sign_table(corpus):
    # re-assert the sign constraints on an emitted certificate directly
    for label in ("11a1", "14a1", "37b1"):
        E = dict(corpus)[label]
        for p in (3, 7):
            if E.discriminant % p == 0 or check_c2(E, p).status != Status.FAILS:
                continue
            _, cert = construct_c2_twist(E, p)
            if cert.trivial:
                continue
            for ell in set(cert.S) - set(cert.S1):
                if ell == 2:
                    continue
                want = -cert.epsilon[ell] if ell in cert.S0 else cert.epsilon[ell]
                assert kronecker_symbol(cert.q, ell) == want, (label, p, ell)


def test_good_primes_preserved(corpus):
    # primes of good reduction coprime to 2*q*N1* stay good after twisting
    E = dict(corpus)["11a1"]
    E_tw, cert = construct_c2_twist(E, 3)
    bad_before = set(factorint(abs(E.minimal[0].discriminant)))
    bad_after = set(factorint(abs(E_tw.discriminant)))
    new_bad = bad_after - bad_before
    assert new_bad <= set(factorint(abs(2 * cert.d)))


def test_mod8_case_recorded(corpus):
    E14 = dict(corpus)["14a1"]  # potentially multiplicative at 2 and 7
    for p in (3, 5):
        if check_c2(E14, p).status == Status.FAILS:
            E_tw, cert = construct_c2_twist(E14, p)
            assert cert.mod8_case != "none"
            assert check_c2(E_tw, p).status == Status.HOLDS
            return
    pytest.skip("14a1 satisfies the torsion condition at the tested p")


def test_certificate_validation_catches_errors():
    bad = TwistCertificate(p=3, S=(11,), S0=(11,), S1=(11,), N1_star=-11, d=1)
    with pytest.raises(Exception):
        bad.validate()


def test_mod8_branch_with_2_in_S0():
    # 2 carries local torsion with odd cyclotomic degree here, so the search
    # must land on q*N1* = 5 mod 8
    E = EllipticCurveQ(3, 6, -6, -1, 3)
    p = 7
    assert check_c2(E, p).status == Status.FAILS
    E_tw, cert = construct_c2_twist(E, p)
    assert 2 in cert.S0
    assert (cert.q * cert.N1_star) % 8 == 5
    assert cert.q == 5 and cert.d == 5
    cert.validate()
    assert check_c2(E_tw, p).status == Status.HOLDS


def test_mod8_branch_with_2_in_S():
    from iwk.ecq import Potentially, ReductionKind, quadratic_twist, reduction_type

    # the -1 twist of 14a1 is additive at 2 yet potentially multiplicative,
    # so 2 enters S; at p = 5 the search must respect the mod-8 constraint
    E = quadratic_twist(EllipticCurveQ(1, 0, 1, 4, -6), -1)
    info2 = reduction_type(E, 2)
    assert info2.kind == ReductionKind.ADDITIVE
    assert info2.potentially == Potentially.POT_MULT
    assert check_c2(E, 5).status == Status.FAILS
    E_tw, cert = construct_c2_twist(E, 5)
    assert 2 in cert.S and 2 not in cert.S0 and 2 not in cert.S1
    assert (cert.q * cert.N1_star) % 8 == 1
    cert.validate()
    assert check_c2(E_tw, 5).status == Status.HOLDS


def _seeded_twist_run(digest) -> Counter:
    # 400 seeded pairs (E, p), |a_i| <= 30 and p <= 13 of good reduction:
    # every certificate, trivial or not, with its curve, p and twisted model
    rng = random.Random(2323)
    cases: Counter = Counter()
    while sum(cases.values()) < 400:
        try:
            E = EllipticCurveQ(*(rng.randint(-30, 30) for _ in range(5)))
        except ValueError:
            continue
        p = rng.choice((3, 5, 7, 11, 13))
        if E.discriminant % p == 0:
            continue
        E_tw, cert = construct_c2_twist(E, p)
        line = [list(E.ainvs), p, list(E_tw.ainvs), cert.to_json_dict()]
        digest.update(json.dumps(line, sort_keys=True).encode() + b"\n")
        cases[cert.mod8_case] += 1
    return cases


def test_seeded_twist_golden():
    digest = hashlib.sha256()
    cases = _seeded_twist_run(digest)
    assert set(cases) == {
        "trivial",
        "2 not in S: no mod-8 constraint",
        "2 in S1: no mod-8 constraint",
        "2 in S outside S0 and S1: q*N1* = 1 mod 8",
        "2 in S0: q*N1* = 5 mod 8",
    }, cases
    assert digest.hexdigest() == "afd5623f38a23abcc821df3160760ea90d622db923a1d568964ee6f41c327ca2"


@pytest.mark.parametrize(
    "ainvs, p, q, rule",
    [
        # S = (2, 41, 313, 16339), S0 = (16339,), S1 = (41, 313), N1* = 12833,
        # eps_16339 = -1 and 2 outside S0 and S1; each q below is a prime that
        # breaks exactly one rule and keeps the others
        ((-15, 23, -18, 2, 8), 7, 73, "Legendre sign at 16339"),
        ((-15, 23, -18, 2, 8), 7, 5, "1 mod 8"),
        ((-15, 23, -18, 2, 8), 7, 41, "coprime to p and to S"),
        # 11a1 at p = 7: S0 = (11,), no mod-8 constraint, and (19|11) = -1
        ((0, -1, 1, -10, -20), 7, 19, "1 mod 4"),
    ],
)
def test_validate_rejects_each_broken_rule(ainvs, p, q, rule):
    _, cert = construct_c2_twist(EllipticCurveQ(*ainvs), p)
    cert.validate()
    mutant = TwistCertificate(
        p=cert.p, S=cert.S, S0=cert.S0, S1=cert.S1, N1_star=cert.N1_star,
        epsilon=cert.epsilon, q=q, mod8_case=cert.mod8_case, d=q * cert.N1_star,
    )
    with pytest.raises(PostconditionFailed, match=rule):
        mutant.validate()
