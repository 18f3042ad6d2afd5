"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime (run with `pytest tests/test_acceptance.py -v -s`).

Expected values marked as externally documented facts live in criterion 5
(the 5077.a1 worked example); everything else is checked against
independent computation routes inside the package.
"""

import itertools
import math
import random
import time

from sympy import primerange

from iwk.cli import analyze_curve
from iwk.conditions import Status, check_c1_str, check_c2, check_c2_sufficient, check_c3
from iwk.ecq import (
    EllipticCurveQ,
    ReductionKind,
    count_points_ap,
    reduction_type,
)
from iwk.growth import class_number_growth, mordell_weil_bound, IwasawaInvariants
from iwk.iwasawa import (
    DistinguishedPoly,
    ElementaryLambdaModule,
    TruncatedSeries,
    coinvariant_order,
    poly_mul,
    weierstrass_prepare,
)
from iwk.padic import kronecker_symbol, multiplicative_order
from iwk.twist import construct_c2_twist
from iwk.zpmod import (
    FgZpModule,
    GroupRingPresentation,
    all_characters,
    delta_decompose,
    diagonal_presentation,
    direct_sum,
    fitting_from_minors,
    phi,
    phi0_of_cokernel,
    phi_bruteforce,
)

from conftest import CORPUS, trace_naive


def _report(number: int, started: float, detail: str) -> None:
    print(f"ACCEPTANCE {number} PASS ({time.time() - started:.1f}s): {detail}")


# ---------------------------------------------------------------------------


def _feasible_shapes(p: int, i: int, cap: int):
    shapes = set()
    for s in range(1, 5):
        for combo in itertools.combinations_with_replacement(range(1, 5), s):
            e = tuple(sorted(combo, reverse=True))
            if (p ** sum(e)) ** max(i, 1) <= cap:
                shapes.add(e)
    return sorted(shapes)


def test_criterion_1_fitting_oracle_triangle():
    started = time.time()
    rng = random.Random(101)
    caps = {0: 10**6, 1: 3 * 10**5, 2: 2 * 10**6}
    for trial in range(500):
        p = rng.choice([3, 5, 7])
        i = rng.choice([0, 1, 2])
        shapes = _feasible_shapes(p, i, caps[i])
        exps = rng.choice(shapes)
        M = FgZpModule(p, 0, exps)
        formula = phi(M, i)
        brute = phi_bruteforce(M, i, budget=2 * 10**6)
        minors = fitting_from_minors(diagonal_presentation(M), i).generator_valuation
        assert formula == brute == minors, (p, exps, i, formula, brute, minors)
    elapsed = time.time() - started
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(1, started, "500 random torsion modules: phi = brute force = minors")


def test_criterion_2_bounded_junk_stability():
    started = time.time()
    rng = random.Random(102)
    for family in range(100):
        p = rng.choice([3, 5, 7])
        B = rng.randint(0, 4)
        extra = tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 2))), reverse=True))
        for n in range(1, 21):
            base = FgZpModule(p, 0, tuple(sorted((n,) + extra, reverse=True)))
            budget, junk_exps = B, []
            while budget > 0 and rng.random() < 0.75:
                e = rng.randint(1, budget)
                junk_exps.append(e)
                budget -= e
            junk = FgZpModule(p, 0, tuple(sorted(junk_exps, reverse=True)))
            assert sum(junk.exponents) <= B
            M = direct_sum(base, junk)
            for i in range(4):
                assert abs(phi(M, i) - phi(base, i)) <= B, (p, n, i, B)
    _report(2, started, "100 bounded-junk families stay within B at every level")


def test_criterion_3_weierstrass_round_trip():
    started = time.time()
    rng = random.Random(103)
    N, D = 8, 12
    for trial in range(200):
        p = rng.choice([3, 5, 7])
        mod = p**N
        mu = rng.randint(0, 3)
        lam = rng.randint(0, 4)
        f = [p * rng.randrange(p ** (N - 1)) for _ in range(lam)] + [1]
        u = [rng.randrange(mod) for _ in range(D)]
        while u[0] % p == 0:
            u[0] = rng.randrange(mod)
        s = TruncatedSeries(p, N, D, tuple(c * p**mu for c in poly_mul(f, u)[:D]))
        mu2, f2, unit2 = weierstrass_prepare(s)
        assert (mu2, f2.degree) == (mu, lam), (trial, p, mu, lam, mu2, f2.degree)
        remul = TruncatedSeries(p, N - mu2, D, tuple(f2.as_list())).mul(unit2)
        expected = tuple((c // p**mu2) % p ** (N - mu2) for c in s.coefficients)
        assert remul.coefficients == expected
    _report(3, started, "200 random products at (p^8, T^12) recover (mu, lambda) exactly")


def test_criterion_4_iwasawa_growth_finite_level():
    started = time.time()
    p = 3
    modules = {
        "T": ElementaryLambdaModule(p, 0, ((DistinguishedPoly(p, (0,)), 1),)),
        "T^2": ElementaryLambdaModule(p, 0, ((DistinguishedPoly(p, (0, 0)), 1),)),
        "T^2+3T+3": ElementaryLambdaModule(p, 0, ((DistinguishedPoly(p, (3, 3)), 1),)),
    }
    for name, M in modules.items():
        lam = M.lambda_invariant
        deviations = [coinvariant_order(M, n, n) - lam * n for n in range(2, 6)]
        assert len(set(deviations)) == 1, (name, deviations)
    # mu > 0: orders are measured and reported, boundedness not asserted
    Mp = ElementaryLambdaModule(p, 1)
    orders = [coinvariant_order(Mp, n, n) for n in range(1, 6)]
    assert orders == [3 ** (n - 1) for n in range(1, 6)]
    elapsed = time.time() - started
    assert elapsed < 30, f"runtime {elapsed:.1f}s exceeds 30s"
    _report(
        4,
        started,
        f"coinvariant orders: lambda-deviation constant on n=2..5; mu-part measured {orders}",
    )


def test_criterion_5_worked_example_end_to_end():
    started = time.time()
    E = EllipticCurveQ(0, 0, 1, -7, 6)
    p = 7

    # externally documented facts for this curve and prime
    info = reduction_type(E.minimal[0], 5077)
    assert info.kind == ReductionKind.MULT_NONSPLIT
    assert kronecker_symbol(-7, 5077) == 1
    assert multiplicative_order(5077, 7) == 3 and multiplicative_order(5077, 7) % 2 == 1
    assert check_c2(E, p).status == Status.HOLDS
    assert check_c2_sufficient(E, p).status == Status.HOLDS
    assert check_c1_str(E, p, 10**4).status == Status.HOLDS
    ver_c3 = check_c3(E)
    assert ver_c3.status == Status.HOLDS and ver_c3.parameters["cm"] is False

    # ingest mu = 0, lambda = 2, rank = 3 and check the derived outputs
    growth = class_number_growth(IwasawaInvariants(p, 0, 2, source="external"))
    assert (growth.mu_hat, growth.lambda_hat) == (0, 4)
    lam_lower, _ = mordell_weil_bound(3, 0, p)
    assert lam_lower == 2 and lam_lower <= 2  # consistent with lambda = 2

    report = analyze_curve(E, p, ap_bound=10**4, mu=0, lam=2, rank=3, label="5077.a1")
    assert report.exit_code == 0
    data = report.data
    assert data["class_number_growth"]["mu_hat"] == "0"
    assert data["class_number_growth"]["lambda_hat"] == "4"
    assert data["discrepancy_flags"], "the 2n-vs-4n flag must be emitted"
    assert data["mordell_weil_bound"]["lambda_lower"] == 2
    assert all(v["status"] == "HOLDS" for v in data["verdicts"].values())
    elapsed = time.time() - started
    assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds 120s"
    _report(5, started, "5077.a1 at p=7: all conditions hold, growth (0,4) + flag, MW >= 2")


def test_criterion_6_twist_round_trip():
    started = time.time()
    constructed = 0
    for label, ainvs in CORPUS:
        E = EllipticCurveQ(*ainvs)
        for p in (3, 7):
            if E.discriminant % p == 0:
                continue
            if check_c2(E, p).status != Status.FAILS:
                continue
            E_tw, cert = construct_c2_twist(E, p, search_bound=10**5)
            cert.validate()
            assert check_c2(E_tw, p).status == Status.HOLDS, (label, p)
            for ell in set(cert.S) - set(cert.S1):
                if ell == 2:
                    continue
                want = -cert.epsilon[ell] if ell in cert.S0 else cert.epsilon[ell]
                assert kronecker_symbol(cert.q, ell) == want, (label, p, ell)
            constructed += 1
    assert constructed >= 5, f"only {constructed} corpus pairs available"
    _report(6, started, f"{constructed} failing pairs twisted and re-verified")


def test_criterion_7_point_count_cross_check_and_hasse():
    started = time.time()
    curves = [EllipticCurveQ(*a) for _, a in CORPUS[:20]]
    assert len(curves) == 20
    for E in curves:
        disc = E.discriminant
        for ell in primerange(2, 51):
            if disc % ell == 0:
                continue
            naive = trace_naive(E, ell)
            assert naive * naive <= 4 * ell
            if ell > 2:
                assert count_points_ap(E, ell).a_ell == naive
        for ell in primerange(3, 10**4 + 1):
            if disc % ell == 0:
                continue
            a = count_points_ap(E, ell).a_ell
            assert a * a <= 4 * ell
    _report(7, started, "20 curves: Legendre sums match enumeration; Hasse to 10^4")


def test_criterion_8_delta_decomposition_conservation():
    started = time.time()
    rng = random.Random(108)
    p, N = 5, 2
    mod = p**N
    for trial in range(50):
        n = rng.randint(1, 3)
        m = rng.randint(0, 5)
        entries = tuple(
            tuple(tuple(rng.randrange(mod) for _ in range(p - 1)) for _ in range(m))
            for _ in range(n)
        )
        GP = GroupRingPresentation(p, N, entries)
        total = phi0_of_cokernel(GP.underlying_presentation())
        parts = sum(
            phi0_of_cokernel(delta_decompose(GP, chi)) for chi in all_characters(p)
        )
        assert parts == total, (trial, parts, total)
    _report(8, started, "50 random group-ring modules: character orders sum exactly")
