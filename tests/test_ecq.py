import inspect
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from sympy import factorint, nextprime, prevprime, primerange

import iwk
from iwk import ecq
from iwk.cli import analyze_curve
from iwk.conditions import cm_order
from conftest import CM_LABELS, CORPUS, count_points_naive, trace_naive, transformed
from iwk.errors import BadReductionPrime, BudgetExceeded, NotMinimalAtPrime, PostconditionFailed
from iwk.ecq import (
    AP_PRIME_BOUND,
    EllipticCurveQ,
    Potentially,
    ReductionKind,
    TwistClass,
    count_points_ap,
    minimal_model,
    quadratic_twist,
    reduction_summary,
    reduction_type,
    torsion_in_cyclotomic_local,
)
from iwk.padic import kronecker_symbol, ord_p


def test_curve_invariants(corpus):
    for label, E in corpus:
        assert E.c4**3 - E.c6**2 == 1728 * E.discriminant
    with pytest.raises(ValueError):
        EllipticCurveQ(0, 0, 0, 0, 0)
    # the constructor takes the five coefficients alone; the invariants and
    # the three tables are set at construction, before any of them is read,
    # and none is part of the model's identity: with every one of them
    # changed, a curve still equals, hashes and prints as a fresh one
    assert list(inspect.signature(EllipticCurveQ).parameters) == ["a1", "a2", "a3", "a4", "a6"]
    invariants = {"b2": 0, "b4": -14, "b6": 25, "b8": -49, "c4": 336, "c6": -5400,
                  "discriminant": 5077}
    E = EllipticCurveQ(0, 0, 1, -7, 6)
    assert {k: vars(E)[k] for k in invariants} == invariants
    assert (vars(E)["_reductions"], vars(E)["_traces"], vars(E)["_twists"]) == ({}, {}, {})
    altered = EllipticCurveQ(0, 0, 1, -7, 6)
    vars(altered).update({k: v + 1 for k, v in invariants.items()},
                         _reductions={2: None}, _traces={3: None}, _twists={5: None})
    assert altered == E and hash(altered) == hash(E) == hash((0, 0, 1, -7, 6))
    assert repr(altered) == repr(E) == "EllipticCurveQ(a1=0, a2=0, a3=1, a4=-7, a6=6)"
    assert E != EllipticCurveQ(0, -1, 1, -10, -20)
    # a curve analyzed at every good p <= 13 keeps full tables, yet equals,
    # hashes and prints as a fresh object of the same model; CM decides C1
    # before any trace, so a CM curve keeps no a_ell
    for label, ainvs in CORPUS:  # new objects: the session's corpus keeps empty tables
        E_min = EllipticCurveQ(*ainvs).minimal[0]
        for p in (3, 5, 7, 11, 13):
            if E_min.discriminant % p:
                analyze_curve(E_min, p)
        fresh = EllipticCurveQ(*E_min.ainvs)
        assert (cm_order(E_min) is not None) == (label in CM_LABELS), label
        assert bool(E_min._traces) == (label not in CM_LABELS), label
        assert E_min._reductions.keys() == set(E_min.bad_primes), label
        assert (fresh._traces, fresh._reductions) == ({}, {}), label
        assert fresh == E_min and hash(fresh) == hash(E_min), label
        assert repr(fresh) == repr(E_min) == (
            "EllipticCurveQ(a1={}, a2={}, a3={}, a4={}, a6={})".format(*E_min.ainvs)
        ), label
    # each object has tables of its own
    E1, E2 = EllipticCurveQ(0, 0, 1, -7, 6), EllipticCurveQ(0, 0, 1, -7, 6)
    count_points_ap(E1, 5)
    assert E1._traces.keys() == {5} and E2._traces == {}
    assert E1._traces is not E2._traces and E1._reductions is not E2._reductions
    assert E1._twists is not E2._twists


def test_5077a1_basic_data(e5077):
    assert e5077.discriminant == 5077
    assert (e5077.c4, e5077.c6) == (336, -5400)
    assert e5077.j_invariant == Fraction(336**3, 5077)


def test_minimal_model_fixed_point(e5077):
    Em, (u, r, s, t) = minimal_model(e5077)
    assert Em == e5077 and u == 1 and (r, s, t) == (0, 0, 0)


def test_minimal_model_recovers_scaled(corpus):
    for u0 in (2, 3, 6):
        for label, E in corpus[:8]:
            big = transformed(E, Fraction(1, u0), 0, 0, 0)
            assert big.discriminant == E.discriminant * u0**12
            back, (u, r, s, t) = minimal_model(big)
            assert u == u0
            assert back.j_invariant == E.j_invariant
            assert abs(back.discriminant) == abs(E.discriminant)


def test_minimal_model_transform_matches_fraction_oracle():
    # minimal_model solves and checks (u, r, s, t) in integers; on seeded
    # models of random curves it agrees with the exact rational solve, and
    # `transformed` takes each model to the base curve's minimal model
    rng = random.Random(20221019)
    models = 0
    while models < 500:
        try:
            base = EllipticCurveQ(rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
                                  rng.randint(-40, 40), rng.randint(-40, 40))
        except ValueError:
            continue
        base_min, (base_u, _, _, _) = base.minimal
        for _ in range(4):
            u0 = rng.choice((1, 2, 3, 5, 6, 7, 10))
            r0, s0, t0 = (rng.randint(-9, 9) for _ in range(3))
            model = transformed(base, Fraction(1, u0), r0, s0, t0)
            E_min, (u, r, s, t) = minimal_model(model)
            assert all(type(x) is int for x in (u, r, s, t)), model.ainvs
            assert E_min == base_min and u == u0 * base_u, model.ainvs
            s_q = Fraction(u * E_min.a1 - model.a1, 2)
            r_q = Fraction(u**2 * E_min.a2 - model.a2 + s_q * model.a1 + s_q * s_q, 3)
            t_q = Fraction(u**3 * E_min.a3 - model.a3 - r_q * model.a1, 2)
            assert (r_q, s_q, t_q) == (r, s, t), model.ainvs
            assert transformed(model, u, r, s, t) == E_min, model.ainvs
            models += 1


def test_minimal_model_rejects_a_transform_that_fails(monkeypatch, e5077):
    # mutation: the model built from (c4, c6) gets a1 and a2 changed while
    # its c4, c6 and discriminant, cached at construction, stay; no (r, s, t)
    # takes the input there, and the integer check must say so
    build = ecq._curve_from_c4c6

    def shifted(c4, c6):
        E = build(c4, c6)
        object.__setattr__(E, "a1", E.a1 + 1)
        object.__setattr__(E, "a2", E.a2 - 1)
        return E

    monkeypatch.setattr(ecq, "_curve_from_c4c6", shifted)
    for model in (EllipticCurveQ(*e5077.ainvs), transformed(e5077, Fraction(1, 6), 1, -1, 2)):
        with pytest.raises(PostconditionFailed):
            minimal_model(model)


def test_minimal_model_idempotent(corpus):
    for label, E in corpus:
        Em, _ = minimal_model(E)
        Em2, (u, _, _, _) = minimal_model(Em)
        assert Em2 == Em and u == 1
        assert Em.j_invariant == E.j_invariant


def test_corpus_is_canonically_minimal(corpus):
    # every corpus model is the canonical reduced minimal model of itself
    for label, E in corpus:
        assert E.minimal[0] == E, label


def test_reduction_5077(e5077):
    info = reduction_type(e5077, 5077)
    assert info.kind == ReductionKind.MULT_NONSPLIT
    assert info.potentially == Potentially.POT_MULT
    assert info.twist_class_gamma == TwistClass.UNIT_NONSQUARE
    assert reduction_type(e5077, 2).kind == ReductionKind.GOOD
    assert reduction_type(e5077, 3).kind == ReductionKind.GOOD


def test_reduction_additive_potentially_good():
    # y^2 = x^3 - 25x: additive at 5 with integral j
    E = EllipticCurveQ(0, 0, 0, -25, 0)
    assert E.minimal[1][0] % 5  # minimal at 5
    info = reduction_type(E, 5)
    assert info.kind == ReductionKind.ADDITIVE
    assert info.potentially == Potentially.POT_GOOD
    assert info.twist_class_gamma is None


def test_reduction_requires_minimality(e5077):
    big = transformed(e5077, Fraction(1, 5), 0, 0, 0)
    # a refusal is not kept on the curve: every call tests minimality again
    for _ in range(2):
        with pytest.raises(NotMinimalAtPrime):
            reduction_type(big, 5)


def test_split_detection_routes_agree(corpus):
    # split iff gamma is a square, against the naive count on the singular
    # fiber: ell + 1 - #E(F_ell) is +1 when split and -1 when not
    rng = random.Random(20221018)
    curves = [E for _, E in corpus]
    while len(curves) < len(corpus) + 300:
        try:
            curves.append(EllipticCurveQ(*(rng.randint(-30, 30) for _ in range(5))))
        except ValueError:
            continue
    seen = set()
    for E in curves:
        E_min = E.minimal[0]
        for ell, info in reduction_summary(E_min).items():
            if info.kind not in (ReductionKind.MULT_SPLIT, ReductionKind.MULT_NONSPLIT):
                continue
            if ell > 200:
                continue
            split = info.kind == ReductionKind.MULT_SPLIT
            a = ell + 1 - count_points_naive(E_min, ell)
            assert a == (1 if split else -1), (E.ainvs, ell)
            seen.add((min(ell, 5), split))
    assert seen == {(ell, split) for ell in (2, 3, 5) for split in (True, False)}


def _j_valuation(E, ell):
    """ord_ell(j), from j's numerator and denominator (INFINITY at j = 0)."""
    j = E.j_invariant
    return ord_p(j.numerator, ell) - ord_p(j.denominator, ell)


def test_potentially_multiplicative_iff_negative_j_valuation(corpus):
    for label, E in corpus:
        for ell, info in reduction_summary(E).items():
            assert (info.potentially == Potentially.POT_MULT) == (
                _j_valuation(E, ell) < 0
            ), (label, ell)


def test_quadratic_twist_identity_and_involution(corpus):
    for label, E in corpus[:10]:
        assert quadratic_twist(E, 1) == E.minimal[0]
        for d in (-1, 2, -3, 5):
            twice = quadratic_twist(quadratic_twist(E, d), d)
            assert twice == E.minimal[0], (label, d)


def test_twist_preserves_j(corpus):
    for label, E in corpus[:10]:
        for d in (-1, 5, -55):
            assert quadratic_twist(E, d).j_invariant == E.j_invariant


def test_twist_rejects_zero_and_square_factors(corpus):
    curves = dict(corpus)
    E11, E5077 = curves["11a1"], curves["5077a1"]
    # 11^2 * 5 squares a prime of Delta_E = -11^5, 12 squares a new prime
    for E, d in ((E11, 11**2 * 5), (E11, -(11**3)), (E5077, 12), (E5077, 0)):
        with pytest.raises(ValueError, match="squarefree"):
            quadratic_twist(E, d)
    for d in (1, -1, 11, -55):
        assert quadratic_twist(E11, d).j_invariant == E11.j_invariant


def test_twist_checks_j_for_every_d(monkeypatch):
    # the twist takes E's j-denominator primes, so a changed j must not get through
    E = EllipticCurveQ(0, -1, 1, -10, -20)  # 11a1
    other = EllipticCurveQ(0, 0, 1, -7, 6)  # 5077a1
    monkeypatch.setattr(ecq, "minimal_model", lambda _: (other, (1, 0, 0, 0)))
    with pytest.raises(PostconditionFailed, match="-55"):
        quadratic_twist(E, -55)


def test_twist_c6_square_class():
    rng = random.Random(51)
    E = EllipticCurveQ(0, 0, 1, -7, 6)
    for d in (-1, 2, -3, 5, -55, 91):
        Et = quadratic_twist(E, d)
        prod = Et.c6 * E.c6 * d
        assert prod > 0 and math.isqrt(prod) ** 2 == prod, d


def test_twist_self_twist_j_1728():
    E = EllipticCurveQ(0, 0, 0, 1, 0)
    assert quadratic_twist(E, -1) == E


def test_twist_rejects_bad_parameter(e5077):
    with pytest.raises(ValueError):
        quadratic_twist(e5077, 12)
    with pytest.raises(ValueError):
        quadratic_twist(e5077, 0)


def test_reduction_invariant_under_double_twist(e5077):
    for d in (-1, 5):
        for ell in (2, 3, 5077):
            a = reduction_type(e5077, ell)
            b = reduction_type(quadratic_twist(quadratic_twist(e5077, d), d), ell)
            assert a == b


def test_count_points_examples(e5077):
    E = EllipticCurveQ(0, 0, 0, 1, 0)
    assert trace_naive(E, 3) == 0  # supersingular: 4 points over F_3
    assert count_points_naive(E, 3) == 4
    assert trace_naive(e5077, 2) == -2  # full-model enumeration over F_2
    rec = count_points_ap(e5077, 5)
    assert rec.a_ell == trace_naive(e5077, 5)


def test_count_points_errors(e5077):
    with pytest.raises(BadReductionPrime):
        count_points_ap(e5077, 5077)
    with pytest.raises(BudgetExceeded):
        count_points_ap(e5077, nextprime(AP_PRIME_BOUND))
    with pytest.raises(ValueError):
        count_points_ap(e5077, 2)


def test_count_points_errors_on_repeat(e5077):
    # a kept record is returned before any check, but a bad ell never enters
    # the curve's table, so it raises on every call, also once good primes
    # have been counted: a bad prime, one past the budget, 2, and the odd
    # composites 9, 15 and 25
    E = EllipticCurveQ(*e5077.ainvs)
    assert count_points_ap(E, 5) is count_points_ap(E, 5)
    for _ in range(2):
        with pytest.raises(BadReductionPrime):
            count_points_ap(E, 5077)
        with pytest.raises(BudgetExceeded):
            count_points_ap(E, nextprime(AP_PRIME_BOUND))
        with pytest.raises(ValueError):
            count_points_ap(E, 2)
        for ell in (9, 15, 25):
            with pytest.raises(ValueError, match="not prime"):
                count_points_ap(E, ell)
    assert list(E._traces) == [5]


def test_each_trace_counted_once_per_curve_object(monkeypatch, corpus):
    # a curve object analyzed at every good p <= 13, and then asked for each
    # a_ell below 400 twice, counts each a_ell once: the Legendre sum and
    # Shanks-Mestre each run at most once per (object, ell)
    from iwk import cli

    runs = Counter()
    curves = []  # alive, so that no other curve takes an id

    def counted(name, fn):
        def run(E, ell):
            curves.append(E)
            runs[name, id(E), ell] += 1
            return fn(E, ell)
        return run

    for name in ("_legendre_trace", "_shanks_mestre"):
        monkeypatch.setattr(ecq, name, counted(name, getattr(ecq, name)))
    requests = 0
    for label, E in corpus:
        E = EllipticCurveQ(*E.ainvs)
        for p in (3, 5, 7, 11, 13):
            if E.discriminant % p:
                cli.analyze_curve(E, p, ap_bound=10**4, mu=0, lam=1, rank=1, label=label)
        E_min = E.minimal[0]
        for _ in range(2):
            for ell in primerange(3, 400):
                if E_min.discriminant % ell:
                    assert count_points_ap(E_min, ell).a_ell == E_min._traces[ell].a_ell
                    requests += 1
    assert max(runs.values()) == 1
    assert any(name == "_shanks_mestre" for name, _, _ in runs)
    assert len({key[1:] for key in runs}) * 2 <= requests


def test_count_points_cross_check(corpus):
    for label, E in corpus[:6]:
        disc = E.discriminant
        for ell in primerange(3, 50):
            if disc % ell == 0:
                continue
            assert count_points_ap(E, ell).a_ell == trace_naive(E, ell), (label, ell)


def test_hasse_bound(corpus):
    for label, E in corpus:
        for ell in primerange(3, 200):
            if E.discriminant % ell == 0:
                continue
            a = count_points_ap(E, ell).a_ell
            assert a * a <= 4 * ell


def _legendre_sum_trace(E, ell):
    """a_ell = -sum_x (4x^3 + b2 x^2 + 2 b4 x + b6 | ell) in Python integers."""
    chi = [-1] * ell
    for x in range(1, ell // 2 + 1):
        chi[x * x % ell] = 1
    chi[0] = 0
    b2, b4, b6 = E.b2 % ell, 2 * E.b4 % ell, E.b6 % ell
    return -sum([chi[(((4 * x + b2) * x + b4) * x + b6) % ell] for x in range(ell)])


def test_legendre_tables_kept_only_below_shanks_mestre(monkeypatch):
    # with Shanks-Mestre leaving every a_ell open, the Legendre sum runs at
    # each good ell < 300; the table of squares is kept for each ell below
    # the crossover and for none above it, and each kept table is Euler's
    # criterion built afresh
    monkeypatch.setattr(ecq, "_CHI", {})
    monkeypatch.setattr(ecq, "_shanks_mestre", lambda E, ell: None)
    E = EllipticCurveQ(0, 0, 1, -7, 6)
    good = [ell for ell in primerange(3, 300) if E.discriminant % ell]
    for ell in good:
        assert count_points_ap(E, ell).a_ell == _legendre_sum_trace(E, ell), ell
    low = ecq._SHANKS_MESTRE_FROM
    assert max(good) >= low and max(ecq._CHI) < low
    assert sorted(ecq._CHI) == [ell for ell in good if ell < low]
    for ell, chi in ecq._CHI.items():
        assert chi == [0] + [1 if pow(x, (ell - 1) // 2, ell) == 1 else -1 for x in range(1, ell)]


def test_count_points_large_invariants():
    # b-invariants of about 30 digits at primes up to 10^5, and at the
    # largest prime below AP_PRIME_BOUND a model whose reduced coefficients
    # all sit at ell - 1
    rng = random.Random(20221018)
    top = prevprime(AP_PRIME_BOUND + 1)
    assert top == 999983
    cases = []
    for ell in (1009, 1009, 10007, 10007, 100003):
        E = EllipticCurveQ(*(rng.randrange(-10**15, 10**15) for _ in range(3)),
                           *(rng.randrange(-10**29, 10**29) for _ in range(2)))
        cases.append((E, ell))
    # a1 = a3 = 0 and a2, a4, a6 = -1/4 mod ell give b2, 2 b4, b6 = -1 mod ell
    quarter = -pow(4, -1, top) % top
    a2, a4, a6 = (quarter + top * rng.randrange(10**23, 10**24) for _ in range(3))
    E = EllipticCurveQ(0, a2, 0, a4, a6)
    assert (E.b2 % top, 2 * E.b4 % top, E.b6 % top) == (top - 1,) * 3
    assert E.discriminant % top and len(str(E.b6)) >= 30
    cases.append((E, top))
    for E, ell in cases:
        assert count_points_ap(E, ell).a_ell == _legendre_sum_trace(E, ell), (E.ainvs, ell)


def test_count_points_against_legendre_oracle(monkeypatch):
    # the table of squares below the crossover and Shanks-Mestre above it,
    # against the Legendre sum: seeded random curves, j = 0, j = 1728 and
    # twists of CM curves at every good ell <= 3000, then sampled primes near
    # 10^4, near 10^5 and at 999983
    from iwk import ecq

    rng = random.Random(20221019)
    cm = [EllipticCurveQ(0, 0, 1, 0, 0),  # j = 0
          EllipticCurveQ(0, 0, 0, 1, 0),  # j = 1728
          EllipticCurveQ(1, -1, 0, -2, -1)]  # 49a1, CM by the order of discriminant -7
    curves = cm + [quadratic_twist(cm[0], -3), quadratic_twist(cm[2], 5)]
    while len(curves) < 8:
        size = 10 ** rng.randint(1, 9)
        try:
            curves.append(EllipticCurveQ(*(rng.randint(-size, size) for _ in range(5))))
        except ValueError:
            continue
    sets = []  # (ell, every N with N P = O for a point, or None if its order is small)
    multiples = ecq._multiples

    def recorded(P, a, ell, *window):
        orders = multiples(P, a, ell, *window)
        sets.append((ell, orders))
        return orders

    monkeypatch.setattr(ecq, "_multiples", recorded)
    # the reference sum is linear in ell, so the large primes are shared out:
    # two near 10^4 for every curve, one near 10^5 for every other curve, and
    # 999983 for j = 1728
    samples = [nextprime(10**4), prevprime(10**4), nextprime(10**5), 999983]
    for i, E in enumerate(curves):
        far = samples[: 4 if i == 1 else 3 if i % 2 else 2]
        for ell in list(primerange(3, 3001)) + far:
            if E.discriminant % ell:
                assert count_points_ap(E, ell).a_ell == _legendre_sum_trace(E, ell), (E.ainvs, ell)
    low = ecq._SHANKS_MESTRE_FROM
    assert 100 <= low < 229
    # below 229 a point can leave several candidates to intersect
    assert any(low <= ell < 229 and orders and len(orders) > 1 for ell, orders in sets)
    # with one point allowed, those cases fall back to the exact sum.  Each
    # curve object keeps the a_ell it has counted, so this pass counts on
    # fresh objects of the same models
    fallbacks = []
    legendre = ecq._legendre_trace

    def counted(E, ell):
        fallbacks.append(ell)
        return legendre(E, ell)

    monkeypatch.setattr(ecq, "_SHANKS_MESTRE_POINTS", 1)
    monkeypatch.setattr(ecq, "_legendre_trace", counted)
    for E in (EllipticCurveQ(*E.ainvs) for E in curves):
        for ell in primerange(low, 229):
            if E.discriminant % ell:
                assert count_points_ap(E, ell).a_ell == _legendre_sum_trace(E, ell), (E.ainvs, ell)
    assert len(fallbacks) >= 5


def test_torsion_local_split_always_true(corpus):
    for label, E in corpus:
        for ell, info in reduction_summary(E).items():
            if info.kind == ReductionKind.MULT_SPLIT:
                for p in (3, 5, 7):
                    if p != ell:
                        assert torsion_in_cyclotomic_local(E, ell, p), (label, ell, p)


def test_torsion_local_5077(e5077):
    assert torsion_in_cyclotomic_local(e5077, 5077, 7) is False


def test_torsion_local_even_degree_nonsplit():
    # build a curve non-split at 19 and take p = 5: ord(19 mod 5) = 2 is even,
    # so the unramified quadratic lives in the cyclotomic tower
    base = EllipticCurveQ(0, 1, 1, -9, -15)  # multiplicative at 19
    info = reduction_type(base, 19)
    assert info.kind in (ReductionKind.MULT_SPLIT, ReductionKind.MULT_NONSPLIT)
    if info.kind == ReductionKind.MULT_SPLIT:
        d = next(
            d
            for d in (-1, 2, 3, -2, 7, -7, 13)
            if kronecker_symbol(d, 19) == -1
        )
        E = quadratic_twist(base, d)
    else:
        E = base
    assert reduction_type(E, 19).kind == ReductionKind.MULT_NONSPLIT
    from iwk.padic import multiplicative_order

    assert multiplicative_order(19, 5) == 2
    assert torsion_in_cyclotomic_local(E, 19, 5) is True


def test_torsion_local_nonsplit_residue_criterion(corpus):
    # non-split at ell, p = 3 mod 4, -p a residue mod ell: always torsion-free
    from iwk.padic import multiplicative_order

    for label, E in corpus:
        for ell, info in reduction_summary(E).items():
            if info.kind != ReductionKind.MULT_NONSPLIT or ell == 2:
                continue
            for p in (3, 7, 11):
                if p == ell or E.discriminant % p == 0:
                    continue
                if p % 4 == 3 and kronecker_symbol(-p, ell) == 1:
                    assert not torsion_in_cyclotomic_local(E, ell, p), (label, ell, p)


def test_torsion_local_precondition(e5077):
    with pytest.raises(ValueError):
        torsion_in_cyclotomic_local(e5077, 2, 7)  # good reduction at 2


def test_potentially_multiplicative_primes(e5077, corpus):
    assert list(e5077.j_denominator_primes) == [5077]
    d = dict(corpus)
    assert list(d["27a1"].j_denominator_primes) == []
    assert list(d["14a1"].j_denominator_primes) == [2, 7]


def _smooth_point_count(E, ell):
    a = [x % ell for x in E.ainvs]
    smooth = 1  # infinity
    for x in range(ell):
        for y in range(ell):
            f = (
                y * y + a[0] * x * y + a[2] * y
                - (x**3 + a[1] * x * x + a[3] * x + a[4])
            ) % ell
            if f:
                continue
            fx = (a[0] * y - (3 * x * x + 2 * a[1] * x + a[3])) % ell
            fy = (2 * y + a[0] * x + a[2]) % ell
            if fx or fy:
                smooth += 1
    return smooth


def test_split_nonsplit_by_smooth_point_count(corpus):
    # a split fiber keeps ell - 1 smooth points, a nonsplit one ell + 1 and
    # an additive one ell; a third route independent of tangent directions
    # and residue symbols, on the corpus and on 300 seeded small models
    rng = random.Random(20221020)
    curves = [(label, E.minimal[0]) for label, E in corpus]
    while len(curves) < len(corpus) + 300:
        ainvs = (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
                 rng.randint(-200, 200), rng.randint(-200, 200))
        try:
            curves.append((ainvs, EllipticCurveQ(*ainvs).minimal[0]))
        except ValueError:
            continue
    offset = {ReductionKind.MULT_SPLIT: -1, ReductionKind.MULT_NONSPLIT: 1, ReductionKind.ADDITIVE: 0}
    checked = dict.fromkeys(offset, 0)
    for label, E in curves:
        for ell, info in reduction_summary(E).items():
            if ell <= 50:
                assert _smooth_point_count(E, ell) == ell + offset[info.kind], (label, ell, info.kind)
                checked[info.kind] += 1
    assert min(checked.values()) >= 100, checked


def _class_representative(cls, ell):
    """Squarefree integer in the given square class of Q_ell^x (odd ell)."""
    if cls == TwistClass.UNIT_SQUARE:
        return 1
    if cls == TwistClass.UNIT_NONSQUARE:
        d = 2
        while kronecker_symbol(d, ell) != -1 or d == ell:
            d += 1
        return d
    if cls == TwistClass.UNIFORMIZER_TIMES_SQUARE:
        return ell
    d = 2
    while kronecker_symbol(d, ell) != -1:
        d += 1
    return ell * d


def test_gamma_class_round_trip(corpus):
    # twisting by a representative of the reported class must yield split
    # multiplicative reduction: the defining property of gamma
    from sympy import factorint, nextprime, prevprime

    checked = 0
    for label, E in corpus:
        variants = [E.minimal[0]]
        for d in (-1, 3):
            variants.append(quadratic_twist(E, d))
        for V in variants:
            for ell, info in reduction_summary(V).items():
                if info.potentially != Potentially.POT_MULT or ell == 2:
                    continue
                rep = _class_representative(info.twist_class_gamma, ell)
                if any(e > 1 for e in factorint(abs(rep)).values()):
                    continue
                W = V if rep == 1 else quadratic_twist(V, rep)
                assert reduction_type(W, ell).kind == ReductionKind.MULT_SPLIT, (
                    label,
                    ell,
                    info.twist_class_gamma,
                )
                checked += 1
    assert checked >= 40


def test_twist_class_at_2():
    # 14a1 is non-split multiplicative at 2: gamma is a nontrivial unit class
    E = EllipticCurveQ(1, 0, 1, 4, -6)
    info = reduction_type(E, 2)
    assert info.kind == ReductionKind.MULT_NONSPLIT
    assert info.twist_class_gamma in (
        TwistClass.UNIT_NONSQUARE,
        TwistClass.UNIT_RAMIFIED,
    )
    # 26b1 is split at 2
    E26 = EllipticCurveQ(1, -1, 1, -3, 3)
    assert reduction_type(E26, 2).twist_class_gamma == TwistClass.UNIT_SQUARE


# Representatives of the eight classes of Q_2^x / (Q_2^x)^2 and the class
# each stands for, written out independently of the code under test.
_TWO_ADIC_CLASSES = {
    1: TwistClass.UNIT_SQUARE,
    5: TwistClass.UNIT_NONSQUARE,
    -1: TwistClass.UNIT_RAMIFIED,
    -5: TwistClass.UNIT_RAMIFIED,
    2: TwistClass.UNIFORMIZER_TIMES_SQUARE,
    10: TwistClass.UNIFORMIZER_TIMES_NONSQUARE,
    -2: TwistClass.UNIFORMIZER_TIMES_NONSQUARE,
    -10: TwistClass.UNIFORMIZER_TIMES_NONSQUARE,
}


def _gamma_at_2_by_trial_twist(E):
    """gamma at 2 the slow way: exactly one twist by a class representative
    is split multiplicative at 2, and gamma is that representative's class."""
    split = [
        d
        for d in _TWO_ADIC_CLASSES
        if reduction_type(quadratic_twist(E, d), 2).kind == ReductionKind.MULT_SPLIT
    ]
    assert len(split) == 1, split
    return _TWO_ADIC_CLASSES[split[0]]


def test_gamma_and_pot_mult_primes_on_random_curves():
    # gamma from -c6 against trial twisting at 2, and the primes of the
    # j-denominator against the bad primes of the minimal model with
    # v_ell(j) < 0, on random curves potentially multiplicative at 2, their
    # twists and random models of them
    rng = random.Random(20220330)
    seen = set()
    bases = 0
    while bases < 60:
        a = (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
             rng.randint(-60, 60), rng.randint(-60, 60))
        try:
            E = EllipticCurveQ(*a)
        except ValueError:
            continue
        if _j_valuation(E, 2) >= 0:
            continue
        bases += 1
        E_min = E.minimal[0]
        expected = [
            ell for ell in sorted(factorint(abs(E_min.discriminant)))
            if _j_valuation(E_min, ell) < 0
        ]
        assert list(E.j_denominator_primes) == expected, a
        u = rng.choice((1, 2, 3, 6))
        r, s, t = (rng.randint(-9, 9) for _ in range(3))
        model = transformed(E, Fraction(1, u), r, s, t)
        assert list(model.j_denominator_primes) == expected, (a, u, r, s, t)
        for d in _TWO_ADIC_CLASSES:
            V = quadratic_twist(E, d)
            assert list(V.j_denominator_primes) == expected, (a, d)
            gamma = reduction_type(V, 2).twist_class_gamma
            assert gamma == _gamma_at_2_by_trial_twist(V), (a, d)
            seen.add(gamma)
    assert seen == set(TwistClass)


def test_postconditions_survive_python_O():
    # a postcondition must not be a bare assert, which python -O strips
    code = (
        "from iwk.ecq import TraceRecord\n"
        "from iwk.errors import PostconditionFailed\n"
        "try:\n"
        "    TraceRecord(5, 5)\n"
        "except PostconditionFailed:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('Hasse bound violation went unnoticed')\n"
    )
    src = os.path.dirname(os.path.dirname(iwk.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
