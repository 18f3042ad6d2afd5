import functools
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
import sympy

from conftest import (
    CORPUS,
    X0_NUMERATOR,
    assert_x0_witness,
    check_c1_str_full_scan,
    psi_degrees,
    reconstruction_eea,
    scan_traces_to_bound,
    transformed,
    x0_point_fraction,
    x0_witness_point,
)
from iwk import conditions, ecq
from iwk.errors import BadReductionPrime, PostconditionFailed
from iwk.conditions import (
    CM_J_TABLE,
    Status,
    Verdict,
    check_c1_str,
    check_c2,
    check_c2_sufficient,
    check_c3,
)
from iwk.ecq import EllipticCurveQ, quadratic_twist
from iwk.padic import kronecker_symbol


def test_verdict_invariants():
    with pytest.raises(ValueError):
        Verdict(Status.FAILS, ())
    with pytest.raises(ValueError):
        Verdict(Status.INCONCLUSIVE, (), {})
    v = Verdict(Status.HOLDS, (), {"b": 1})
    assert v.to_json_dict()["status"] == "HOLDS"


def test_c2_worked_example(e5077):
    assert check_c2(e5077, 7).status == Status.HOLDS


def test_c2_split_always_fails(corpus):
    E11 = dict(corpus)["11a1"]
    for p in (3, 7):
        v = check_c2(E11, p)
        assert v.status == Status.FAILS
        assert v.witnesses[0][0] == 11


def test_c2_vacuous_when_potentially_good(corpus):
    E27 = dict(corpus)["27a1"]
    v = check_c2(E27, 5)
    assert v.status == Status.HOLDS
    assert v.parameters["primes_checked"] == []


def test_c2_bad_reduction_at_p(corpus):
    E11 = dict(corpus)["11a1"]
    with pytest.raises(BadReductionPrime):
        check_c2(E11, 11)
    with pytest.raises(ValueError):
        check_c2(E11, 2)


def test_c2_isomorphism_invariant(e5077):
    scaled = transformed(e5077, Fraction(1, 3), 0, 0, 0)
    assert check_c2(scaled, 7).status == check_c2(e5077, 7).status


def test_c2_sufficient_worked_example(e5077):
    assert check_c2_sufficient(e5077, 7).status == Status.HOLDS


def test_c2_sufficient_p_1_mod_4(corpus):
    E11 = dict(corpus)["11a1"]
    v = check_c2_sufficient(E11, 5)
    assert v.status == Status.INCONCLUSIVE
    assert "not 3 mod 4" in v.parameters["reason"]


def test_c2_sufficient_split_witness_inconclusive(corpus):
    # split prime: the sufficient test cannot conclude, the full test fails
    E11 = dict(corpus)["11a1"]
    assert check_c2_sufficient(E11, 7).status == Status.INCONCLUSIVE
    assert check_c2(E11, 7).status == Status.FAILS


def test_c2_sufficient_implies_c2(corpus):
    for label, E in corpus:
        for p in (3, 7):
            if E.discriminant % p == 0:
                continue
            if check_c2_sufficient(E, p).status == Status.HOLDS:
                assert check_c2(E, p).status == Status.HOLDS, (label, p)


def test_c1_str_worked_example(e5077):
    v = check_c1_str(e5077, 7, 10**4)
    assert v.status == Status.HOLDS
    assert len(v.witnesses) == 4


def test_c1_str_monotone_in_bound(e5077):
    small = check_c1_str(e5077, 7, 100)
    if small.status == Status.HOLDS:
        assert check_c1_str(e5077, 7, 10**4).status == Status.HOLDS


def test_c1_str_seven_isogeny_fails():
    E = EllipticCurveQ(1, -1, 1, -3, 3)  # rational 7-isogeny
    v = check_c1_str(E, 7)
    assert v.status == Status.FAILS
    assert v.witnesses == ((7, "rational 7-isogeny: X_0(7) point t = -13/2"),)


def test_c1_str_zero_budget(e5077):
    v = check_c1_str(e5077, 7, 0)
    assert v.status == Status.INCONCLUSIVE
    assert v.parameters["prime_bound"] == 0


def test_c1_str_never_fails_for_large_p(e5077, corpus):
    # for p > 7 psi_p is not factored, so CM is the only negative
    # certificate: a non-CM curve gets HOLDS or INCONCLUSIVE there
    v = check_c1_str(e5077, 11, 200)
    assert v.status in (Status.HOLDS, Status.INCONCLUSIVE)
    d = dict(corpus)
    for label, p in (("27a1", 11), ("121b1", 13)):
        v = check_c1_str(d[label], p)
        assert v.status == Status.FAILS and v.witnesses[0][0] == p, label
        assert v.witnesses[0][1].startswith("CM by discriminant"), label


def test_c1_str_small_p3(e5077):
    v = check_c1_str(e5077, 3, 10**3)
    assert v.status in (Status.HOLDS, Status.FAILS, Status.INCONCLUSIVE)
    if v.status == Status.HOLDS:
        assert any("vacuous" in w[1] for w in v.witnesses)


def test_c3_non_cm(e5077):
    v = check_c3(e5077)
    assert v.status == Status.HOLDS and v.parameters["cm"] is False


def test_c3_maximal_orders(corpus):
    d = dict(corpus)
    # j = 0 (disc -3), j = 1728 (disc -4), disc -7, disc -11
    for label, disc in (("27a1", -3), ("32a1", -4), ("49a1", -7), ("121b1", -11)):
        v = check_c3(d[label])
        assert v.status == Status.HOLDS and v.parameters["cm_disc"] == disc, label


def test_c3_non_maximal_orders():
    # the four non-maximal rational CM orders, by their standard curves
    curves = {
        -12: EllipticCurveQ(0, 0, 0, -15, 22),       # j = 54000
        -16: EllipticCurveQ(0, 0, 0, -11, -14),      # j = 287496
        -27: EllipticCurveQ(0, 0, 1, -30, 63),       # j = -12288000
        -28: EllipticCurveQ(1, -1, 0, -37, -78),     # j = 16581375
    }
    expected_j = {-12: 54000, -16: 287496, -27: -12288000, -28: 16581375}
    for disc, E in curves.items():
        assert Fraction(*E.j_invariant) == expected_j[disc], disc
        v = check_c3(E)
        assert v.status == Status.FAILS and v.parameters["cm_disc"] == disc


def test_c3_twist_invariance():
    # CM status depends only on j, hence is twist-invariant
    E = EllipticCurveQ(0, 0, 0, -15, 22)
    assert check_c3(quadratic_twist(E, -7)).status == Status.FAILS


def _cm_curves():
    """A curve for each of the 13 rational CM j-invariants, with its
    quadratic twists by -1, 5 and -7."""
    for j, disc, _ in CM_J_TABLE:
        if j == 0:
            E = EllipticCurveQ(0, 0, 0, 0, 1)
        elif j == 1728:
            E = EllipticCurveQ(0, 0, 0, -1, 0)
        else:
            k = j * (j - 1728)
            E = EllipticCurveQ(0, 0, 0, -3 * k, -2 * k * (j - 1728))
        assert Fraction(*E.j_invariant) == j
        for d in (1, -1, 5, -7):
            yield disc, E if d == 1 else quadratic_twist(E, d)


def test_c1_str_cm_cartan_oracle():
    # a CM image lies in the normalizer of the Cartan subgroup named by
    # (D/p), so no trace ever rules that class out; check_c1_str says FAILS
    pairs = 0
    for disc, E in _cm_curves():
        for p in (3, 5, 7, 11, 13, 17, 19):
            try:
                E_min = conditions._require_good_odd_p(E, p)
            except BadReductionPrime:
                continue
            chi = kronecker_symbol(disc, p)
            assert chi != 0, (E.ainvs, p)
            cls = "split" if chi == 1 else "nonsplit"
            found = {c: None for c in conditions._WITNESS_CLASSES}
            conditions._scan_traces(E_min, p, found, 3, 2001)
            assert found[f"{cls}_cartan_normalizer"] is None, (E.ainvs, p)
            v = check_c1_str(E, p)
            assert v.status == Status.FAILS, (E.ainvs, p)
            assert v.witnesses == (
                (p, f"CM by discriminant {disc}: image in the normalizer of the {cls} Cartan"),
            ), (E.ainvs, p)
            pairs += 1
    assert pairs == 224


def test_c1_str_reads_cm_before_any_trace(monkeypatch):
    # CM decides C1 by a table lookup: with every point count refused, each
    # CM pair at a good p <= 19 still FAILS with its Cartan witness and the
    # bound it was given as its budget
    def no_count(E, ell):
        raise AssertionError(f"a_{ell} counted on a CM curve")

    for module in (ecq, conditions):
        monkeypatch.setattr(module, "count_points_ap", no_count)
    pairs = 0
    for disc, E in _cm_curves():
        for p in (3, 5, 7, 11, 13, 17, 19):
            if E.minimal[0].discriminant % p == 0:
                continue
            cls = "split" if kronecker_symbol(disc, p) == 1 else "nonsplit"
            for bound in (0, 127, conditions.DEFAULT_PRIME_BOUND):
                assert check_c1_str(E, p, bound).to_json_dict() == {
                    "status": "FAILS",
                    "witnesses": [{"prime": p, "detail": f"CM by discriminant {disc}: "
                                   f"image in the normalizer of the {cls} Cartan"}],
                    "budget": {"prime_bound": bound},
                }, (E.ainvs, p, bound)
            pairs += 1
    assert pairs == 224


def test_c1_scan_memory_does_not_grow_with_p():
    # (D/p) is Euler's criterion on D, with no table of residues mod p: a
    # verdict at p = 1,000,003 peaked at 34 MiB with the set of squares
    E = EllipticCurveQ(0, 0, 1, -7, 6)  # 5077a1
    tracemalloc.start()
    try:
        assert check_c1_str(E, 1000003, 200).status == Status.HOLDS
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_c1_str_cm_disc_at_good_p_raises(monkeypatch, corpus):
    # CM curves over Q are bad at the primes ramified in their field, so a
    # table row whose discriminant a good p divides is a fault, not a verdict
    monkeypatch.setattr(conditions, "CM_J_TABLE", ((0, -15, True),))
    with pytest.raises(PostconditionFailed):
        check_c1_str(dict(corpus)["27a1"], 5)


def test_cm_table_shape():
    assert len(CM_J_TABLE) == 13
    assert sum(1 for _, _, maximal in CM_J_TABLE if not maximal) == 4
    assert len({j for j, _, _ in CM_J_TABLE}) == 13


# ---------------------------------------------------------------------------
# Division polynomials against their former symbolic construction.


def _symbolic_division_polynomial(A, B, n):
    """psi_n (n odd) of y^2 = x^3 + Ax + B by symbolic recurrences in x, y."""
    x, y = sympy.symbols("x y")
    f = x**3 + A * x + B
    psi = {0: sympy.Integer(0), 1: sympy.Integer(1), 2: 2 * y}
    psi[3] = 3 * x**4 + 6 * A * x**2 + 12 * B * x - A**2
    psi[4] = 4 * y * (
        x**6 + 5 * A * x**4 + 20 * B * x**3 - 5 * A**2 * x**2 - 4 * A * B * x
        - 8 * B**2 - A**3
    )

    def reduce_y(expr):
        return sympy.expand(sympy.expand(expr).subs(y**4, f * f).subs(y**2, f))

    def get(m):
        if m in psi:
            return psi[m]
        k = m // 2
        if m % 2 == 1:
            val = get(k + 2) * get(k) ** 3 - get(k - 1) * get(k + 1) ** 3
        else:
            val = sympy.cancel(
                get(k) * (get(k + 2) * get(k - 1) ** 2 - get(k - 2) * get(k + 1) ** 2) / (2 * y)
            )
        psi[m] = reduce_y(val)
        return psi[m]

    return sympy.Poly(reduce_y(get(n)), x)


def test_integer_division_polynomial_matches_symbolic():
    rng = random.Random(20220330)
    cases = [(0, 1), (1, 0), (-1, 0), (0, -432)]
    cases += [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(4)]
    for A, B in cases:
        for n in (3, 5, 7):
            expected = _symbolic_division_polynomial(A, B, n).all_coeffs()[::-1]
            got = conditions._division_polynomial_x(A, B, n)
            assert all(type(c) is int for c in got), (A, B, n)
            assert got == expected, (A, B, n)
            assert got[-1] == n and len(got) - 1 == (n * n - 1) // 2
    # only psi_3, psi_5 and psi_7 are written out; no other n gets one of them
    for n in (1, 2, 4, 9):
        with pytest.raises(ValueError):
            conditions._division_polynomial_x(-3, 5, n)


# ---------------------------------------------------------------------------
# The trace scan runs before psi_p is factored; verdicts match factoring first.


def _check_c1_str_factor_first(E, p, prime_bound):
    """check_c1_str as it was when psi_p (p <= 7) was factored before any scan."""
    E_min = conditions._require_good_odd_p(E, p)
    params = {"prime_bound": prime_bound}
    if p <= 7:
        degrees = conditions._division_poly_reducible(E_min, p)
        if degrees is not None:
            return Verdict(
                Status.FAILS,
                ((p, f"division polynomial factors with degrees {degrees}"),),
                params,
            )
    found = {c: None for c in conditions._WITNESS_CLASSES}
    if p == 3:
        found["exceptional"] = (0, "vacuous for p = 3")
    scan_traces_to_bound(E_min, p, found, 3, prime_bound + 1)
    if all(found.values()):
        witnesses = tuple((ell, f"{cls}: {detail}") for cls, (ell, detail) in found.items())
        return Verdict(Status.HOLDS, witnesses, params)
    missing = [c for c, w in found.items() if w is None]
    return Verdict(Status.INCONCLUSIVE, (), {**params, "unresolved_classes": missing})


def test_c1_str_scan_first_matches_factor_first(corpus, monkeypatch):
    # a HOLDS verdict means a surjective image, which is transitive on the
    # x-coordinates of E[p] - 0, so psi_p is irreducible there: scanning
    # before factoring cannot change any verdict.  A CM curve FAILS either
    # way and a point on X_0(p) splits psi_p, so reading them first changes
    # only the witness of a FAILS verdict.  Both sides share one
    # factorization of each psi_p.
    monkeypatch.setattr(
        conditions, "_division_poly_reducible",
        functools.lru_cache(maxsize=None)(conditions._division_poly_reducible),
    )
    rng = random.Random(20221018)
    d = dict(corpus)
    # a rational 5-isogeny, CM, a rational 7-isogeny
    curves = [d["11a1"], d["27a1"], EllipticCurveQ(1, -1, 1, -3, 3)]
    while len(curves) < 43:
        try:
            curves.append(EllipticCurveQ(*(rng.randint(-9, 9) for _ in range(5))))
        except ValueError:
            continue
    seen = set()
    cm_decided = 0
    rewitnessed = Counter()
    for E in curves:
        for p in (3, 5, 7):
            for bound in (0, 60, 1000):
                try:
                    expected = _check_c1_str_factor_first(E, p, bound).to_json_dict()
                except BadReductionPrime:
                    with pytest.raises(BadReductionPrime):
                        check_c1_str(E, p, bound)
                    continue
                got = check_c1_str(E, p, bound).to_json_dict()
                cm = conditions.cm_order(E)
                if expected["status"] == "INCONCLUSIVE" and cm is not None:
                    # the CM certificate decides what the scan leaves open
                    assert got["status"] == "FAILS", (E.ainvs, p, bound)
                    assert got["witnesses"][0]["prime"] == p
                    assert got["witnesses"][0]["detail"].startswith(
                        f"CM by discriminant {cm[0]}: image in the normalizer of the "
                    ), (E.ainvs, p, bound)
                    cm_decided += 1
                elif got != expected:
                    # the same FAILS verdict and budget, with a CM or an X_0(p)
                    # witness in place of the split psi_p
                    assert expected["status"] == "FAILS", (E.ainvs, p, bound)
                    assert {**got, "witnesses": None} == {**expected, "witnesses": None}
                    assert expected["witnesses"][0]["detail"].startswith("division polynomial")
                    [witness] = got["witnesses"]
                    assert witness["prime"] == p
                    if cm is not None:
                        assert witness["detail"].startswith(f"CM by discriminant {cm[0]}: ")
                        rewitnessed["CM"] += 1
                    else:
                        t = Fraction(*conditions._x0_point(E.j_invariant, p))
                        assert witness["detail"] == f"rational {p}-isogeny: X_0({p}) point t = {t}"
                        rewitnessed["X_0"] += 1
                seen.add(expected["status"])
    assert seen == {"HOLDS", "FAILS", "INCONCLUSIVE"}
    assert cm_decided and rewitnessed["CM"] and rewitnessed["X_0"], rewitnessed


# ---------------------------------------------------------------------------
# The trace scan at p = 3 ends once Borel and split have witnesses.


def test_no_trace_witnesses_nonsplit_cartan_at_3():
    # a != 0 mod 3 gives a^2 - 4 ell = 1 - ell in {0, 2} mod 3, never a
    # nonzero square, at every residue of ell prime to 3
    for a in (1, 2):
        for ell in (1, 2):
            assert kronecker_symbol((a * a - 4 * ell) % 3, 3) != 1, (a, ell)
    # for p >= 5 each class has residues (a, ell) that witness it
    for p in (5, 7, 11, 13):
        chis = {
            (a != 0, kronecker_symbol((a * a - 4 * ell) % p, p))
            for a in range(p) for ell in range(1, p)
        }
        assert {(True, 1), (True, -1)} <= chis, p


def test_c1_str_stop_rule_matches_full_scan(monkeypatch):
    # check_c1_str against the scan that runs to the bound, byte for byte:
    # the standard curves at every good p <= 13 and the default bound, and
    # seeded curves at p = 3, 5, 7 and bounds on both sides of
    # ecq._SHANKS_MESTRE_FROM.  One curve object serves every p; the reference
    # counts on an object of its own.  Both sides share one factorization
    # of each psi_p.
    monkeypatch.setattr(
        conditions, "_division_poly_reducible",
        functools.lru_cache(maxsize=None)(conditions._division_poly_reducible),
    )
    rng = random.Random(20261021)
    runs = [(EllipticCurveQ(*a), (3, 5, 7, 11, 13), conditions.DEFAULT_PRIME_BOUND) for _, a in CORPUS]
    while len(runs) < len(CORPUS) + 300:
        try:
            E = EllipticCurveQ(*(rng.randint(-9, 9) for _ in range(5)))
        except ValueError:
            continue
        runs.append((E, (3, 5, 7), rng.choice((0, 13, 60, 127, 128, 1000))))
    # a HOLDS verdict whose last witness is at ell = 73
    late = EllipticCurveQ(8, 32, 13, 23, 48)
    runs.append((late, (5,), conditions.DEFAULT_PRIME_BOUND))
    statuses = Counter()
    for E, primes, bound in runs:
        E_ref = EllipticCurveQ(*E.ainvs)
        for p in primes:
            try:
                got = json.dumps(check_c1_str(E, p, bound).to_json_dict(), sort_keys=True)
            except BadReductionPrime:
                with pytest.raises(BadReductionPrime):
                    check_c1_str_full_scan(E_ref, p, bound)
                continue
            expected = check_c1_str_full_scan(E_ref, p, bound).to_json_dict()
            assert got == json.dumps(expected, sort_keys=True), (E.ainvs, p, bound)
            statuses[p, expected["status"], tuple(expected["budget"].get("unresolved_classes", ()))] += 1
    # at p = 3: INCONCLUSIVE with the nonsplit class alone open, and with
    # Borel or split open as well at the small bounds
    open_at_3 = {classes for (p, status, classes) in statuses if p == 3 and status == "INCONCLUSIVE"}
    assert ("nonsplit_cartan_normalizer",) in open_at_3
    assert any(len(classes) > 1 for classes in open_at_3), open_at_3
    assert {status for (_, status, _) in statuses} == {"HOLDS", "FAILS", "INCONCLUSIVE"}
    verdict = check_c1_str(late, 5)
    assert verdict.status == Status.HOLDS
    assert max(ell for ell, _ in verdict.witnesses) == 73


def _twist_parameters(rng, count):
    ds = []
    while len(ds) < count:
        d = rng.choice((-1, 1)) * rng.randint(2, 60)
        if d not in ds and all(d % (q * q) for q in range(2, 8)):
            ds.append(d)
    return ds


def test_c1_str_twist_invariance():
    # a_ell(E^d) = chi_d(ell) a_ell(E) leaves a^2 and whether a = 0 as they
    # are, and E^d has E's j, so CM and points on X_0(p) do not change and
    # psi_p of E^d is psi_p of E with x scaled.  So at each p good for both
    # the C1 status agrees, and at p = 3, where the scan runs to the bound
    # unless Borel and split have witnesses, so do the open classes.
    rng = random.Random(20261022)
    ds = _twist_parameters(rng, 10)
    cases = Counter()
    for _, a in CORPUS:
        E = EllipticCurveQ(*a)
        for d in ds:
            E_tw = quadratic_twist(E, d)
            for p in (3, 5, 7):
                if E.discriminant % p == 0 or E_tw.discriminant % p == 0:
                    continue
                v, v_tw = check_c1_str(E, p), check_c1_str(E_tw, p)
                assert v.status == v_tw.status, (a, d, p)
                if p == 3:
                    assert v.parameters.get("unresolved_classes") == v_tw.parameters.get(
                        "unresolved_classes"
                    ), (a, d)
                cases[p, v.status] += 1
    assert sum(cases.values()) > 300
    assert {status for (_, status) in cases} == {Status.HOLDS, Status.FAILS, Status.INCONCLUSIVE}


# ---------------------------------------------------------------------------
# Points on X_0(p) against psi_p and against the curves they are built from.


def test_x0_witness_oracle_seeded():
    # every X_0(p) witness on seeded small curves satisfies N(t) = j t and
    # has the kernel polynomial of its p-isogeny among the factors of psi_p
    rng = random.Random(20261020)
    curves = []
    while len(curves) < 300:
        try:
            curves.append(EllipticCurveQ(*(rng.randint(-3, 3) for _ in range(5))))
        except ValueError:
            continue
    witnesses = Counter()
    for E in curves:
        for p in (3, 5, 7):
            try:
                v = check_c1_str(E, p, 127)
            except BadReductionPrime:
                continue
            detail = v.witnesses[0][1] if v.status == Status.FAILS else ""
            if "X_0(" in detail:
                assert_x0_witness(E.minimal[0], p, detail)
                witnesses[p] += 1
    assert witnesses[3] >= 10 and witnesses[5] >= 1, witnesses


def _j_family(j_of_t, p):
    """(t, curve) for t = a/b with 0 < |a| <= 12, b <= 3 and j = j_of_t(t)
    not 0 or 1728: y^2 = x^3 - 3j(j - 1728)x - 2j(j - 1728)^2 with
    denominators cleared, twisted by the first d in (1, -1, 2, -2, 3, -3,
    6, -6) whose minimal model is good at p; t is skipped when there is
    none."""
    for b in (1, 2, 3):
        for a in range(-12, 13):
            t = Fraction(a, b)
            if a == 0 or gcd(a, b) != 1:
                continue
            j = j_of_t(t)
            if j in (0, 1728):
                continue
            n, d = j.numerator, j.denominator
            k = n * (n - 1728 * d)
            E = EllipticCurveQ(0, 0, 0, -3 * k * d**2, -2 * k * (n - 1728 * d) * d**3)
            assert Fraction(*E.j_invariant) == j
            for tw in (1, -1, 2, -2, 3, -3, 6, -6):
                E_tw = E if tw == 1 else quadratic_twist(E, tw)
                if E_tw.minimal[0].discriminant % p:
                    yield t, E_tw
                    break


def _x0_family(p):
    """_j_family over X_0(p): j = N(t)/t."""
    return _j_family(lambda t: X0_NUMERATOR[p](t) / t, p)


def test_x0_family_oracle():
    # a curve built from a point of X_0(p) has a rational p-isogeny, so it
    # FAILS with an X_0(p) witness: a point over its j of least |t|
    good = Counter()
    for p in (3, 5, 7):
        for t, E in _x0_family(p):
            v = check_c1_str(E, p, 127)
            assert v.status == Status.FAILS and len(v.witnesses) == 1, (t, p, v)
            u = x0_witness_point(p, v.witnesses[0][1])
            assert X0_NUMERATOR[p](u) == Fraction(*E.j_invariant) * u, (t, p, u)
            assert (abs(u), u) <= (abs(t), t), (t, p, u)
            good[p] += 1
    # 24, 32 and 38 of the points give a curve good at p
    assert min(good[p] for p in (3, 5, 7)) >= 20, good


def test_rational_reconstruction_normalises_the_sign():
    # -1 mod m stops the Euclidean algorithm at (1, -1), which is -1/1
    m = 2**20
    assert reconstruction_eea(m - 1, m, 10) == (1, -1)
    assert conditions._rational_reconstruction(m - 1, m, 10) == (-1, 1)
    # and a negative b with a common factor: 4/-74898 is -2/37449
    assert reconstruction_eea(14, m, 10) == (4, -74898)
    assert conditions._rational_reconstruction(14, m, 10) == (-2, 37449)


def test_x0_point_matches_fraction_reference(monkeypatch):
    # the integer search against the Fraction one it replaced: the same point,
    # rendered the same, or None, at p = 3, 5, 7 on 500 seeded small curves,
    # the standard curves and the members of the X_0(p) families; and each
    # reconstruction is the Fraction its Euclidean algorithm stops at.  The
    # reference breaks ties in |t| by t, and the search need not: N has
    # positive coefficients, so N(t) + N(-t) > 0 and t, -t never lie over
    # one j
    assert all(c > 0 for p in (3, 5, 7) for c in conditions._X0_NUMERATOR[p])
    reconstructions = []
    reconstruct = conditions._rational_reconstruction

    def recording(r, m, H):
        pair = reconstruct(r, m, H)
        reconstructions.append((reconstruction_eea(r, m, H), pair))
        return pair

    monkeypatch.setattr(conditions, "_rational_reconstruction", recording)
    rng = random.Random(20261023)
    curves = [EllipticCurveQ(*a) for _, a in CORPUS]
    while len(curves) < len(CORPUS) + 500:
        try:
            curves.append(EllipticCurveQ(*(rng.randint(-9, 9) for _ in range(5))))
        except ValueError:
            continue
    for p in (3, 5, 7):
        curves.extend(E for _, E in _x0_family(p))
    cases = Counter()
    for E in curves:
        j = E.j_invariant
        if j in ((0, 1), (1728, 1)):  # CM, where F has no simple roots
            continue
        for p in (3, 5, 7):
            t = conditions._x0_point(j, p)
            expected = x0_point_fraction(Fraction(*j), p)
            if expected is None:
                assert t is None, (E.ainvs, p, t)
                cases["none"] += 1
                continue
            assert t == (expected.numerator, expected.denominator), (E.ainvs, p, t)
            assert conditions._ratio_str(*t) == str(expected), (E.ainvs, p, t)
            cases["b = 1" if t[1] == 1 else "b > 1"] += 1
            cases["negative n"] += j[0] < 0
    for (r1, s1), pair in reconstructions:
        t = Fraction(r1, s1)
        assert pair == (t.numerator, t.denominator), (r1, s1, pair)
        cases["negative b"] += s1 < 0
    assert all(cases[c] >= 10 for c in ("none", "b = 1", "b > 1", "negative n", "negative b")), cases


# ---------------------------------------------------------------------------
# psi_3 is left unfactored exactly when Delta is not a cube.


def _recording_certificate(monkeypatch):
    """_negative_certificate at p = 3, with the curves it hands to
    _division_poly_reducible recorded in the list returned beside it."""
    factored = []
    reducible = conditions._division_poly_reducible

    def counting_reducible(E_min, p):
        factored.append(E_min)
        return reducible(E_min, p)

    monkeypatch.setattr(conditions, "_division_poly_reducible", counting_reducible)
    return lambda E_min: conditions._negative_certificate(E_min, 3), factored


def _is_cube(n):
    return sympy.integer_nthroot(abs(n), 3)[1]


def test_psi3_skipped_only_where_irreducible(monkeypatch):
    # on 400 seeded small curves good at 3 with neither CM nor a point on
    # X_0(3), psi_3 is left unfactored exactly when Delta is not a cube, and
    # then sympy finds it irreducible.  All 400 are skipped here; the
    # families below have cube Deltas
    certificate, factored = _recording_certificate(monkeypatch)
    rng = random.Random(20261021)
    tested = skipped = 0
    while tested < 400:
        try:
            E_min = EllipticCurveQ(*(rng.randint(-9, 9) for _ in range(5))).minimal[0]
        except ValueError:
            continue
        if E_min.discriminant % 3 == 0 or conditions.cm_order(E_min) is not None:
            continue
        if conditions._x0_point(E_min.j_invariant, 3) is not None:
            continue
        before = len(factored)
        witness = certificate(E_min)
        tested += 1
        if len(factored) == before:
            assert witness is None and not _is_cube(E_min.discriminant), E_min.ainvs
            assert psi_degrees(E_min, 3) == [4], E_min.ainvs
            skipped += 1
        else:
            assert _is_cube(E_min.discriminant), E_min.ainvs
    assert skipped == 400


def test_psi3_factored_on_cartan_normalizer_families(monkeypatch):
    # j = t^3 is the image in the normalizer of the nonsplit Cartan mod 3 and
    # j = 27(t + 1)^3(t - 3)^3 / t^3 in that of the split one (Zywina,
    # arXiv:1508.07660, Thm 1.2); on the split family psi_3 splits 2 + 2 with
    # no rational root.  Delta is a cube on both, so every non-CM member
    # without a point on X_0(3) has its psi_3 factored, and the witness
    # follows sympy's factor degrees.
    certificate, factored = _recording_certificate(monkeypatch)
    families = {
        "nonsplit": lambda t: t**3,
        "split": lambda t: 27 * (t + 1) ** 3 * (t - 3) ** 3 / t**3,
    }
    seen = Counter()
    for name, j_of_t in families.items():
        for t, E in _j_family(j_of_t, 3):
            E_min = E.minimal[0]
            if conditions.cm_order(E_min) is not None:
                continue
            degrees = psi_degrees(E_min, 3)
            if name == "split":
                assert degrees == [2, 2], (t, degrees)
            assert _is_cube(E_min.discriminant), (name, t)
            if conditions._x0_point(E_min.j_invariant, 3) is not None:
                continue
            before = len(factored)
            witness = certificate(E_min)
            assert len(factored) == before + 1, (name, t)
            if degrees == [4]:
                assert witness is None, (name, t)
            else:
                assert witness == (3, f"division polynomial factors with degrees {degrees}")
            seen[name, tuple(degrees)] += 1
    # 24 irreducible and 1 split psi_3 on the nonsplit family, 16 split on
    # the split one
    assert seen[("nonsplit", (4,))] >= 20 and seen[("split", (2, 2))] >= 15, seen


def test_x0_point_raises_without_a_separating_prime(monkeypatch):
    # at j = 0, F = (t + 27)(t + 3)^3 on X_0(3): -3 is a repeated root mod
    # every prime, so none will do, and with no prime below the cap the
    # search raises for any j; it never returns a silent None.  The message
    # names j as str(Fraction) renders it
    monkeypatch.setattr(conditions, "_X0_PRIME_CAP", 50)
    with pytest.raises(PostconditionFailed, match="over j = 0$"):
        conditions._x0_point((0, 1), 3)
    monkeypatch.setattr(conditions, "_X0_PRIME_CAP", 2)
    with pytest.raises(PostconditionFailed, match="over j = -2146689/1664$"):
        conditions._x0_point((-2146689, 1664), 7)


def test_x0_point_needs_no_sympy():
    # the root finder lifts roots mod a small prime: no integer is factored
    # and no polynomial, so sympy is never loaded, and each point is a
    # reduced integer pair, so `fractions` is not either
    import os
    import subprocess
    import sys

    code = (
        "import sys\n"
        "from iwk.conditions import _x0_point\n"
        "assert _x0_point((-2146689, 1664), 7) == (-13, 2)\n"
        "assert _x0_point((-122023936, 161051), 5) == (-1, 11)\n"
        "assert _x0_point((-1, 1), 3) is None\n"
        "assert 'sympy' not in sys.modules and 'fractions' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(conditions.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
