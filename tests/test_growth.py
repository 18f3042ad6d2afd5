import itertools
import random

import pytest

from iwk.growth import (
    Comparison,
    GrowthClass,
    IwasawaInvariants,
    class_number_growth,
    compare,
    doubling_discrepancy_note,
    mordell_weil_bound,
)


def G(p, mu, lam):
    return GrowthClass(p, mu, lam)


def test_compare_examples():
    assert compare(G(5, 0, 2), G(5, 0, 2)) == Comparison.EQUIVALENT
    assert compare(G(5, 1, 0), G(5, 0, 100)) == Comparison.A_DOMINATES
    assert compare(G(5, 0, 3), G(5, 0, 2)) == Comparison.A_DOMINATES
    assert compare(G(5, 0, 2), G(5, 0, 3)) == Comparison.B_DOMINATES
    with pytest.raises(ValueError):
        compare(G(5, 0, 1), G(7, 0, 1))


def test_compare_total_order():
    rng = random.Random(41)
    classes = [G(5, rng.randint(0, 3), rng.randint(-3, 5)) for _ in range(12)]
    for a, b, c in itertools.product(classes, repeat=3):
        ab, ba = compare(a, b), compare(b, a)
        if ab == Comparison.EQUIVALENT:
            assert ba == Comparison.EQUIVALENT
        else:
            assert {ab, ba} == {Comparison.A_DOMINATES, Comparison.B_DOMINATES}
        if (
            compare(a, b) == Comparison.A_DOMINATES
            and compare(b, c) == Comparison.A_DOMINATES
        ):
            assert compare(a, c) == Comparison.A_DOMINATES


def test_class_number_growth_examples():
    assert class_number_growth(IwasawaInvariants(3, 0, 0)).mu_hat == 0
    g = class_number_growth(IwasawaInvariants(5, 1, 3))
    assert (g.mu_hat, g.lambda_hat) == (2, 6)
    g2 = class_number_growth(IwasawaInvariants(7, 0, 2))
    assert (g2.mu_hat, g2.lambda_hat) == (0, 4)
    assert doubling_discrepancy_note(7, 0, 2) is not None
    assert doubling_discrepancy_note(7, 0, 3) is None
    assert doubling_discrepancy_note(5, 0, 2) is None


def test_class_number_growth_additive_over_characters():
    rng = random.Random(42)
    for _ in range(30):
        p = rng.choice([3, 5, 7])
        per_char = [
            (rng.randint(0, 2), rng.randint(0, 4)) for _ in range(p - 1)
        ]
        total_mu = sum(m for m, _ in per_char)
        total_lam = sum(l for _, l in per_char)
        summed = class_number_growth(IwasawaInvariants(p, total_mu, total_lam))
        parts = [class_number_growth(IwasawaInvariants(p, m, l)) for m, l in per_char]
        assert summed.mu_hat == sum(g.mu_hat for g in parts)
        assert summed.lambda_hat == sum(g.lambda_hat for g in parts)


def test_euler_phi_prime_power():
    # mordell_weil_bound(0, m, p) is -phi(p^m)
    phis = [-mordell_weil_bound(0, m, p)[0] for p, m in ((7, 0), (3, 1), (3, 2), (7, 2))]
    assert phis == [1, 2, 6, 42]


def test_mordell_weil_examples():
    lower, g = mordell_weil_bound(3, 0, 7)
    assert lower == 2 and (g.mu_hat, g.lambda_hat) == (0, 4)
    lower0, g0 = mordell_weil_bound(0, 1, 5)
    assert lower0 == -4 and (g0.mu_hat, g0.lambda_hat) == (0, 0)
    assert "vacuous" in g0.label
    lower1, _ = mordell_weil_bound(10, 1, 3)
    assert lower1 == 8


def test_mordell_weil_consistent_with_doubling():
    rng = random.Random(43)
    for _ in range(50):
        p = rng.choice([3, 5, 7])
        m = rng.randint(0, 2)
        r = rng.randint(0, 12)
        lower, g_low = mordell_weil_bound(r, m, p)
        lam = max(lower, 0) + rng.randint(0, 3)
        g = class_number_growth(IwasawaInvariants(p, rng.randint(0, 2), lam))
        assert compare(g_low, g) != Comparison.A_DOMINATES


def test_invariants_validation():
    with pytest.raises(ValueError):
        IwasawaInvariants(5, -1, 0)
    inv = IwasawaInvariants(5, 0, 2, source="external-db:foo")
    assert "external-db:foo" in class_number_growth(inv).label
