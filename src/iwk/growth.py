"""Asymptotic growth classes mu_hat * p^n + lambda_hat * n + O(1).

The dominance order is decidable on this two-parameter family because p^n
beats every linear term: comparison is lexicographic in (mu_hat, lambda_hat).
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from ._record import Record
from .padic import _check_prime


class Comparison(enum.Enum):
    EQUIVALENT = "EQUIVALENT"
    A_DOMINATES = "A_DOMINATES"
    B_DOMINATES = "B_DOMINATES"


class GrowthClass(Record):
    _fields = ("p", "mu_hat", "lambda_hat", "label")

    def __init__(self, p: int, mu_hat: int, lambda_hat: int, label: str = ""):
        self.__dict__.update(p=p, mu_hat=mu_hat, lambda_hat=lambda_hat, label=label)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "mu_hat": str(self.mu_hat),
            "lambda_hat": str(self.lambda_hat),
            "provenance": self.label,
        }


class IwasawaInvariants(Record):
    """mu and lambda of a torsion Iwasawa module; always ingested, with the
    external provenance recorded verbatim."""

    _fields = ("p", "mu", "lam", "source")

    def __init__(self, p: int, mu: int, lam: int, source: str = ""):
        _check_prime(p)
        if mu < 0 or lam < 0:
            raise ValueError("invariants must be non-negative")
        self.__dict__.update(p=p, mu=mu, lam=lam, source=source)


def compare(a: GrowthClass, b: GrowthClass) -> Comparison:
    """Dominance order: exact lexicographic comparison on (mu_hat, lambda_hat)."""
    if a.p != b.p:
        raise ValueError("growth classes at different primes are incomparable")
    if (a.mu_hat, a.lambda_hat) == (b.mu_hat, b.lambda_hat):
        return Comparison.EQUIVALENT
    if (a.mu_hat, a.lambda_hat) > (b.mu_hat, b.lambda_hat):
        return Comparison.A_DOMINATES
    return Comparison.B_DOMINATES


def class_number_growth(inv: IwasawaInvariants) -> GrowthClass:
    """Doubling rule: the class-number exponent grows like 2(mu*p^n + lambda*n)."""
    return GrowthClass(
        inv.p,
        2 * inv.mu,
        2 * inv.lam,
        label=f"2*(mu*p^n + lambda*n) from {inv.source or 'ingested invariants'}",
    )


WORKED_EXAMPLE_CURVE = (0, 0, 1, -7, 6)  # minimal model of 5077.a1


def doubling_discrepancy_note(p: int, mu: int, lam: int) -> Optional[str]:
    """Known worked-example mismatch for curve 5077.a1 at p = 7.

    The published example quotes linear growth 2n for the trivial-character
    class-number exponent, while the doubling rule with (mu, lambda) = (0, 2)
    yields 4n.  Both are reported; neither is silently adopted.
    """
    if (p, mu, lam) == (7, 0, 2):
        return (
            "worked example for 5077.a1, p=7 quotes 2n but the doubling rule "
            "gives 4n; computed value kept, discrepancy flagged"
        )
    return None


def mordell_weil_bound(r_m: int, m: int, p: int) -> Tuple[int, GrowthClass]:
    """Lower bound lambda >= r_m - phi(p^m) and the induced linear growth class.

    Negative bounds are vacuous and clamp to the zero class.
    """
    _check_prime(p)
    if r_m < 0 or m < 0:
        raise ValueError("rank and level must be >= 0")
    lambda_lower = r_m - (1 if m == 0 else (p - 1) * p ** (m - 1))
    clamped = max(lambda_lower, 0)
    label = f"2*max(r_{m} - phi(p^{m}), 0)*n lower bound"
    if lambda_lower < 0:
        label += " (vacuous: negative coefficient clamped to 0)"
    return lambda_lower, GrowthClass(p, 0, 2 * clamped, label)

