"""Constructive quadratic twist forcing the local-torsion condition.

Classifies the potentially multiplicative primes by local torsion and
cyclotomic-degree parity, then searches for an auxiliary prime q = 1 mod 4
meeting a sign table of Legendre constraints and a mod-8 branch; the
resulting twist parameter q * N1* is re-verified through the checker, which
is the only trusted oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import PostconditionFailed, SearchExhausted
from .padic import isprime, kronecker_symbol, multiplicative_order
from .padic import sympy  # noqa: F401  (bench/tracer.py patches this name)
from .conditions import Status, check_c2, _require_good_odd_p
from .ecq import EllipticCurveQ, quadratic_twist

DEFAULT_SEARCH_BOUND = 10**5


def _star(ell: int) -> int:
    """ell* = (-1)^((ell-1)/2) * ell for odd ell; 2* = 2."""
    if ell == 2:
        return 2
    return ell if ell % 4 == 1 else -ell


@dataclass(frozen=True)
class TwistCertificate:
    """Full transcript of the construction; `validate` re-checks every
    constraint the chosen q must satisfy."""

    p: int
    S: Tuple[int, ...]
    S0: Tuple[int, ...]
    S1: Tuple[int, ...]
    N1_star: int
    epsilon: Dict[int, int] = field(default_factory=dict)
    q: Optional[int] = None
    mod8_case: str = "none"
    d: int = 1

    @property
    def trivial(self) -> bool:
        return self.d == 1

    def validate(self) -> None:
        S, S0, S1 = set(self.S), set(self.S0), set(self.S1)
        if S0 & S1:
            raise PostconditionFailed("S0 and S1 must be disjoint")
        if not (S0 <= S and S1 <= S):
            raise PostconditionFailed("S0, S1 must be subsets of S")
        n1 = 1
        for ell in sorted(S1):
            n1 *= _star(ell)
        if n1 != self.N1_star:
            raise PostconditionFailed("N1* does not match S1")
        if self.trivial:
            return
        q = self.q
        if q is None or not isprime(q) or q % 4 != 1:
            raise PostconditionFailed("q must be a prime = 1 mod 4")
        if self.d != q * self.N1_star:
            raise PostconditionFailed("d must equal q * N1*")
        prod = self.p
        for ell in S:
            prod *= ell
        if math.gcd(q, prod) != 1:
            raise PostconditionFailed("q must be coprime to p and to S")
        for ell in sorted(S - S1):
            if ell == 2:
                continue
            eps = self.epsilon[ell]
            want = -eps if ell in S0 else eps
            if kronecker_symbol(q, ell) != want:
                raise PostconditionFailed(f"Legendre sign at {ell} violated")
        if 2 in S - (S0 | S1) and (q * self.N1_star) % 8 != 1:
            raise PostconditionFailed("q*N1* must be 1 mod 8")
        if 2 in S0 and (q * self.N1_star) % 8 != 5:
            raise PostconditionFailed("q*N1* must be 5 mod 8")

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "S": list(self.S),
            "S0": list(self.S0),
            "S1": list(self.S1),
            "N1_star": self.N1_star,
            "epsilon": {str(k): v for k, v in sorted(self.epsilon.items())},
            "q": self.q,
            "mod8_case": self.mod8_case,
            "d": self.d,
        }


def construct_c2_twist(
    E: EllipticCurveQ, p: int, search_bound: int = DEFAULT_SEARCH_BOUND
) -> Tuple[EllipticCurveQ, TwistCertificate]:
    """Produce a twist of E satisfying the local-torsion condition, with a
    machine-checkable certificate; the checker re-verifies the result."""
    E_min = _require_good_odd_p(E, p)
    verdict = check_c2(E_min, p)
    S = tuple(verdict.parameters["primes_checked"])
    if verdict.status == Status.HOLDS:
        cert = TwistCertificate(p=p, S=S, S0=(), S1=(), N1_star=1, d=1, mod8_case="trivial")
        cert.validate()
        return E_min, cert

    # the witnesses are the primes of S that keep p-torsion locally
    S0: List[int] = []
    S1: List[int] = []
    for ell, _ in verdict.witnesses:
        if multiplicative_order(ell, p) % 2 == 0:
            S1.append(ell)
        else:
            S0.append(ell)
    N1_star = 1
    for ell in S1:
        N1_star *= _star(ell)
    epsilon: Dict[int, int] = {}
    for ell in S:
        if ell in S1 or ell == 2:
            continue
        eps = 1
        for lp in S1:
            eps *= kronecker_symbol(_star(lp), ell)
        epsilon[ell] = eps

    if 2 in S and 2 not in S0 and 2 not in S1:
        mod8_case, mod8_target = "2 in S outside S0 and S1: q*N1* = 1 mod 8", 1
    elif 2 in S0:
        mod8_case, mod8_target = "2 in S0: q*N1* = 5 mod 8", 5
    elif 2 in S1:
        mod8_case, mod8_target = "2 in S1: no mod-8 constraint", None
    else:
        mod8_case, mod8_target = "2 not in S: no mod-8 constraint", None

    modulus_primes = [p] + [ell for ell in S]
    q = None
    candidate = 5
    while candidate <= search_bound:
        if (
            candidate % 4 == 1
            and all(candidate % ell for ell in modulus_primes)
            and isprime(candidate)
        ):
            ok = all(
                kronecker_symbol(candidate, ell)
                == (-epsilon[ell] if ell in S0 else epsilon[ell])
                for ell in epsilon
            )
            if ok and mod8_target is not None:
                ok = (candidate * N1_star) % 8 == mod8_target
            if ok:
                q = candidate
                break
        candidate += 2
    if q is None:
        raise SearchExhausted(
            f"no admissible prime q <= {search_bound}; raise the search bound"
        )

    d = q * N1_star
    E_twisted = quadratic_twist(E_min, d)
    cert = TwistCertificate(
        p=p,
        S=S,
        S0=tuple(S0),
        S1=tuple(S1),
        N1_star=N1_star,
        epsilon=epsilon,
        q=q,
        mod8_case=mod8_case,
        d=d,
    )
    cert.validate()
    verdict = check_c2(E_twisted, p)
    if verdict.status != Status.HOLDS:
        raise PostconditionFailed(
            f"twisted curve still fails the torsion condition: {verdict.to_json_dict()}"
        )
    return E_twisted, cert
