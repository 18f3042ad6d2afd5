"""Constructive quadratic twist forcing the local-torsion condition.

Reads the offending potentially multiplicative primes and the parity of
their local cyclotomic degrees (S0 odd, S1 even) from
`conditions.c2_offenders`, then searches for an auxiliary prime q = 1 mod 4
meeting a sign table of Legendre constraints and a mod-8 branch; the
resulting twist parameter q * N1* is re-verified through the checker, which
is the only trusted oracle.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from ._record import Record
from .errors import PostconditionFailed, SearchExhausted
from .padic import isprime, kronecker_symbol
from .padic import sympy  # noqa: F401  (bench/tracer.py patches this name)
from .conditions import Status, c2_offenders, check_c2
from .ecq import EllipticCurveQ, quadratic_twist

DEFAULT_SEARCH_BOUND = 10**5


def _star(ell: int) -> int:
    """ell* = (-1)^((ell-1)/2) * ell for odd ell; 2* = 2."""
    return -ell if ell % 4 == 3 else ell


def _epsilon(S: Tuple[int, ...], S1: Tuple[int, ...]) -> Dict[int, int]:
    """eps_ell = prod over ell' in S1 of (ell'*|ell), for odd ell in S outside S1."""
    return {ell: math.prod(kronecker_symbol(_star(lp), ell) for lp in S1)
            for ell in S if ell not in S1 and ell != 2}


def _mod8(S, S0, S1) -> Tuple[str, Optional[int]]:
    """The mod-8 branch: its certificate text and the residue q*N1* must take."""
    if 2 in S0:
        return "2 in S0: q*N1* = 5 mod 8", 5
    if 2 in S1:
        return "2 in S1: no mod-8 constraint", None
    if 2 in S:
        return "2 in S outside S0 and S1: q*N1* = 1 mod 8", 1
    return "2 not in S: no mod-8 constraint", None


class TwistCertificate(Record):
    """Full transcript of the construction; `validate` re-checks every
    constraint the chosen q must satisfy."""

    _fields = ("p", "S", "S0", "S1", "N1_star", "epsilon", "q", "mod8_case", "d")

    def __init__(self, p: int, S: Tuple[int, ...], S0: Tuple[int, ...], S1: Tuple[int, ...],
                 N1_star: int, epsilon: Optional[Dict[int, int]] = None, q: Optional[int] = None,
                 mod8_case: str = "none", d: int = 1):
        self.__dict__.update(p=p, S=S, S0=S0, S1=S1, N1_star=N1_star,
                             epsilon={} if epsilon is None else epsilon, q=q,
                             mod8_case=mod8_case, d=d)

    @property
    def trivial(self) -> bool:
        return self.d == 1

    def inadmissible(self, q: int) -> Optional[str]:
        """Why q cannot be the auxiliary prime, or None when it can: the
        search and `validate` both ask this."""
        if q % 4 != 1:
            return "q must be 1 mod 4"
        if math.gcd(q, self.p * math.prod(self.S)) != 1:
            return "q must be coprime to p and to S"
        if not isprime(q):
            return "q must be prime"
        for ell, eps in self.epsilon.items():
            if kronecker_symbol(q, ell) != (-eps if ell in self.S0 else eps):
                return f"Legendre sign at {ell} violated"
        target = _mod8(self.S, self.S0, self.S1)[1]
        if target is not None and (q * self.N1_star) % 8 != target:
            return f"q*N1* must be {target} mod 8"
        return None

    def validate(self) -> None:
        S, S0, S1 = set(self.S), set(self.S0), set(self.S1)
        if S0 & S1:
            raise PostconditionFailed("S0 and S1 must be disjoint")
        if not (S0 <= S and S1 <= S):
            raise PostconditionFailed("S0, S1 must be subsets of S")
        if math.prod(map(_star, self.S1)) != self.N1_star:
            raise PostconditionFailed("N1* does not match S1")
        if self.trivial:
            return
        if self.epsilon != _epsilon(self.S, self.S1):
            raise PostconditionFailed("epsilon does not match S and S1")
        if self.q is None or self.d != self.q * self.N1_star:
            raise PostconditionFailed("d must equal q * N1*")
        if (reason := self.inadmissible(self.q)) is not None:
            raise PostconditionFailed(reason)

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
    machine-checkable certificate; the checker re-verifies the result.
    ValueError for a negative search_bound, before any curve work."""
    if search_bound < 0:
        raise ValueError(f"search bound {search_bound} must be >= 0")
    offenders = c2_offenders(E, p)
    E_min = E.minimal[0]
    S = E_min.j_denominator_primes
    if not offenders:
        cert = TwistCertificate(p=p, S=S, S0=(), S1=(), N1_star=1, d=1, mod8_case="trivial")
        cert.validate()
        return E_min, cert

    S1 = tuple(ell for ell, f in offenders.items() if f % 2 == 0)
    S0 = tuple(ell for ell, f in offenders.items() if f % 2)
    base = TwistCertificate(
        p=p, S=S, S0=S0, S1=S1, N1_star=math.prod(map(_star, S1)),
        epsilon=_epsilon(S, S1), mod8_case=_mod8(S, S0, S1)[0],
    )
    q = next((q for q in range(5, search_bound + 1, 4) if base.inadmissible(q) is None), None)
    if q is None:
        raise SearchExhausted(f"no admissible prime q <= {search_bound}; raise the search bound")
    cert = TwistCertificate(
        p=p, S=S, S0=S0, S1=S1, N1_star=base.N1_star, epsilon=base.epsilon, q=q,
        mod8_case=base.mod8_case, d=q * base.N1_star,
    )
    cert.validate()
    E_twisted = quadratic_twist(E_min, cert.d)
    verdict = check_c2(E_twisted, p)
    if verdict.status != Status.HOLDS:
        raise PostconditionFailed(f"twisted curve still fails the torsion condition: "
                                  f"{verdict.to_json_dict()}")
    return E_twisted, cert
