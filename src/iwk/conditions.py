"""Decision procedures for the three hypotheses on a pair (E, p).

The local-torsion condition is decided exactly; the CM condition is a table
lookup on exact j-invariants.  The big-image condition is decided by CM
first; then by trace witnesses ruling out every maximal-subgroup class of
GL_2(F_p), and by the negative certificates of `_negative_certificate`
when the first primes leave a class open.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ._record import Record
from .errors import BadReductionPrime, PostconditionFailed
from .padic import _iroot, isprime, kronecker_symbol, multiplicative_order, poly_mul, primerange, sympy
from .ecq import (
    _SHANKS_MESTRE_FROM,
    EllipticCurveQ,
    ReductionKind,
    check_prime_bound,
    count_points_ap,
    reduction_type,
    torsion_in_cyclotomic_local,
)


class Status(enum.Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    INCONCLUSIVE = "INCONCLUSIVE"


class Verdict(Record):
    _fields = ("status", "witnesses", "parameters")

    def __init__(self, status: Status, witnesses: Tuple[Tuple[int, str], ...] = (),
                 parameters: Optional[Dict] = None):
        if parameters is None:
            parameters = {}
        if status == Status.FAILS and not witnesses:
            raise ValueError("a FAILS verdict must carry a witness")
        if status == Status.INCONCLUSIVE and not parameters:
            raise ValueError("an INCONCLUSIVE verdict must carry its budget")
        self.__dict__.update(status=status, witnesses=witnesses, parameters=parameters)

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            "witnesses": [{"prime": p, "detail": d} for p, d in self.witnesses],
            "budget": {k: v for k, v in sorted(self.parameters.items())},
        }


def _require_good_odd_p(E: EllipticCurveQ, p: int) -> EllipticCurveQ:
    if p == 2 or not isprime(p):
        raise ValueError("p must be an odd prime")
    E_min = E.minimal[0]
    if E_min.discriminant % p == 0:
        raise BadReductionPrime(f"E has bad reduction at p = {p}")
    return E_min


# ---------------------------------------------------------------------------
# Local torsion condition.


def check_c2(E: EllipticCurveQ, p: int) -> Verdict:
    """Holds iff no potentially multiplicative prime keeps p-torsion over the
    local cyclotomic tower."""
    E_min = _require_good_odd_p(E, p)
    offenders: List[Tuple[int, str]] = []
    primes = list(E_min.j_denominator_primes)
    for ell in primes:
        if torsion_in_cyclotomic_local(E_min, ell, p):
            info = reduction_type(E_min, ell)
            offenders.append(
                (
                    ell,
                    f"nontrivial p-torsion locally: kind={info.kind.value}, "
                    f"gamma={info.twist_class_gamma.value}, "
                    f"local cyclotomic degree={multiplicative_order(ell, p)}",
                )
            )
    if offenders:
        return Verdict(Status.FAILS, tuple(offenders), {"primes_checked": primes})
    return Verdict(Status.HOLDS, (), {"primes_checked": primes})


def check_c2_sufficient(E: EllipticCurveQ, p: int) -> Verdict:
    """Sufficient-only criterion: every potentially multiplicative prime is
    non-split multiplicative, p = 3 mod 4, and -p is a residue there."""
    E_min = _require_good_odd_p(E, p)
    primes = list(E_min.j_denominator_primes)
    params = {"primes_checked": primes}
    if not primes:
        return Verdict(Status.HOLDS, (), params)
    if p % 4 != 3:
        return Verdict(Status.INCONCLUSIVE, (), {**params, "reason": f"p = {p} is not 3 mod 4"})
    for ell in primes:
        info = reduction_type(E_min, ell)
        if info.kind != ReductionKind.MULT_NONSPLIT:
            return Verdict(
                Status.INCONCLUSIVE,
                (),
                {**params, "reason": f"reduction at {ell} is {info.kind.value}"},
            )
        if kronecker_symbol(-p, ell) != 1:
            return Verdict(
                Status.INCONCLUSIVE,
                (),
                {**params, "reason": f"-{p} is not a quadratic residue mod {ell}"},
            )
    return Verdict(Status.HOLDS, (), params)


# ---------------------------------------------------------------------------
# Big-image condition via trace witnesses.

_WITNESS_CLASSES = (
    "borel",
    "split_cartan_normalizer",
    "nonsplit_cartan_normalizer",
    "exceptional",
)

DEFAULT_PRIME_BOUND = 10**4


def _division_polynomial_x(A: int, B: int, n: int) -> List[int]:
    """n-th division polynomial of y^2 = x^3 + Ax + B in x, n = 3, 5, 7, as
    integer coefficients, lowest degree first.

    Written out (Washington, Elliptic Curves, section 3.2):
    psi_5 = psi_4 psi_2^3 - psi_3^3 and psi_7 = psi_5 psi_3^3 - psi_2 psi_4^3.
    psi_2 = 2y and psi_4 is carried as psi_4 / 2y, so y enters only through
    (2y)^4 = 16 f^2.
    """
    if n not in (3, 5, 7):
        raise ValueError(f"psi_n is written out for n = 3, 5, 7, not {n}")
    psi = psi3 = [-A * A, 12 * B, 6 * A, 0, 3]
    if n > 3:
        psi4 = [-16 * B * B - 2 * A**3, -8 * A * B, -10 * A * A, 40 * B, 10 * A, 0, 2]
        psi4_psi2_cubed = poly_mul(psi4, poly_mul([16 * B, 16 * A, 0, 16], [B, A, 0, 1]))
        psi3_cubed = poly_mul(poly_mul(psi3, psi3), psi3)
        # equal lengths: both terms have the degree of psi_n
        psi = [u - v for u, v in zip(psi4_psi2_cubed, psi3_cubed)]
        if n == 7:
            psi2_psi4_cubed = poly_mul(poly_mul(psi4, psi4), psi4_psi2_cubed)
            psi = [u - v for u, v in zip(poly_mul(psi, psi3_cubed), psi2_psi4_cubed)]
    return psi


def _division_poly_reducible(E_min: EllipticCurveQ, p: int) -> Optional[List[int]]:
    """Degrees of the irreducible factors of the p-division polynomial over Q
    when it splits; None when it is irreducible (a full-orbit certificate).
    The one place that hands psi_p to sympy."""
    psi = _division_polynomial_x(-27 * E_min.c4, -54 * E_min.c6, p)
    _, factors = sympy.Poly(psi[::-1], sympy.Symbol("x")).factor_list()
    degrees = sorted(f.degree() for f, _ in factors)
    if len(degrees) == 1 and degrees[0] == (p * p - 1) // 2:
        return None
    return degrees


# X_0(p) -> X(1) is j = N(t)/t on a Hauptmodul t (Maier, J. Ramanujan Math.
# Soc. 24 (2009)); N on integer coefficient lists, lowest degree first.
_X0_NUMERATOR = {
    3: poly_mul([27, 1], poly_mul([3, 1], poly_mul([3, 1], [3, 1]))),
    5: poly_mul([5, 10, 1], poly_mul([5, 10, 1], [5, 10, 1])),
    7: poly_mul([49, 13, 1], poly_mul([1, 5, 1], poly_mul([1, 5, 1], [1, 5, 1]))),
}
# _x0_point looks below this for a prime at which its roots mod ell are simple.
_X0_PRIME_CAP = 2**12


def _poly_eval(f: List[int], x):
    value = 0
    for c in reversed(f):
        value = value * x + c
    return value


def _rational_reconstruction(r: int, m: int, H: int) -> Fraction:
    """The a/b with |a| <= H and a = b r mod m that the extended Euclidean
    algorithm on (m, r) gives; the only such one with 0 < b <= H when
    m > 2 H^2 (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 5)."""
    r0, r1, s0, s1 = m, r, 0, 1
    while r1 > H:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return Fraction(r1, s1)


def _x0_point(j: Fraction, p: int) -> Optional[Fraction]:
    """The rational t with N(t)/t = j on X_0(p) (p = 3, 5, 7) of least |t|,
    then least t; None when there is none.  For j != 0, 1728 (both CM).

    With j = n/d, a root a/b in lowest terms of F(t) = d N(t) - n t has
    b | d and |a| <= |d N(0)| = H.  F(0) != 0, so t = 0 never occurs.  F is
    squarefree, since X_0(p) -> X(1) ramifies only above 0, 1728 and the
    cusp, so some prime ell not dividing d has only simple roots of F mod
    ell; each of them is lifted by Newton's method to a modulus above
    2 H^2, reconstructed, and kept only if F vanishes on it exactly.
    PostconditionFailed if no prime below _X0_PRIME_CAP will do.
    """
    n, d = j.numerator, j.denominator
    F = [d * c for c in _X0_NUMERATOR[p]]
    F[1] -= n
    dF = [i * c for i, c in enumerate(F)][1:]
    H = abs(F[0])
    for ell in primerange(2, _X0_PRIME_CAP):
        if d % ell == 0:
            continue
        roots = [r for r in range(ell) if _poly_eval(F, r) % ell == 0]
        if any(_poly_eval(dF, r) % ell == 0 for r in roots):
            continue
        points = []
        for r in roots:
            m = ell
            while m <= 2 * H * H:
                m *= m
                r = (r - _poly_eval(F, r) * pow(_poly_eval(dF, r), -1, m)) % m
            t = _rational_reconstruction(r, m, H)
            if _poly_eval(F, t) == 0:
                points.append(t)
        return min(points, key=lambda t: (abs(t), t), default=None)
    raise PostconditionFailed(
        f"no prime below {_X0_PRIME_CAP} has only simple roots of X_0({p}) over j = {j}"
    )


def _negative_certificate(E_min: EllipticCurveQ, p: int) -> Optional[Tuple[int, str]]:
    """The FAILS witness of the first certificate of a non-surjective image
    mod p that applies to a curve without CM; None when none does.

    For p <= 7, first a rational point on X_0(p) over j, which is a rational
    p-isogeny.  Then, at p = 3, the cube test: a Delta that is not a cube
    proves psi_3 irreducible.  Last a split division polynomial psi_p, the
    only certificate that needs sympy.
    """
    if p > 7:
        return None
    t = _x0_point(E_min.j_invariant, p)
    if t is not None:
        return p, f"rational {p}-isogeny: X_0({p}) point t = {t}"
    disc = abs(E_min.discriminant)
    if p == 3 and _iroot(disc, 3) ** 3 != disc:
        # No point on X_0(3) leaves psi_3 no rational root, so it splits at
        # most 2 + 2, which puts the image in the normalizer of a split
        # Cartan, and projectively in that of the nonsplit one; then
        # j = c4^3 / Delta is a cube (Zywina, arXiv:1508.07660, Thm 1.2),
        # and so is Delta.  So psi_3 is irreducible here.
        return None
    degrees = _division_poly_reducible(E_min, p)
    if degrees is not None:
        return p, f"division polynomial factors with degrees {degrees}"
    return None


def _scan_traces(E_min: EllipticCurveQ, p: int, found: Dict, lo: int, hi: int) -> None:
    """Record in `found` the first trace witness of each class among the good
    primes lo <= ell < hi, stopping once every class that a trace at p can
    witness has one.

    At p = 3 no trace witnesses the nonsplit Cartan class: a != 0 mod 3
    makes a^2 - 4 ell = 1 - ell, which is 0 or 2 mod 3 and never a nonzero
    square.  So the scan at p = 3 ends once Borel and split have witnesses;
    the class stays open, as it would at the bound, and is not counted.
    """
    disc = E_min.discriminant
    unwitnessed = list(found.values()).count(None)
    if p == 3:
        unwitnessed -= found["nonsplit_cartan_normalizer"] is None
    for ell in primerange(lo, hi):
        if not unwitnessed:
            return
        if ell == p or disc % ell == 0:
            continue
        a = count_points_ap(E_min, ell).a_ell % p
        D = (a * a - 4 * ell) % p
        if D and pow(D, (p - 1) // 2, p) == 1:  # Euler's criterion: a nonzero square
            if a and found["nonsplit_cartan_normalizer"] is None:
                found["nonsplit_cartan_normalizer"] = (ell, f"a={a}, disc nonzero square mod {p}")
                unwitnessed -= 1
        elif D:
            if found["borel"] is None:
                found["borel"] = (ell, f"a={a}, disc nonsquare mod {p}")
                unwitnessed -= 1
            if a and found["split_cartan_normalizer"] is None:
                found["split_cartan_normalizer"] = (ell, f"a={a}, disc nonsquare mod {p}")
                unwitnessed -= 1
        if a and found["exceptional"] is None:
            u = a * a * pow(ell, -1, p) % p
            if u not in (0, 1, 2, 4) and (u * u - 3 * u + 1) % p != 0:
                found["exceptional"] = (ell, f"trace ratio {u} outside exceptional set mod {p}")
                unwitnessed -= 1


def check_c1_str(E: EllipticCurveQ, p: int, prime_bound: int = DEFAULT_PRIME_BOUND) -> Verdict:
    """Mod-p surjectivity test by ruling out every maximal-subgroup class.

    A trace a_ell with nonsquare characteristic discriminant and a_ell != 0
    rules out the Borel and split-normalizer classes at once; a nonzero
    square discriminant rules out the nonsplit normalizer; a trace ratio
    a^2/ell outside {0, 1, 2, 4} and the roots of u^2 - 3u + 1 rules out the
    exceptional projective images.  The determinant is onto via the
    cyclotomic character, so full coverage certifies surjectivity mod p.

    CM by an order of discriminant D is read first and FAILS with no trace
    counted: the image lies in the normalizer of the Cartan subgroup
    (O/pO)^x, which no trace rules out (Serre, Invent. Math. 15 (1972),
    section 4).  Without CM, when the primes below _SHANKS_MESTRE_FROM (or
    the whole bound, if smaller) leave a class open, a witness from
    _negative_certificate makes the verdict FAILS; every HOLDS verdict seen
    had its last witness by 67.  Otherwise the scan goes on to prime_bound,
    which must lie in [0, AP_PRIME_BOUND].  At p = 3 no trace witnesses the
    nonsplit class, so the verdict there is FAILS or INCONCLUSIVE.
    """
    check_prime_bound(prime_bound)
    E_min = _require_good_odd_p(E, p)
    params: Dict = {"prime_bound": prime_bound}
    cm = cm_order(E_min)
    if cm is not None:
        kind = {1: "split", -1: "nonsplit"}.get(kronecker_symbol(cm[0], p))
        if kind is None:  # CM curves over Q are bad where their field ramifies
            raise PostconditionFailed(f"CM discriminant {cm[0]} is divisible by the good prime {p}")
        witness = (p, f"CM by discriminant {cm[0]}: image in the normalizer of the {kind} Cartan")
        return Verdict(Status.FAILS, (witness,), params)

    found: Dict[str, Optional[Tuple[int, str]]] = {c: None for c in _WITNESS_CLASSES}
    if p == 3:
        # PGL_2(F_3) is itself the symmetric group on 4 letters; the
        # exceptional class is vacuous once det is onto.
        found["exceptional"] = (0, "vacuous for p = 3")

    first_hi = min(prime_bound + 1, _SHANKS_MESTRE_FROM)
    _scan_traces(E_min, p, found, 3, first_hi)
    if not all(found.values()):
        witness = _negative_certificate(E_min, p)
        if witness is not None:
            return Verdict(Status.FAILS, (witness,), params)
    _scan_traces(E_min, p, found, first_hi, prime_bound + 1)
    if all(found.values()):
        witnesses = tuple(
            (ell, f"{cls}: {detail}") for cls, (ell, detail) in found.items()
        )
        return Verdict(Status.HOLDS, witnesses, params)
    missing = [c for c, w in found.items() if w is None]
    return Verdict(Status.INCONCLUSIVE, (), {**params, "unresolved_classes": missing})


# ---------------------------------------------------------------------------
# CM condition: rational CM j-invariants with their order discriminants.

# (j, order discriminant, maximal?) for the thirteen rational CM j-invariants.
CM_J_TABLE: Tuple[Tuple[int, int, bool], ...] = (
    (0, -3, True),
    (1728, -4, True),
    (-3375, -7, True),
    (8000, -8, True),
    (-32768, -11, True),
    (54000, -12, False),
    (287496, -16, False),
    (-884736, -19, True),
    (-12288000, -27, False),
    (16581375, -28, False),
    (-884736000, -43, True),
    (-147197952000, -67, True),
    (-262537412640768000, -163, True),
)


def cm_order(E: EllipticCurveQ) -> Optional[Tuple[int, bool]]:
    """(discriminant, maximal?) of E's CM order, read off j; None without CM.
    A CM j-invariant is an integer, so a j with a denominator is not read
    against the table."""
    j = E.j_invariant
    if j.denominator != 1:
        return None
    for j_cm, disc, maximal in CM_J_TABLE:
        if j.numerator == j_cm:
            return disc, maximal
    return None


def check_c3(E: EllipticCurveQ) -> Verdict:
    """Vacuously holds for non-CM curves; fails exactly for CM by one of the
    four non-maximal orders (discriminants -12, -16, -27, -28)."""
    params = {"table": "13 rational CM j-invariants"}
    cm = cm_order(E)
    if cm is None:
        return Verdict(Status.HOLDS, (), {**params, "cm": False})
    disc, maximal = cm
    params = {**params, "cm": True, "cm_disc": disc}
    if maximal:
        return Verdict(Status.HOLDS, (), params)
    return Verdict(
        Status.FAILS,
        ((abs(disc), f"CM by the non-maximal order of discriminant {disc}"),),
        params,
    )
