"""Elliptic curves over Q with exact integer invariants.

Covers global minimal models (Laska-Kraus-Connell), reduction-type
classification at every prime, quadratic twisting through the short model,
traces of Frobenius (a Legendre sum for small primes, Shanks-Mestre above
them), and the local torsion criterion over the cyclotomic tower at
potentially multiplicative primes.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ._record import Record
from .errors import BadReductionPrime, BudgetExceeded, NotMinimalAtPrime, PostconditionFailed
from .padic import _check_prime, factorint, kronecker_symbol, multiplicative_order, ord_p

# The largest prime count_points_ap takes: a budget, not a word-size limit.
# Shanks-Mestre needs O(ell^(1/4)) point operations, but the Legendre sum it
# falls back on is linear in ell.
AP_PRIME_BOUND = 10**6


def check_prime_bound(bound: int) -> None:
    """Refuse a bound on the primes to count points at before any is
    counted: ValueError below 0, BudgetExceeded above AP_PRIME_BOUND."""
    if bound < 0:
        raise ValueError(f"prime bound {bound} must be >= 0")
    if bound > AP_PRIME_BOUND:
        raise BudgetExceeded(f"prime bound {bound} exceeds {AP_PRIME_BOUND}")


class EllipticCurveQ(Record):
    """Integral Weierstrass model [a1, a2, a3, a4, a6].

    The b- and c-invariants b2, b4, b6, b8, c4, c6 and the discriminant are
    set at construction; each object keeps its own tables of the reduction
    types, traces and quadratic twists computed on it.
    """

    _fields = ("a1", "a2", "a3", "a4", "a6")

    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int):
        b2 = a1**2 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3**2 + 4 * a6
        b8 = a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2
        c4 = b2**2 - 24 * b4
        c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
        disc = -b2**2 * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
        if disc == 0:
            raise ValueError("singular Weierstrass equation")
        if c4**3 - c6**2 != 1728 * disc:
            raise PostconditionFailed("c4^3 - c6^2 != 1728 * discriminant")
        # `reduction_type(self, ell)`, `count_points_ap(self, ell)` and
        # `quadratic_twist(self, d)` at each ell or d so far
        self.__dict__.update(
            a1=a1, a2=a2, a3=a3, a4=a4, a6=a6,
            b2=b2, b4=b4, b6=b6, b8=b8, c4=c4, c6=c6, discriminant=disc,
            _reductions={}, _traces={}, _twists={},
        )

    @property
    def ainvs(self) -> Tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @functools.cached_property
    def j_invariant(self) -> Fraction:
        return Fraction(self.c4**3, self.discriminant)

    @functools.cached_property
    def bad_primes(self) -> Tuple[int, ...]:
        """The primes dividing the discriminant, factored once per curve object."""
        return tuple(sorted(factorint(abs(self.discriminant))))

    @functools.cached_property
    def j_denominator_primes(self) -> Tuple[int, ...]:
        """The primes dividing den(j), read off `bad_primes`: den(j) divides the discriminant."""
        return tuple(ell for ell in self.bad_primes if self.j_invariant.denominator % ell == 0)

    @functools.cached_property
    def minimal(self) -> Tuple["EllipticCurveQ", Tuple[int, int, int, int]]:
        """`minimal_model(self)`, built once per curve object."""
        return minimal_model(self)


class ReductionKind(enum.Enum):
    GOOD = "GOOD"
    MULT_SPLIT = "MULT_SPLIT"
    MULT_NONSPLIT = "MULT_NONSPLIT"
    ADDITIVE = "ADDITIVE"


class Potentially(enum.Enum):
    POT_GOOD = "POT_GOOD"
    POT_MULT = "POT_MULT"


class TwistClass(enum.Enum):
    """Square class of the twisting parameter in Q_ell^x.

    UNIT_NONSQUARE is the unramified quadratic class.  UNIT_RAMIFIED only
    occurs at ell = 2, where the units split into three nontrivial classes
    (5, 3, 7 mod 8) and only 5 mod 8 is unramified.
    """

    UNIT_SQUARE = "UNIT_SQUARE"
    UNIT_NONSQUARE = "UNIT_NONSQUARE"
    UNIFORMIZER_TIMES_SQUARE = "UNIFORMIZER_TIMES_SQUARE"
    UNIFORMIZER_TIMES_NONSQUARE = "UNIFORMIZER_TIMES_NONSQUARE"
    UNIT_RAMIFIED = "UNIT_RAMIFIED"


class ReductionInfo(Record):
    _fields = ("prime", "kind", "potentially", "twist_class_gamma")

    def __init__(self, prime: int, kind: ReductionKind, potentially: Potentially,
                 twist_class_gamma: Optional[TwistClass] = None):
        if kind == ReductionKind.GOOD and potentially != Potentially.POT_GOOD:
            raise PostconditionFailed("good reduction must be potentially good")
        self.__dict__.update(prime=prime, kind=kind, potentially=potentially,
                             twist_class_gamma=twist_class_gamma)


class TraceRecord(Record):
    _fields = ("prime", "a_ell")

    def __init__(self, prime: int, a_ell: int):
        if a_ell**2 > 4 * prime:
            raise PostconditionFailed(f"a_ell = {a_ell} violates the Hasse bound at {prime}")
        self.__dict__.update(prime=prime, a_ell=a_ell)


# ---------------------------------------------------------------------------
# Laska-Kraus-Connell minimal models.


def _kraus_ok_2(c4: int, c6: int) -> bool:
    if c6 % 4 == 3:
        return True
    return c4 % 16 == 0 and c6 % 32 in (0, 8)


def _kraus_ok_3(c6: int) -> bool:
    return ord_p(c6, 3) != 2


def _minimality_exponent(c4: int, c6: int, disc: int, ell: int) -> int:
    """Largest k such that (c4/ell^4k, c6/ell^6k, disc/ell^12k) is still an
    integral Kraus-valid triple at ell.  Only disc is valued: k starts at
    ord_ell(disc) // 12 and goes down until ell^4k divides c4, ell^6k
    divides c6 and the quotients are Kraus-valid."""
    k = int(ord_p(disc, ell)) // 12
    while k > 0:
        c4k, r4 = divmod(c4, ell ** (4 * k))
        c6k, r6 = divmod(c6, ell ** (6 * k))
        if r4 or r6:
            k -= 1
            continue
        if ell == 2 and not _kraus_ok_2(c4k, c6k):
            k -= 1
            continue
        if ell == 3 and not _kraus_ok_3(c6k):
            k -= 1
            continue
        break
    return k


def _curve_from_c4c6(c4: int, c6: int) -> EllipticCurveQ:
    """Reconstruct the canonical reduced integral model from Kraus-valid (c4, c6)."""
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    if (b2 * b2 - c4) % 24:
        raise PostconditionFailed("b2 lift inconsistent with c4 (Kraus violation?)")
    b4 = (b2 * b2 - c4) // 24
    num = -(b2**3) + 36 * b2 * b4 - c6
    if num % 216:
        raise PostconditionFailed("b6 not integral (Kraus violation?)")
    b6 = num // 216
    a1 = b2 % 2
    a2 = (b2 - a1) // 4
    a3 = b6 % 2
    a4 = (b4 - a1 * a3) // 2
    a6 = (b6 - a3) // 4
    E = EllipticCurveQ(a1, a2, a3, a4, a6)
    if (E.c4, E.c6) != (c4, c6):
        raise PostconditionFailed("c4/c6 reconstruction mismatch")
    return E


def minimal_model(
    E: EllipticCurveQ,
) -> Tuple[EllipticCurveQ, Tuple[int, int, int, int]]:
    """Global minimal model and the exact transform (u, r, s, t) onto it.

    The minimal model comes back with its own `minimal` entry set to itself
    and (1, 0, 0, 0), so nothing rebuilds it.
    """
    c4, c6 = E.c4, E.c6
    # a model is not minimal at ell only if ell^12 | Delta: E's primes suffice
    u = 1
    for ell in E.bad_primes:
        u *= ell ** _minimality_exponent(c4, c6, E.discriminant, ell)
    E_min = _curve_from_c4c6(c4 // u**4, c6 // u**6)
    # r, s and t are integers: a change of coordinates from an integral model
    # to a minimal one is integral (Silverman, AEC, Prop. VII.1.3).  Solve the
    # a1, a2, a3 rules for them; if 2 or 3 leaves a remainder, that rule fails
    a1, a2, a3, a4, a6 = E.ainvs
    s = (u * E_min.a1 - a1) // 2
    r = (u**2 * E_min.a2 - a2 + s * a1 + s * s) // 3
    t = (u**3 * E_min.a3 - a3 - r * a1) // 2
    if (u * E_min.a1, u**2 * E_min.a2, u**3 * E_min.a3, u**4 * E_min.a4, u**6 * E_min.a6) != (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    ):
        raise PostconditionFailed("minimal-model transform verification failed")
    if E.discriminant % E_min.discriminant:
        raise PostconditionFailed("minimal discriminant does not divide the input's")
    # Delta_min | Delta, so its primes are among E's
    E_min.__dict__["bad_primes"] = tuple(
        ell for ell in E.bad_primes if E_min.discriminant % ell == 0
    )
    E_min.__dict__["minimal"] = (E_min, (1, 0, 0, 0))
    return E_min, (u, r, s, t)


# ---------------------------------------------------------------------------
# Reduction classification.


def _square_class(value: int, ell: int) -> TwistClass:
    """Class of a nonzero integer in Q_ell^x / (Q_ell^x)^2."""
    v = int(ord_p(value, ell))
    unit = value // ell**v
    if ell == 2:
        if v % 2 == 0 and unit % 8 in (3, 7):
            return TwistClass.UNIT_RAMIFIED
        square_unit = unit % 8 == 1
    else:
        square_unit = kronecker_symbol(unit, ell) == 1
    if v % 2 == 0:
        return TwistClass.UNIT_SQUARE if square_unit else TwistClass.UNIT_NONSQUARE
    return (
        TwistClass.UNIFORMIZER_TIMES_SQUARE
        if square_unit
        else TwistClass.UNIFORMIZER_TIMES_NONSQUARE
    )


def reduction_type(E: EllipticCurveQ, ell: int) -> ReductionInfo:
    """Classify the special fiber at ell on a model minimal there, once per
    curve object: the result is kept on E, a NotMinimalAtPrime is not.

    At a potentially multiplicative prime, gamma is the class of -c4/c6 in
    Q_ell^x / (Q_ell^x)^2 (Silverman, Advanced Topics in the Arithmetic of
    Elliptic Curves, Thm V.5.3); c4 is a square there, so it is the class
    of -c6, and twisting by it gives split multiplicative reduction.  So a
    multiplicative fiber is split iff gamma is a square.
    """
    info = E._reductions.get(ell)
    if info is not None:
        return info
    # _minimality_exponent has checked that ell is prime
    if _minimality_exponent(E.c4, E.c6, E.discriminant, ell):
        raise NotMinimalAtPrime(f"model is not minimal at {ell}")
    if E.discriminant % ell:
        info = ReductionInfo(ell, ReductionKind.GOOD, Potentially.POT_GOOD)
    elif E.j_invariant.denominator % ell:  # ord_ell(j) >= 0
        info = ReductionInfo(ell, ReductionKind.ADDITIVE, Potentially.POT_GOOD)
    else:
        gamma = _square_class(-E.c6, ell)
        if E.c4 % ell == 0:
            kind = ReductionKind.ADDITIVE
        elif gamma == TwistClass.UNIT_SQUARE:
            kind = ReductionKind.MULT_SPLIT
        else:
            kind = ReductionKind.MULT_NONSPLIT
        info = ReductionInfo(ell, kind, Potentially.POT_MULT, gamma)
    E._reductions[ell] = info
    return info


# ---------------------------------------------------------------------------
# Quadratic twists.


def quadratic_twist(E: EllipticCurveQ, d: int) -> EllipticCurveQ:
    """Twist by squarefree d through the short model, re-minimalized; it keeps E's j.

    The short model's Delta, 6^12 d^6 Delta_E, has primes 2, 3, E's and d's.  E's
    primes are divided out of d, and only the part of d prime to Delta_E is factored.
    Each twist is built once per curve object and d, and kept on E.
    """
    E_tw = E._twists.get(d)
    if E_tw is not None:
        return E_tw
    if d == 0:
        raise ValueError("twist parameter must be squarefree and nonzero")
    rest, d_primes = abs(d), {}
    for ell in E.bad_primes:
        while rest % ell == 0:
            rest //= ell
            d_primes[ell] = d_primes.get(ell, 0) + 1
    if rest > 1:
        d_primes.update(factorint(rest))
    if any(e > 1 for e in d_primes.values()):
        raise ValueError("twist parameter must be squarefree and nonzero")
    twisted = EllipticCurveQ(0, 0, 0, -27 * E.c4 * d * d, -54 * E.c6 * d**3)
    if twisted.discriminant != 6**12 * d**6 * E.discriminant:
        raise PostconditionFailed(f"the twist by {d} has the wrong discriminant")
    twisted.__dict__["bad_primes"] = tuple(sorted({2, 3, *E.bad_primes, *d_primes}))
    E_tw, _ = minimal_model(twisted)
    if E_tw.j_invariant != E.j_invariant:
        raise PostconditionFailed(f"the twist by {d} changed the j-invariant")
    E._twists[d] = E_tw
    return E_tw


# ---------------------------------------------------------------------------
# Point counting.


# Below this prime the table of squares is faster than Shanks-Mestre (the
# per-call timings are in CHANGES.md); ell = 3 is always below it.
_SHANKS_MESTRE_FROM = 128
# Shanks-Mestre takes its points at x0 = 0, 1, ... below this, then leaves
# a_ell to the Legendre sum; by Mestre's theorem the candidates narrow to one
# long before this for ell > 229.
_SHANKS_MESTRE_POINTS = 32


# The table of (x | ell) for each ell below _SHANKS_MESTRE_FROM that
# `_legendre_trace` has summed at: at most 30 lists of under 128 entries.
_CHI: Dict[int, List[int]] = {}


def _legendre_trace(E: EllipticCurveQ, ell: int) -> int:
    """a_ell = -sum_u (u^3 + b2 u^2 + c u + e | ell), c = 8 b4, e = 16 b6, by a
    table of squares, kept in _CHI below _SHANKS_MESTRE_FROM; the rare call
    above it, where Shanks-Mestre left a_ell open, builds its own.

    For odd ell, v = 2y + a1 x + a3 gives v^2 = 4x^3 + b2 x^2 + 2 b4 x + b6,
    and u = 4x scales the right side by 16, a square.  The terms at +u and -u
    are (b2 u^2 + e) +- u (u^2 + c), so half the residues suffice.
    """
    chi = _CHI.get(ell)
    if chi is None:
        chi = [-1] * ell
        for x in range(1, (ell + 1) // 2):
            chi[x * x % ell] = 1
        chi[0] = 0
        if ell < _SHANKS_MESTRE_FROM:
            _CHI[ell] = chi
    b2, c, e = E.b2 % ell, 8 * E.b4 % ell, 16 * E.b6 % ell
    return -chi[e] - sum([
        chi[((v := b2 * u * u + e) + (w := u * (u * u + c))) % ell] + chi[(v - w) % ell]
        for u in range(1, (ell + 1) // 2)
    ])


def _add(P, Q, a: int, ell: int):
    """P + Q on y^2 = x^3 + a x + b over F_ell; None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 != x2:
        lam = (y2 - y1) * pow(x2 - x1, -1, ell) % ell
    elif y1 == y2 and y1:
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, ell) % ell
    else:
        return None
    x3 = (lam * lam - x1 - x2) % ell
    return x3, (lam * (x1 - x3) - y1) % ell


def _mul(P, n: int, a: int, ell: int):
    """n P for n >= 1, by double-and-add."""
    R = P
    for bit in bin(n)[3:]:
        R = _add(R, R, a, ell)
        if bit == "1":
            R = _add(R, P, a, ell)
    return R


def _multiples(P, a: int, ell: int, low: int, high: int, m: int) -> Optional[List[int]]:
    """Every N in [low, high] with N P = O, or None if P has order at most 2m + 1.

    Baby steps jP (j <= m) are keyed by x.  Giant steps of (2m + 1) P visit
    the centres c of windows [c - m, c + m] that tile [low, high]: cP = jP
    gives N = c - j, and cP = -jP gives N = c + j.  The order of P exceeds
    2m + 1, so the points +-jP are distinct and a window holds at most one N.
    The baby step jP + P, the inner loop, is written out.
    """
    x1, y1 = P
    if not y1:
        return None  # P has order 2
    baby = {x1: (1, y1)}
    xm, ym = P
    x, y = _add(P, P, a, ell)
    for j in range(2, m + 1):  # (x, y) = jP
        if x in baby:
            return None  # jP = +-iP with i < j
        baby[x] = (j, y)
        xm, ym = x, y
        lam = (y - y1) * pow(x - x1, -1, ell) % ell
        x = (lam * lam - x - x1) % ell
        y = (lam * (x1 - x) - y1) % ell
    if x in baby:
        return None  # (m + 1) P = +-iP with i <= m
    G = _add((xm, ym), (x, y), a, ell)  # (2m + 1) P
    step = 2 * m + 1
    first, last = (low + m) // step, (high + m) // step
    Q = _mul(G, first, a, ell)  # first >= 1 once ell >= 11
    found = []
    for c in range(first * step, last * step + 1, step):
        if c > first * step:
            Q = _add(Q, G, a, ell)
        if Q is None:
            found.append(c)
        elif Q[0] in baby:
            j, y = baby[Q[0]]
            found.append(c - j if y == Q[1] else c + j)
    return [N for N in found if low <= N <= high]


def _shanks_mestre(E: EllipticCurveQ, ell: int) -> Optional[int]:
    """a_ell from the orders of points on E and its quadratic twist, for ell >= 11;
    None if the points at x0 < `_SHANKS_MESTRE_POINTS` leave more than one candidate.

    E is y^2 = x^3 + A x + B with A = -27 c4, B = -54 c6 over F_ell.  For
    d = x0^3 + A x0 + B != 0 the point (x0 d, d^2) lies on
    y^2 = x^3 + A d^2 x + B d^3, which is E when (d | ell) = 1 and its
    quadratic twist when it is -1, so no square root is taken.  With
    chi = (d | ell), each N in the Hasse interval with N P = O gives the
    candidate chi (ell + 1 - N), and a_ell is always among them; successive
    points intersect the candidates until one is left (Cohen, GTM 138,
    Alg. 7.4.12; Schoof, J. Theor. Nombres Bordeaux 7 (1995), Sec. 3).
    """
    A, B = -27 * E.c4 % ell, -54 * E.c6 % ell
    r = math.isqrt(4 * ell)  # |a_ell| <= 2 sqrt(ell), never an integer
    m = math.isqrt(2 * r)
    traces = None
    for x0 in range(_SHANKS_MESTRE_POINTS):
        d = ((x0 * x0 + A) * x0 + B) % ell
        if not d:
            continue  # x0 is a root: no point of this form
        dd = d * d % ell
        orders = _multiples((x0 * d % ell, dd), A * dd % ell, ell, ell + 1 - r, ell + 1 + r, m)
        if orders is None:
            continue  # small order: take the next point
        chi = 1 if pow(d, (ell - 1) // 2, ell) == 1 else -1
        found = {chi * (ell + 1 - N) for N in orders}
        traces = found if traces is None else traces & found
        if len(traces) == 1:
            return traces.pop()
        if not traces:
            raise PostconditionFailed(f"no trace at {ell} fits every point's order")
    return None


def count_points_ap(E: EllipticCurveQ, ell: int) -> TraceRecord:
    """a_ell = ell + 1 - #E(F_ell) at an odd prime of good reduction.

    Below `_SHANKS_MESTRE_FROM` by the Legendre sum over a table of squares;
    from it by Shanks-Mestre baby-step giant-step, in O(ell^(1/4)) point
    operations, with the Legendre sum deciding the rare case it leaves open.
    Each a_ell is counted once per curve object and kept on it.  A kept
    record is returned before any check: only an ell that passed them all
    is ever kept, so a bad ell raises on every call.
    """
    record = E._traces.get(ell)
    if record is not None:
        return record
    if ell > AP_PRIME_BOUND:
        raise BudgetExceeded(f"{ell} exceeds the bound {AP_PRIME_BOUND}")
    if ell % 2 == 0:
        raise ValueError("point counts need an odd prime")
    _check_prime(ell)
    if E.discriminant % ell == 0:
        raise BadReductionPrime(f"{ell} divides the discriminant")
    a = _shanks_mestre(E, ell) if ell >= _SHANKS_MESTRE_FROM else None
    record = E._traces[ell] = TraceRecord(ell, _legendre_trace(E, ell) if a is None else a)
    return record


# ---------------------------------------------------------------------------
# Local torsion over the cyclotomic tower at potentially multiplicative primes.


def torsion_in_cyclotomic_local(E: EllipticCurveQ, ell: int, p: int) -> bool:
    """Whether E has nontrivial p-torsion over Q_ell adjoined all p-power
    roots of unity.

    The rigid-analytic uniformization reduces this to the twist character:
    torsion survives iff the character is trivial there, i.e. gamma is a
    square, or generates the unramified quadratic extension while the local
    cyclotomic degree ord(ell mod p) is even.
    """
    if p % 2 == 0 or p == ell:
        raise ValueError("p must be an odd prime different from ell")
    info = reduction_type(E, ell)
    if info.potentially != Potentially.POT_MULT:
        raise ValueError(f"curve is not potentially multiplicative at {ell}")
    gamma = info.twist_class_gamma
    if gamma == TwistClass.UNIT_SQUARE:
        return True
    if gamma == TwistClass.UNIT_NONSQUARE:
        return multiplicative_order(ell, p) % 2 == 0
    return False


def reduction_summary(E: EllipticCurveQ) -> Dict[int, ReductionInfo]:
    E_min = E.minimal[0]
    return {ell: reduction_type(E_min, ell) for ell in E_min.bad_primes}
