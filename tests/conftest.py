"""Shared fixtures: a corpus of small standard curves, the naive point
counts that serve as oracles, the oracles for an X_0(p) witness and for
the factors of a division polynomial, the X_0(p) search in Fractions, and
check_c1_str with a trace scan that runs to the prime bound.

Labels follow the usual tables; every fact the tests assert about these
curves is computed (and cross-checked) by the package itself, except the
handful of externally documented 5077.a1 facts pinned in the acceptance
suite.
"""

from fractions import Fraction

import pytest
import sympy

from iwk import conditions, ecq
from iwk.conditions import Status, Verdict
from iwk.ecq import EllipticCurveQ, check_prime_bound, count_points_ap
from iwk.errors import BadReductionPrime
from iwk.padic import kronecker_symbol, primerange

CORPUS = [
    ("11a1", (0, -1, 1, -10, -20)),
    ("11a3", (0, -1, 1, 0, 0)),
    ("14a1", (1, 0, 1, 4, -6)),
    ("15a1", (1, 1, 1, -10, -10)),
    ("17a1", (1, -1, 1, -1, -14)),
    ("19a1", (0, 1, 1, -9, -15)),
    ("20a1", (0, 1, 0, 4, 4)),
    ("21a1", (1, 0, 0, -4, -1)),
    ("24a1", (0, -1, 0, -4, 4)),
    ("26b1", (1, -1, 1, -3, 3)),
    ("27a1", (0, 0, 1, 0, -7)),
    ("32a1", (0, 0, 0, 4, 0)),
    ("33a1", (1, 1, 0, -11, 0)),
    ("34a1", (1, 0, 0, -3, 1)),
    ("36a1", (0, 0, 0, 0, 1)),
    ("37a1", (0, 0, 1, -1, 0)),
    ("37b1", (0, 1, 1, -23, -50)),
    ("49a1", (1, -1, 0, -2, -1)),
    ("121b1", (0, -1, 1, -7, 10)),
    ("389a1", (0, 1, 1, -2, 0)),
    ("5077a1", (0, 0, 1, -7, 6)),
    ("36a2", (0, 0, 0, -15, 22)),
]
# the standard curves with CM, whose j-invariants are in CM_J_TABLE
CM_LABELS = ("27a1", "32a1", "36a1", "36a2", "49a1", "121b1")


@pytest.fixture(scope="session")
def corpus():
    return [(label, EllipticCurveQ(*a)) for label, a in CORPUS]


@pytest.fixture(scope="session")
def e5077():
    return EllipticCurveQ(0, 0, 1, -7, 6)


def transformed(E, u, r, s, t):
    """The model that the change of variables (u, r, s, t) takes E to, in
    exact rationals (Silverman, AEC, Table III.1.2): the oracle for the
    integer transform `minimal_model` checks.  ValueError if it is not integral."""
    u, r, s, t = Fraction(u), Fraction(r), Fraction(s), Fraction(t)
    a1, a2, a3, a4, a6 = (Fraction(a) for a in E.ainvs)
    coeffs = [
        (a1 + 2 * s) / u,
        (a2 - s * a1 + 3 * r - s * s) / u**2,
        (a3 + r * a1 + 2 * t) / u**3,
        (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u**4,
        (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / u**6,
    ]
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("transformation does not yield an integral model")
    return EllipticCurveQ(*(int(c) for c in coeffs))


def count_points_naive(E, ell):
    """#E(F_ell) by full enumeration of the affine plane, plus infinity."""
    a1, a2, a3, a4, a6 = (a % ell for a in E.ainvs)
    count = 1
    for x in range(ell):
        rhs = (x**3 + a2 * x * x + a4 * x + a6) % ell
        for y in range(ell):
            if (y * y + a1 * x * y + a3 * y) % ell == rhs:
                count += 1
    return count


def trace_naive(E, ell):
    if E.discriminant % ell == 0:
        raise BadReductionPrime(f"{ell} divides the discriminant")
    return ell + 1 - count_points_naive(E, ell)


# j = N(t)/t on X_0(p), written out apart from iwk.conditions' coefficient lists
X0_NUMERATOR = {
    3: lambda t: (t + 27) * (t + 3) ** 3,
    5: lambda t: (t * t + 10 * t + 5) ** 3,
    7: lambda t: (t * t + 13 * t + 49) * (t * t + 5 * t + 1) ** 3,
}


def x0_witness_point(p, detail):
    """t of an X_0(p) witness text; AssertionError if it is not one."""
    prefix = f"rational {p}-isogeny: X_0({p}) point t = "
    assert detail.startswith(prefix), detail
    return Fraction(detail[len(prefix):])


def reconstruction_eea(r, m, H):
    """(r1, s1) at which the extended Euclidean algorithm on (m, r) first has
    r1 <= H, before any normalisation: s1 may be negative."""
    r0, r1, s0, s1 = m, r, 0, 1
    while r1 > H:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return r1, s1


def x0_point_fraction(j, p):
    """The point on X_0(p) over the Fraction j of least |t|, then least t, or
    None: the search in Fractions that conditions._x0_point made before it
    worked in integers, kept as its reference."""
    n, d = j.numerator, j.denominator
    F = [d * c for c in conditions._X0_NUMERATOR[p]]
    F[1] -= n
    dF = [i * c for i, c in enumerate(F)][1:]
    H = abs(F[0])
    for ell in primerange(2, conditions._X0_PRIME_CAP):
        if d % ell == 0:
            continue
        roots = [r for r in range(ell) if conditions._poly_eval(F, r) % ell == 0]
        if any(conditions._poly_eval(dF, r) % ell == 0 for r in roots):
            continue
        points = []
        for r in roots:
            m = ell
            while m <= 2 * H * H:
                m *= m
                r = (r - conditions._poly_eval(F, r) * pow(conditions._poly_eval(dF, r), -1, m)) % m
            t = Fraction(*reconstruction_eea(r, m, H))
            if conditions._poly_eval(F, t) == 0:
                points.append(t)
        return min(points, key=lambda t: (abs(t), t), default=None)
    raise AssertionError(f"no prime below {conditions._X0_PRIME_CAP} separates the roots")


def psi_degrees(E_min, p):
    """Sorted degrees of the irreducible factors of psi_p over Q, by sympy's
    factor_list on a Poly built here and not by
    conditions._division_poly_reducible."""
    psi = conditions._division_polynomial_x(-27 * E_min.c4, -54 * E_min.c6, p)
    factors = sympy.Poly(psi[::-1], sympy.Symbol("x")).factor_list()[1]
    return sorted(f.degree() for f, _ in factors)


def assert_x0_witness(E_min, p, detail):
    """An X_0(p) witness against its two oracles: N(t) = j t exactly, and a
    factor of psi_p of degree (p - 1)/2, the kernel polynomial of the
    rational p-isogeny that the point stands for."""
    t = x0_witness_point(p, detail)
    assert t != 0 and X0_NUMERATOR[p](t) == Fraction(*E_min.j_invariant) * t, (E_min.ainvs, p, t)
    sums = {0}
    for degree in psi_degrees(E_min, p):
        sums |= {s + degree for s in sums}
    assert (p - 1) // 2 in sums, (E_min.ainvs, p)


def scan_traces_to_bound(E_min, p, found, lo, hi):
    """The trace scan that stops only once every class has a witness, so at
    p = 3, where none can witness the nonsplit Cartan class, it runs to hi."""
    disc = E_min.discriminant
    for ell in primerange(lo, hi):
        if all(found.values()):
            return
        if ell == p or disc % ell == 0:
            continue
        a = count_points_ap(E_min, ell).a_ell % p
        D = (a * a - 4 * ell) % p
        chi = kronecker_symbol(D, p)
        if chi == -1 and found["borel"] is None:
            found["borel"] = (ell, f"a={a}, disc nonsquare mod {p}")
        if a != 0:
            if chi == -1 and found["split_cartan_normalizer"] is None:
                found["split_cartan_normalizer"] = (ell, f"a={a}, disc nonsquare mod {p}")
            if chi == 1 and found["nonsplit_cartan_normalizer"] is None:
                found["nonsplit_cartan_normalizer"] = (ell, f"a={a}, disc nonzero square mod {p}")
            if found["exceptional"] is None:
                u = a * a * pow(ell, -1, p) % p
                if u not in (0, 1, 2, 4) and (u * u - 3 * u + 1) % p != 0:
                    found["exceptional"] = (ell, f"trace ratio {u} outside exceptional set mod {p}")


def check_c1_str_full_scan(E, p, prime_bound=conditions.DEFAULT_PRIME_BOUND):
    """check_c1_str with `scan_traces_to_bound` in place of its scan: the
    reference that the p = 3 stop rule must match byte for byte.  CM is
    read first, before any trace, as check_c1_str reads it."""
    check_prime_bound(prime_bound)
    E_min = conditions._require_good_odd_p(E, p)
    params = {"prime_bound": prime_bound}
    cm = conditions.cm_order(E_min)
    if cm is not None:
        cls = "split" if kronecker_symbol(cm[0], p) == 1 else "nonsplit"
        witness = (p, f"CM by discriminant {cm[0]}: image in the normalizer of the {cls} Cartan")
        return Verdict(Status.FAILS, (witness,), params)
    found = {c: None for c in conditions._WITNESS_CLASSES}
    if p == 3:
        found["exceptional"] = (0, "vacuous for p = 3")
    first_hi = min(prime_bound + 1, ecq._SHANKS_MESTRE_FROM)
    scan_traces_to_bound(E_min, p, found, 3, first_hi)
    if not all(found.values()):
        witness = conditions._negative_certificate(E_min, p)
        if witness is not None:
            return Verdict(Status.FAILS, (witness,), params)
    scan_traces_to_bound(E_min, p, found, first_hi, prime_bound + 1)
    if all(found.values()):
        witnesses = tuple((ell, f"{cls}: {detail}") for cls, (ell, detail) in found.items())
        return Verdict(Status.HOLDS, witnesses, params)
    missing = [c for c, w in found.items() if w is None]
    return Verdict(Status.INCONCLUSIVE, (), {**params, "unresolved_classes": missing})
