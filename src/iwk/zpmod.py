"""Finitely generated Z_p-module calculus over the truncated ring Z/p^N.

Modules are held in structure-theorem normal form (free rank plus a
descending list of exponents).  Fitting-ideal valuations come with three
independent routes: the closed formula on normal forms, brute-force
minimization over element tuples (each element taken up to the diagonal
unit automorphisms of the module it divides), and exact minor enumeration on
a presentation matrix.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Sequence, Tuple

from ._record import Record
from .errors import BudgetExceeded, PrecisionExhausted
from .padic import INFINITY, Valuation, ord_p, teichmuller, _check_prime

# The most work fitting_from_minors takes on, in word operations: Bareiss
# elimination on a k x k minor makes about k^3 products of integers of up to
# k * log2(p^N) bits, w 64-bit words each, and each minor also costs about
# 16 such operations to enumerate, so the route estimates
# C(n, k) * C(m, k) * (k^3 * w + 16).  A count of minors alone does not bound
# the time, since one minor can be as large as the matrix.
MINOR_BUDGET = 5 * 10**6

class FgZpModule(Record):
    """Z_p^r + sum of Z/p^{e_j} with e_1 >= e_2 >= ... >= e_s >= 1."""

    _fields = ("p", "free_rank", "exponents")

    def __init__(self, p: int, free_rank: int = 0, exponents: Tuple[int, ...] = ()):
        _check_prime(p)
        if free_rank < 0:
            raise ValueError("free rank must be >= 0")
        exps = tuple(exponents)
        if any(e < 1 for e in exps):
            raise ValueError("exponents must be >= 1; drop trivial factors")
        if list(exps) != sorted(exps, reverse=True):
            raise ValueError("exponents must be non-increasing")
        self.__dict__.update(p=p, free_rank=free_rank, exponents=exps)

    @property
    def is_torsion(self) -> bool:
        return self.free_rank == 0


class Presentation(Record):
    """Relation matrix over Z/p^N; rows index generators, columns relations."""

    _fields = ("p", "precision", "matrix")

    def __init__(self, p: int, precision: int, matrix: Tuple[Tuple[int, ...], ...]):
        _check_prime(p)
        if precision < 1:
            raise ValueError("precision must be >= 1")
        mod = p**precision
        rows = tuple(tuple(x % mod for x in row) for row in matrix)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        self.__dict__.update(p=p, precision=precision, matrix=rows)

    @property
    def generators(self) -> int:
        return len(self.matrix)

    @property
    def relations(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0


class FittingIdeal(Record):
    """Ideal p^v Z_p; v = 0 is the unit ideal, INFINITY the zero ideal."""

    _fields = ("generator_valuation",)

    def __init__(self, generator_valuation: Valuation):
        self.__dict__["generator_valuation"] = generator_valuation


class DeltaCharacter(Record):
    """Power omega^index of the Teichmuller character of (Z/p)^x."""

    _fields = ("p", "index")

    def __init__(self, p: int, index: int):
        _check_prime(p)
        if not 0 <= index <= p - 2:
            raise ValueError("character index out of range")
        self.__dict__.update(p=p, index=index)

    def value(self, a: int, precision: int) -> int:
        """chi(a) as a residue mod p^precision."""
        t = teichmuller(a % self.p, self.p, precision)
        return pow(t, self.index, self.p**precision)


def all_characters(p: int) -> List[DeltaCharacter]:
    return [DeltaCharacter(p, k) for k in range(p - 1)]


# ---------------------------------------------------------------------------
# Exact integer determinants.


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


# ---------------------------------------------------------------------------
# Smith normal form over the local ring Z/p^N.


def smith_normal_form(P: Presentation) -> List[Valuation]:
    """Smith divisors of A by row operations and column swaps, pivoting on
    minimal-valuation entries (Cohen, GTM 138, section 2.4.4).

    Returns one valuation per generator slot, non-decreasing; a slot whose
    divisor vanishes mod p^N is reported INFINITY (the caller's precision
    contract makes residue 0 mean the zero divisor).  Each pivot is scaled
    to exactly p^v and its column cleared below it; column operations would
    only clear the pivot's row, which no later step reads, so none are made.
    """
    return _smith_divisors([list(row) for row in P.matrix], P.p, P.precision)


def _smith_divisors(A: List[List[int]], p: int, N: int) -> List[Valuation]:
    """smith_normal_form on rows of residues already reduced mod p^N; A is
    overwritten."""
    mod = p**N
    n, m = len(A), len(A[0]) if A else 0

    divisors: List[Valuation] = []
    floor = 0
    for k in range(min(n, m)):
        # first minimal-valuation entry of the remaining block in row-major
        # order; no entry lies below the previous pivot's valuation
        best = None
        best_v = None
        for i in range(k, n):
            for j in range(k, m):
                x = A[i][j]
                if x:
                    v = ord_p(x, p)
                    if best_v is None or v < best_v:
                        best, best_v = (i, j), v
                        if v == floor:
                            break
            if best_v == floor:
                break
        if best is None:
            break
        bi, bj = best
        A[k], A[bi] = A[bi], A[k]
        for row in A[k:]:
            row[k], row[bj] = row[bj], row[k]
        floor = best_v
        pv = p**floor
        unit_inv = pow(A[k][k] // pv, -1, mod)
        Ak = A[k][k:] = [x * unit_inv % mod for x in A[k][k:]]
        # pivot is now exactly p^v; clear its column below row k
        for i in range(k + 1, n):
            if A[i][k]:
                t = A[i][k] // pv
                A[i][k:] = [(x - t * y) % mod for x, y in zip(A[i][k:], Ak)]
        divisors.append(floor)

    while len(divisors) < n:
        divisors.append(INFINITY)
    return divisors


def module_from_presentation(P: Presentation) -> FgZpModule:
    """Structure-theorem normal form of the cokernel of P."""
    divisors = smith_normal_form(P)
    free_rank = sum(1 for v in divisors if v == INFINITY)
    exponents = sorted((int(v) for v in divisors if v != INFINITY and v > 0), reverse=True)
    return FgZpModule(P.p, free_rank, tuple(exponents))


def phi0_of_cokernel(P: Presentation) -> int:
    """ord_p of the (always finite) cokernel order over the ring Z/p^N.

    Divisors cap at N, so a residue-zero divisor contributes exactly N and
    no precision ambiguity arises.
    """
    divisors = smith_normal_form(P)
    N = P.precision
    return sum(N if v == INFINITY else min(int(v), N) for v in divisors)


def diagonal_presentation(M: FgZpModule) -> Presentation:
    """Canonical presentation diag(p^{e_1},...,p^{e_s}) plus relation-free rows.

    Its precision exceeds the sum of the exponents so that every minor
    determinant stays visible."""
    s = len(M.exponents)
    rows = [tuple(M.p**e if j == k else 0 for j in range(s)) for k, e in enumerate(M.exponents)]
    rows += [(0,) * s] * M.free_rank
    return Presentation(M.p, sum(M.exponents) + 1, tuple(rows))


# ---------------------------------------------------------------------------
# Fitting ideals: formula route, minor route, brute-force route.


def phi(M: FgZpModule, i: int) -> Valuation:
    """Valuation of the i-th Fitting ideal, in closed form on the normal
    form: INFINITY (the zero ideal) below the free rank, then tail sums of
    the exponents, down to 0 (the unit ideal)."""
    if i < 0:
        raise ValueError("i must be >= 0")
    if i < M.free_rank:
        return INFINITY
    return sum(M.exponents[i - M.free_rank :])


def fitting_from_minors(P: Presentation, i: int) -> FittingIdeal:
    """Minimal valuation over all (n-i) x (n-i) minors, computed exactly over Z.

    Entries lift canonically; a minor determinant is trusted only when its
    valuation stays below the precision N.
    """
    if i < 0:
        raise ValueError("i must be >= 0")
    n, m = P.generators, P.relations
    if i >= n:
        return FittingIdeal(0)
    k = n - i
    if k > m:
        # not enough relation columns to form a single minor: the zero ideal
        return FittingIdeal(INFINITY)
    count = math.comb(n, k) * math.comb(m, k)
    words = 1 + k * (P.p**P.precision - 1).bit_length() // 64
    work = count * (k**3 * words + 16)
    if work > MINOR_BUDGET:
        raise BudgetExceeded(
            f"{count} minors of order {k} exceed the budget: "
            f"about {work} word operations, over {MINOR_BUDGET}"
        )
    p, N = P.p, P.precision
    best: Valuation = INFINITY
    for rows in itertools.combinations(range(n), k):
        for cols in itertools.combinations(range(m), k):
            det = bareiss_det([[P.matrix[r][c] for c in cols] for r in rows])
            v = ord_p(det, p)
            if v < best:
                best = v
                if best == 0:
                    return FittingIdeal(0)
    if best >= N:
        raise PrecisionExhausted(
            "all minors vanish mod p^N; cannot certify the zero ideal"
        )
    return FittingIdeal(best)


def phi_bruteforce(M: FgZpModule, i: int, budget: int = 10**6) -> Valuation:
    """Minimum of ord_p #(M / <a_1,...,a_i>) over all i-tuples of elements.

    Exhaustive up to automorphisms of M, and formula-free.  The minimum over
    the later elements depends only on the invariants of M / <a_1>, and
    scaling coordinate k of the sum of Z/p^{d_k} by a unit is an automorphism,
    so M / <a> is isomorphic to M / <(p^{ord_p a_k})_k>.  a_1 thus runs over
    one element per orbit, the vectors (p^{v_1}, ..., p^{v_s}) with
    0 <= v_k <= d_k (p^{d_k} being 0): prod (d_k + 1) Smith forms of
    [diag(p^d) | a_1] where every element would take p^(sum d).  The search
    recurses on the quotient's invariants, memoized for this call.

    The budget bounds work: each level is charged, before it runs, its Smith
    forms times (rows + precision); BudgetExceeded is raised past `budget`.
    """
    if not M.is_torsion:
        raise ValueError("brute force requires a torsion module")
    if i < 0:
        raise ValueError("i must be >= 0")
    exps = M.exponents
    p = M.p
    # quotient of the zero module is trivial for any tuple
    if not exps:
        return 0

    work_prec = max(exps) + 1
    work = 0

    def quotient(divs: Tuple[int, ...], a: Tuple[int, ...]) -> Tuple[int, ...]:
        # nonzero SNF divisors of [diag(p^d) | a], non-decreasing; all are
        # finite because every p^d is nonzero mod p^work_prec, and every
        # entry is already reduced
        rows = [
            [p**d if j == k else 0 for j in range(len(divs))] + [x]
            for k, (d, x) in enumerate(zip(divs, a))
        ]
        return tuple(v for v in _smith_divisors(rows, p, work_prec) if v)

    memo = {}

    def search(divs: Tuple[int, ...], r: int) -> int:
        nonlocal work
        if r == 0:
            return sum(divs)
        if (divs, r) not in memo:
            forms = math.prod(d + 1 for d in divs)
            work += forms * (len(divs) + work_prec)
            if work > budget:
                raise BudgetExceeded(
                    f"{forms} Smith forms of {len(divs)} rows bring the brute force's work "
                    f"to {work}, over budget {budget}"
                )
            reps = itertools.product(*([p**v for v in range(d)] + [0] for d in divs))
            memo[divs, r] = min(search(quotient(divs, a), r - 1) for a in reps)
        return memo[divs, r]

    # s elements generate M, and a quotient by one element needs at least
    # s - 1, so no level asks for more elements than its module needs
    return search(tuple(reversed(exps)), min(i, len(exps)))


# ---------------------------------------------------------------------------
# Structural operations.


def direct_sum(M1: FgZpModule, M2: FgZpModule) -> FgZpModule:
    if M1.p != M2.p:
        raise ValueError("mixed primes")
    exps = tuple(sorted(M1.exponents + M2.exponents, reverse=True))
    return FgZpModule(M1.p, M1.free_rank + M2.free_rank, exps)


# ---------------------------------------------------------------------------
# Character decomposition of Z/p^N[Delta]-modules, Delta = (Z/p)^x.


class GroupRingPresentation(Record):
    """Presentation over Z/p^N[Delta]; an entry is the coefficient tuple
    (c_1, ..., c_{p-1}) of sum_a c_a * delta_a indexed by residues a."""

    _fields = ("p", "precision", "entries")

    def __init__(self, p: int, precision: int,
                 entries: Tuple[Tuple[Tuple[int, ...], ...], ...] = ()):
        _check_prime(p)
        if p == 2:
            raise ValueError("Delta is trivial for p = 2; decomposition undefined")
        mod = p**precision
        ents = tuple(tuple(tuple(c % mod for c in cell) for cell in row) for row in entries)
        for row in ents:
            for cell in row:
                if len(cell) != p - 1:
                    raise ValueError("entry length must be p-1")
        self.__dict__.update(p=p, precision=precision, entries=ents)

    @property
    def generators(self) -> int:
        return len(self.entries)

    @property
    def relations(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def underlying_presentation(self) -> Presentation:
        """Forget the Delta-action: expand entries by the regular representation."""
        p, N = self.p, self.precision
        d = p - 1
        n, m = self.generators, self.relations
        rows = [[0] * (m * d) for _ in range(n * d)]
        for i in range(n):
            for j in range(m):
                cell = self.entries[i][j]
                for a in range(1, p):
                    inv_a = pow(a, -1, p)
                    for b in range(1, p):
                        # coefficient of delta_b in (entry * delta_a)
                        rows[i * d + (b - 1)][j * d + (a - 1)] = cell[(b * inv_a) % p - 1]
        return Presentation(p, N, tuple(tuple(r) for r in rows))


def delta_decompose(P: GroupRingPresentation, chi: DeltaCharacter) -> Presentation:
    """chi-component presentation: evaluate every group-ring entry at chi.

    Tensoring the presentation with Z_p(chi) over Z_p[Delta] sends
    sum_a c_a delta_a to sum_a c_a chi(a); exactness on the right keeps the
    generators and relations aligned.
    """
    p, N = P.p, P.precision
    if chi.p != p:
        raise ValueError("character prime mismatch")
    mod = p**N
    chi_vals = {a: chi.value(a, N) for a in range(1, p)}
    rows = tuple(
        tuple(sum(cell[a - 1] * chi_vals[a] for a in range(1, p)) % mod for cell in row)
        for row in P.entries
    )
    return Presentation(p, N, rows)
