import ast
import itertools
import os
import random

import pytest

from iwk.errors import BudgetExceeded, PrecisionExhausted
from iwk.padic import INFINITY, ord_p
from iwk.zpmod import (
    DeltaCharacter,
    FgZpModule,
    GroupRingPresentation,
    Presentation,
    all_characters,
    bareiss_det,
    delta_decompose,
    diagonal_presentation,
    direct_sum,
    fitting_from_minors,
    module_from_presentation,
    phi,
    phi0_of_cokernel,
    phi_bruteforce,
    smith_normal_form,
)


def random_module(rng, p=None, max_s=4, max_e=4, max_size=None):
    p = p or rng.choice([3, 5, 7])
    while True:
        s = rng.randint(0, max_s)
        exps = tuple(sorted((rng.randint(1, max_e) for _ in range(s)), reverse=True))
        if max_size is None or p ** sum(exps) <= max_size:
            return FgZpModule(p, 0, exps)


# ---------------------------------------------------------------------------
# Smith normal form.


def test_snf_diagonal_input():
    P = Presentation(5, 4, ((5, 0), (0, 25)))
    divs = smith_normal_form(P)
    assert divs == [1, 2]


def test_snf_zero_matrix():
    P = Presentation(3, 3, ((0, 0, 0), (0, 0, 0)))
    divs = smith_normal_form(P)
    assert divs == [INFINITY, INFINITY]


def test_snf_rank_one_square():
    # [[p, p], [p, p]] mod p^3: one divisor p, one vanishing at this precision
    for p in (3, 5):
        P = Presentation(p, 3, ((p, p), (p, p)))
        divs = smith_normal_form(P)
        assert divs == [1, INFINITY]


def test_snf_divisors_ordered():
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        N = rng.randint(2, 5)
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        mod = p**N
        A = tuple(tuple(rng.randrange(mod) for _ in range(m)) for _ in range(n))
        divs = smith_normal_form(Presentation(p, N, A))
        finite = [v for v in divs if v != INFINITY]
        assert finite == sorted(finite)
        assert divs[len(finite):] == [INFINITY] * (n - len(finite))


def _full_scan_snf(P):
    """Pivot on the first minimal-valuation entry of the whole remaining
    block, with no early stop, and clear both the pivot's column and row."""
    p, mod = P.p, P.p**P.precision
    n, m = P.generators, P.relations
    A = [list(row) for row in P.matrix]
    divisors = []
    for k in range(min(n, m)):
        best, best_v = None, INFINITY
        for i in range(k, n):
            for j in range(k, m):
                if ord_p(A[i][j], p) < best_v:
                    best, best_v = (i, j), ord_p(A[i][j], p)
        if best is None:
            break
        bi, bj = best
        A[k], A[bi] = A[bi], A[k]
        for row in A:
            row[k], row[bj] = row[bj], row[k]
        pv = p**best_v
        unit_inv = pow(A[k][k] // pv, -1, mod)
        A[k] = [x * unit_inv % mod for x in A[k]]
        for i in range(k + 1, n):
            t = A[i][k] // pv
            A[i] = [(x - t * y) % mod for x, y in zip(A[i], A[k])]
        for j in range(k + 1, m):
            t = A[k][j] // pv
            for row in A:
                row[j] = (row[j] - t * row[k]) % mod
        divisors.append(best_v)
    return divisors + [INFINITY] * (n - len(divisors))


def test_snf_matches_full_scan_oracle():
    rng = random.Random(13)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        N = rng.randint(1, 6)
        n, m = rng.randint(1, 6), rng.randint(1, 7)
        mod = p**N
        scale = p ** rng.randint(0, 2)
        r0, c0 = rng.randint(0, n), rng.randint(0, m)
        A = tuple(
            tuple(
                rng.randrange(mod) * (scale if i >= r0 and j >= c0 else 1) % mod
                for j in range(m)
            )
            for i in range(n)
        )
        P = Presentation(p, N, A)
        assert smith_normal_form(P) == _full_scan_snf(P), (p, N, A)


def test_module_from_presentation_examples():
    assert module_from_presentation(
        Presentation(3, 5, ((27, 0), (0, 3)))
    ) == FgZpModule(3, 0, (3, 1))
    assert module_from_presentation(Presentation(3, 3, ((), ()))) == FgZpModule(3, 2)
    assert module_from_presentation(
        Presentation(7, 4, ((7, 1), (0, 7)))
    ) == FgZpModule(7, 0, (2,))


def test_snf_round_trip():
    rng = random.Random(12)
    for _ in range(50):
        M = random_module(rng)
        assert module_from_presentation(diagonal_presentation(M)) == M


# ---------------------------------------------------------------------------
# Fitting ideals: formula route.


def test_fitting_formula_examples():
    assert phi(FgZpModule(7, 1, (2,)), 0) == INFINITY
    assert phi(FgZpModule(7, 0, (3, 1)), 0) == 4
    assert phi(FgZpModule(7, 0, (3, 1)), 2) == 0
    assert phi(FgZpModule(5), 0) == 0
    M = FgZpModule(5, 0, (3, 1))
    assert (phi(M, 0), phi(M, 1), phi(M, 2)) == (4, 1, 0)
    assert phi(FgZpModule(5, 2, (1,)), 1) == INFINITY
    assert phi(FgZpModule(5, 0, (3, 2)), 1) == 2
    assert phi(FgZpModule(5, 0, (3,)), 1) == 0


def test_phi_monotone_and_order():
    rng = random.Random(13)
    for _ in range(100):
        M = random_module(rng)
        vals = [phi(M, i) for i in range(len(M.exponents) + 2)]
        for a, b in zip(vals, vals[1:]):
            assert a >= b
        assert phi(M, 0) == sum(M.exponents)


# ---------------------------------------------------------------------------
# Brute force and minors.


def test_bruteforce_examples():
    assert phi_bruteforce(FgZpModule(3, 0, (1,)), 0) == 1
    assert phi_bruteforce(FgZpModule(3, 0, (2, 1)), 1) == 1
    assert phi_bruteforce(FgZpModule(3, 0, (2, 2)), 1) == 2


def full_element_search(M, i):
    """Reference brute force: a_1 runs over every element of M at every
    level, the quotient's invariants come from SNF of [diag(p^d) | a_1], and
    the last element is the one of largest order."""
    p = M.p
    prec = max(M.exponents, default=0) + 1
    memo = {}

    def quotient(divs, a):
        rows = tuple(
            tuple(p**d if j == k else 0 for j in range(len(divs))) + (x,)
            for k, (d, x) in enumerate(zip(divs, a))
        )
        return tuple(v for v in smith_normal_form(Presentation(p, prec, rows)) if v)

    def search(divs, r):
        if not divs or r == 0:
            return sum(divs)
        if (divs, r) not in memo:
            if r == 1:
                orders = [[d - ord_p(x, p) if x else 0 for x in range(p**d)] for d in divs]
                memo[divs, r] = sum(divs) - max(map(max, itertools.product(*orders)))
            else:
                elements = itertools.product(*(range(p**d) for d in divs))
                memo[divs, r] = min(search(quotient(divs, a), r - 1) for a in elements)
        return memo[divs, r]

    return search(tuple(sorted(M.exponents)), i)


def test_bruteforce_visits_one_element_per_orbit(monkeypatch):
    # scaling coordinate k of the sum of Z/p^{d_k} by a unit is an
    # automorphism, so a_1 needs one element per orbit: the valuation
    # vectors (p^{v_k}) with 0 <= v_k <= d_k, p^{d_k} standing for 0
    import iwk.zpmod as zpmod

    smith_divisors = zpmod._smith_divisors
    for M in (FgZpModule(7, 0, (3, 1)), FgZpModule(3, 0, (3, 2, 1))):
        p, divs = M.p, tuple(sorted(M.exponents))
        prec = max(divs) + 1

        def valuations(column, diagonal):
            # (v_k) if the column is the valuation vector (p^{v_k}) with
            # p^{d_k} written as 0, else None
            vs = tuple(ord_p(x, p) if x else ord_p(q, p) for x, q in zip(column, diagonal))
            rep = [p**v if p**v < q else 0 for v, q in zip(vs, diagonal)]
            return vs if column == rep else None

        for i in (1, 2):
            calls = []

            def recording_snf(A, p, N):
                calls.append(([row[k] for k, row in enumerate(A)], [row[-1] for row in A]))
                return smith_divisors(A, p, N)

            monkeypatch.setattr(zpmod, "_smith_divisors", recording_snf)
            assert phi_bruteforce(M, i, budget=10**7) == phi(M, i)
            monkeypatch.undo()
            assert full_element_search(M, i) == phi(M, i)
            # every quotient at every level is by a valuation vector
            assert all(valuations(col, diag) is not None for diag, col in calls)
            if i == 1:
                # each valuation vector exactly once, and no other Smith form
                seen = [valuations(col, diag) for diag, col in calls]
                assert sorted(seen) == list(itertools.product(*(range(d + 1) for d in divs)))

        # orbit of (p^{v_k}): prod phi(p^{d_k - v_k}) elements, together all of M
        def totient(e):
            return p**e - p ** (e - 1) if e else 1

        orbit_size = {}
        for vs in itertools.product(*(range(d + 1) for d in divs)):
            size = 1
            for d, v in zip(divs, vs):
                size *= totient(d - v)
            orbit_size[vs] = size
        assert sum(orbit_size.values()) == p ** sum(divs)

        # every element's quotient has its representative's Smith divisors
        def quotient(a):
            rows = [[p**d if j == k else 0 for j in range(len(divs))] + [x]
                    for k, (d, x) in enumerate(zip(divs, a))]
            return smith_divisors(rows, p, prec)

        rep_quotient = {}
        counts = dict.fromkeys(orbit_size, 0)
        for a in itertools.product(*(range(p**d) for d in divs)):
            vs = tuple(ord_p(x, p) if x else d for x, d in zip(a, divs))
            counts[vs] += 1
            if vs not in rep_quotient:
                rep = tuple(p**v if v < d else 0 for v, d in zip(vs, divs))
                rep_quotient[vs] = quotient(rep)
            assert quotient(a) == rep_quotient[vs], (M, a)
        assert counts == orbit_size


def test_bruteforce_matches_full_element_search():
    rng = random.Random(16)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        i = rng.choice([0, 1, 2, 3])
        M = random_module(rng, p=p, max_size=[10**4, 10**4, 1000, 100][i])
        assert phi_bruteforce(M, i) == full_element_search(M, i), (M, i)


def _bench_partitions():
    """bench/inputs.PARTITIONS, the exponent shapes the modules workload runs."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "inputs.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    (node,) = [n for n in tree.body if isinstance(n, ast.Assign)
               and getattr(n.targets[0], "id", None) == "PARTITIONS"]
    return ast.literal_eval(node.value)


def test_bruteforce_budget(monkeypatch):
    # the budget meters work: each level is charged, before it runs, its
    # prod (d_k + 1) Smith forms times (rows + precision), so a runaway is
    # refused before any Smith form is made
    import iwk.zpmod as zpmod

    smith_divisors = zpmod._smith_divisors
    forms = []
    monkeypatch.setattr(zpmod, "_smith_divisors", lambda *a: forms.append(a) or smith_divisors(*a))
    for M in (FgZpModule(3, 0, (99, 99, 99)), FgZpModule(2, 0, (1,) * 19)):
        with pytest.raises(BudgetExceeded, match="over budget 1000000"):
            phi_bruteforce(M, 1)
    assert forms == []
    # #M^3 = 3^48, yet the memoized levels stay within the budget
    M = FgZpModule(3, 0, (4, 4, 4, 4))
    assert phi_bruteforce(M, 2) == phi(M, 2) == 8
    assert phi_bruteforce(M, 3) == phi(M, 3) == 4
    # its first level alone is 5^4 forms of 4 rows at precision 5
    with pytest.raises(BudgetExceeded):
        phi_bruteforce(M, 1, budget=5**4 * 9 - 1)
    assert phi_bruteforce(M, 1, budget=5**4 * 9) == phi(M, 1)
    # len(divs) elements generate M, so a larger i searches no deeper
    assert phi_bruteforce(FgZpModule(7, 0, (3, 1)), 5000) == 0
    # every shape the benchmark brute-forces runs at the default budget
    for p, shapes in _bench_partitions().items():
        for exps in shapes:
            for i in range(3):
                assert phi_bruteforce(FgZpModule(p, 0, exps), i) == phi(FgZpModule(p, 0, exps), i)
    with pytest.raises(ValueError):
        phi_bruteforce(FgZpModule(3, 1, (1,)), 0)


def test_minors_examples():
    P = Presentation(5, 5, ((5, 0), (0, 25)))
    assert fitting_from_minors(P, 0).generator_valuation == 3
    assert fitting_from_minors(P, 1).generator_valuation == 1
    assert fitting_from_minors(P, 2).generator_valuation == 0
    # too few columns to form a minor: structurally the zero ideal
    free = Presentation(5, 3, ((0,), (0,)))
    assert fitting_from_minors(free, 0).generator_valuation == INFINITY
    with pytest.raises(PrecisionExhausted):
        fitting_from_minors(Presentation(5, 2, ((25, 0), (0, 25))), 0)

    def diag(n, x):
        return tuple(tuple(x * (r == c) for c in range(n)) for r in range(n))

    # seven generators at i = 0 are one minor: only MINOR_BUDGET bounds the work
    assert fitting_from_minors(Presentation(5, 8, diag(7, 5)), 0).generator_valuation == 7
    with pytest.raises(PrecisionExhausted):
        fitting_from_minors(Presentation(5, 2, diag(7, 0)), 0)
    # C(6, 6) * C(20, 6) = 38,760 minors at i = 0, over MINOR_BUDGET
    with pytest.raises(BudgetExceeded, match="38760 minors of order 6 exceed the budget"):
        fitting_from_minors(Presentation(5, 2, tuple((5,) * 20 for _ in range(6))), 0)
    # the budget weighs each minor by its order and its entries' size, not
    # only the count, and refuses before any elimination starts.  One 40 x 40
    # minor's products reach about 2,600 bits at precision 41, 6,400 at 100
    assert fitting_from_minors(Presentation(3, 41, diag(40, 3)), 0).generator_valuation == 40
    with pytest.raises(BudgetExceeded, match="1 minors of order 40"):
        fitting_from_minors(Presentation(3, 100, diag(40, 3)), 0)
    # 10^4 minors of order 99, and one of order 300
    with pytest.raises(BudgetExceeded, match="10000 minors of order 99"):
        fitting_from_minors(Presentation(5, 101, diag(100, 5)), 1)
    with pytest.raises(BudgetExceeded, match="1 minors of order 300"):
        fitting_from_minors(Presentation(3, 2, diag(300, 3)), 0)


def test_oracle_triangle_small():
    rng = random.Random(14)
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        i = rng.choice([0, 1, 2, 3])
        M = random_module(rng, p=p, max_size=100 if i >= 2 else 10**4)
        a = phi(M, i)
        b = phi_bruteforce(M, i)
        c = fitting_from_minors(diagonal_presentation(M), i).generator_valuation
        assert a == b == c, (M, i, a, b, c)


def test_fitting_presentation_independence():
    # random invertible row/column transforms and redundant relations keep
    # every Fitting valuation of the presented module unchanged
    rng = random.Random(15)
    for _ in range(40):
        M = random_module(rng, max_s=3)
        if not M.exponents:
            continue
        P = diagonal_presentation(M)
        mod = P.p**P.precision
        n, m = P.generators, P.relations
        A = [list(r) for r in P.matrix]
        for _ in range(6):  # random unimodular row/col operations
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randrange(mod)
                for k in range(m):
                    A[i][k] = (A[i][k] + c * A[j][k]) % mod
            i, j = rng.randrange(m), rng.randrange(m)
            if i != j:
                c = rng.randrange(mod)
                for k in range(n):
                    A[k][i] = (A[k][i] + c * A[k][j]) % mod
        # append a redundant relation: a random combination of the others
        coeffs = [rng.randrange(mod) for _ in range(m)]
        extra = [sum(A[k][j] * coeffs[j] for j in range(m)) % mod for k in range(n)]
        for k in range(n):
            A[k].append(extra[k])
        P2 = Presentation(P.p, P.precision, tuple(tuple(r) for r in A))
        assert module_from_presentation(P2) == M
        for i in range(n + 1):
            assert (
                fitting_from_minors(P2, i).generator_valuation == phi(M, i)
            ), (M, i)


# ---------------------------------------------------------------------------
# Structural operations.


def test_dual_direct_sum_examples():
    assert direct_sum(FgZpModule(5, 0, (2,)), FgZpModule(5, 0, (3,))) == FgZpModule(
        5, 0, (3, 2)
    )
    with pytest.raises(ValueError):
        direct_sum(FgZpModule(5), FgZpModule(7))


def test_bounded_junk_stability():
    # families M_n = base_n + junk of order <= p^B move Phi_i by at most B
    rng = random.Random(18)
    for _ in range(40):
        p = rng.choice([3, 5, 7])
        B = rng.randint(0, 3)
        for n in range(1, 15):
            base = FgZpModule(
                p, 0, tuple(sorted((n, rng.randint(1, n)), reverse=True))
            )
            junk_exps = []
            budget = B
            while budget > 0 and rng.random() < 0.7:
                e = rng.randint(1, budget)
                junk_exps.append(e)
                budget -= e
            junk = FgZpModule(p, 0, tuple(sorted(junk_exps, reverse=True)))
            M = direct_sum(base, junk)
            for i in range(4):
                assert abs(phi(M, i) - phi(base, i)) <= B


# ---------------------------------------------------------------------------
# phi0 of a cokernel over Z/p^N (capped divisors).


def test_phi0_of_cokernel():
    # zero relations: each generator contributes a full Z/p^N
    P = Presentation(5, 2, ((0, 0), (0, 0)))
    assert phi0_of_cokernel(P) == 4
    P2 = Presentation(5, 2, ((5, 0), (0, 1)))
    assert phi0_of_cokernel(P2) == 1


# ---------------------------------------------------------------------------
# Delta-character decomposition.


def trivial_action_presentation(p, N, matrix):
    """Group-ring presentation of a trivially-acted module: the plain
    relations plus (delta_a - 1) * generator for every generator and a."""
    n = len(matrix)
    m = len(matrix[0]) if matrix else 0
    ents = []
    for i in range(n):
        row = []
        for j in range(m):
            cell = [0] * (p - 1)
            cell[0] = matrix[i][j]  # delta_1 is the identity element
            row.append(tuple(cell))
        for g in range(n):
            for a in range(2, p):
                cell = [0] * (p - 1)
                if g == i:
                    cell[a - 1] = 1
                    cell[0] = -1
                row.append(tuple(cell))
        ents.append(tuple(row))
    return GroupRingPresentation(p, N, tuple(ents))


def test_delta_trivial_action():
    p, N = 5, 3
    GP = trivial_action_presentation(p, N, [[5, 0], [0, 25]])
    triv = DeltaCharacter(p, 0)
    M_triv = module_from_presentation(delta_decompose(GP, triv))
    assert M_triv == FgZpModule(5, 0, (2, 1))
    for chi in all_characters(p)[1:]:
        M_chi = module_from_presentation(delta_decompose(GP, chi))
        assert M_chi == FgZpModule(5)


def test_delta_regular_representation():
    p, N = 5, 2
    GP = GroupRingPresentation(p, N, ((),))  # one generator, no relations
    total = phi0_of_cokernel(GP.underlying_presentation())
    parts = []
    for chi in all_characters(p):
        P_chi = delta_decompose(GP, chi)
        assert P_chi.generators == 1 and P_chi.relations == 0
        parts.append(phi0_of_cokernel(P_chi))
    assert parts == [N] * (p - 1)
    assert sum(parts) == total == N * (p - 1)


def random_group_ring_presentation(rng, p, N, max_n=3, max_m=5):
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
    mod = p**N
    ents = tuple(
        tuple(
            tuple(rng.randrange(mod) for _ in range(p - 1)) for _ in range(m)
        )
        for _ in range(n)
    )
    return GroupRingPresentation(p, N, ents)


def test_delta_conservation_random():
    rng = random.Random(19)
    p, N = 5, 2
    for _ in range(30):
        GP = random_group_ring_presentation(rng, p, N)
        total = phi0_of_cokernel(GP.underlying_presentation())
        parts = sum(
            phi0_of_cokernel(delta_decompose(GP, chi)) for chi in all_characters(p)
        )
        assert parts == total


def test_delta_rejects_p_2():
    with pytest.raises(ValueError):
        GroupRingPresentation(2, 2, ())


# ---------------------------------------------------------------------------
# Small helpers.


def test_bareiss_det():
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    rng = random.Random(20)
    for n in (1, 2, 3, 4):
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        # expansion by permutations as the independent reference
        ref = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = [[perm[i] < perm[j] for j in range(n)] for i in range(n)]
            inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
            sign = -1 if inv % 2 else 1
            term = sign
            for i in range(n):
                term *= A[i][perm[i]]
            ref += term
        assert bareiss_det(A) == ref
