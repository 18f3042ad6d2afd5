"""Inputs of the benchmark: seeded for the corpus and modules workloads,
fixed for the probes that every run makes.

The program under test only ever sees what these functions return.  Run
`python3 bench/inputs.py --workload corpus --seed 7` to print one seed's
inputs as JSON, and `--workload probes` for the fixed probe inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from typing import Dict, List, Tuple

import oracles

# The 22 standard curves of the test corpus (Cremona labels).
STANDARD_CURVES: List[Tuple[str, Tuple[int, ...]]] = [
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

CORPUS_PRIMES = (3, 5, 7, 11, 13)
CORPUS_RANDOM_CURVES = 6
# Seed-independent inputs for the short probe of each workload other than
# the selected one, so that every run reports every metric.
PROBE_SEED = 20220330

BIGDISC_PROBE_CURVES = 150
BIGDISC_PRIMES = (11, 13, 17, 19)

MODULES_UNITS = 12
MODULES_PROBE_UNITS = 4
# Largest level of today's ring budget (p^(m-1) <= 3^5) and its precision.
COINV_TOP_LEVEL = {3: 6, 5: 4, 7: 3}
COINV_PRECISION = 8
DELTA_PRECISION = 4
# Torsion modules and group-ring presentations per prime and unit, and
# series per prime and unit: enough that each batch of a unit takes a few
# tenths of a second, so that its time is not one short sample of the
# host's speed.
FITTING_PER_PRIME = 3
SERIES_PER_PRIME = 64
SERIES_P_PRECISION = 10
SERIES_T_PRECISION = 32

# Fixed cases of two known faults (not seeded).  Fault (a): the order of an
# infinite coinvariant module comes back as a multiple of the precision.
# Fault (b): growth_window_check measures level m against mu*p^m.
FAULT_CASES = (
    {"fault": "a", "what": "coinvariant_order of Lambda/(T^2), p = 3, levels 1..6",
     "p": 3, "mu": 0, "f": (0, 0, 1), "levels": 6},
    {"fault": "a", "what": "coinvariant_order of Lambda/(T^2+3T+3), p = 3, levels 1..6",
     "p": 3, "mu": 0, "f": (3, 3, 1), "levels": 6},
    {"fault": "b", "what": "growth_window_check of Lambda/(3), p = 3, levels 1..4",
     "p": 3, "mu": 1, "f": (1,), "levels": 4},
)

CACHE_BOUND = 10000
CLI_COMMANDS: Dict[str, List[str]] = {
    "analyze": ["analyze", "--curve", "0,0,1,-7,6", "--p", "7",
                "--mu", "0", "--lambda", "2", "--rank", "3"],
    "twist": ["twist", "--curve", "0,-1,1,-10,-20", "--p", "3"],
    "coinv": ["coinv", "--poly", "T^2+3*T+6", "--p", "3", "--n-range", "1..5"],
    "cache": ["cache", "--curve", "0,0,1,-7,6", "--bound", str(CACHE_BOUND)],
}

_SMALL_PRIMORIAL = 1
for _q in oracles.sieve(2**15):
    _SMALL_PRIMORIAL *= _q


# ---------------------------------------------------------------------------
# Curves.


def _random_small_curve(rng: random.Random) -> Tuple[int, ...]:
    """A curve of good reduction at every corpus prime, so that each seed's
    pass has the same number of pairs at each p."""
    while True:
        a = (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
             rng.randint(-30, 30), rng.randint(-30, 30))
        if math.gcd(oracles.invariants(a)["disc"], math.prod(CORPUS_PRIMES)) == 1:
            return a


def corpus_curves(seed: int) -> List[Tuple[str, Tuple[int, ...]]]:
    """The standard curves, each followed by up to two seeded random small
    curves."""
    rng = random.Random(seed)
    randoms = [(f"rand{k}", _random_small_curve(rng)) for k in range(CORPUS_RANDOM_CURVES)]
    out = []
    for k, std in enumerate(STANDARD_CURVES):
        out.append(std)
        out.extend(randoms[2 * k : 2 * k + 2])
    return out + randoms[2 * len(STANDARD_CURVES) :]


def good_primes(ainvs, primes=CORPUS_PRIMES) -> List[int]:
    """Primes not dividing the discriminant of the given model."""
    disc = oracles.invariants(ainvs)["disc"]
    return [p for p in primes if disc % p]


def change_model(ainvs, u: int, r: int, s: int, t: int) -> Tuple[int, ...]:
    """The model of the same curve under x = X/u^2 + r', i.e. the standard
    (u, r, s, t) substitution with u replaced by 1/u: coefficient a_i is
    multiplied by u^i, so the new model is integral and non-minimal."""
    a1, a2, a3, a4, a6 = ainvs
    return (
        u * (a1 + 2 * s),
        u**2 * (a2 - s * a1 + 3 * r - s * s),
        u**3 * (a3 + r * a1 + 2 * t),
        u**4 * (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t),
        u**6 * (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1),
    )


def _bigdisc_curve(rng: random.Random) -> Tuple[Tuple[int, ...], int]:
    """A random curve whose 25-40 digit discriminant is (primes < 2^15) times
    one prime P2 in [10^5, 10^6] times one larger prime.

    P2 lies beyond sympy's trial-division range, so factoring it takes a
    Pollard-rho step of bounded cost on every curve; the shape keeps the
    factoring cost comparable between seeds.
    """
    P2 = rng.randrange(10**5 + 3, 10**6, 4)
    while not oracles.is_prime(P2):
        P2 += 4  # stays 3 mod 4, so square roots are a single power
    while True:
        digits = rng.randint(25, 40)
        a1, a2, a3 = rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1)
        a4 = rng.choice((-1, 1)) * rng.randint(10 ** ((digits - 5) // 3), 10 ** ((digits - 2) // 3))
        disc = [oracles.invariants((a1, a2, a3, a4, x))["disc"] for x in (0, 1, -1)]
        qa = (disc[1] + disc[2]) // 2 - disc[0]
        qb = (disc[1] - disc[2]) // 2
        root_disc = (qb * qb - 4 * qa * disc[0]) % P2
        if oracles.legendre(root_disc, P2) != 1:
            continue
        sq = pow(root_disc, (P2 + 1) // 4, P2)
        r0 = (-qb + rng.choice((-1, 1)) * sq) * pow(2 * qa, -1, P2) % P2
        size = 10 ** ((digits - 3) // 2)
        a6 = r0 + P2 * rng.randint(-size // P2, size // P2)
        ainvs = (a1, a2, a3, a4, a6)
        D = oracles.invariants(ainvs)["disc"]
        if D == 0 or not 25 <= len(str(abs(D))) <= 41:
            continue
        rest = abs(D) // P2
        if rest % P2 == 0:
            continue
        g = math.gcd(rest, _SMALL_PRIMORIAL)
        while g > 1:
            rest //= g
            g = math.gcd(rest, g)
        if rest <= P2 or not oracles.is_prime(rest):
            continue
        primes = [p for p in BIGDISC_PRIMES if D % p]
        if primes:
            return ainvs, rng.choice(primes)


def bigdisc_probe_curves() -> List[Dict]:
    """BIGDISC_PROBE_CURVES distinct curves, every other one given on a
    random non-minimal model (u > 1) of its base curve.  Each curve is new
    to the process when analyzed, as sympy keeps the factors it has found."""
    rng = random.Random(PROBE_SEED)
    out = []
    for k in range(BIGDISC_PROBE_CURVES):
        base, p = _bigdisc_curve(rng)
        u, rst = 1, (0, 0, 0)
        if k % 2:
            u = rng.choice((2, 3, 5, 6, 7, 10))
            rst = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        out.append({"label": f"big{k}", "p": p, "base": base, "u": u, "rst": rst,
                    "model": change_model(base, u, *rst)})
    return out


# ---------------------------------------------------------------------------
# Modules.


# Exponent partitions cycled through unit by unit.  Their totals 6, 4, 3 are
# the largest with #M^2 within phi_bruteforce's default budget of 10^6, so
# i = 2 still runs by brute force.
MODULES_SHAPE_CYCLE = 4
PARTITIONS = {
    3: ((3, 2, 1), (2, 2, 2), (4, 1, 1), (3, 3)),
    5: ((2, 1, 1), (2, 2), (3, 1), (2, 1, 1)),
    7: ((1, 1, 1), (2, 1), (1, 1, 1), (2, 1)),
}


def _unimodular(rng: random.Random, n: int) -> List[List[int]]:
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.randint(-4, 4)
            U[i] = [x + c * y for x, y in zip(U[i], U[j])]
    return U


def _presentation(rng: random.Random, p: int, exps: Tuple[int, ...]) -> List[List[int]]:
    """U * diag(p^e) * V with random unimodular U, V."""
    n = len(exps)
    U, V = _unimodular(rng, n), _unimodular(rng, n)
    D = [[p ** exps[i] if i == j else 0 for j in range(n)] for i in range(n)]
    UD = [[sum(U[i][t] * D[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(UD[i][t] * V[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def _delta_presentation(rng: random.Random, p: int):
    mod = p**DELTA_PRECISION
    while True:
        entries = [[tuple(rng.randrange(mod) for _ in range(p - 1)) for _ in range(2)] for _ in range(2)]
        v = oracles.valuation(oracles.det(oracles.group_ring_matrix(p, entries)), p)
        if v is not None and v < DELTA_PRECISION:
            return entries


def _coinv_poly(rng: random.Random, p: int, mu: int, lam: int) -> Tuple[int, ...]:
    """An ascending distinguished f of degree lam (leading 1 included) whose
    coinvariants are finite, and within the precision, at every level."""
    while True:
        f = tuple(p * rng.randrange(p**3) for _ in range(lam)) + (1,)
        fine = True
        for m in range(1, COINV_TOP_LEVEL[p] + 1):
            order, top = oracles.coinvariants(p, mu, f, m)
            # SNF over Z/p^n caps each elementary divisor at n, which is
            # exact only while every divisor of p^mu * f is at most n.
            if order is None or top + mu > COINV_PRECISION:
                fine = False
                break
        if fine:
            return f


def _series(rng: random.Random, p: int, mu: int, lam: int) -> Dict:
    N, D = SERIES_P_PRECISION, SERIES_T_PRECISION
    mod = p**N
    f = [p * rng.randrange(p ** (N - 1)) for _ in range(lam)] + [1]
    u = [rng.randrange(mod) for _ in range(D)]
    while u[0] % p == 0:
        u[0] = rng.randrange(mod)
    s = [0] * D
    for i, x in enumerate(f):
        for j, y in enumerate(u[: D - i]):
            s[i + j] += x * y
    return {"p": p, "N": N, "D": D, "mu": mu, "lam": lam,
            "coefficients": [p**mu * c % mod for c in s]}


def modules_units(seed: int, count: int = MODULES_UNITS) -> List[Dict]:
    """Units of one make-up: per prime 3, 5, 7 FITTING_PER_PRIME torsion
    modules with random presentations and as many Z/p^N[Delta]-
    presentations, coinvariant tables
    for mu = 0 and mu = 1, and SERIES_PER_PRIME series, plus the fixed fault
    cases.  Exponent partitions and degrees cycle with the unit's index and
    only coefficients come from the seed, so every seed costs about the
    same."""
    rng = random.Random(seed)
    units = []
    for k in range(count):
        unit = {"fitting": [], "delta": [], "coinv": [], "series": []}
        for p in (3, 5, 7):
            for j in range(FITTING_PER_PRIME):
                exps = PARTITIONS[p][(k + j) % MODULES_SHAPE_CYCLE]
                unit["fitting"].append({"p": p, "exponents": exps, "precision": sum(exps) + 1,
                                        "matrix": _presentation(rng, p, exps)})
                unit["delta"].append({"p": p, "precision": DELTA_PRECISION,
                                      "entries": _delta_presentation(rng, p)})
            for mu in (0, 1):
                lam = 1 + (k + 2 * mu) % 4
                unit["coinv"].append({"p": p, "mu": mu, "f": _coinv_poly(rng, p, mu, lam),
                                      "levels": COINV_TOP_LEVEL[p]})
            unit["series"].extend(_series(rng, p, j % 2, 1 + j % 4) for j in range(SERIES_PER_PRIME))
        units.append(unit)
    return units


def workload_inputs(workload: str, seed: int) -> Dict:
    if workload == "corpus":
        return {"curves": corpus_curves(seed), "primes": CORPUS_PRIMES}
    if workload == "modules":
        return {"units": modules_units(seed), "fault_cases": FAULT_CASES}
    return {  # the probes, the same for every seed
        "corpus_curves": list(STANDARD_CURVES),
        "bigdisc_curves": bigdisc_probe_curves(),
        "modules_units": modules_units(PROBE_SEED, MODULES_PROBE_UNITS),
        "cli_commands": CLI_COMMANDS,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "modules", "probes"))
    ap.add_argument("--seed", type=int, default=0, help="ignored for the probes")
    args = ap.parse_args()
    for key, items in workload_inputs(args.workload, args.seed).items():
        for item in items.items() if isinstance(items, dict) else items:
            print(key, json.dumps(item))


if __name__ == "__main__":
    main()
