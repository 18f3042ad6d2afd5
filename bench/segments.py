"""The four workload segments: timed operations on iwk and their checks.
Besides them, every run times the host's speed and every untraced run
its own set-up, as segments of their own.

A segment owns a list of units.  The selected workload's segment (corpus
or modules) runs its units round after round for the run's length; the
others run their fixed units once, spread over it, so that every run
reports every end-to-end metric.  Each output is checked once per run
against the oracles (later rounds must reproduce it exactly), outside the
timed region.
"""

from __future__ import annotations

import csv
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from statistics import mean, median, quantiles
from typing import Dict, List, Optional

from iwk import cli, iwasawa, zpmod
from iwk.ecq import EllipticCurveQ
from iwk import twist as twist_mod

import inputs
import oracles

AP_BOUND = 10**4
CHILD_TIMEOUT_S = 120
# Every end-to-end time is CPU time (user + system, all threads) of the
# process doing the work: this process for in-process work, the child's
# rusage for a child process.  The host steals a varying share of its
# cores, which wall-clock time would count as the program's.
cpu_time = time.process_time


def middle_mean(values) -> float:
    """The median as the mean of the middle tenth of the sorted values.
    Pair and curve costs are spread over two orders of magnitude, so the
    single middle sample is one particular pair, and its timing noise is
    the metric's; averaging the samples around it keeps the location and
    averages that noise out."""
    v = sorted(values)
    k = max(1, round(len(v) / 10))
    lo = (len(v) - k) // 2
    return mean(v[lo:lo + k])


def trimmed_mean(values) -> float:
    """Mean of the samples without the highest and lowest fifth, so that
    one cold process caught by a busy neighbour does not move it."""
    v = sorted(values)
    k = len(v) // 5
    return mean(v[k:len(v) - k])


class Run:
    """What the segments of one benchmark run share."""

    def __init__(self, root: str, tmp: str, tracer=None):
        self.root, self.tmp, self.tracer = root, tmp, tracer
        self.errors: List[str] = []
        self.child_tables: List[Dict] = []

    def tracing(self, segment: Optional[str]):
        """In a traced run, spans opened inside go to `segment`'s table, or
        nowhere when it is None (check-only work)."""
        return self.tracer.into(segment) if self.tracer else nullcontext()

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)


class Segment:
    name = ""
    # A run of the selected workload ends only after whole rounds of this
    # many units; a traced run does exactly one round.
    round_units = 1

    def __init__(self, run: Run, units: list):
        self.run, self.units = run, units
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed: Counter = Counter()
        self.seen: Dict = {}

    def op(self, failure: Optional[str] = None) -> None:
        self.attempted += 1
        if failure:
            self.failed[failure] += 1

    def unexpected(self, exc: BaseException, where: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.op(f"{where}: {type(exc).__name__}: {exc}")

    def first_time(self, key, result) -> bool:
        """True the first time `key` is seen; afterwards the result must
        repeat exactly."""
        if key in self.seen:
            self.run.check(self.seen[key] == result, f"{self.name} {key}: result changed between rounds")
            return False
        self.seen[key] = result
        return True


# ---------------------------------------------------------------------------
# Checks shared by corpus and bigdisc.


def check_analysis(run: Run, where: str, ainvs, p: int, data: Dict) -> None:
    """Minimal model, bad primes, reduction kinds and C1_str witnesses of
    one `analyze_curve` report, against the oracles."""
    curve = data["curve"]
    mins = tuple(curve["minimal_ainvs"])
    u = curve["scaling_u"]
    given, minimal = oracles.invariants(ainvs), oracles.invariants(mins)
    disc = minimal["disc"]
    run.check(disc == curve["discriminant"], f"{where}: discriminant of the minimal model")
    run.check(given["c4"] == u**4 * minimal["c4"] and given["c6"] == u**6 * minimal["c6"],
              f"{where}: minimal model is not the input scaled by u = {u}")
    bad = sorted(int(ell) for ell in data["reductions"])
    rest = abs(disc)
    for ell in bad:
        run.check(oracles.is_prime(ell) and rest % ell == 0, f"{where}: bad prime {ell}")
        while rest % ell == 0:
            rest //= ell
    run.check(rest == 1, f"{where}: bad primes do not multiply back to the discriminant")
    for ell in bad:
        want = oracles.KIND_OF_TRACE[oracles.fiber_trace(mins, ell)]
        got = data["reductions"][str(ell)]["kind"]
        run.check(got == want, f"{where}: reduction at {ell} is {want}, reported {got}")
    c1 = data["verdicts"]["C1_str"]
    if c1["status"] != "HOLDS":
        return
    classes = set()
    for w in c1["witnesses"]:
        ell, detail = w["prime"], w["detail"]
        cls = detail.split(":")[0]
        classes.add(cls)
        if ell == 0:
            run.check(p == 3 and cls == "exceptional", f"{where}: vacuous witness {detail}")
            continue
        a = oracles.trace(mins, ell)
        stated = re.search(r"a=(-?\d+)", detail)
        run.check(ell != p and disc % ell != 0 and oracles.c1_witness_ok(cls, a, ell, p)
                  and (stated is None or int(stated.group(1)) == a % p),
                  f"{where}: C1_str witness {ell} ({detail}) with a_ell = {a}")
    run.check(classes == {"borel", "split_cartan_normalizer", "nonsplit_cartan_normalizer", "exceptional"},
              f"{where}: C1_str HOLDS without a witness for each class")


def check_twist(run: Run, where: str, ainvs, bad, tw_ainvs, d: int) -> None:
    """The C2 twist by d of the curve `ainvs` with bad primes `bad`."""
    run.check(oracles.is_squarefree(d, bad) and oracles.twist_consistent(ainvs, tw_ainvs, d),
              f"{where}: twist by d = {d} does not keep j or scale c6 by d^3 times a sixth power")


def analyze_and_twist(E, p: int, label: str):
    """The timed work of one (curve, p) pair: the report, plus the C2 twist
    when C2 fails."""
    report = cli.analyze_curve(E, p, ap_bound=AP_BOUND, mu=0, lam=1, rank=1, label=label)
    tw = None
    if report.data["verdicts"]["C2"]["status"] == "FAILS":
        E_tw, cert = twist_mod.construct_c2_twist(E, p)
        tw = (E_tw.ainvs, cert.d)
    return report.data, tw


# ---------------------------------------------------------------------------
# corpus


class Corpus(Segment):
    """Every good (curve, p) pair, p in {3, 5, 7, 11, 13}; one unit is one
    curve."""

    name = "corpus"

    def __init__(self, run: Run, curves):
        path = os.path.join(run.tmp, "corpus.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cli.CSV_HEADER)
            for label, a in curves:
                writer.writerow([label, *a])
        with run.tracing(self.name):
            records = cli.ingest_curves(path)
        run.check([(r.label, tuple(r.ainvs)) for r in records] == [(l, tuple(a)) for l, a in curves],
                  "corpus: ingest_curves does not read back the CSV")
        super().__init__(run, records)
        # Pair costs differ by p and curve, so only whole passes compare.
        self.round_units = len(records)

    def run_unit(self, record) -> None:
        E = record.curve()
        for p in inputs.good_primes(record.ainvs):
            where = f"corpus {record.label} p={p}"
            try:
                t0 = cpu_time()
                data, tw = analyze_and_twist(E, p, record.label)
                dt = cpu_time() - t0
            except Exception as exc:  # counted as a failed operation, run continues
                self.unexpected(exc, where)
                continue
            self.op()
            self.samples["pair"].append(dt)
            if self.first_time(where, (data, tw)):
                check_analysis(self.run, where, record.ainvs, p, data)
                if tw:
                    check_twist(self.run, where, record.ainvs, list(map(int, data["reductions"])), *tw)

    def metrics(self) -> Dict:
        pairs = self.samples["pair"]
        return {
            "corpus_pairs_per_s": (len(pairs) / sum(pairs), "pairs/s"),
            "corpus_pair_ms_p50": (1000 * middle_mean(pairs), "ms"),
            "corpus_pair_ms_p90": (1000 * quantiles(pairs, n=10)[-1], "ms"),
        }


# ---------------------------------------------------------------------------
# bigdisc


class BigDisc(Segment):
    """Curves with 25-40 digit discriminants, every other one given on a
    non-minimal model; one unit is one curve.  Run only as a probe, each
    curve once."""

    name = "bigdisc"

    def run_unit(self, c) -> None:
        where = f"bigdisc {c['label']} p={c['p']} u={c['u']}"
        try:
            t0 = cpu_time()
            result = analyze_and_twist(EllipticCurveQ(*c["model"]), c["p"], c["label"])
            dt = cpu_time() - t0
        except Exception as exc:  # counted as a failed operation, run continues
            self.unexpected(exc, where)
            return
        self.op()
        self.samples["curve"].append(dt)
        data, tw = result
        check_analysis(self.run, where, c["model"], c["p"], data)
        if tw:
            check_twist(self.run, where, c["model"], list(map(int, data["reductions"])), *tw)
        if c["u"] > 1:
            # Untimed and untraced: the same curve on its base model must
            # give the same report.
            with self.run.tracing(None):
                base, base_tw = analyze_and_twist(EllipticCurveQ(*c["base"]), c["p"], c["label"])
            same = lambda d: (d["curve"]["minimal_ainvs"], d["curve"]["discriminant"],
                              d["reductions"], d["verdicts"])
            self.run.check(same(base) == same(data) and base_tw == tw
                           and data["curve"]["scaling_u"] == c["u"] * base["curve"]["scaling_u"],
                           f"{where}: report changed under the (u, r, s, t) change of model")

    def metrics(self) -> Dict:
        curves = self.samples["curve"]
        return {
            "bigdisc_curves_per_s": (len(curves) / sum(curves), "curves/s"),
            "bigdisc_curve_s_p50": (middle_mean(curves), "s"),
        }


# ---------------------------------------------------------------------------
# modules


def _fitting_routes(item):
    p, exps = item["p"], tuple(item["exponents"])
    M = zpmod.FgZpModule(p, 0, exps)
    P = zpmod.Presentation(p, item["precision"], tuple(map(tuple, item["matrix"])))
    diag = zpmod.diagonal_presentation(M)
    size = p ** sum(exps)
    rows = []
    for i in range(len(exps) + 1):
        brute = zpmod.phi_bruteforce(M, i) if i <= 3 and size**i <= 10**6 else None
        rows.append((zpmod.phi(M, i), brute,
                     zpmod.fitting_from_minors(diag, i).generator_valuation,
                     zpmod.fitting_from_minors(P, i).generator_valuation))
    return rows, zpmod.module_from_presentation(P).exponents


def _delta_parts(item):
    P = zpmod.GroupRingPresentation(item["p"], item["precision"],
                                    tuple(tuple(map(tuple, row)) for row in item["entries"]))
    return [zpmod.phi0_of_cokernel(zpmod.delta_decompose(P, chi))
            for chi in zpmod.all_characters(item["p"])]


def _lambda_module(p: int, mu: int, f) -> "iwasawa.ElementaryLambdaModule":
    factors = ((iwasawa.DistinguishedPoly(p, tuple(f[:-1])), 1),) if len(f) > 1 else ()
    return iwasawa.ElementaryLambdaModule(p, mu, factors)


def _coinv_table(item):
    M = _lambda_module(item["p"], item["mu"], item["f"])
    return [iwasawa.coinvariant_order(M, m, inputs.COINV_PRECISION)
            for m in range(1, item["levels"] + 1)]


def _prepare(item):
    s = iwasawa.TruncatedSeries(item["p"], item["N"], item["D"], tuple(item["coefficients"]))
    mu, f, unit = iwasawa.weierstrass_prepare(s)
    return mu, f.coefficients, unit.coefficients


def _oracle_orders(item) -> List[Optional[int]]:
    return [oracles.coinvariants(item["p"], item["mu"], item["f"], m)[0]
            for m in range(1, item["levels"] + 1)]


class Modules(Segment):
    """Fitting ideals by three routes, character decompositions,
    coinvariant tables, Weierstrass preparation and the fixed fault cases.
    A unit of inputs holds one batch of each kind per prime 3, 5, 7.  It
    runs as ten parts, one per kind and prime plus the fault cases, and the
    run spreads these parts over its whole length, so that each batch's
    time samples the host's speed across the run, not at a few moments."""

    name = "modules"
    PARTS = [(p, kind) for p in (3, 5, 7) for kind in ("fitting", "coinv", "weierstrass")] + [(None, "faults")]

    def __init__(self, run: Run, units: list):
        super().__init__(run, [(u, unit, p, kind) for u, unit in enumerate(units) for p, kind in self.PARTS])
        self.units_done = 0
        # Units cycle through their shapes, so only whole cycles compare.
        self.round_units = len(self.PARTS) * inputs.MODULES_SHAPE_CYCLE

    def timed(self, kind: str, fn, item):
        try:
            t0 = cpu_time()
            result = fn(item)
            self.samples[kind].append(cpu_time() - t0)
            return result
        except Exception as exc:  # counted as a failed operation, run continues
            self.unexpected(exc, f"modules {fn.__name__} {item.get('p')}")
            return None

    def run_unit(self, part) -> None:
        u, unit, p, kind = part
        if kind == "faults":
            self.units_done += 1
            for case in inputs.FAULT_CASES:
                self.fault_case(case)
            return
        mine = lambda key: [(n, item) for n, item in enumerate(unit[key]) if item["p"] == p]
        if kind == "fitting":
            for n, item in mine("fitting"):
                result = self.timed("fitting", _fitting_routes, item)
                if result is not None:
                    self.op()
                    if self.first_time((u, "fitting", n), result):
                        self.check_fitting(item, *result)
            for n, item in mine("delta"):
                parts = self.timed("fitting", _delta_parts, item)
                if parts is not None:
                    self.op()
                    if self.first_time((u, "delta", n), parts):
                        total = oracles.valuation(oracles.det(oracles.group_ring_matrix(item["p"], item["entries"])), item["p"])
                        self.run.check(sum(parts) == total,
                                       f"modules: character parts {parts} do not sum to the total {total}")
        elif kind == "coinv":
            for n, item in mine("coinv"):
                table = self.timed("coinv", _coinv_table, item)
                if table is not None:
                    self.op()
                    if self.first_time((u, "coinv", n), table):
                        want = _oracle_orders(item)
                        self.run.check(table == want, f"modules: coinvariant orders {table}, resultant gives {want} ({item})")
        else:
            for n, item in mine("series"):
                result = self.timed("weierstrass", _prepare, item)
                if result is not None:
                    self.op()
                    if self.first_time((u, "series", n), result):
                        self.check_series(item, *result)

    def check_fitting(self, item, rows, exponents) -> None:
        exps = tuple(item["exponents"])
        for i, routes in enumerate(rows):
            want = oracles.fitting_valuation(exps, i)
            self.run.check(all(v is None or v == want for v in routes),
                           f"modules: Fitt_{i} of {item['p']}:{exps} by formula/brute force/minors/presentation "
                           f"{routes}, structure theorem {want}")
        self.run.check(tuple(exponents) == exps, f"modules: SNF of the presentation gives {exponents}, not {exps}")

    def check_series(self, item, mu, f, unit) -> None:
        p, N, D = item["p"], item["N"], item["D"]
        mod = p**N
        full = list(f) + [1]
        prod = [0] * D
        for i, x in enumerate(full):
            for j, y in enumerate(unit[: D - i]):
                prod[i + j] += x * y
        self.run.check(mu == item["mu"] and len(f) == item["lam"] and all(c % p == 0 for c in f)
                       and [p**mu * c % mod for c in prod] == list(item["coefficients"]),
                       f"modules: Weierstrass factors of {item} do not re-multiply to the input")

    def fault_case(self, case) -> None:
        """A fixed case of fault (a) or (b): counted as failed while the
        fault is present; a wrong finite value is a check failure."""
        fn = self._fault_a if case["fault"] == "a" else self._fault_b
        result = self.timed("coinv", fn, case)
        if result is None:
            return
        faulty, ok = result
        self.run.check(ok, f"modules: {case['what']}: finite levels disagree with the resultant")
        self.op(f"fault ({case['fault']}): {case['what']}" if faulty else None)

    def _fault_a(self, case):
        table = _coinv_table(case)
        want = _oracle_orders(case)
        faulty = any(w is None and isinstance(t, int) for t, w in zip(table, want))
        ok = all(t == w for t, w in zip(table, want) if w is not None)
        return faulty, ok

    def _fault_b(self, case):
        M = _lambda_module(case["p"], case["mu"], case["f"])
        levels = range(1, case["levels"] + 1)
        rep = iwasawa.growth_window_check(M, levels)
        ok = list(rep.orders) == _oracle_orders(case)
        # Orders mu*p^(m-1) + lambda*(m-1) + const have a constant tail of
        # deviations, so the window must come out bounded.
        return not rep.bounded, ok

    def metrics(self) -> Dict:
        """Each kind's time per unit, over the whole cycles of unit shapes
        run; the fault cases count as coinvariant work."""
        return {f"modules_{kind}_s": (sum(self.samples[kind]) / self.units_done, "s")
                for kind in ("fitting", "coinv", "weierstrass")}


# ---------------------------------------------------------------------------
# host speed


_REFERENCE_MATRIX = [[(7 * i * i + 3 * j + 1) % 101 - 50 for j in range(14)] for i in range(14)]


def reference_work() -> int:
    """Fixed pure-Python work that calls neither iwk nor sympy: a point
    count by enumeration, a sieve and an exact determinant, the same kinds
    of integer and container work iwk does."""
    return (oracles.count_points_naive((0, 0, 1, -7, 6), 307) + len(oracles.sieve(30000))
            + oracles.det(_REFERENCE_MATRIX) % 7)


class Reference(Segment):
    """The host's speed: CPU time of `reference_work`, spread over the run
    like the probes; one unit is one call."""

    name = "reference"

    def run_unit(self, _unit) -> None:
        t0 = cpu_time()
        reference_work()
        self.samples["reference"].append(cpu_time() - t0)

    def metrics(self) -> Dict:
        return {}

    def seconds(self) -> float:
        return median(self.samples["reference"])


# ---------------------------------------------------------------------------
# set-up


class SetUp(Segment):
    """Fresh interpreters of the benchmark (`run.py --setup-probe`), each
    reporting its CPU time from start until it is ready for its first timed
    operation; one unit is one interpreter."""

    name = "setup"

    def run_unit(self, argv) -> None:
        code, out, _ = spawn(self.run, argv, {})
        if code != 0:
            raise SystemExit(f"bench: set-up probe exited with {code}")
        self.op()
        self.samples["setup"].append(float(out.split()[-1]))

    def metrics(self) -> Dict:
        return {"setup_s": (median(self.samples["setup"]), "s")}


# ---------------------------------------------------------------------------
# cli-cold


def spawn(run: Run, argv: List[str], env_extra: Dict[str, str]):
    """Run one child process to its end; returns (exit code, stdout, CPU
    seconds)."""
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(run.root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with tempfile.TemporaryFile(dir=run.tmp) as out, tempfile.TemporaryFile(dir=run.tmp) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=run.root, env=env, stdout=out, stderr=err)
        pid, deadline = 0, t0 + CHILD_TIMEOUT_S
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    proc.kill()
                time.sleep(0.001)
        finally:
            if not pid:  # interrupted: take the child down with us
                proc.kill()
                os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        errtext = err.read().decode(errors="replace")
        if errtext.strip():
            sys.stderr.write(errtext)
        return proc.returncode, out.read().decode(), usage.ru_utime + usage.ru_stime


class CliCold(Segment):
    """Fresh `python -m iwk.cli` processes.  A round is analyze, twist,
    coinv, and cache run twice on one cache directory; each of its four
    steps is a unit, with a new cache directory, so the run spreads them."""

    name = "cli-cold"
    STEPS = ((("analyze", "analyze"),), (("twist", "twist"),), (("coinv", "coinv"),),
             (("cache", "cache_fill"), ("cache", "cache_read")))

    def __init__(self, run: Run, rounds: int):
        super().__init__(run, list(self.STEPS) * rounds)

    def cli(self, args: List[str], cache_dir: str):
        """One cold CLI process: (exit code, stdout, CPU seconds, peak RSS
        in MB)."""
        rss = os.path.join(self.run.tmp, "rss.txt")
        env = {"IWK_CACHE_DIR": cache_dir, "IWK_BENCH_RSS": rss}
        traced = self.run.tracer is not None
        if traced:
            spans = os.path.join(self.run.tmp, "spans.json")
            env["IWK_BENCH_SPANS"] = spans
        child = os.path.join(os.path.dirname(__file__), "cli_child.py")
        code, out, seconds = spawn(self.run, [sys.executable, child, *args], env)
        if traced:
            with open(spans) as fh:
                self.run.child_tables.append(json.load(fh))
        with open(rss) as fh:
            return code, out, seconds, float(fh.read())

    def run_unit(self, step) -> None:
        cache_dir = tempfile.mkdtemp(prefix="iwk-cache-", dir=self.run.tmp)
        try:
            filled = None
            for command, metric in step:
                entries = None
                code, out, seconds, rss = self.cli(inputs.CLI_COMMANDS[command], cache_dir)
                failure = None if code == 0 else f"cli {command} exited with {code}"
                self.op(failure)
                if failure:
                    continue
                self.samples[metric].append(seconds)
                if metric == "analyze":
                    self.samples["rss"].append(rss)
                data = json.loads(out)
                if metric.startswith("cache"):
                    with open(data["cache_file"]) as fh:
                        entries = {(e["ell"], e["ap"]) for e in map(json.loads, fh)}
                    if metric == "cache_fill":
                        filled = entries
                    else:
                        self.run.check(entries == filled, "cli cache: reading the cache changed its entries")
                data.pop("cache_file", None)  # names this step's cache directory
                if self.first_time(metric, data):
                    getattr(self, "check_" + command)(data, entries)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def check_analyze(self, data, _) -> None:
        check_analysis(self.run, "cli analyze 5077a1", (0, 0, 1, -7, 6), 7, data)
        v = data["verdicts"]
        self.run.check(data["reductions"]["5077"]["kind"] == "MULT_NONSPLIT"
                       and v["C1_str"]["status"] == v["C2"]["status"] == "HOLDS"
                       and data["discrepancy_flags"],
                       "cli analyze: documented 5077a1 facts at p = 7")

    def check_twist(self, data, _) -> None:
        d = data["certificate"]["d"]
        self.run.check(d == -55, f"cli twist: 11a1 at p = 3 twists by d = {d}, documented -55")
        check_twist(self.run, "cli twist 11a1", (0, -1, 1, -10, -20), [11], data["twisted_ainvs"], d)

    def check_coinv(self, data, _) -> None:
        f, levels = (6, 3, 1), range(1, 6)
        for n in levels:
            order, top = oracles.coinvariants(3, 0, f, n)
            self.run.check(order is not None and top <= n, "cli coinv: level beyond its precision")
        want = [oracles.coinvariants(3, 0, f, n)[0] for n in levels]
        got = [row["order"] for row in data["table"]]
        self.run.check(got == want, f"cli coinv: orders {got}, resultant gives {want}")

    def check_cache(self, data, entries) -> None:
        e5077 = (0, 0, 1, -7, 6)
        want = [q for q in oracles.sieve(inputs.CACHE_BOUND) if q > 2 and 5077 % q]
        self.run.check(data["cached"] == len(want) and sorted(ell for ell, _ in entries) == want,
                       "cli cache: cached primes differ from the sieve")
        ap = dict(entries)
        sample = want[:25] + want[-5:]
        self.run.check(all(ap[ell] == oracles.trace(e5077, ell) for ell in sample),
                       "cli cache: a_ell differs from the Legendre sum")

    def metrics(self) -> Dict:
        s = self.samples
        out = {f"cli_{m}_s": (trimmed_mean(s[m]), "s") for step in self.STEPS for _, m in step}
        out["cli_peak_rss_mb"] = (trimmed_mean(s["rss"]), "MB")
        return out
