"""Command-line surface: analyze, twist, fitting, growth, coinv, cache.

Every subcommand prints JSON; identical inputs and budgets give
byte-identical reports.  Exit codes:
0 all conditions hold, 1 malformed input, 2 some condition fails,
3 inconclusive only, 4 twist search exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ._record import Record
from .errors import BudgetExceeded, IwkError, PrecisionExhausted, SearchExhausted
from .padic import INFINITY, primerange
from .padic import sympy  # noqa: F401  (bench/tracer.py patches this name)

# Every layer is imported inside the functions that use it, so that a
# subcommand loads only its own: coinv, fitting and growth no curve layer,
# analyze, twist and cache no part of the Lambda side (zpmod, iwasawa), and
# analyze not twist.  analyze_curve, which a corpus run calls thousands of
# times a second, imports its three layers as modules in one statement:
# about 0.8 us a call, where a `from .layer import name` costs 1.3 us each.
if TYPE_CHECKING:
    from .ecq import EllipticCurveQ, TraceRecord
    from .zpmod import FgZpModule, Presentation

CACHE_ENV_VAR = "IWK_CACHE_DIR"
DEFAULT_CACHE_DIR = ".iwk-cache"
CSV_HEADER = ["label", "a1", "a2", "a3", "a4", "a6"]


# ---------------------------------------------------------------------------
# Literal parsers.


def parse_curve(text: str) -> EllipticCurveQ:
    from .ecq import EllipticCurveQ

    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError("curve literal must be 'a1,a2,a3,a4,a6'")
    try:
        ainvs = tuple(int(x.strip()) for x in parts)
    except ValueError as e:
        raise ValueError(f"non-integer curve coefficient: {e}") from None
    return EllipticCurveQ(*ainvs)


def parse_module_literal(text: str) -> FgZpModule:
    """'p:e1,e2,...#r', both parts optional; every comma separates two exponents."""
    from .zpmod import FgZpModule

    m = re.fullmatch(r"(\d+):\s*(\d+(?:\s*,\s*\d+)*)?\s*(?:#(\d+))?", text.strip())
    if not m:
        raise ValueError("module literal must look like 'p:e1,e2#r'")
    p = int(m.group(1))
    exps = tuple(sorted(map(int, m.group(2).split(",")), reverse=True)) if m.group(2) else ()
    r = int(m.group(3)) if m.group(3) else 0
    return FgZpModule(p, r, exps)


_TERM_RE = re.compile(r"(\d+)?\s*(?:(\*)?\s*T(?:\s*\^\s*(\d+))?)?")


def parse_poly_literal(text: str) -> List[int]:
    """Integer polynomial in T, e.g. 'T^2+3*T+3'; ascending coefficient list.

    Terms are c, T, T^k, c*T or c*T^k, each after a sign (optional on the
    first); spaces may separate tokens but never stand in for a sign.
    """
    if not text.strip():
        raise ValueError("empty polynomial")
    parts = re.split(r"([+-])", text)  # body, sign, body, sign, body, ...
    terms = [("", parts[0])] if parts[0].strip() else []
    terms += zip(parts[1::2], parts[2::2])
    coeffs: Dict[int, int] = {}
    for sign, body in terms:
        m = _TERM_RE.fullmatch(body.strip())
        if not body.strip() or not m or (m[2] and not m[1]):
            raise ValueError(f"cannot parse term {(sign + body).strip()!r} in polynomial {text!r}")
        c = int(m[1]) if m[1] else 1
        k = int(m[3]) if m[3] else (1 if "T" in body else 0)
        coeffs[k] = coeffs.get(k, 0) + (-c if sign == "-" else c)
    deg = max((k for k, c in coeffs.items() if c), default=0)  # zero top terms dropped
    return [coeffs.get(k, 0) for k in range(deg + 1)]


def _json_int(x, field: str) -> int:
    """An integer of a presentation file, as a JSON integer or a decimal string."""
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return int(x)
        except ValueError:
            pass
    raise ValueError(f"presentation file: {field} must be an integer, not {json.dumps(x)}")


def read_presentation(path: str) -> Presentation:
    """{"p": .., "precision": .., "matrix": [[..], ..]} from a JSON file."""
    from .zpmod import Presentation

    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("presentation file: expected an object with p, precision and matrix")
    rows = obj.get("matrix")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("presentation file: matrix must be a list of lists of integers")
    matrix = tuple(tuple(_json_int(x, "matrix entry") for x in row) for row in rows)
    p, precision = (_json_int(obj.get(key), key) for key in ("p", "precision"))
    return Presentation(p, precision, matrix)


def parse_n_range(text: str) -> List[int]:
    """'2..5' or comma-separated levels: at least one, none empty or repeated."""
    from .iwasawa import window_levels

    m = re.fullmatch(r"(-?\d+)\s*\.\.\s*(-?\d+)|-?\d+(?:\s*,\s*-?\d+)*", text.strip())
    if not m:
        raise ValueError(f"n-range {text!r} must look like 'lo..hi' or 'n1,n2,...'")
    levels = list(range(int(m[1]), int(m[2]) + 1)) if m[1] else [int(x) for x in text.split(",")]
    window_levels(levels)
    return levels


def _fmt_val(v) -> object:
    return "INFINITY" if v == INFINITY else int(v)


# ---------------------------------------------------------------------------
# Curve ingestion and the trace cache.


class CurveRecord(Record):
    _fields = ("label", "ainvs")

    def __init__(self, label: str, ainvs: Tuple[int, int, int, int, int]):
        self.__dict__.update(label=label, ainvs=ainvs)
        self.curve()  # validates nonsingularity

    def curve(self) -> EllipticCurveQ:
        from .ecq import EllipticCurveQ

        return EllipticCurveQ(*self.ainvs)


def ingest_curves(path: str) -> List[CurveRecord]:
    import csv

    records: List[CurveRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}:1: empty file") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise ValueError(f"{path}:1: header must be exactly {','.join(CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
            try:
                ainvs = tuple(int(x.strip()) for x in row[1:])
                records.append(CurveRecord(row[0].strip(), ainvs))
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    return records


def _cache_path(E: EllipticCurveQ) -> str:
    """The trace-cache file of E, keyed by a hash of its minimal model."""
    import hashlib

    key = hashlib.sha256(",".join(map(str, E.minimal[0].ainvs)).encode()).hexdigest()[:16]
    return os.path.join(os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR), key + ".jsonl")


def _load_cache(E_min: EllipticCurveQ, path: str, discarded: List[int]) -> Dict[int, TraceRecord]:
    """The records of the cache file at `path`.  Each corrupt line is warned
    about in line order and its number appended to `discarded`; nothing is
    written."""
    from .ecq import AP_PRIME_BOUND, TraceRecord

    if not os.path.exists(path):
        return {}
    rows: List[tuple] = []  # (line number, ell, ap, why it is corrupt or None)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                ell, ap = obj["ell"], obj["ap"]
                # int() would read 5.9 as 5, and a bool is an int
                if any(type(v) is not int for v in (ell, ap, *obj["curve"])):
                    raise ValueError("ell, ap and curve must be JSON integers")
                if tuple(obj["curve"]) != E_min.ainvs:
                    raise ValueError("curve mismatch")
                rows.append((lineno, ell, ap, None))
            except (ValueError, KeyError, TypeError) as e:
                rows.append((lineno, None, None, e))
    # one sieve up to the file's largest ell; the bound caps it for a corrupt ell
    top = max((ell for _, ell, _, why in rows if why is None and ell <= AP_PRIME_BOUND), default=0)
    odd_primes = set(primerange(3, top + 1))
    out: Dict[int, TraceRecord] = {}
    for lineno, ell, ap, why in rows:
        if why is None:
            if ell not in odd_primes or E_min.discriminant % ell == 0:
                why = f"{ell} is not an odd prime of good reduction up to {AP_PRIME_BOUND}"
            elif ap * ap > 4 * ell:
                why = "Hasse bound violated"
            else:
                out[ell] = TraceRecord(ell, ap)
                continue
        print(f"warning: discarding corrupt cache entry {path}:{lineno} ({why})", file=sys.stderr)
        discarded.append(lineno)
    return out


def cache_traces(E: EllipticCurveQ, bound: int) -> List[TraceRecord]:
    """Compute and persist a_ell for all good odd ell <= bound; idempotent.

    The file is written at most once, atomically: when a prime is new, a
    corrupt line was discarded or no file exists; a clean hit writes nothing."""
    from .ecq import check_prime_bound, count_points_ap

    check_prime_bound(bound)
    E_min = E.minimal[0]
    path = _cache_path(E_min)
    discarded: List[int] = []
    known = _load_cache(E_min, path, discarded)
    new = [ell for ell in primerange(3, bound + 1) if E_min.discriminant % ell and ell not in known]
    for ell in new:
        known[ell] = count_points_ap(E_min, ell)
    if new or discarded or not os.path.exists(path):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = path + f".tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            for ell in sorted(known):
                row = {"curve": list(E_min.ainvs), "ell": ell, "ap": known[ell].a_ell}
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        os.replace(tmp, path)
    return [known[ell] for ell in sorted(known) if ell <= bound]


# ---------------------------------------------------------------------------
# The analyze pipeline.


class AnalysisReport(Record):
    _fields = ("data",)

    def __init__(self, data: Dict):
        self.__dict__["data"] = data

    @property
    def exit_code(self) -> int:
        statuses = [v["status"] for v in self.data["verdicts"].values()]
        if any(s == "FAILS" for s in statuses):
            return 2
        if any(s == "INCONCLUSIVE" for s in statuses):
            return 3
        return 0


def analyze_curve(
    E: EllipticCurveQ,
    p: int,
    ap_bound: Optional[int] = None,
    mu: Optional[int] = None,
    lam: Optional[int] = None,
    rank: Optional[int] = None,
    source: str = "",
    label: str = "",
) -> AnalysisReport:
    """The report of `iwk analyze`; ap_bound defaults to conditions.DEFAULT_PRIME_BOUND."""
    from . import conditions, ecq, growth

    if ap_bound is None:
        ap_bound = conditions.DEFAULT_PRIME_BOUND
    # check_c1_str rejects a p that is not an odd prime, and a prime bound
    # out of range, before E.minimal factors Delta
    verdicts = {
        "C1_str": conditions.check_c1_str(E, p, ap_bound).to_json_dict(),
        "C2": conditions.check_c2(E, p).to_json_dict(),
        "C2_sufficient": conditions.check_c2_sufficient(E, p).to_json_dict(),
        "C3": conditions.check_c3(E).to_json_dict(),
    }
    E_min, (u, _, _, _) = E.minimal
    reductions = {
        str(ell): {
            "kind": info.kind.value,
            "potentially": info.potentially.value,
            "twist_class_gamma": info.twist_class_gamma.value if info.twist_class_gamma else None,
        }
        for ell, info in ecq.reduction_summary(E_min).items()
    }
    data: Dict = {
        "curve": {
            "label": label,
            "input_ainvs": list(E.ainvs),
            "minimal_ainvs": list(E_min.ainvs),
            "scaling_u": u,
            "discriminant": E_min.discriminant,
        },
        "p": p,
        "reductions": reductions,
        "verdicts": verdicts,
        "discrepancy_flags": [],
    }
    if mu is not None and lam is not None:
        inv = growth.IwasawaInvariants(p, mu, lam, source=source or "cli-ingested")
        data["iwasawa_invariants"] = {"mu": mu, "lambda": lam, "source": inv.source}
        data["class_number_growth"] = growth.class_number_growth(inv).to_json_dict()
        note = growth.doubling_discrepancy_note(p, mu, lam)
        if note and E_min.ainvs == growth.WORKED_EXAMPLE_CURVE:
            data["discrepancy_flags"].append(note)
    if rank is not None:
        lam_lower, growth_lower = growth.mordell_weil_bound(rank, 0, p)
        data["mordell_weil_bound"] = {
            "rank": rank,
            "lambda_lower": lam_lower,
            "growth_lower": growth_lower.to_json_dict(),
        }
    return AnalysisReport(data)


# ---------------------------------------------------------------------------
# Subcommand handlers.


def _emit(data: Dict) -> None:
    print(json.dumps(data, sort_keys=True, indent=2))


def _cmd_analyze(args) -> int:
    E = parse_curve(args.curve)
    if (args.mu is None) != (args.lam is None):
        raise ValueError("--mu and --lambda must be supplied together")
    report = analyze_curve(
        E,
        args.p,
        ap_bound=args.ap_bound,
        mu=args.mu,
        lam=args.lam,
        rank=args.rank,
        source=args.source,
        label=args.label,
    )
    _emit(report.data)
    return report.exit_code


def _cmd_twist(args) -> int:
    from .twist import DEFAULT_SEARCH_BOUND, construct_c2_twist

    E = parse_curve(args.curve)
    bound = DEFAULT_SEARCH_BOUND if args.search_bound is None else args.search_bound
    try:
        E_tw, cert = construct_c2_twist(E, args.p, bound)
    except SearchExhausted as e:
        print(json.dumps({"error": str(e)}, sort_keys=True))
        return 4
    _emit({"twisted_ainvs": list(E_tw.ainvs), "certificate": cert.to_json_dict()})
    return 0


def _cmd_fitting(args) -> int:
    from .zpmod import (
        diagonal_presentation,
        fitting_from_minors,
        module_from_presentation,
        phi,
        phi_bruteforce,
    )

    i = args.i
    checks: Dict = {}
    if args.module is not None:
        M = parse_module_literal(args.module)
        value = phi(M, i)
        data: Dict = {"module": args.module}
        P = diagonal_presentation(M) if M.is_torsion and M.exponents else None
        if P is not None:
            try:
                bf = phi_bruteforce(M, i)
                checks["bruteforce"] = {"value": _fmt_val(bf), "agrees": bf == value}
            except BudgetExceeded as e:
                checks["bruteforce"] = {"skipped": str(e)}
    else:
        P = read_presentation(args.presentation_file)
        M = module_from_presentation(P)
        value = phi(M, i)
        data = {
            "presentation_file": args.presentation_file,
            "module": {"p": M.p, "free_rank": M.free_rank, "exponents": list(M.exponents)},
        }
    if P is not None:
        try:
            mv = fitting_from_minors(P, i).generator_valuation
            checks["minors"] = {"value": _fmt_val(mv), "agrees": mv == value}
        except (BudgetExceeded, PrecisionExhausted) as e:
            checks["minors"] = {"skipped": str(e)}
    data.update(i=i, phi=_fmt_val(value), cross_checks=checks)
    _emit(data)
    return 0


def _cmd_growth(args) -> int:
    from .growth import IwasawaInvariants, class_number_growth, compare, doubling_discrepancy_note

    inv = IwasawaInvariants(args.p, args.mu, args.lam, source=args.source or "cli")
    g = class_number_growth(inv)
    data: Dict = {"growth": g.to_json_dict()}
    note = doubling_discrepancy_note(args.p, args.mu, args.lam)
    if note:
        data["discrepancy_flags"] = [note]
    if args.compare:
        parts = [int(x) for x in args.compare.split(",")]
        if len(parts) != 3:
            raise ValueError("--compare expects 'p,mu,lambda'")
        other = class_number_growth(
            IwasawaInvariants(parts[0], parts[1], parts[2], source="cli-compare")
        )
        data["compare"] = {
            "other": other.to_json_dict(),
            "relation": compare(g, other).value,
        }
    _emit(data)
    return 0


def _cmd_coinv(args) -> int:
    from .iwasawa import DistinguishedPoly, ElementaryLambdaModule, growth_window_check

    coeffs = parse_poly_literal(args.poly)
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    f = DistinguishedPoly(args.p, tuple(coeffs[:-1]))
    M = ElementaryLambdaModule(args.p, args.mu, ((f, 1),) if f.degree else ())
    levels = parse_n_range(args.n_range)
    rep = growth_window_check(M, levels)
    data = {
        "p": args.p,
        "mu": args.mu,
        "lambda": M.lambda_invariant,
        "table": [
            {"n": n, "order": o, "deviation": d}
            for n, o, d in zip(rep.levels, rep.orders, rep.deviations)
        ],
        "bounded_tail": rep.bounded,
        "max_deviation": rep.max_deviation,
    }
    _emit(data)
    return 0


def _cmd_cache(args) -> int:
    E = parse_curve(args.curve)
    records = cache_traces(E, args.bound)
    _emit({
        "curve": list(E.minimal[0].ainvs),
        "bound": args.bound,
        "cached": len(records),
        "cache_file": _cache_path(E),
    })
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on malformed input, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iwk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="full condition report for a pair (E, p)")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--ap-bound", type=int, default=None, dest="ap_bound")
    sp.add_argument("--rank", type=int, default=None)
    sp.add_argument("--mu", type=int, default=None)
    sp.add_argument("--lambda", type=int, default=None, dest="lam")
    sp.add_argument("--source", default="")
    sp.add_argument("--label", default="")
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("twist", help="construct a twist satisfying the torsion condition")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--search-bound", type=int, default=None, dest="search_bound")
    sp.set_defaults(func=_cmd_twist)

    sp = sub.add_parser("fitting", help="Fitting-ideal valuation with cross-checks")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--module")
    group.add_argument("--presentation-file", dest="presentation_file")
    sp.add_argument("--i", type=int, required=True)
    sp.set_defaults(func=_cmd_fitting)

    sp = sub.add_parser("growth", help="class-number growth class from invariants")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--mu", type=int, required=True)
    sp.add_argument("--lambda", type=int, required=True, dest="lam")
    sp.add_argument("--compare", default=None)
    sp.add_argument("--source", default="")
    sp.set_defaults(func=_cmd_growth)

    sp = sub.add_parser("coinv", help="exact coinvariant orders over a window")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--mu", type=int, default=0)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n-range", required=True, dest="n_range")
    sp.set_defaults(func=_cmd_coinv)

    sp = sub.add_parser("cache", help="compute and persist traces of Frobenius")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--bound", type=int, required=True)
    sp.set_defaults(func=_cmd_cache)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except BudgetExceeded as e:
        print(f"iwk: budget exceeded: {e}", file=sys.stderr)
    except (ValueError, OSError, IwkError) as e:
        print(f"iwk: error: {e}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
