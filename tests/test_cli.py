import hashlib
import importlib.util
import json
import os
import pathlib
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from sympy import primerange

from conftest import CM_LABELS, CORPUS, assert_x0_witness, psi_degrees, transformed
from iwk import cli, conditions, ecq, twist
from iwk.cli import (
    CurveRecord,
    analyze_curve,
    cache_traces,
    ingest_curves,
    main,
    parse_curve,
    parse_module_literal,
    parse_n_range,
    parse_poly_literal,
)
from iwk.ecq import EllipticCurveQ
from iwk.padic import multiplicative_order
from iwk.twist import construct_c2_twist
from iwk.zpmod import FgZpModule


# ---------------------------------------------------------------------------
# Literal parsing.


def test_parse_curve():
    assert parse_curve("0,0,1,-7,6") == EllipticCurveQ(0, 0, 1, -7, 6)
    with pytest.raises(ValueError):
        parse_curve("1,2,3")
    with pytest.raises(ValueError):
        parse_curve("a,b,c,d,e")
    with pytest.raises(ValueError):
        parse_curve("0,0,0,0,0")  # singular


def test_parse_module_literal():
    assert parse_module_literal("7:3,1#0") == FgZpModule(7, 0, (3, 1))
    assert parse_module_literal("7:3,1") == FgZpModule(7, 0, (3, 1))
    assert parse_module_literal("7:#2") == FgZpModule(7, 2)
    assert parse_module_literal("5:") == FgZpModule(5)
    assert parse_module_literal("5:1,3,2") == FgZpModule(5, 0, (3, 2, 1))
    assert parse_module_literal(" 7: 3, 1 ") == FgZpModule(7, 0, (3, 1))
    # an empty exponent, or a space standing in for a comma, is refused
    for bad in ("nonsense", "5:2,,1", "5:,2", "5:2,", "5:,", "5: 2 1"):
        with pytest.raises(ValueError, match=re.escape("'p:e1,e2#r'")):
            parse_module_literal(bad)


def test_parse_poly_literal():
    assert parse_poly_literal("T^2+3*T+3") == [3, 3, 1]
    assert parse_poly_literal("T") == [0, 1]
    assert parse_poly_literal("T^3") == [0, 0, 0, 1]
    assert parse_poly_literal("5") == [5]
    assert parse_poly_literal("T^2-3T+9") == [9, -3, 1]
    assert parse_poly_literal(" -T ^ 2 + 3 * T - 06 ") == [-6, 3, -1]
    # zero top terms are dropped, down to one coefficient
    assert parse_poly_literal("0*T^3+T^2+3*T+3") == [3, 3, 1]
    assert parse_poly_literal("T^2-T^2+T") == [0, 1]
    assert parse_poly_literal("0*T^2") == [0]
    with pytest.raises(ValueError):
        parse_poly_literal("")
    # a stray sign, or a space standing in for one, names the bad term
    for bad, term in (("T+3+", "'+'"), ("1--2", "'-'"), ("T^2 3", "'T^2 3'"), ("+", "'+'")):
        with pytest.raises(ValueError, match=re.escape(f"cannot parse term {term} ")):
            parse_poly_literal(bad)


def test_parse_n_range():
    assert parse_n_range("2..5") == [2, 3, 4, 5]
    assert parse_n_range("1,4,2") == [1, 4, 2]
    assert parse_n_range(" 3 ") == [3]
    assert parse_n_range(" 2 .. 4 ") == [2, 3, 4]
    assert parse_n_range("1, 3") == [1, 3]
    for empty_or_repeated in ("5..2", "1,2,3,3", "2,1,2"):
        with pytest.raises(ValueError, match="n-range"):
            parse_n_range(empty_or_repeated)
    # an empty item or end is refused with the expected shape, not dropped
    # or left to int()
    for malformed in (",", "", "1,,3", "1,3,", ",1", "2..", "..4", "..", "1..2..3", "1 2"):
        with pytest.raises(ValueError, match=re.escape(f"n-range {malformed!r} must look like 'lo..hi' or 'n1,n2,...'")):
            parse_n_range(malformed)


# ---------------------------------------------------------------------------
# Exit codes.


def test_exit_zero_all_holds(capsys):
    code = main(
        [
            "analyze", "--curve", "0,0,1,-7,6", "--p", "7",
            "--mu", "0", "--lambda", "2", "--rank", "3",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["class_number_growth"]["lambda_hat"] == "4"
    assert report["discrepancy_flags"]
    assert report["mordell_weil_bound"]["lambda_lower"] == 2


def test_discrepancy_flag_only_for_5077a1(capsys):
    # the flag belongs to 5077.a1 at p = 7, on any model of it, not to
    # every curve with (p, mu, lambda) = (7, 0, 2)
    args = ["--p", "7", "--mu", "0", "--lambda", "2", "--ap-bound", "500"]
    main(["analyze", "--curve", "0,-1,1,-10,-20", *args])  # 11a1
    assert json.loads(capsys.readouterr().out)["discrepancy_flags"] == []
    main(["analyze", "--curve", "0,0,8,-112,384", *args])  # 5077a1 with u = 1/2
    report = json.loads(capsys.readouterr().out)
    assert report["curve"]["scaling_u"] == 2 and report["discrepancy_flags"]


def test_exit_two_on_fails(capsys):
    assert main(["analyze", "--curve", "0,-1,1,-10,-20", "--p", "7"]) == 2


def test_large_p_in_time_polynomial_in_log_p(capsys):
    # at a safe prime p = 2q + 1 near 10^16 the order of 11 mod p comes from
    # factorint(p - 1), and the C1 scan takes (D/p) by Euler's criterion: no
    # step is linear in p or in sqrt(q), so the whole test takes well under
    # a second of CPU (a twist took 7.7 s by trial division up to sqrt(q))
    p = 10000000000004447
    start = time.process_time()
    f = multiplicative_order(11, p)
    assert (p - 1) % f == 0 and pow(11, f, p) == 1
    assert all(pow(11, f // q, p) != 1 for q in sympy.factorint(f)), f
    curve = ["--curve", "0,-1,1,-10,-20", "--p", str(p)]  # 11a1
    assert main(["twist", *curve]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["p"] == p
    assert main(["analyze", *curve, "--ap-bound", "200"]) == 2
    capsys.readouterr()
    assert time.process_time() - start < 1.0


def test_exit_two_on_cm_certificate(capsys):
    # 27a1 at p = 5: C2 and C3 hold, and C1_str fails by CM alone
    assert main(["analyze", "--curve", "0,0,1,0,-7", "--p", "5"]) == 2
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts["C2"]["status"] == verdicts["C3"]["status"] == "HOLDS"
    assert verdicts["C1_str"]["witnesses"] == [
        {"prime": 5, "detail": "CM by discriminant -3: image in the normalizer of the nonsplit Cartan"}
    ]


def test_exit_three_on_inconclusive_only(capsys):
    code = main(["analyze", "--curve", "0,0,1,-7,6", "--p", "7", "--ap-bound", "0"])
    assert code == 3


def test_exit_one_on_bad_input(capsys):
    assert main(["analyze", "--curve", "0,0,1,-7,6", "--p", "2"]) == 1
    assert main(["analyze", "--curve", "1,2", "--p", "7"]) == 1
    assert main(["analyze", "--curve", "0,-1,1,-10,-20", "--p", "11"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["analyze", "--curve", "0,0,1,-7,6", "--p", "7", "--mu", "1"]) == 1


def test_bad_p_rejected_before_factoring(monkeypatch, capsys):
    factored = []
    factor = ecq.factorint
    monkeypatch.setattr(ecq, "factorint", lambda n: factored.append(n) or factor(n))
    with pytest.raises(ValueError, match="odd prime"):
        analyze_curve(EllipticCurveQ(0, 0, 1, -7, 6), 4)
    assert main(["analyze", "--curve", "0,0,1,-7,6", "--p", "9"]) == 1
    assert "odd prime" in capsys.readouterr().err
    assert factored == []


def test_prime_bounds_checked_before_scanning(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("IWK_CACHE_DIR", str(tmp_path))
    # the bound itself is accepted: 5077a1 at p = 7 has every witness by 67
    assert main(["analyze", "--curve", "0,0,1,-7,6", "--p", "7",
                 "--ap-bound", str(ecq.AP_PRIME_BOUND)]) == 0
    capsys.readouterr()
    def count(E, ell):
        raise AssertionError(f"a_{ell} counted before the bound was checked")

    for module in (ecq, conditions):
        monkeypatch.setattr(module, "count_points_ap", count)
    for args in (
        ["analyze", "--curve", "0,-1,1,-10,-20", "--p", "3", "--ap-bound", "1000003"],
        ["analyze", "--curve", "0,0,1,-7,6", "--p", "7", "--ap-bound", "-5"],
        ["cache", "--curve", "0,0,1,-7,6", "--bound", "1000003"],
        ["cache", "--curve", "0,0,1,-7,6", "--bound", "-5"],
    ):
        assert main(args) == 1, args
        out, err = capsys.readouterr()
        assert out == "" and "prime bound" in err, args
    assert list(tmp_path.iterdir()) == []


def test_exit_four_on_search_exhausted(capsys):
    code = main(
        ["twist", "--curve", "0,-1,1,-10,-20", "--p", "3", "--search-bound", "4"]
    )
    assert code == 4


def test_report_determinism(capsys):
    args = ["analyze", "--curve", "0,0,1,-7,6", "--p", "7", "--mu", "0", "--lambda", "2"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


# SHA-256 of the reports below, with CM curves failing C1_str by their
# Cartan certificate and curves with a rational p-isogeny (p <= 7) by their
# X_0(p) point; any change to the report bytes must change this value on
# purpose.
GOLDEN_CORPUS_SHA256 = "ccce62404a25b71f22773504e43cc01ff0bd8a9b8828d39fc69127147d5d59a2"


def _golden_run(digest) -> int:
    """analyze_curve at ap_bound 10^4 on every good (standard curve, p <= 13)
    pair, one curve object per curve, plus the C2 twist wherever C2 fails;
    each report goes into `digest`, and the number of pairs comes back."""
    pairs = 0
    for label, a in CORPUS:
        E = EllipticCurveQ(*a)
        for p in (3, 5, 7, 11, 13):
            if E.discriminant % p == 0:
                continue
            pairs += 1
            report = analyze_curve(E, p, ap_bound=10**4, mu=0, lam=1, rank=1, label=label)
            digest.update(json.dumps(report.data, sort_keys=True, indent=2).encode())
            if report.data["verdicts"]["C2"]["status"] == "FAILS":
                E_tw, cert = construct_c2_twist(E, p)
                digest.update(
                    json.dumps([list(E_tw.ainvs), cert.to_json_dict()], sort_keys=True).encode()
                )
    return pairs


def test_corpus_reports_golden():
    digest = hashlib.sha256()
    assert _golden_run(digest) == 93
    assert digest.hexdigest() == GOLDEN_CORPUS_SHA256


# SHA-256 of the stdout of one command per subcommand, the cache directory's
# path cut out of the cache report; any change to the bytes must change
# these on purpose.
GOLDEN_STDOUT_SHA256 = {
    ("analyze", "--curve", "0,0,1,-7,6", "--p", "7", "--mu", "0", "--lambda", "2", "--rank", "3"):
        "e4592b02412ae6d0c657a4aa4f1d88d7cd1736a484df72209d142ae2023dfd4a",
    ("twist", "--curve", "0,-1,1,-10,-20", "--p", "3"):
        "38b8a00c927165af5ccc5a46ace11e71a7ac11f15a5812df8f7ccd6d79bdaad4",
    ("fitting", "--module", "7:3,1", "--i", "1"):
        "27abf621cb1ac49ab877d31d57f69c9cf88efd33b54c3aa313920bb6d5333f6f",
    ("growth", "--p", "7", "--mu", "0", "--lambda", "2", "--compare", "7,1,0"):
        "b8c18ba85ee5854477bab1b344c5a92a6c998bd31149d03ea57d45450ce92250",
    ("coinv", "--poly", "T^2+3*T+6", "--p", "3", "--n-range", "1..5"):
        "2beddda9020bf8e252acd46839b25d1f27627989c030038d998b7174e4dd176c",
    ("cache", "--curve", "0,0,1,-7,6", "--bound", "2000"):
        "d35decde5a4b410abccbc69c13e0fdf8e905f6f077697d9a4de362946266179b",
}


def test_subcommand_stdout_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("IWK_CACHE_DIR", str(tmp_path))
    handlers = {name for name in vars(cli) if name.startswith("_cmd_")}
    assert {"_cmd_" + args[0] for args in GOLDEN_STDOUT_SHA256} == handlers
    for args, expected in GOLDEN_STDOUT_SHA256.items():
        assert main(list(args)) == 0, args
        out = capsys.readouterr().out.replace(str(tmp_path), "")
        assert hashlib.sha256(out.encode()).hexdigest() == expected, args


def test_each_prime_classified_once(monkeypatch):
    # over the golden run, reduction_type tests minimality at most once per
    # (curve object, ell): C2, C2-sufficient, the reduction summary and the
    # twist's C2 checks all read the classification kept on the curve
    exponent = ecq._minimality_exponent
    curves, calls = [], Counter()

    def counting_exponent(c4, c6, disc, ell):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "reduction_type":
            E = caller.f_locals["E"]
            curves.append(E)  # alive, so that no other curve takes its id
            calls[id(E), ell] += 1
        return exponent(c4, c6, disc, ell)

    monkeypatch.setattr(ecq, "_minimality_exponent", counting_exponent)
    digest = hashlib.sha256()
    assert _golden_run(digest) == 93
    assert digest.hexdigest() == GOLDEN_CORPUS_SHA256
    # 114 (curve object, ell) at 581 calls before the classification was
    # kept, and still 114 while each p built its own twisted curve
    assert len(calls) == 93 and max(calls.values()) == 1, (len(calls), sum(calls.values()))


def test_each_twist_built_once_per_curve_and_d(monkeypatch):
    # over the golden run a twist is built once per (curve object, d) and
    # kept on the curve, so a C2 twist at a second p that lands on the same
    # d reads it back: 60 twists of 42 (curve, d) take 42 builds, where each
    # p built its own before
    calls, builds = Counter(), Counter()
    twist_of, build = twist.quadratic_twist, ecq.minimal_model

    def counting_twist(E, d):
        calls[E.ainvs, d] += 1
        return twist_of(E, d)

    def counting_build(E):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "quadratic_twist":
            builds[caller.f_locals["E"].ainvs, caller.f_locals["d"]] += 1
        return build(E)

    monkeypatch.setattr(twist, "quadratic_twist", counting_twist)
    monkeypatch.setattr(ecq, "minimal_model", counting_build)
    digest = hashlib.sha256()
    assert _golden_run(digest) == 93
    assert digest.hexdigest() == GOLDEN_CORPUS_SHA256
    assert builds.keys() == calls.keys() and max(builds.values()) == 1
    assert (sum(calls.values()), len(calls)) == (60, 42)


def test_golden_run_counts_below_shanks_mestre(monkeypatch):
    # over the golden run every trace the reports need lies below 128: at
    # p = 3 Borel and split have witnesses there for each pair whose scan
    # leaves the nonsplit class open, so no point is counted by
    # Shanks-Mestre.  17,200 calls, 15,567 by Shanks-Mestre, on a corpus
    # pass before the scan stopped there and each a_ell was kept on its
    # curve.  CM decides C1 before any trace, so no CM curve counts a point
    calls = []
    count = ecq.count_points_ap

    def recording_count(E, ell):
        if conditions.cm_order(E) is not None:
            raise AssertionError(f"a_{ell} counted on the CM curve {E.ainvs}")
        calls.append(ell)
        return count(E, ell)

    def no_shanks_mestre(E, ell):
        raise AssertionError(f"Shanks-Mestre run at {ell}")

    for module in (ecq, conditions):
        monkeypatch.setattr(module, "count_points_ap", recording_count)
    monkeypatch.setattr(ecq, "_shanks_mestre", no_shanks_mestre)
    digest = hashlib.sha256()
    assert _golden_run(digest) == 93
    assert digest.hexdigest() == GOLDEN_CORPUS_SHA256
    assert calls and max(calls) < 128, max(calls)


def test_golden_run_valuations_and_symbols(monkeypatch):
    # over the golden run the curve layers take a valuation or a Kronecker
    # symbol only where no divisibility test or residue set will do: a
    # scanned prime costs neither, a kept a_ell is read before any check, a
    # good-prime test is one %, a minimal model values only Delta, no CM
    # curve counts a point, and a multiplicative order strips the primes of
    # `factorint(p - 1)`.  2,871 valuations and 1,309 symbols before, then
    # 599 and 186 while CM was read after the scan
    calls = Counter()

    def counted(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run

    for module in (ecq, conditions, twist):
        for name in ("ord_p", "kronecker_symbol"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    digest = hashlib.sha256()
    assert _golden_run(digest) == 93
    assert digest.hexdigest() == GOLDEN_CORPUS_SHA256
    assert (calls["ord_p"], calls["kronecker_symbol"]) == (416, 186), calls


def test_one_curve_object_per_p_gives_the_same_reports():
    # the a_ell kept on a curve object serve every p it is analyzed at; a
    # fresh object per p counts them again and gives the same bytes.  CM
    # decides C1 before any trace, so only a non-CM curve keeps a_ell
    for label, a in CORPUS:
        E = EllipticCurveQ(*a)
        for p in (3, 5, 7, 11, 13):
            if E.discriminant % p == 0:
                continue
            shared = analyze_curve(E, p, ap_bound=10**4, mu=0, lam=1, rank=1, label=label)
            fresh = analyze_curve(EllipticCurveQ(*a), p, ap_bound=10**4, mu=0, lam=1, rank=1, label=label)
            assert json.dumps(shared.data, sort_keys=True) == json.dumps(fresh.data, sort_keys=True)
        assert bool(E.minimal[0]._traces) == (label not in CM_LABELS), label


def test_psi_p_factored_only_where_no_certificate_decides(monkeypatch):
    # over the golden run psi_p is never factored.  The scan leaves a class
    # open at p = 5 and 7 only where CM or an X_0(p) point decides, and at
    # p = 3 for seven non-CM pairs without a point on X_0(3), which end
    # INCONCLUSIVE: each has a Delta that is not a cube, so psi_3 is
    # irreducible unfactored, as sympy's factor_list confirms.  Each X_0(p)
    # witness passes its oracles.
    factored, skipped, x0_witnesses = [], [], []
    reducible, certificate = conditions._division_poly_reducible, conditions._negative_certificate

    def counting_reducible(E_min, p):
        factored.append((E_min.ainvs, p))
        return reducible(E_min, p)

    def recording_certificate(E_min, p):
        before = len(factored)
        witness = certificate(E_min, p)
        if witness is not None and "X_0(" in witness[1]:
            x0_witnesses.append((E_min, p, witness[1]))
        if witness is None and p == 3 and len(factored) == before:
            skipped.append(E_min)
        return witness

    monkeypatch.setattr(conditions, "_division_poly_reducible", counting_reducible)
    monkeypatch.setattr(conditions, "_negative_certificate", recording_certificate)
    digest = hashlib.sha256()
    assert _golden_run(digest) == 93
    assert digest.hexdigest() == GOLDEN_CORPUS_SHA256
    inconclusive = ("11a1", "11a3", "17a1", "26b1", "37a1", "389a1", "5077a1")
    # 7 factorizations, all at p = 3, before a Delta that is not a cube
    # decided psi_3; 29 when psi_p came before CM and X_0(p)
    assert factored == []
    assert sorted(E.ainvs for E in skipped) == sorted(dict(CORPUS)[label] for label in inconclusive)
    for E_min in skipped:
        assert conditions.cm_order(E_min) is None
        assert psi_degrees(E_min, 3) == [4], E_min.ainvs
    assert len(x0_witnesses) == 8
    for E_min, p, detail in x0_witnesses:
        assert_x0_witness(E_min, p, detail)


def test_each_curve_factored_once(monkeypatch):
    factored = []
    factor = ecq.factorint

    def counting_factor(n):
        factored.append(n)
        return factor(n)

    monkeypatch.setattr(ecq, "factorint", counting_factor)
    E = EllipticCurveQ(0, 1, 0, 4, 4)  # 20a1: den(j) = 25, Delta = -2^8 5^2
    analyze_curve(E, 3)
    E_tw, _ = construct_c2_twist(E, 3)
    # den(j) is read off the one factorization of |Delta|, and the twist,
    # whose j is the same, takes its primes from E: of d = 65 it factors
    # only 13, the part prime to Delta
    assert E_tw.j_invariant.denominator == 25
    assert factored == [6400, 13]

    # on a model of 20a1 scaled by u = 2 only the input's |Delta| is factored:
    # the minimal model takes its primes from it, not from gcd(c4, c6)
    factored.clear()
    E = transformed(EllipticCurveQ(0, 1, 0, 4, 4), Fraction(1, 2), 1, -1, 2)
    analyze_curve(E, 3)
    assert E.minimal[0].ainvs == (0, 1, 0, 4, 4) and E.minimal[1][0] == 2
    assert factored == [2**12 * 6400]
    # and the twist factors only the part of d prime to Delta_E: the short
    # model's primes are 2, 3, E's and d's, and its minimal model inherits them
    factored.clear()
    E_tw, cert = construct_c2_twist(E, 3)
    assert cert.d == 65 and factored == [13] and E_tw.j_invariant.denominator == 25

    # the golden run: each standard curve's |Delta_min| once, whatever the
    # number of primes p it is analyzed at, and the q of each distinct twist
    # parameter d unless q divides Delta_min, as a twist is built once per
    # curve object and d; no gcd(c4, c6), no twisted curve's discriminant and
    # no prime of S again
    twists = 0
    for label, a in CORPUS:
        factored.clear()
        E = EllipticCurveQ(*a)
        q_of_d = {}
        for p in (3, 5, 7, 11, 13):
            if E.discriminant % p == 0:
                continue
            report = analyze_curve(E, p, ap_bound=10**4, mu=0, lam=1, rank=1, label=label)
            if report.data["verdicts"]["C2"]["status"] == "FAILS":
                cert = construct_c2_twist(E, p)[1]
                q_of_d[cert.d] = cert.q
                twists += 1
        expected = [q for q in q_of_d.values() if E.minimal[0].discriminant % q]
        expected.append(abs(E.minimal[0].discriminant))
        assert sorted(factored) == sorted(expected), label
    assert twists > 0


def test_bench_tracer_installs():
    # bench/tracer.py binds iwk names with getattr, so a refactor that drops
    # one of them breaks traced benchmark runs; install it and trace 20a1
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
    spec = importlib.util.spec_from_file_location("iwk_bench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    factor = ecq.factorint
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        with tracer.into("corpus"):
            E = EllipticCurveQ(0, 1, 0, 4, 4)
            cli.analyze_curve(E, 3)
            twist.construct_c2_twist(E, 3)
    finally:
        tracer.uninstall()
    calls = tracer.tables["corpus"].calls
    for span in ("ecq.factorint", "conditions.check_c1_str", "twist.construct_c2_twist"):
        assert calls[span] >= 1, span
    assert ecq.factorint is factor


def test_minimal_model_built_once(monkeypatch):
    builds = []
    build = ecq.minimal_model

    def counting_build(E):
        builds.append(E)
        return build(E)

    monkeypatch.setattr(ecq, "minimal_model", counting_build)
    E11 = EllipticCurveQ(0, -1, 1, -10, -20)
    E = transformed(E11, Fraction(1, 6), 1, -1, 2)  # non-minimal at 2 and 3
    report = analyze_curve(E, 3)
    assert report.data["curve"]["scaling_u"] == 6
    assert report.data["curve"]["minimal_ainvs"] == list(E11.ainvs)
    assert builds == [E]
    E_min = E.minimal[0]
    assert E_min.minimal == (E_min, (1, 0, 0, 0))
    # the twist reuses E's minimal model and builds only the twisted curve's
    E_tw, cert = construct_c2_twist(E, 3)
    assert cert.d == -55 and len(builds) == 2
    assert E_tw.minimal[0] is E_tw


def test_verdicts_invariant_under_change_of_model():
    # the verdicts depend on the curve, not on the Weierstrass model it is given by
    rng = random.Random(20221018)
    compared = 0
    while compared < 32:
        try:
            E = EllipticCurveQ(*(rng.randint(-9, 9) for _ in range(5)))
        except ValueError:
            continue
        u = rng.choice((1, 2, 3, 6))
        r, s, t = (rng.randint(-20, 20) for _ in range(3))
        model = transformed(E, Fraction(1, u), r, s, t)
        for p in (3, 5, 7, 11):
            if E.minimal[0].discriminant % p == 0:
                continue
            expected = analyze_curve(E, p, ap_bound=200).data["verdicts"]
            assert analyze_curve(model, p, ap_bound=200).data["verdicts"] == expected, (
                E.ainvs, (u, r, s, t), p)
            compared += 1


# ---------------------------------------------------------------------------
# Subcommand output.


def test_twist_command(capsys):
    code = main(["twist", "--curve", "0,-1,1,-10,-20", "--p", "3"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["certificate"]["d"] == -55
    assert data["certificate"]["q"] == 5


def test_fitting_command(capsys):
    assert main(["fitting", "--module", "7:3,1", "--i", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["phi"] == 1
    assert data["cross_checks"]["bruteforce"]["agrees"]
    assert data["cross_checks"]["minors"]["agrees"]

    assert main(["fitting", "--module", "7:#2", "--i", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["phi"] == "INFINITY"

    # (Z/5)^100 at i = 1 has 10^4 minors of order 99: both cross-checks are
    # skipped before any work starts
    assert main(["fitting", "--module", "5:" + ",".join(["1"] * 100), "--i", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["phi"] == 99
    assert "10000 minors of order 99 exceed the budget" in data["cross_checks"]["minors"]["skipped"]
    assert "skipped" in data["cross_checks"]["bruteforce"]

    assert main(["fitting", "--module", "5:", "--i", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["phi"] == 0

    assert main(["fitting", "--module", "5:2,,1", "--i", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "'p:e1,e2#r'" in err


def test_fitting_presentation_file(tmp_path, capsys):
    path = tmp_path / "pres.json"
    path.write_text(
        json.dumps({"p": 5, "precision": 4, "matrix": [["5", "0"], ["0", "25"]]})
    )
    assert main(["fitting", "--presentation-file", str(path), "--i", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["phi"] == 3
    assert data["module"]["exponents"] == [2, 1]
    # the minors route is skipped past its budget, as for --module: six
    # generators by thirty relations have 593,775 minors at i = 0
    path.write_text(json.dumps({"p": 5, "precision": 3, "matrix": [[5] * 30] * 6}))
    assert main(["fitting", "--presentation-file", str(path), "--i", "0"]) == 0
    assert "593775 minors of order 6 exceed the budget" in (
        json.loads(capsys.readouterr().out)["cross_checks"]["minors"]["skipped"]
    )
    # the budget alone bounds it: seven generators at i = 0 are one minor
    diag = [[3 * (r == c) for c in range(7)] for r in range(7)]
    path.write_text(json.dumps({"p": 3, "precision": 8, "matrix": diag}))
    assert main(["fitting", "--presentation-file", str(path), "--i", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["phi"] == 7
    assert data["cross_checks"]["minors"] == {"value": 7, "agrees": True}
    # malformed files exit 1 with a message naming the field, not a traceback
    for obj, field in (
        ({"p": 5, "precision": 4}, "matrix"),
        ({"p": 5, "precision": 4, "matrix": 5}, "matrix"),
        ([[5, 0], [0, 25]], "object"),
        ({"p": 5, "precision": 4, "matrix": [[5, None], [0, 25]]}, "matrix entry"),
    ):
        path.write_text(json.dumps(obj))
        assert main(["fitting", "--presentation-file", str(path), "--i", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("iwk: error: presentation file") and field in captured.err


def test_growth_command(capsys):
    assert main(["growth", "--p", "7", "--mu", "0", "--lambda", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["growth"]["lambda_hat"] == "4"
    assert data["discrepancy_flags"]

    assert main(
        ["growth", "--p", "5", "--mu", "1", "--lambda", "0", "--compare", "5,0,25"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["compare"]["relation"] == "A_DOMINATES"


def test_coinv_command(capsys):
    assert main(["coinv", "--poly", "T^2", "--mu", "0", "--p", "3", "--n-range", "1..4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [row["order"] for row in data["table"]] == [1, 3, 5, 7]
    assert data["bounded_tail"] is True
    # an empty window or a repeated level is an input error, not a verdict
    args = ["coinv", "--poly", "1", "--mu", "1", "--p", "3", "--n-range"]
    assert main([*args, "1,2,3"]) == 0
    data = json.loads(capsys.readouterr().out)
    # Lambda/(3) is exact at layer n - 1: orders 1, 3, 9, deviations 0
    assert [(row["order"], row["deviation"]) for row in data["table"]] == [(1, 0), (3, 0), (9, 0)]
    assert data["bounded_tail"] is True and data["max_deviation"] == 0
    for window in ("5..2", ",", "1,2,3,3", "1,,3", "2..", "..4"):
        assert main([*args, window]) == 1
        assert capsys.readouterr().out == ""
    # one level has no tail of length 2
    assert main([*args, "3"]) == 0
    assert json.loads(capsys.readouterr().out)["bounded_tail"] is False
    assert main(["coinv", "--poly", "T^2", "--mu", "0", "--p", "3", "--n-range", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [row["order"] for row in data["table"]] == [5] and data["bounded_tail"] is False
    # a zero top term changes nothing
    outs = []
    for poly in ("T^2+3*T+3", "0*T^3+T^2+3*T+3"):
        assert main(["coinv", "--poly", poly, "--p", "3", "--n-range", "1..4"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# Ingestion.


def test_ingest_two_line_csv(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text("label,a1,a2,a3,a4,a6\n5077.a1,0,0,1,-7,6\n11.a1,0,-1,1,-10,-20\n")
    records = ingest_curves(str(path))
    assert len(records) == 2
    assert records[0].label == "5077.a1"
    assert records[0].curve() == EllipticCurveQ(0, 0, 1, -7, 6)
    # idempotent: same file, same records
    assert ingest_curves(str(path)) == records


def test_ingest_errors(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("name,a1,a2,a3,a4,a6\nx,0,0,1,-7,6\n")
    with pytest.raises(ValueError, match="header"):
        ingest_curves(str(bad_header))

    bad_row = tmp_path / "bad2.csv"
    bad_row.write_text("label,a1,a2,a3,a4,a6\nx,0,0,one,-7,6\n")
    with pytest.raises(ValueError, match="bad2.csv:2"):
        ingest_curves(str(bad_row))


def test_curve_record_rejects_singular():
    with pytest.raises(ValueError):
        CurveRecord("x", (0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# Trace cache.


def test_cache_round_trip(tmp_path, monkeypatch):
    E = EllipticCurveQ(0, 0, 1, -7, 6)
    blobs = []
    for name in ("a", "b"):
        monkeypatch.setenv("IWK_CACHE_DIR", str(tmp_path / name))
        first = cache_traces(E, 100)
        (path,) = (tmp_path / name).iterdir()
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]  # no wall-clock field: fills are reproducible

    def recount(*args, **kwargs):
        raise AssertionError("a_ell recomputed although it is cached")

    monkeypatch.setattr(ecq, "count_points_ap", recount)
    assert cache_traces(E, 100) == first
    assert path.read_bytes() == blobs[1]  # untouched on a pure cache hit
    # files written with a computed_at timestamp still load
    rows = [json.loads(line) for line in blobs[1].decode().splitlines()]
    path.write_text("".join(json.dumps({**row, "computed_at": 1.6e9}) + "\n" for row in rows))
    assert cache_traces(E, 100) == first


def test_cache_poisoning_recovers(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("IWK_CACHE_DIR", str(tmp_path))
    E = EllipticCurveQ(0, 0, 1, -7, 6)
    good = {(r.prime, r.a_ell) for r in cache_traces(E, 60)}
    path = next(tmp_path.iterdir())
    lines = path.read_text().splitlines()
    lines[0] = '{"broken'
    lines[1] = json.dumps({"curve": [0, 0, 1, -7, 6], "ell": 5, "ap": 99, "computed_at": 0})
    path.write_text("\n".join(lines) + "\n")
    recovered = {(r.prime, r.a_ell) for r in cache_traces(E, 60)}
    err = capsys.readouterr().err
    assert "discarding corrupt cache entry" in err
    assert recovered == good


def test_cache_discards_bad_primes(tmp_path, monkeypatch, capsys):
    # 5077a1 has Delta = 5077: lines for ell = 9, ell = 5077 and the prime
    # 1000003, past the bound any cache run accepts, are corrupt
    monkeypatch.setenv("IWK_CACHE_DIR", str(tmp_path))
    curve = ["--curve", "0,0,1,-7,6"]
    assert main(["cache", *curve, "--bound", "50"]) == 0
    path = next(tmp_path.iterdir())
    clean = path.read_text()
    # and so are numbers that are not JSON integers, which int() would truncate
    # (5.9 to the good prime 5) or accept (true as 1)
    not_integers = [
        {"curve": [0, 0, 1, -7, 6], "ell": 5.9, "ap": 0},
        {"curve": [0, 0, 1, -7, 6], "ell": 7, "ap": -1.5},
        {"curve": [0, 0, 1, -7, 6.0], "ell": 11, "ap": 0},
        {"curve": [0, 0, 1, -7, 6], "ell": True, "ap": 0},
        {"curve": [False, 0, 1, -7, 6], "ell": 13, "ap": 0},
    ]
    with path.open("a") as fh:
        for ell in (9, 5077, 1000003):
            fh.write(json.dumps({"curve": [0, 0, 1, -7, 6], "ell": ell, "ap": 0}) + "\n")
        for obj in not_integers:
            fh.write(json.dumps(obj) + "\n")
    capsys.readouterr()
    assert main(["cache", *curve, "--bound", "50"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["cached"] == 14
    assert err.count("not an odd prime of good reduction") == 3
    assert err.count("must be JSON integers") == len(not_integers)
    # the run computed no new prime, yet it rewrote the file without them
    assert path.read_text() == clean
    ells = [json.loads(line)["ell"] for line in path.read_text().splitlines()]
    assert ells == list(primerange(3, 51))
    assert main(["cache", *curve, "--bound", "50"]) == 0
    assert capsys.readouterr().err == ""
    assert main(["cache", *curve, "--bound", "6000"]) == 0
    assert json.loads(capsys.readouterr().out)["cached"] == 781
    ells = [json.loads(line)["ell"] for line in path.read_text().splitlines()]
    assert ells == [ell for ell in primerange(3, 6001) if ell != 5077]


def test_cache_written_at_most_once(tmp_path, monkeypatch, capsys):
    # a corrupt file read at a larger bound is rewritten once, without the
    # corrupt line and with the new primes; the loader alone writes nothing,
    # and a clean hit writes nothing either
    monkeypatch.setenv("IWK_CACHE_DIR", str(tmp_path))
    E = EllipticCurveQ(0, 0, 1, -7, 6)
    cache_traces(E, 30)
    path = next(tmp_path.iterdir())
    with path.open("a") as fh:
        fh.write('{"broken\n')
    corrupt = path.read_bytes()
    replaced = []
    replace = os.replace
    monkeypatch.setattr(os, "replace", lambda *args: replaced.append(args) or replace(*args))
    discarded = []
    loaded = cli._load_cache(E.minimal[0], str(path), discarded)
    assert sorted(loaded) == list(primerange(3, 31)) and discarded == [10]
    assert replaced == [] and path.read_bytes() == corrupt
    capsys.readouterr()
    records = cache_traces(E, 60)
    assert len(replaced) == 1
    assert capsys.readouterr().err.count("discarding corrupt cache entry") == 1
    assert [r.prime for r in records] == list(primerange(3, 61))
    assert b"broken" not in path.read_bytes()
    assert cache_traces(E, 60) == records
    assert len(replaced) == 1


# SHA-256 over seeded corrupt caches of what `iwk cache` prints and leaves:
# exit code, stdout and stderr (the cache directory's path cut out) and the
# file's bytes, after a read of the corrupt file and after a second read
GOLDEN_CORRUPT_CACHE_SHA256 = "d4cb049edc8bd26aead5339bff6dbd1675b7b38ae5ebf8f865721481c4aff04a"


def _corrupt_line(rng, curve, bad):
    """One line the trace-cache loader must discard, or (the last two kinds)
    one it accepts although no fill wrote it."""
    ell = rng.choice([3, 5, 7, 13, 17, 19, 23, 29, 31])
    rec = lambda ell, ap, curve=curve: json.dumps({"curve": curve, "ell": ell, "ap": ap})
    kinds = [
        lambda: '{"broken',
        lambda: "null",
        lambda: "[1, 2]",
        lambda: json.dumps({"curve": curve, "ell": ell}),
        lambda: json.dumps({"ell": ell, "ap": 0}),
        lambda: rec(9, 0),
        lambda: rec(bad, 0),
        lambda: rec(1000003, 0),
        lambda: rec(-5, 0),
        lambda: rec(2, 1),
        lambda: rec(1, 0),
        lambda: rec(ell + 0.5, 0),
        lambda: rec(ell, -1.5),
        lambda: rec(ell, 0, curve[:-1] + [float(curve[-1])]),
        lambda: rec(True, 0),
        lambda: rec(ell, False),
        lambda: rec(ell, 0, [False] + curve[1:]),
        lambda: rec(ell, 0, [0, 0, 0, 0, 1]),
        lambda: rec(ell, 2 * int(ell**0.5) + 1),
        lambda: "   ",
        lambda: rec(ell, rng.choice([-1, 0, 1])),
        lambda: rec(10007, 3),
    ]
    return rng.choice(kinds)()


def test_corrupt_cache_golden(tmp_path, monkeypatch, capsys):
    rng = random.Random(24)
    curves = {"0,0,1,-7,6": 5077, "0,-1,1,-10,-20": 11, "0,0,1,-1,0": 37}
    digest = hashlib.sha256()
    for k in range(40):
        text, bad = rng.choice(sorted(curves.items()))
        curve = [int(a) for a in text.split(",")]
        monkeypatch.setenv("IWK_CACHE_DIR", str(tmp_path / f"s{k}"))
        path = pathlib.Path(cli._cache_path(parse_curve(text)))
        lines = []
        fill = rng.choice([None, 30, 80])
        if fill is None:
            path.parent.mkdir()
        else:
            assert main(["cache", "--curve", text, "--bound", str(fill)]) == 0
            lines = [line for line in path.read_text().splitlines() if rng.random() < 0.8]
        for _ in range(rng.randint(1, 6)):
            lines.insert(rng.randint(0, len(lines)), _corrupt_line(rng, curve, bad))
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        bound = str(rng.choice([20, 50, 150]))
        for _ in range(2):
            code = main(["cache", "--curve", text, "--bound", bound])
            out, err = capsys.readouterr()
            for part in (str(code), out, err):
                digest.update(part.replace(str(tmp_path), "").encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    assert digest.hexdigest() == GOLDEN_CORRUPT_CACHE_SHA256


def test_cache_transparency(tmp_path, monkeypatch):
    # verdicts never depend on the cache contents
    E = EllipticCurveQ(0, 0, 1, -7, 6)
    monkeypatch.setenv("IWK_CACHE_DIR", str(tmp_path / "a"))
    with_cache = analyze_curve(E, 7, ap_bound=200).data
    monkeypatch.setenv("IWK_CACHE_DIR", str(tmp_path / "b"))
    without = analyze_curve(E, 7, ap_bound=200).data
    assert with_cache == without


def test_cold_imports(tmp_path):
    # each subcommand runs in a fresh interpreter and loads only what its
    # work needs.  sympy only for a division polynomial that no certificate
    # decides or a factor that rho leaves whole, and numpy never: not for a
    # twist, for 5077a1 at p = 7, for 11a1 at p = 3, whose psi_3 its Delta
    # shows irreducible, or for a trace cache.  dataclasses and the inspect
    # it imports never.  The Lambda subcommands and growth leave the curve
    # layers (ecq, conditions, twist) unloaded, the curve subcommands the
    # Lambda side (zpmod, iwasawa), analyze also twist, cache all but ecq,
    # and analyze and twist the csv and hashlib that only the CSV reader and
    # the trace cache use
    import subprocess

    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import iwk.cli\n"
        "iwk.cli.main(sys.argv[2:])\n"
        "with open(sys.argv[1], 'w') as fh:\n"
        "    json.dump(sorted(set(sys.modules) - before), fh)\n"
    )
    never = {"sympy", "numpy", "dataclasses", "inspect"}
    no_curves = never | {"iwk.ecq", "iwk.conditions", "iwk.twist"}
    curves_only = never | {"iwk.zpmod", "iwk.iwasawa"}
    analyze = curves_only | {"csv", "hashlib", "iwk.twist"}
    steps = [
        (["coinv", "--poly", "T^2+3*T+6", "--p", "3", "--n-range", "1..5"], no_curves),
        (["fitting", "--module", "7:3,1", "--i", "1"], no_curves),
        (["growth", "--p", "7", "--mu", "0", "--lambda", "2", "--compare", "7,1,0"], no_curves),
        (["twist", "--curve", "0,-1,1,-10,-20", "--p", "3"], curves_only | {"csv", "hashlib"}),
        (["analyze", "--curve", "0,0,1,-7,6", "--p", "7", "--mu", "0", "--lambda", "2",
          "--rank", "3"], analyze),
        (["analyze", "--curve", "0,-1,1,-10,-20", "--p", "3"], analyze),
        (["cache", "--curve", "0,0,1,-7,6", "--bound", "2000"],
         curves_only | {"iwk.conditions", "iwk.twist"}),
    ]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    cache_dir = tmp_path / "cache"
    env = {**os.environ, "PYTHONPATH": src, "IWK_CACHE_DIR": str(cache_dir)}
    loaded_file = tmp_path / "loaded.json"
    for argv, absent in steps:
        result = subprocess.run(
            [sys.executable, "-c", code, str(loaded_file), *argv], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        loaded = set(json.loads(loaded_file.read_text()))
        assert "iwk.cli" in loaded
        assert loaded & absent == set(), (argv[0], sorted(loaded & absent))
    assert os.listdir(cache_dir), "the cache step wrote no file"


def test_package_exports_are_lazy():
    import subprocess

    import iwk

    # a fresh `import iwk` loads none of the layers, and `iwk.<layer>` loads one
    code = (
        "import json, sys, iwk\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('iwk'))\n"
        "print(json.dumps([loaded(), iwk.growth.__name__, loaded()]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [
        ["iwk"], "iwk.growth", ["iwk", "iwk._record", "iwk.errors", "iwk.growth", "iwk.padic"]
    ]
    # every exported name is the object that its layer defines
    assert len(set(iwk.__all__)) == len(iwk.__all__) == 60
    for name in iwk.__all__:
        value = getattr(iwk, name)
        home = "iwk.padic" if name in ("INFINITY", "Valuation") else value.__module__
        assert home.startswith("iwk.") and getattr(importlib.import_module(home), name) is value, name
    # a star import binds them all, and no layer module
    namespace = {}
    exec("from iwk import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(iwk.__all__)
    assert all(namespace[name] is getattr(iwk, name) for name in iwk.__all__)
    assert set(iwk.__all__) <= set(dir(iwk))
    with pytest.raises(AttributeError, match="no attribute 'poly_mul'"):
        iwk.poly_mul
    with pytest.raises(ImportError):
        exec("from iwk import no_such_name", {})


def test_cli_subprocess_smoke():
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    run = lambda *args: subprocess.run(
        [sys.executable, "-m", "iwk.cli", *args], capture_output=True, text=True, env=env
    )
    ok = run("fitting", "--module", "7:3,1", "--i", "1")
    assert ok.returncode == 0 and json.loads(ok.stdout)["phi"] == 1
    bad = run("analyze", "--curve", "0,0,1,-7,6", "--p", "2")
    assert bad.returncode == 1
    usage = run("analyze", "--curve", "0,0,1,-7,6")  # missing --p
    assert usage.returncode == 1


# ---------------------------------------------------------------------------
# Reachability of every definition.

# Definitions that no `iwk` subcommand reaches, with why each stays.  The
# walk goes on from them, so what they use needs no entry of its own.
LIBRARY_ONLY = {
    "weierstrass_prepare": "acceptance criterion 3; bench/ calls it",
    "TruncatedSeries": "acceptance criterion 3; bench/ calls it",
    "GroupRingPresentation": "acceptance criterion 8; bench/ calls it",
    "all_characters": "acceptance criterion 8; bench/ calls it",
    "delta_decompose": "acceptance criterion 8; bench/ calls it",
    "underlying_presentation": "the oracle that tests/test_zpmod.py checks delta_decompose against",
    "direct_sum": "acceptance criterion 2",
    "ingest_curves": "bench/ reads its corpus CSV with it",
    "curve": "bench/ builds each ingested CurveRecord's curve with it",
    "error": "argparse calls _Parser.error on a usage error",
}


def test_library_only_exports_are_listed():
    """Walk the AST from cli.main, every cli._cmd_* handler and LIBRARY_ONLY,
    following any name or attribute that matches a top-level definition of
    the package, any called attribute that matches a method, and any read
    attribute that matches a (cached) property (so the walk over-approximates
    what is reached).  Every top-level function and class and every
    non-dunder method must be reached, and no LIBRARY_ONLY entry may be one
    that the subcommands reach.  A module's PEP 562 hooks, `__getattr__` and
    `__dir__`, are reached by the interpreter, as dunder methods are, so the
    walk starts from them too."""
    import ast
    import pathlib

    def is_method(node):
        return isinstance(node, ast.FunctionDef) and not node.name.startswith("__")

    def is_property(node):
        names = {getattr(d, "id", None) or getattr(d, "attr", None) for d in node.decorator_list}
        return bool(names & {"property", "cached_property"})

    def body(node):
        # a class's own body runs when it is used; its methods only when named
        yield node
        for child in ast.iter_child_nodes(node):
            if not (isinstance(node, ast.ClassDef) and is_method(child)):
                yield from body(child)

    pkg = pathlib.Path(cli.__file__).parent
    defs, methods, properties = {}, {}, set()
    for path in sorted(pkg.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
                for child in node.body if isinstance(node, ast.ClassDef) else ():
                    if is_method(child):
                        methods.setdefault(child.name, []).append(child)
                        if is_property(child):
                            properties.add(child.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for t in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(t, ast.Name):
                        defs.setdefault(t.id, []).append(node)

    def reach(roots):
        reached, todo = set(roots), list(roots)
        while todo:
            name = todo.pop()
            called = set()  # the attributes that are the callee of a call
            for node in defs.get(name, []) + methods.get(name, []):
                for sub in body(node):  # a call comes before its callee
                    if isinstance(sub, ast.Call):
                        called.add(id(sub.func))
                    used = getattr(sub, "id", None) or getattr(sub, "attr", None)
                    if used in reached:
                        continue
                    if used in defs or (isinstance(sub, ast.Attribute) and used in methods
                                        and (id(sub) in called or used in properties)):
                        reached.add(used)
                        todo.append(used)
        return reached

    handlers = ["main"] + [name for name in vars(cli) if name.startswith("_cmd_")]
    assert len(handlers) == 7
    defined = set(methods) | {
        name for name, nodes in defs.items()
        if any(isinstance(n, (ast.FunctionDef, ast.ClassDef)) for n in nodes)
    }
    assert set(LIBRARY_ONLY) <= defined
    assert reach(handlers) & set(LIBRARY_ONLY) == set()
    # the group-ring route's character values are bench-only; an enum's
    # `.value` read must not count as a call of DeltaCharacter.value
    assert reach(handlers) & {"teichmuller", "value"} == set()
    hooks = ["__getattr__", "__dir__"]
    assert defined - reach(handlers + list(LIBRARY_ONLY) + hooks) == set()
