"""Benchmark of iwk: one command, every metric by name.

    python3 bench/run.py --workload corpus --seed 1 --seconds 6 --trace 0

The selected workload (corpus or modules) runs whole rounds of its units,
on inputs made from --seed, until --seconds of its own work have passed.
The corpus, bigdisc, modules and cli-cold segments other than the selected
one run a short probe on fixed inputs, interleaved with it, so every run
reports every end-to-end metric, at the reference speed of the host (see
REFERENCE_S).  With --trace 1 the run does one round of
the selected workload plus the probes, every iwk layer traced into the
table of the segment that calls it, and reports per-layer metrics instead,
with the tracing overhead against an untraced run of the same seed.  The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "modules")
SETUP_PROBES = 3
# Rounds of cold CLI processes in an untraced run, and in a traced one,
# which needs only fixed counts and runs an untraced run besides.
CLI_PROBE_ROUNDS = 5
CLI_TRACED_ROUNDS = 2
# The host's speed drifts by a quarter and more over minutes, and every
# metric of a run moves with it, child processes included.  So each run
# times segments.reference_work (pure Python, no iwk, no sympy) spread over
# the run, and reports every time at the speed at which that work takes
# REFERENCE_S: times are multiplied by REFERENCE_S / (its median time),
# rates divided.  The unscaled figures are printed before the result.
REFERENCE_S = 0.018
REFERENCE_UNITS = 100


def import_iwk() -> None:
    """Import iwk from this checkout's src/ and nowhere else.  The bench
    modules that import iwk are imported only after this has run."""
    src = ROOT / "src"
    if not (src / "iwk" / "__init__.py").is_file():
        raise SystemExit(f"bench: no iwk sources at {src / 'iwk'}")
    sys.path.insert(0, str(src))
    import iwk

    if not Path(iwk.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bench: iwk was imported from {iwk.__file__}, not from {src}")


def prepare(workload: str, seed: int, run):
    """Set-up of a run, all that `setup_s` times: the selected workload's
    inputs (for corpus, a CSV read back through `ingest_curves`) and one
    warm-up call, untraced."""
    import inputs
    import segments
    from iwk.ecq import EllipticCurveQ

    if workload == "corpus":
        main = segments.Corpus(run, inputs.corpus_curves(seed))
    else:
        main = segments.Modules(run, inputs.modules_units(seed))
    segments.analyze_and_twist(EllipticCurveQ(0, -1, 1, -10, -20), 7, "warm-up")
    return main


def probes(workload: str, run, traced: bool) -> list:
    """The fixed probes of the segments other than the selected one.  They
    are the benchmark's own work, so they are made after set-up."""
    import inputs
    import segments

    make = {
        "corpus": lambda: segments.Corpus(run, list(inputs.STANDARD_CURVES)),
        "bigdisc": lambda: segments.BigDisc(run, inputs.bigdisc_probe_curves()),
        "modules": lambda: segments.Modules(run, inputs.modules_units(inputs.PROBE_SEED, inputs.MODULES_PROBE_UNITS)),
        "cli-cold": lambda: segments.CliCold(run, CLI_TRACED_ROUNDS if traced else CLI_PROBE_ROUNDS),
    }
    return [build() for name, build in make.items() if name != workload]


def untraced_metrics(args, run) -> dict:
    """End-to-end metrics of an untraced run of the same arguments."""
    import segments

    code, out, _ = segments.spawn(run, [sys.executable, __file__, "--workload", args.workload,
                                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                                           "--trace", "0"], {})
    result = json.loads(out.strip().splitlines()[-1])
    if code != 0 or not result["correct"]:
        run.errors.append("untraced reference run failed")
    return result["metrics"]


def measure(args, tmp: str) -> dict:
    import oracles
    import segments
    from tracer import Tracer, layer_metrics

    run = segments.Run(str(ROOT), tmp)
    if args.trace:
        reference = untraced_metrics(args, run)
        run.tracer = Tracer()
        run.tracer.install()
    main = prepare(args.workload, args.seed, run)
    for failure in oracles.self_test():
        run.errors.append(f"oracle self-test: {failure}")
    others = probes(args.workload, run, bool(args.trace))
    speed = segments.Reference(run, [None] * REFERENCE_UNITS)
    others.append(speed)
    if not args.trace:
        argv = [sys.executable, __file__, "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
        others.append(segments.SetUp(run, [argv] * SETUP_PROBES))
    # Each probe's units are spread evenly over the whole main loop, so that
    # every metric samples the machine's speed, which drifts by the minute,
    # across the whole run rather than in one stretch of it.
    queue = [(seg, unit) for _, _, seg, unit in sorted(
        ((j + 0.5) / len(seg.units), k, seg, unit)
        for k, seg in enumerate(others) for j, unit in enumerate(seg.units))]
    busy, done, probed = 0.0, 0, 0
    while True:
        t0 = segments.cpu_time()
        with run.tracing(main.name):
            main.run_unit(main.units[done % len(main.units)])
        busy += segments.cpu_time() - t0
        done += 1
        if args.trace:
            share = done / main.round_units
            finished = done == main.round_units
        else:
            # The main loop ends at the first whole round after --seconds.
            per_round = busy / done * main.round_units
            share = done / (main.round_units * math.ceil(args.seconds / per_round))
            finished = busy >= args.seconds and done % main.round_units == 0
        while probed < len(queue) and (finished or probed < share * len(queue)):
            seg, unit = queue[probed]
            with run.tracing(seg.name):
                seg.run_unit(unit)
            probed += 1
        if finished:
            break

    measured = {}
    for seg in [main] + others:
        measured.update(seg.metrics())
        failures = "; ".join(f"{n} x {why}" for why, n in seg.failed.items())
        print(f"{seg.name}{' (selected)' if seg is main else ' (probe)'}: "
              f"{seg.attempted} operations, {sum(seg.failed.values())} failed{': ' + failures if failures else ''}")
    for error in run.errors[:20]:
        print(f"CHECK FAILED: {error}")
    scale = REFERENCE_S / speed.seconds()
    print(f"host speed: reference work took {speed.seconds():.6f} s (median of {REFERENCE_UNITS}), "
          f"so times are scaled by {scale:.4f}; unscaled: "
          + json.dumps({name: value for name, (value, _) in measured.items()}))
    end_to_end = {name: (value * scale if unit in ("s", "ms") else value / scale if unit.endswith("/s") else value, unit)
                  for name, (value, unit) in measured.items()}
    if args.trace:
        tracer = run.tracer
        tracer.uninstall()
        for table in run.child_tables:
            tracer.tables["cli-cold"].merge(table)
        for name, (value, unit) in end_to_end.items():
            base = reference[name]["value"]
            print(f"tracing overhead {name}: traced {value:.6g} - untraced {base:.6g} = "
                  f"{value - base:+.6g} {unit} ({(value - base) / base:+.1%})")
        print(json.dumps({"spans": {seg: t.as_dict() for seg, t in tracer.tables.items()}}), file=sys.stderr)
        metrics = layer_metrics(tracer, run.child_tables, main.name)
    else:
        metrics = end_to_end
    return {
        "correct": not run.errors,
        "attempted": main.attempted,
        "failed": sum(main.failed.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    # Unwind on SIGTERM too, so the temporary directory and any child go.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    import_iwk()
    tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        if args.setup_probe:
            import segments

            prepare(args.workload, args.seed, segments.Run(str(ROOT), tmp))
            print(time.process_time())
            return 0
        result = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
