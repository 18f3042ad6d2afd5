"""Stands in for `python -m iwk.cli` in the benchmark's cold CLI processes.

It runs the CLI as `-m` does and, at exit, writes the peak resident set of
this process (VmHWM, in MB) to the file named by $IWK_BENCH_RSS.  The
ru_maxrss that the parent reads for a child is no good for this: a child
inherits its parent's high-water mark through fork and exec, so it reports
the benchmark's own size whenever that is the larger.  With
$IWK_BENCH_SPANS set, the CLI runs traced (see tracer.py).

    IWK_BENCH_RSS=rss.txt PYTHONPATH=src python3 bench/cli_child.py twist --curve 0,-1,1,-10,-20 --p 3
"""

import atexit
import os
import runpy
import sys


def _write_peak_rss() -> None:
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    with open(os.environ["IWK_BENCH_RSS"], "w") as out:
        out.write(str(kb / 1024))


if __name__ == "__main__":
    atexit.register(_write_peak_rss)
    if os.environ.get("IWK_BENCH_SPANS"):
        import tracer

        sys.exit(tracer.traced_cli())
    runpy.run_module("iwk.cli", run_name="__main__", alter_sys=True)
