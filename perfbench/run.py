"""The repository benchmark: one workload, one seed, metrics on stdout.

    python3 perfbench/run.py --workload solo-disk --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
#: the workloads ``BENCHMARK.json`` lists
WORKLOADS = ("solo-disk", "sim-verify")
#: runnable, but not listed (see README.md): typist-viewer's latency is
#: set by how fast the host wakes an idle vCPU, and duo-typing's two
#: writers crash the server across GC rebases, losing a varying number of
#: ops per run
UNLISTED = ("typist-viewer", "duo-typing")
#: whole-run deadline: past it every child is killed and the run fails
DEADLINE_S = 170.0


def _kill_children() -> None:
    from perfbench import procfs

    for pid in list(procfs.CHILDREN):
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _watchdog(seconds: float) -> None:
    """Past ``seconds``, or on SIGTERM, kill every child and exit non-zero."""

    def expire() -> None:
        _kill_children()
        print(f"perfbench: run exceeded {seconds:.0f}s; aborted", file=sys.stderr, flush=True)
        os._exit(3)

    def terminated(signum, frame) -> None:
        _kill_children()
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, terminated)
    timer = threading.Timer(seconds, expire)
    timer.daemon = True
    timer.start()


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """``(correct, attempted, failed, metrics, units)`` for one run."""
    from perfbench import report

    if workload == "sim-verify":
        from perfbench.simverify import SETUPS, measure_setup, run_sim
        from perfbench.spans import Tracer

        if not trace:
            setups = measure_setup(ROOT, SRC, seed, SETUPS - SETUPS // 2)
            result = run_sim(seed, seconds)
            setups += measure_setup(ROOT, SRC, seed, SETUPS // 2)
            result["setup_s"] = min(setups)
            runs = [result]
        else:
            runs = [run_sim(seed, seconds / 2), run_sim(seed, seconds / 2, Tracer())]
    else:
        import json

        from perfbench.wire import Observer, run_wire

        observer = Observer()
        if not trace:
            runs = [run_wire(workload, seed, seconds, OUT, SRC, False, observer)]
        else:
            runs = [
                run_wire(workload, seed, seconds / 2, OUT, SRC, False, observer),
                run_wire(workload, seed, seconds / 2, OUT, SRC, True, observer),
            ]
            traces = []
            for path in runs[1]["spans_paths"]:
                with open(path, encoding="utf-8") as handle:
                    traces.append(json.load(handle))
            runs[1]["server_traces"] = traces
    if trace:
        metrics, units = report.per_layer(*runs), report.PER_LAYER
    else:
        metrics, units = report.end_to_end(runs[0]), report.END_TO_END
    for run in runs:
        if run.get("sessions_died"):
            print(f"perfbench: {run['sessions_died']} session(s) died "
                  f"({', '.join(run['death_causes'])}); their unacknowledged ops failed",
                  file=sys.stderr)
    problems = [problem for run in runs for problem in run["problems"]]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return not problems, attempted, failed, metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + UNLISTED)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    _watchdog(DEADLINE_S)
    os.makedirs(OUT, exist_ok=True)
    try:
        correct, attempted, failed, metrics, units = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(os.path.join(OUT, "wal"), ignore_errors=True)
    from perfbench.report import result_line

    print(result_line(correct, attempted, failed, metrics, units), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
