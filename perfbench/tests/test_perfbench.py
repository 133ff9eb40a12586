"""Self-tests of the benchmark harness, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import report, schedule, spans

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("solo-disk", "typist-viewer", "sim-verify", "duo-typing")


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Deterministic workload generation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_schedule_is_a_pure_function_of_workload_and_seed(workload):
    first = schedule.schedule_bytes(workload, 7)
    assert first == schedule.schedule_bytes(workload, 7)
    assert first != schedule.schedule_bytes(workload, 8)


def test_workloads_differ_for_the_same_seed():
    assert schedule.schedule_bytes("solo-disk", 7) != schedule.schedule_bytes("duo-typing", 7)


def test_open_loop_offers_exactly_the_typing_rate():
    due = schedule.due_times("typist-viewer", 3, "w1", 60.0)
    assert due == sorted(due) and 0.0 <= due[0] and due[-1] < 60.0
    assert len(due) == 60 * schedule.TYPING_RATE


def test_only_the_typists_get_a_schedule():
    assert set(schedule.open_schedule("typist-viewer", 3, 2.0)) == {"w1"}
    assert set(schedule.open_schedule("duo-typing", 3, 2.0)) == {"w1", "w2"}


@pytest.mark.parametrize("workload", ["solo-disk", "typist-viewer", "duo-typing"])
def test_keystrokes_resolve_to_valid_positions(workload):
    from repro.scenarios.compile import resolve_intent

    length, cursor = len(schedule.initial_text(workload, 5)), 0
    stream = schedule.keystrokes(workload, 5, "w1")
    kinds = []
    for _ in range(2000):
        spec, cursor = resolve_intent(next(stream), cursor, length)
        assert 0 <= spec.position <= length - (spec.kind == "del")
        length += 1 if spec.kind == "ins" else -1
        kinds.append(spec.kind)
    # The repository's typing model: mostly typing, some backspaces.
    assert 0.85 < kinds.count("ins") / len(kinds) < 0.97


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    tree = [
        ("root", 0.0, 10.0, -1, ""),
        ("a", 1.0, 4.0, 0, ""),
        ("b", 3.0, 6.0, 0, ""),  # overlaps a: [1, 6) is covered once
        ("a.child", 2.0, 3.0, 1, ""),
        ("late", 9.0, 12.0, 0, ""),  # clipped to the parent's end
        None,  # a call that never returned
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 0.0])


def test_tracer_nests_spans_per_task():
    ticks = iter(range(1000))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def inner(op):
        return op

    traced_inner = tracer.wrap("inner", inner, opid=True)

    async def outer(n):
        await asyncio.sleep(0)
        return traced_inner(n)

    traced_outer = tracer.wrap("outer", outer)

    class Op:
        class opid:
            replica, seq = "c1", 4

    async def main():
        await asyncio.gather(traced_outer(Op()), traced_outer(Op()))

    asyncio.run(main())
    closed = tracer.spans
    assert [s[0] for s in closed].count("outer") == 2
    for span in closed:
        if span[0] == "inner":
            assert closed[span[3]][0] == "outer"
            assert span[4] == "c1:4"
        else:
            assert span[3] == -1
    summary = tracer.summary()["spans"]
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["total_s"] - summary["inner"]["total_s"]
    )


def test_hook_sees_each_call_outside_the_span():
    ticks = iter(range(1000))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    class Box:
        def put(self, value):
            return value * 2

    seen = []
    tracer.patch(Box, "put", "box.put")
    spans.hook(Box, "put", lambda args, result: seen.append((args[1], result, tracer.spans[-1])))
    assert Box().put(3) == 6 and Box().put(4) == 8
    # Each callback ran with the call's arguments and result, after its
    # span had closed.
    assert seen == [(3, 6, ("box.put", 0.0, 1.0, -1, "")), (4, 8, ("box.put", 2.0, 3.0, -1, ""))]


def test_merge_summaries_sums_and_takes_maxima():
    one = {"spans": {"x": {"calls": 1, "total_s": 1.0, "self_s": 0.5}}, "counts": {"c": 2}, "maxima": {"m": 3}}
    two = {"spans": {"x": {"calls": 2, "total_s": 2.0, "self_s": 1.0}}, "counts": {"c": 1}, "maxima": {"m": 5}}
    merged = spans.merge_summaries([one, two])
    assert merged["spans"]["x"] == {"calls": 3, "total_s": 3.0, "self_s": 1.5}
    assert merged["counts"] == {"c": 3} and merged["maxima"] == {"m": 5}


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
def test_failed_ops_rank_above_completed_ones():
    values = [1.0] * 98 + [math.inf] * 2
    assert report.percentile(values, 0.50, ceiling=500.0) == 1.0
    assert report.percentile(values, 0.99, ceiling=500.0) == 500.0
    assert report.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    with pytest.raises(ValueError):
        report.percentile([math.inf], 0.5)


def test_killing_the_server_mid_run_counts_failed_ops(tmp_path):
    """A server that dies mid-window fails the ops in flight; the run
    still ends, well inside its deadline."""
    from perfbench.wire import Observer, WireRun

    run = WireRun("duo-typing", 1, 3.0, str(tmp_path), os.path.join(ROOT, "src"), False, Observer())

    async def kill_soon():
        await asyncio.sleep(1.0)
        run.server.proc.kill()

    async def main():
        await run.setup(1, keep=True)
        # run() would set up again; drive the window directly instead.
        run.setup = lambda count, keep: asyncio.sleep(0, result=[0.0])
        killer = asyncio.ensure_future(kill_soon())
        try:
            return await asyncio.wait_for(run.run(), 60)
        finally:
            await killer

    started = time.monotonic()
    result = asyncio.run(main())
    assert time.monotonic() - started < 60
    assert result["failed"] > 0
    assert result["sessions_died"] >= 1
    assert result["episodes"] >= 2


def test_a_replica_that_differs_from_the_server_fails_the_check(tmp_path):
    from perfbench.wire import Observer, WireRun

    run = WireRun("duo-typing", 2, 1.0, str(tmp_path), os.path.join(ROOT, "src"), False, Observer())

    async def main():
        await run.setup(1, keep=True)
        run.setup = lambda count, keep: asyncio.sleep(0, result=[0.0])
        run.writers[1].client.signature = lambda: "tampered"
        return await asyncio.wait_for(run.run(), 60)

    result = asyncio.run(main())
    assert result["problems"] == ["w2.1 diverged from the server"]


def test_a_survivor_whose_session_dies_during_the_check_is_a_death(tmp_path):
    from types import SimpleNamespace

    from perfbench.wire import Observer, WireRun

    run = WireRun("duo-typing", 2, 1.0, str(tmp_path), os.path.join(ROOT, "src"), False, Observer())

    async def main():
        await run.setup(1, keep=True)
        w2 = run.writers[1]
        # An op the server never acknowledges, then the session ends.
        w2.client.css = SimpleNamespace(pending_count=1)

        async def die():
            await asyncio.sleep(0.2)
            w2.client._reader_task.cancel()

        killer = asyncio.ensure_future(die())
        started = time.perf_counter()
        try:
            await run._check()
            return time.perf_counter() - started
        finally:
            await killer
            await run._end_episode(graceful=False)

    took = asyncio.run(main())
    assert run.problems == [] and run.deaths == ["closed"]
    assert took < 1.0  # the check stops waiting for a dead session


# ----------------------------------------------------------------------
# The command line contract
# ----------------------------------------------------------------------
def test_metric_tables_match_benchmark_json():
    bench = _bench()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == report.PER_LAYER
    from perfbench.run import WORKLOADS as LISTED

    assert [w["name"] for w in bench["workloads"]] == list(LISTED)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "2",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] >= 0
    expected = report.PER_LAYER if trace else report.END_TO_END
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solo-disk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
