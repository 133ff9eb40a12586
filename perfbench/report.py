"""Turn raw run results into the named metrics of ``BENCHMARK.json``.

End-to-end metrics (``--trace 0``) come from one untraced run.  Per-layer
metrics (``--trace 1``) come from an untraced pass (counts, scrapes,
``/proc``) followed by a traced pass (span self times), and include the
tracing overhead between the two.  Every metric is printed for every
workload; a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import json
import math
import statistics
from typing import Any, Dict, Iterable, Optional

from perfbench.spans import merge_summaries

#: equal slices of the timed window that rates and medians are taken over
SLICES = 5

END_TO_END = {
    "setup_s": "s",
    "ops_s": "ops/s",
    "ok_ratio": "ratio",
    "latency_ms": "ms",
}

PER_LAYER = {
    # from the untraced pass
    "server_rss_mb": "MB",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "ack_ms_p50": "ms",
    "ack_ms_p99": "ms",
    "visible_ms_p50": "ms",
    "visible_ms_p99": "ms",
    "ops_failed_ratio": "ratio",
    "wire_bytes_per_op": "B/op",
    "wal_write_bytes_per_op": "B/op",
    "client_cpu_us_per_op": "us/op",
    "server.busy_ratio": "ratio",
    "loadgen.busy_ratio": "ratio",
    "loadgen.late_ms_p99": "ms",
    "server.sessions_died": "count",
    "server.evictions": "count",
    "server.state_transfers": "count",
    "server.serialise_us_per_op": "us/op",
    "transport.frames_per_op": "frames/op",
    "transport.coalesced_ratio": "envelopes/frame",
    "ot.transforms_per_op": "count/op",
    "gc.floor_lag_serials": "serials",
    # from the traced pass
    "codec.decode_us_per_frame": "us/frame",
    "codec.encode_us_per_frame": "us/frame",
    "transport.write_wait_us": "us/frame",
    "transport.queue_depth_max": "frames",
    "css.server_receive_us": "us/op",
    "css.client_generate_us": "us/op",
    "css.client_receive_us": "us/op",
    "nary.space_nodes_max": "nodes",
    "gc.rebases": "count",
    "gc.rebase_us": "us",
    "wal.append_us": "us/op",
    "wal.compactions": "count",
    "wal.compact_us": "us",
    "wal.delta_ratio": "ratio",
    "wal.disk_append_us": "us/op",
    "wal.disk_compaction_us": "us",
    "sim.self_us_per_op": "us/op",
    "cluster.step_us": "us",
    "model.abstract_s": "s",
    "specs.convergence_s": "s",
    "specs.weak_list_s": "s",
    "trace.overhead_ratio": "ratio",
}


def percentile(values: Iterable[float], q: float, ceiling: Optional[float] = None) -> float:
    """Nearest-rank percentile.  ``inf`` marks a failed op, ranked above
    every completed one; if the rank lands on one, the result is
    ``ceiling`` (the longest wait the run could observe: a lower bound)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    value = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    if math.isinf(value):
        if ceiling is None:
            raise ValueError("a failed op was ranked but no ceiling was given")
        return ceiling
    return value


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _scrape_total(scrape: Optional[Dict], name: str) -> float:
    from repro.obs.registry import snapshot_total

    if scrape is None:
        return 0.0
    return snapshot_total(scrape, name) or 0.0


def _histogram_sum(scrape: Optional[Dict], name: str) -> float:
    for metric in (scrape or {}).get("metrics", []):
        if metric["name"] == name:
            return float(sum(sample["sum"] for sample in metric["samples"]))
    return 0.0


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def _latency_ms(result: Dict[str, Any]) -> Dict[str, float]:
    """The workload's latency in ms: ``mean``, ``p50`` and ``p90``.

    Wire: the latency of completed ops named by ``LATENCY_SERIES`` (failed
    ops are counted by ``ok_ratio``; the per-layer ``ack_ms_*`` and
    ``visible_ms_*`` rank them as infinitely late instead).  The
    percentiles are medians over ``SLICES`` equal slices of the timed
    window, so a burst of noise on the shared host moves one slice, not
    the result; each slice holds hundreds of ops, so its p90
    has dozens of samples beyond it.  The mean pools the whole window:
    solo-disk acknowledges its ops in bursts of 64 between compaction
    pauses, so a slice's mean depends on how many pauses it catches,
    while over the window it is pinned by Little's law to the closed
    loop's window over the throughput.  sim-verify: the verdict time of one
    execution; the mean is over the executions of each one's best round,
    the percentiles pool every verdict of every round.
    """
    if result["workload"] == "sim-verify":
        every = [value * 1e3 for value in result["verdict_s"]]
        return {
            "mean": statistics.fmean(result["verdict_best"]) * 1e3,
            "p50": percentile(every, 0.50),
            "p90": percentile(every, 0.90),
        }
    width = result["window_s"] / SLICES
    series = result[LATENCY_SERIES.get(result["workload"], "ack_ms")]
    completed = [(due, ms) for due, ms in zip(result["due_s"], series) if not math.isinf(ms)]
    slices = [
        here for here in (
            [ms for due, ms in completed if index * width <= due < (index + 1) * width]
            for index in range(SLICES)
        ) if here
    ]
    if not slices:
        # With nothing completed, the longest wait the run could observe
        # is the only honest (lower-bound) latency.
        return dict.fromkeys(("mean", "p50", "p90"), result["horizon_ms"])
    return {
        "mean": statistics.fmean(ms for _, ms in completed),
        "p50": statistics.median(percentile(here, 0.50) for here in slices),
        "p90": statistics.median(percentile(here, 0.90) for here in slices),
    }


#: which latency a wire workload's ``latency_ms`` times: until the origin
#: applies the server's echo (``ack_ms``), or, with a viewer, until the
#: viewer applies the op (``visible_ms``: the staleness its user sees).
#: Each op has one other session there, so the series lines up with the ops.
LATENCY_SERIES = {"typist-viewer": "visible_ms"}

#: which statistic of ``_latency_ms`` is a workload's ``latency_ms``.  A
#: closed loop's mean is pinned by Little's law (window over throughput)
#: and carries the compaction pauses its median skips.  An open loop's
#: median is the typical user's wait; its mean is pulled by the slow
#: first ops of each relaunched episode.
HEADLINE_LATENCY = {
    "solo-disk": "mean", "duo-typing": "p50", "typist-viewer": "p50", "sim-verify": "mean",
}


def end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    """The user-facing metrics.

    The wire rate is ops acknowledged in the timed window over its length.
    Not a median over slices: solo-disk's acknowledgements come in bursts
    of 64 between compaction pauses that take most of the time, so a
    slice boundary nearly always falls in a pause and a slice's count is a
    multiple of 64 (steps of ~11 ops/s at 6-s slices).  sim-verify's rate
    is its long runs' operations over the sum of their best times.
    """
    if result["workload"] == "sim-verify":
        best = result["long_best"]
        ops_s = sum(ops for ops, _ in best) / sum(seconds for _, seconds in best)
    else:
        ops_s = result["acked_in_window"] / result["window_s"]
    return {
        "setup_s": result["setup_s"],
        "ops_s": ops_s,
        "ok_ratio": 1.0 - _ratio(result["failed"], result["attempted"]),
        "latency_ms": _latency_ms(result)[HEADLINE_LATENCY[result["workload"]]],
    }


def _rss_mb(result: Dict[str, Any]) -> float:
    """Server memory: the time average of its ``VmRSS`` samples
    (sim-verify: the simulating process's ``VmHWM``)."""
    return statistics.fmean(result.get("rss_samples_mb") or [result["rss_mb"]])


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------
def _span(trace: Dict, name: str) -> Dict[str, float]:
    return trace["spans"].get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})


def _mean_us(trace: Dict, name: str) -> float:
    entry = _span(trace, name)
    return _ratio(entry["total_s"] * 1e6, entry["calls"])


def _cpu_per_op(result: Dict[str, Any]) -> float:
    if result["workload"] == "sim-verify":
        return _ratio(result["sim_s"], result["sim_ops"])
    return _ratio(result["server_cpu_s"] + result["loadgen_cpu_s"], result["acked_in_window"])


def per_layer(untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics["trace.overhead_ratio"] = _ratio(_cpu_per_op(traced), _cpu_per_op(untraced)) - 1.0
    latency = _latency_ms(untraced)
    metrics["latency_ms_p50"], metrics["latency_ms_p90"] = latency["p50"], latency["p90"]
    metrics["server_rss_mb"] = _rss_mb(untraced)
    if untraced["workload"] == "sim-verify":
        trace = traced["trace"]
        sim_ops = traced["sim_ops_all"]
        executions = len(traced["verdict_s"])
        metrics.update({
            "ops_failed_ratio": _ratio(untraced["failed"], untraced["attempted"]),
            "css.server_receive_us": _mean_us(trace, "css.server_receive"),
            "css.client_generate_us": _mean_us(trace, "css.client_generate"),
            "css.client_receive_us": _mean_us(trace, "css.client_receive"),
            "nary.space_nodes_max": trace["maxima"].get("nary.space_nodes", 0.0),
            "ot.transforms_per_op": _ratio(trace["counts"].get("ot.transforms", 0), sim_ops),
            "sim.self_us_per_op": _ratio(_span(trace, "sim.run")["self_s"] * 1e6, sim_ops),
            "cluster.step_us": _mean_us(trace, "cluster.step"),
            "model.abstract_s": _ratio(_span(trace, "model.abstract")["total_s"], executions),
            "specs.convergence_s": _ratio(_span(trace, "specs.convergence")["total_s"], executions),
            "specs.weak_list_s": _ratio(_span(trace, "specs.weak_list")["total_s"], executions),
        })
        return metrics

    # Untraced pass: latencies, failures, scrape and /proc counts.  The
    # counters and serials sum over every episode's server.
    scrape, horizon, served = untraced["scrape"], untraced["horizon_ms"], untraced["served"]
    window = untraced["window_s"]
    frames = _scrape_total(scrape, "repro_net_frames_received_total") + _scrape_total(
        scrape, "repro_net_frames_sent_total"
    )
    metrics.update({
        "ack_ms_p50": percentile(untraced["ack_ms"], 0.50, horizon),
        "ack_ms_p99": percentile(untraced["ack_ms"], 0.99, horizon),
        "visible_ms_p50": percentile(untraced["visible_ms"], 0.50, horizon),
        "visible_ms_p99": percentile(untraced["visible_ms"], 0.99, horizon),
        "ops_failed_ratio": _ratio(untraced["failed"], untraced["attempted"]),
        "wire_bytes_per_op": _ratio(
            _scrape_total(scrape, "repro_net_bytes_received_total")
            + _scrape_total(scrape, "repro_net_bytes_sent_total"),
            served,
        ),
        "wal_write_bytes_per_op": _ratio(untraced["wchar"], served),
        "client_cpu_us_per_op": _ratio(untraced["loadgen_cpu_s"] * 1e6, untraced["acked_in_window"]),
        "server.busy_ratio": _ratio(untraced["server_cpu_s"], window),
        "loadgen.busy_ratio": _ratio(untraced["loadgen_cpu_s"], window),
        "loadgen.late_ms_p99": percentile(untraced["late_ms"], 0.99),
        "server.sessions_died": untraced["sessions_died"],
        "server.evictions": _scrape_total(scrape, "repro_net_evictions_total"),
        "server.state_transfers": untraced["state_transfers"],
        "server.serialise_us_per_op": _ratio(
            _histogram_sum(scrape, "repro_server_serialise_seconds") * 1e6,
            _scrape_total(scrape, "repro_server_serialise_seconds"),
        ),
        "transport.frames_per_op": _ratio(frames, served),
        "transport.coalesced_ratio": _ratio(
            _scrape_total(scrape, "repro_net_frames_coalesced_total"),
            _scrape_total(scrape, "repro_net_frames_sent_total"),
        ),
        "ot.transforms_per_op": _ratio(
            _scrape_total(scrape, "repro_ot_transforms_total"),
            _scrape_total(scrape, "repro_server_ops_serialised_total"),
        ),
        "gc.floor_lag_serials": _scrape_total(untraced["scrape_last"], "repro_serialized_order_len"),
    })

    # Traced pass: server spans (every episode's dump) and client spans.
    server = merge_summaries(traced["server_traces"])
    client = traced["loadgen_trace"]
    decoded = _span(server, "codec.decode_envelope")["calls"]
    encoded = _span(server, "codec.encode_frame_bytes")["calls"]
    compactions = _span(server, "wal.compact")["calls"]
    appends = _span(server, "wal.append")["calls"]
    metrics.update({
        "codec.decode_us_per_frame": _ratio(
            (_span(server, "codec.decode_envelope")["total_s"]
             + _span(server, "codec.message_from_wire")["total_s"]) * 1e6,
            decoded,
        ),
        "codec.encode_us_per_frame": _ratio(
            (_span(server, "codec.encode_frame_bytes")["total_s"]
             + _span(server, "codec.compact_op")["total_s"]) * 1e6,
            encoded,
        ),
        "transport.write_wait_us": _ratio(
            _span(server, "transport.write_frame")["self_s"] * 1e6,
            _span(server, "transport.write_frame")["calls"],
        ),
        "transport.queue_depth_max": server["maxima"].get("transport.queue_depth", 0.0),
        "css.server_receive_us": _mean_us(server, "css.server_receive"),
        "css.client_generate_us": _mean_us(client, "css.client_generate"),
        "css.client_receive_us": _mean_us(client, "css.client_receive"),
        "nary.space_nodes_max": server["maxima"].get("nary.space_nodes", 0.0),
        "gc.rebases": _span(server, "gc.rebase")["calls"],
        "gc.rebase_us": _mean_us(server, "gc.rebase"),
        "wal.append_us": _ratio(
            (_span(server, "wal.append")["total_s"]
             + _span(server, "wal.compact_context")["total_s"]) * 1e6,
            appends,
        ),
        "wal.compactions": compactions,
        "wal.compact_us": _mean_us(server, "wal.compact"),
        "wal.delta_ratio": _ratio(server["counts"].get("wal.delta_compactions", 0), compactions),
        "wal.disk_append_us": _mean_us(server, "wal.disk_append"),
        "wal.disk_compaction_us": _mean_us(server, "wal.disk_compaction"),
    })
    return metrics


def result_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, float],
                units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    })

