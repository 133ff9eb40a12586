"""Which public functions the traced runs wrap, per process.

Each ``install_*`` patches the already-imported ``repro`` modules of the
calling process.  Span names are ``<layer>.<call>``; :mod:`perfbench.report`
turns the per-name totals into the per-layer metrics.  Count hooks
(:func:`~perfbench.spans.hook`) go on after the span wrappers, so their
cost stays outside the spans.
"""

from __future__ import annotations

from perfbench.spans import Tracer, hook, replace


def _codec(tracer: Tracer) -> None:
    from repro.net import codec, transport

    tracer.patch(codec, "decode_envelope", "codec.decode_envelope")
    tracer.patch(codec, "message_from_wire", "codec.message_from_wire")
    tracer.patch(codec, "encode_frame_bytes", "codec.encode_frame_bytes")
    tracer.patch(codec, "compact_client_op_obj", "codec.compact_op", opid=True)
    tracer.patch(codec, "compact_server_op_obj", "codec.compact_op", opid=True)
    tracer.patch(transport, "write_frame", "transport.write_frame")


def _css(tracer: Tracer) -> None:
    from repro.jupiter.css import CssClient, CssServer
    from repro.jupiter.ordering import ServerOrderOracle

    def space_size(args, _result) -> None:
        tracer.high_water("nary.space_nodes", args[0].space.node_count())

    tracer.patch(CssServer, "receive", "css.server_receive", opid=True)
    hook(CssServer, "receive", space_size)
    tracer.patch(CssServer, "rebase_to_serial", "gc.rebase")
    tracer.patch(CssClient, "generate", "css.client_generate")
    tracer.patch(CssClient, "receive", "css.client_receive", opid=True)
    # The oracle's trim is a child span of the rebase that calls it.
    tracer.patch(ServerOrderOracle, "trim_below", "gc.trim_below")


def install_server(tracer: Tracer) -> None:
    """The ``repro serve`` process: codec, transport, CSS, GC and WAL."""
    import repro.net.server as server
    from repro.jupiter import persistence
    from repro.net.transport import FrameSender

    _codec(tracer)
    _css(tracer)

    def queue_depth(args, _result) -> None:
        tracer.high_water("transport.queue_depth", args[0].depth)

    def compaction_mode(args, _result) -> None:
        if args[0].last_compaction_mode == "delta":
            tracer.count("wal.delta_compactions")

    tracer.patch(FrameSender, "try_send", "transport.try_send")
    hook(FrameSender, "try_send", queue_depth)
    tracer.patch(persistence.ServerWriteAheadLog, "append", "wal.append", opid=True)
    tracer.patch(persistence, "compact_context", "wal.compact_context")
    tracer.patch(persistence.ServerWriteAheadLog, "compact", "wal.compact")
    hook(persistence.ServerWriteAheadLog, "compact", compaction_mode)
    # The shard is the server's per-document unit; its two disk calls are
    # the only places the WAL touches the file system.
    tracer.patch(server._DocShard, "append_disk", "wal.disk_append")
    tracer.patch(server._DocShard, "write_compaction", "wal.disk_compaction")


def install_loadgen(tracer: Tracer) -> None:
    """The load generator: the clients' codec, transport and CSS calls."""
    import repro.net.client  # noqa: F401  (imports codec names to patch)

    _codec(tracer)
    _css(tracer)


def install_sim(tracer: Tracer) -> None:
    """sim-verify: simulator, cluster steps, CSS core and OT transforms."""
    import importlib

    from repro.jupiter.cluster import Cluster
    from repro.sim.runner import SimulationRunner

    # ``repro.ot`` re-exports a function named ``transform``; get the module.
    transform = importlib.import_module("repro.ot.transform")

    _css(tracer)
    tracer.patch(SimulationRunner, "run", "sim.run")
    for step in ("generate", "server_receive", "client_receive"):
        tracer.patch(Cluster, step, "cluster.step")
    count = tracer.count
    original = transform.transform_pair

    def counted(*args, **kwargs):
        # One call per CP1 square, the unit repro_ot_transforms_total counts.
        count("ot.transforms")
        return original(*args, **kwargs)

    replace(transform, "transform_pair", counted)
