"""End-to-end tests for acked-prefix GC on the real TCP runtime.

The deployed path must stay O(active window): the GC loop rebases the
server's state-space to the acked-prefix floor, compacts the WAL behind
it, and pushes the new floor to clients so they trim too.  These tests
run a real :class:`~repro.net.server.NetServer` and real clients over
localhost sockets and assert the three user-visible consequences:

1. the server's live structures shrink while documents stay correct,
2. sessions inside the grace window resync losslessly from the WAL,
   sessions beyond it come back via a state transfer, and
3. legacy (v1) sessions are refused once history they would need to
   read in absolute coordinates has been garbage collected.
"""

import asyncio
import random

import pytest

from repro import obs
from repro.errors import ProtocolError
from repro.jupiter.persistence import load_wal
from repro.model.schedule import OpSpec
from repro.net.client import NetClient
from repro.net.codec import DEFAULT_DOC, document_signature, encode_envelope
from repro.net.server import NetServer
from repro.net.transport import read_frame, write_frame
from repro.obs import snapshot_value


def _run(coroutine):
    return asyncio.run(coroutine)


async def _started_server(**kwargs) -> NetServer:
    server = NetServer("127.0.0.1", 0, quiet=True, **kwargs)
    await server.start()
    return server


async def _eventually(predicate, timeout=10.0, interval=0.02) -> bool:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() >= deadline:
            return False
        await asyncio.sleep(interval)
    return True


# Aggressive GC so short tests cross the threshold quickly.
_FAST_GC = dict(
    snapshot_every=4, gc_interval=0.02, gc_threshold=4, gc_grace=0.25
)


class TestMixedCodecRoster:
    def test_v2_binary_and_v1_json_clients_converge(self):
        async def scenario():
            server = await _started_server()
            modern = NetClient("c1", "127.0.0.1", server.port)
            legacy = NetClient("c2", "127.0.0.1", server.port, codecs=[])
            await modern.connect()
            await legacy.connect()
            for index in range(4):
                await modern.generate(OpSpec("ins", index, "a"))
                await legacy.generate(OpSpec("ins", 0, "b"))
            assert await modern.wait_converged(8, timeout=10)
            assert await legacy.wait_converged(8, timeout=10)
            results = (
                modern.codec,
                legacy.codec,
                server.channels["c1"].v2,
                server.channels["c2"].v2,
                modern.signature()
                == legacy.signature()
                == document_signature(server.server.document),
            )
            await modern.close()
            await legacy.close()
            await server.stop()
            return results

        modern_codec, legacy_codec, modern_v2, legacy_v2, same = _run(
            scenario()
        )
        assert modern_codec == "bin"
        assert legacy_codec == "json"  # v1 never leaves JSON framing
        assert modern_v2 and not legacy_v2
        assert same

    def test_json_only_offer_negotiates_json_but_stays_v2(self):
        async def scenario():
            server = await _started_server()
            client = NetClient(
                "c1", "127.0.0.1", server.port, codecs=["json"]
            )
            await client.connect()
            await client.generate(OpSpec("ins", 0, "x"))
            assert await client.wait_converged(1, timeout=10)
            results = (client.codec, server.channels["c1"].v2)
            await client.close()
            await server.stop()
            return results

        codec, v2 = _run(scenario())
        assert codec == "json"
        assert v2


class TestActiveWindowGc:
    def test_gc_advances_base_and_bounds_the_state_space(self):
        async def scenario():
            server = await _started_server(**_FAST_GC)
            client = NetClient("c1", "127.0.0.1", server.port)
            await client.connect()
            for index in range(40):
                await client.generate(OpSpec("ins", index, "a"))
            assert await client.wait_converged(40, timeout=20)
            assert await _eventually(lambda: server.server.base >= 30)
            # Two more acked edits carry the floor back to the client.
            await client.generate(OpSpec("ins", 0, "z"))
            await client.generate(OpSpec("del", 0))
            assert await client.wait_converged(42, timeout=10)
            results = (
                server.server.base,
                server.server.space.node_count(),
                client.css.oracle.base,
                client.signature() == document_signature(
                    server.server.document
                ),
                server.shards[DEFAULT_DOC].gc_runs,
                server.shards[DEFAULT_DOC].record_floor,
            )
            await client.close()
            await server.stop()
            return results

        base, nodes, client_base, same, gc_runs, record_floor = _run(
            scenario()
        )
        assert base >= 30
        # Without GC the space would hold 40+ serialised states; the
        # active window keeps it to the unacked tail plus a few serials.
        assert nodes <= 16
        assert client_base > 0  # the floor reached the client too
        assert same
        assert gc_runs >= 1
        assert record_floor >= base  # WAL compacted behind the rebase

    def test_disconnected_client_within_grace_pins_history(self):
        async def scenario():
            server = await _started_server(
                snapshot_every=4, gc_interval=0.02, gc_threshold=4,
                gc_grace=30.0,
            )
            active = NetClient("c1", "127.0.0.1", server.port)
            away = NetClient("c2", "127.0.0.1", server.port)
            await active.connect()
            await away.connect()
            await active.generate(OpSpec("ins", 0, "a"))
            assert await active.wait_converged(1, timeout=10)
            assert await away.wait_converged(1, timeout=10)

            await away.drop()
            for index in range(20):
                await active.generate(OpSpec("ins", index + 1, "b"))
            assert await active.wait_converged(21, timeout=20)
            await asyncio.sleep(0.2)  # several GC ticks
            pinned_base = server.server.base

            before = away.state_transfers
            await away.connect()
            assert await away.wait_converged(21, timeout=10)
            results = (
                pinned_base,
                away.state_transfers - before,
                away.resync_frames,
                active.signature() == away.signature(),
            )
            await active.close()
            await away.close()
            await server.stop()
            return results

        pinned_base, transfers, resynced, same = _run(scenario())
        assert pinned_base <= 1  # the away session pinned serial 1
        assert transfers == 0  # ordinary WAL resync, no state transfer
        assert resynced >= 20
        assert same

    def test_offline_past_grace_returns_via_state_transfer(self):
        async def scenario():
            server = await _started_server(**_FAST_GC)
            active = NetClient("c1", "127.0.0.1", server.port)
            away = NetClient("c2", "127.0.0.1", server.port)
            await active.connect()
            await away.connect()
            for index in range(3):
                await active.generate(OpSpec("ins", index, "a"))
            assert await active.wait_converged(3, timeout=10)
            assert await away.wait_converged(3, timeout=10)

            await away.drop()
            await asyncio.sleep(0.4)  # past gc_grace
            for index in range(20):
                await active.generate(OpSpec("ins", index + 3, "b"))
            assert await active.wait_converged(23, timeout=20)
            # The away session stops counting; GC prunes past serial 3.
            assert await _eventually(lambda: server.server.base > 3)

            await away.connect()
            assert away.state_transfers == 1
            assert await away.wait_converged(23, timeout=10)

            # The transferred session keeps editing correctly.
            await away.generate(OpSpec("ins", 0, "z"))
            assert await away.wait_converged(24, timeout=10)
            assert await active.wait_converged(24, timeout=10)
            results = (
                active.signature()
                == away.signature()
                == document_signature(server.server.document),
                away.delivered,
            )
            await active.close()
            await away.close()
            await server.stop()
            return results

        same, delivered = _run(scenario())
        assert same
        assert delivered == 24

    def test_v1_client_is_refused_once_history_is_gone(self):
        async def scenario():
            server = await _started_server(**_FAST_GC)
            modern = NetClient("c1", "127.0.0.1", server.port)
            await modern.connect()
            for index in range(20):
                await modern.generate(OpSpec("ins", index, "a"))
            assert await modern.wait_converged(20, timeout=20)
            assert await _eventually(lambda: server.server.base > 0)

            legacy = NetClient(
                "v9", "127.0.0.1", server.port,
                codecs=[], max_connect_attempts=1,
            )
            with pytest.raises(ProtocolError):
                await legacy.connect()
            await modern.close()
            await server.stop()

        _run(scenario())


class TestConcurrentWritersAcrossRebases:
    """Several writers whose edits interleave while GC keeps rebasing.

    An edit generated before the writer saw the newest serials reaches
    the server after it rebased, and is transformed against transitions
    stored before that rebase — the multi-writer path one writer never
    takes.  With a disk WAL, delta compactions also run between rebases.
    """

    @pytest.mark.parametrize("codec", ["bin", "json"])
    def test_writers_converge_across_many_rebases(self, codec, tmp_path):
        async def scenario():
            server = await _started_server(wal_dir=str(tmp_path), **_FAST_GC)
            names = ["c1", "c2", "c3"]
            clients = [
                NetClient(name, "127.0.0.1", server.port, codecs=[codec])
                for name in names
            ]
            for client in clients:
                await client.connect()
            rng = random.Random(7)
            total = 0
            for _round in range(30):
                for client in clients:
                    for _ in range(rng.randint(1, 4)):
                        length = len(client.css.document)
                        if length and rng.random() < 0.2:
                            spec = OpSpec("del", rng.randrange(length))
                        else:
                            spec = OpSpec(
                                "ins", rng.randint(0, length), "abc"[total % 3]
                            )
                        await client.generate(spec)
                        total += 1
                await asyncio.sleep(0.03)
            converged = [
                await client.wait_converged(total, timeout=30)
                for client in clients
            ]
            shard = server.shards[DEFAULT_DOC]
            results = (
                converged,
                {client.signature() for client in clients},
                document_signature(server.server.document),
                shard.gc_runs,
                server.server.oracle.last_serial,
                shard.wal_path,
            )
            for client in clients:
                await client.close()
            await server.stop()
            return results, total

        results, total = _run(scenario())
        converged, signatures, server_signature, rebases, last, path = results
        assert converged == [True, True, True]
        assert signatures == {server_signature}
        assert last == total
        assert rebases >= 5
        # The file (checkpoints, delta lines, records) recovers the same
        # document.
        recovered = load_wal(path).recover()
        assert document_signature(recovered.document) == server_signature


class TestWalAppendHandle:
    def test_one_handle_across_appends_closed_on_stop(self, tmp_path):
        async def scenario():
            server = await _started_server(
                wal_dir=str(tmp_path), snapshot_every=1000
            )
            client = NetClient("c1", "127.0.0.1", server.port)
            await client.connect()
            await client.generate(OpSpec("ins", 0, "a"))
            assert await client.wait_converged(1, timeout=10)
            shard = server.shards[DEFAULT_DOC]
            handle = shard._disk
            for index in range(5):
                await client.generate(OpSpec("ins", index, "b"))
            assert await client.wait_converged(6, timeout=10)
            # Every acknowledged record is already in the file.
            on_disk = load_wal(shard.wal_path).last_serial
            kept = shard._disk is handle
            await client.close()
            await server.stop()
            return handle, kept, on_disk, shard._disk

        handle, kept, on_disk, after_stop = _run(scenario())
        assert handle is not None and kept
        assert on_disk == 6
        assert after_stop is None and handle.closed


class TestGcDurability:
    def test_restart_recovers_a_gcd_wal(self, tmp_path):
        async def scenario():
            first = await _started_server(
                wal_dir=str(tmp_path), **_FAST_GC
            )
            writer = NetClient("w1", "127.0.0.1", first.port)
            await writer.connect()
            for index in range(24):
                await writer.generate(OpSpec("ins", index, "k"))
            assert await writer.wait_converged(24, timeout=20)
            assert await _eventually(lambda: first.server.base > 0)
            signature = writer.signature()
            base = first.server.base
            await writer.close()
            await first.stop()

            second = await _started_server(wal_dir=str(tmp_path))
            reader = NetClient("r1", "127.0.0.1", second.port)
            await reader.connect()
            # A fresh client's delivered=0 is below the GC'd record
            # floor, so it must arrive via state transfer.
            assert reader.state_transfers == 1
            assert await reader.wait_converged(24, timeout=10)
            results = (
                base,
                second.server.base,
                reader.signature() == signature,
            )
            await reader.close()
            await second.stop()
            return results

        base, recovered_base, same = _run(scenario())
        assert base > 0
        assert recovered_base >= base  # the rebase survived restart
        assert same


class TestGcObservability:
    def test_gauges_and_admin_stats_reflect_the_active_window(
        self, tmp_path
    ):
        obs.enable(reset=True)
        try:
            async def scenario():
                server = await _started_server(
                    wal_dir=str(tmp_path), **_FAST_GC
                )
                client = NetClient("c1", "127.0.0.1", server.port)
                await client.connect()
                for index in range(24):
                    await client.generate(OpSpec("ins", index, "m"))
                assert await client.wait_converged(24, timeout=20)
                assert await _eventually(lambda: server.server.base > 0)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await write_frame(
                    writer, encode_envelope("admin", cmd="stats")
                )
                stats = await read_frame(reader)
                writer.close()
                await client.close()
                await server.stop()
                return stats

            stats = _run(scenario())
            snapshot = obs.get_obs().snapshot()
            labels = [DEFAULT_DOC]
            nodes = snapshot_value(
                snapshot, "repro_doc_state_space_nodes", labels
            )
            window = snapshot_value(
                snapshot, "repro_serialized_order_len", labels
            )
            floor = snapshot_value(snapshot, "repro_gc_floor_serial", labels)
            wal_bytes = snapshot_value(
                snapshot, "repro_wal_bytes_on_disk", labels
            )
            assert nodes is not None and nodes <= 16
            assert window is not None and window <= 24
            assert floor is not None and floor > 0
            assert wal_bytes is not None and wal_bytes > 0
            gc_stats = stats["gc"]
            assert gc_stats["base"] > 0
            assert gc_stats["runs"] >= 1
            assert gc_stats["record_floor"] >= gc_stats["base"]
            assert gc_stats["space_nodes"] <= 16
        finally:
            obs.disable()
