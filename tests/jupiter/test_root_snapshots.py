"""State-space snapshots as root documents plus transitions.

Every CP1 square of the n-ary state-space commutes, so a snapshot stores
a document only at the states no transition reaches and regrows every
other state from its in-transition on restore.  These tests check that
the restored space is the original one (structure, every state's list,
transition contexts, continued integration), that restore stays lazy,
that a WAL written in the older all-documents form still recovers, and
that a delta compaction's size does not depend on the document's.
"""

import json
import os
import random

import pytest

from repro.common import OpId
from repro.document.list_document import ListDocument
from repro.errors import ProtocolError
from repro.jupiter.css import CssClient, CssServer
from repro.jupiter.messages import ClientOperation
from repro.jupiter.persistence import (
    ServerWriteAheadLog,
    compact_context,
    load_wal,
    restore_client,
    restore_server,
    snapshot_client,
    snapshot_server,
    space_from_obj,
    space_to_obj,
)
from repro.model.schedule import OpSpec
from repro.ot import insert

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


class Mesh:
    """A seeded CSS run: a server, three clients, FIFO queues both ways."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.names = ["c1", "c2", "c3"]
        self.server = CssServer("server", self.names)
        self.clients = {name: CssClient(name) for name in self.names}
        self.up = {name: [] for name in self.names}
        self.down = {name: [] for name in self.names}

    def step(self):
        rng = self.rng
        busy_up = [n for n in self.names if self.up[n]]
        busy_down = [n for n in self.names if self.down[n]]
        roll = rng.random()
        if roll < 0.4 or not (busy_up or busy_down):
            name = rng.choice(self.names)
            client = self.clients[name]
            length = len(client.document)
            if length and rng.random() < 0.25:
                spec = OpSpec("del", rng.randrange(length))
            else:
                spec = OpSpec(
                    "ins", rng.randrange(length + 1), rng.choice("abcxyz")
                )
            self.up[name].append(client.generate(spec).outgoing)
        elif busy_up and (roll < 0.7 or not busy_down):
            name = rng.choice(busy_up)
            for target, broadcast in self.server.receive(
                name, self.up[name].pop(0)
            ):
                self.down[target].append(broadcast)
        else:
            name = rng.choice(busy_down)
            self.clients[name].receive(self.down[name].pop(0))

    def run(self, steps):
        for _ in range(steps):
            self.step()

    def drain(self):
        while any(self.up.values()) or any(self.down.values()):
            for name in self.names:
                while self.up[name]:
                    for target, broadcast in self.server.receive(
                        name, self.up[name].pop(0)
                    ):
                        self.down[target].append(broadcast)
            for name in self.names:
                while self.down[name]:
                    self.clients[name].receive(self.down[name].pop(0))

    def rebase(self, floor):
        self.server.rebase_to_serial(floor)
        for client in self.clients.values():
            client.rebase_to_serial(floor)


def documents(space):
    return {key: doc.as_string() for key, doc in space.iter_documents()}


def assert_same_space(restored, original):
    assert restored.signature() == original.signature()
    assert documents(restored) == documents(original)
    assert restored.final_key == original.final_key
    assert restored.ot_count == original.ot_count
    for transition in restored.transitions():
        assert transition.operation.context == transition.source


def seeded_mesh(seed, rebase):
    mesh = Mesh(seed)
    mesh.run(60)
    if rebase:
        mesh.drain()
        mesh.rebase(mesh.server.oracle.last_serial - 3)
    mesh.run(60)
    return mesh


class TestRoundTrip:
    @pytest.mark.parametrize("rebase", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_restored_space_is_the_original(self, seed, rebase):
        mesh = seeded_mesh(seed, rebase)
        server = mesh.server
        for transition in server.space.transitions():
            assert transition.operation.context == transition.source
        restored = restore_server(
            json.loads(json.dumps(snapshot_server(server)))
        )
        assert_same_space(restored.space, server.space)
        # Restore hands every operation its interned source key.
        for transition in restored.space.transitions():
            assert transition.operation.context is transition.source
        client = mesh.clients["c2"]
        twin = restore_client(json.loads(json.dumps(snapshot_client(client))))
        assert_same_space(twin.space, client.space)
        # Continued integration: the operations still in flight reach
        # the original and the restored replica alike.
        for name in mesh.names:
            for outgoing in mesh.up[name]:
                ours = server.receive(name, outgoing)
                theirs = restored.receive(name, outgoing)
                assert ours == theirs
                for target, broadcast in ours:
                    mesh.down[target].append(broadcast)
            mesh.up[name] = []
        for broadcast in mesh.down["c2"]:
            client.receive(broadcast)
            twin.receive(broadcast)
        assert_same_space(restored.space, server.space)
        assert_same_space(twin.space, client.space)
        assert twin.document.as_string() == server.document.as_string()


class TestRootsOnly:
    def test_a_chain_stores_exactly_one_document(self):
        server = CssServer("server", ["c1"])
        writer = CssClient("c1")
        for index in range(12):
            server.receive(
                "c1", writer.generate(OpSpec("ins", index, "a")).outgoing
            )
        obj = space_to_obj(server.space)
        assert sum("document" in node for node in obj["nodes"]) == 1
        assert all(
            "context" not in child["operation"]
            for node in obj["nodes"]
            for child in node["children"]
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_just_rebased_space_stores_exactly_one_document(self, seed):
        mesh = seeded_mesh(seed, rebase=True)
        mesh.drain()
        mesh.rebase(mesh.server.oracle.last_serial - 2)
        obj = space_to_obj(mesh.server.space)
        rooted = [node for node in obj["nodes"] if "document" in node]
        assert len(rooted) == 1
        assert rooted[0]["key"] == []

    def test_restore_materialises_only_the_roots(self):
        mesh = seeded_mesh(4, rebase=True)
        obj = space_to_obj(mesh.server.space)
        restored = space_from_obj(obj, mesh.server.oracle)
        materialised = {
            key for key in restored.states()
            if restored.node(key).materialised
        }
        rooted = {
            frozenset(OpId(r, s) for r, s in node["key"])
            for node in obj["nodes"]
            if "document" in node
        }
        assert materialised == rooted
        assert restored.node_count() > len(rooted)

    def test_a_wrong_stored_target_is_rejected(self):
        mesh = seeded_mesh(5, rebase=False)
        obj = json.loads(json.dumps(space_to_obj(mesh.server.space)))
        edges = [
            (node, child)
            for node in obj["nodes"]
            for child in node["children"]
        ]
        node, child = edges[len(edges) // 2]
        child["target"] = node["key"]
        with pytest.raises(ProtocolError):
            space_from_obj(obj, mesh.server.oracle)

    def test_a_state_no_document_reaches_is_rejected(self):
        mesh = seeded_mesh(6, rebase=False)
        obj = json.loads(json.dumps(space_to_obj(mesh.server.space)))
        for node in obj["nodes"]:
            node.pop("document", None)
        with pytest.raises(ProtocolError, match="no document"):
            space_from_obj(obj, mesh.server.oracle)


class TestAllDocumentsWal:
    """A WAL written when snapshots stored every state's document.

    ``fixtures/wal_all_documents.wal`` was saved by that format's
    ``save_wal`` from a two-client run with concurrent bursts: a full
    checkpoint, a delta, a rebase to serial 10, a full checkpoint whose
    surviving transitions still carry pre-rebase absolute contexts,
    another delta, and a record suffix up to serial 21.
    """

    PATH = os.path.join(FIXTURES, "wal_all_documents.wal")

    def test_fixture_is_in_the_old_form(self):
        with open(self.PATH, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        nodes = header["snapshot"]["space"]["nodes"]
        assert all("document" in node for node in nodes)
        stale = [
            child
            for node in nodes
            for child in node["children"]
            if sorted(child["operation"]["context"]) != sorted(node["key"])
        ]
        assert stale

    def test_it_recovers_and_keeps_integrating(self):
        wal = load_wal(self.PATH)
        server = wal.recover()
        assert server.oracle.base == 10
        assert server.oracle.last_serial == wal.last_serial == 21
        assert server.document.as_string() == "vtusqrpnomkljhigefdbc"
        assert server.space.node_count() == 19
        for transition in server.space.transitions():
            assert transition.operation.context == transition.source
        # An edit from the floor state is transformed along the whole
        # leftmost path, through the transitions restored from the file;
        # the same run without the rebase integrates it to the same list.
        late = insert(OpId("c2", 99), "!", 0, context=frozenset())
        server.receive("c2", ClientOperation(late))
        assert server.document.as_string() == "vtusqrpno!mkljhigefdbc"
        wal.append(
            server.oracle.last_serial, "c2", late,
            ctx=compact_context(late, server.oracle),
        )
        wal.compact(server)
        assert wal.last_compaction_mode == "full"
        again = wal.recover()
        assert again.space.signature() == server.space.signature()


class TestDeltaCost:
    """A delta's size is O(changes): independent of the document size."""

    def delta_line(self, length):
        text = "".join("abcdefghij"[i % 10] for i in range(length))
        server = CssServer(
            "server", ["c1"], ListDocument.from_string(text)
        )
        writer = CssClient("c1", ListDocument.from_string(text))
        wal = ServerWriteAheadLog(
            "server", ["c1"], snapshot_every=1000, initial_text=text
        )

        def edit(position):
            result = writer.generate(OpSpec("ins", position, "z"))
            server.receive("c1", result.outgoing)
            wal.append(
                server.oracle.last_serial, "c1", result.operation,
                ctx=compact_context(result.operation, server.oracle),
            )

        edit(0)
        wal.compact(server)
        assert wal.last_compaction_mode == "full"
        for index in range(64):
            edit(5 + index)
        wal.compact(server)
        assert wal.last_compaction_mode == "delta"
        assert len(wal.last_delta["added"]) == 64
        assert all("document" not in n for n in wal.last_delta["added"])
        return json.dumps({"delta": wal.last_delta}, sort_keys=True)

    def test_delta_lines_do_not_grow_with_the_document(self):
        small = self.delta_line(200)
        large = self.delta_line(20_000)
        assert len(small) == len(large)
