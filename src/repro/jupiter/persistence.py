"""Snapshot / restore and server durability for CSS replicas.

A production collaborative editor checkpoints replica state so a client
can restart without replaying its whole history.  This module serialises
every piece of a CSS replica — operations, state-space nodes and ordered
transitions, the order oracle, the pending queue — to plain JSON-able
dictionaries and restores them to working replicas.

Snapshots are *canonical*: every collection is emitted in a sorted or
protocol-defined order (serials by serial number, state keys sorted), so
the same replica always produces byte-identical JSON — which is what lets
tests and operators compare snapshots with plain string equality.

Round-trip fidelity is exact: a restored replica produces byte-identical
behaviour to the original (verified structurally in the tests by
comparing state-space signatures and resuming runs on the restored
replica).

A state-space snapshot stores **documents only at root states** plus the
ordered transitions.  Every CP1 square of the n-ary state-space commutes
(§6.1), so each state's list is implied by any ancestor's list and the
operations on the transitions between them; and every transition's
context equals its source key, so no operation context is stored either.
Restore regrows the space from its roots through the space's own lazy
growth path, re-checking every square as it goes (see
:func:`space_from_obj`).  A checkpoint is therefore O(transitions + root
document), not O(states × document).

The second half of the module is the **server durability subsystem**
(:class:`ServerWriteAheadLog`): the serialisation authority appends every
operation it serialises — with its assigned serial and origin — to a
write-ahead log *before* broadcasting it, periodically compacts the log
into a full checkpoint or a delta that costs O(changes since the last
compaction), and recovers after a crash by restoring the latest
snapshot and replaying the log suffix through a real
:class:`~repro.jupiter.css.CssServer`.  Recovery re-checks the paper's
ordering invariants as it goes: every replayed operation must receive
exactly the serial the log recorded (dense 1..n, no serial skipped or
reused), and the rebuilt state-space must match the logged history.
"""

from __future__ import annotations

import json
import time
import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.ids import OpId, ReplicaId, StateKey, format_opid_set
from repro.document.elements import Element
from repro.document.list_document import ListDocument
from repro.errors import DocumentError, ProtocolError, StateSpaceError
from repro.jupiter.css import CssClient, CssServer
from repro.jupiter.messages import ClientOperation, ServerOperation
from repro.jupiter.nary import NaryStateSpace
from repro.jupiter.ordering import ServerOrderOracle
from repro.jupiter.state_space import StateNode, Transition
from repro.obs import get_obs
from repro.ot.operations import OpKind, Operation

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Primitive codecs
# ----------------------------------------------------------------------
def opid_to_obj(opid: OpId) -> List[Any]:
    return [opid.replica, opid.seq]


def opid_from_obj(obj: List[Any]) -> OpId:
    return OpId(str(obj[0]), int(obj[1]))


def element_to_obj(element: Element) -> Dict[str, Any]:
    return {"value": element.value, "opid": opid_to_obj(element.opid)}


def element_from_obj(obj: Dict[str, Any]) -> Element:
    return Element(obj["value"], opid_from_obj(obj["opid"]))


def operation_to_obj(
    operation: Operation, *, with_context: bool = True
) -> Dict[str, Any]:
    obj = {
        "kind": operation.kind.value,
        "opid": opid_to_obj(operation.opid),
        "element": (
            element_to_obj(operation.element)
            if operation.element is not None
            else None
        ),
        "position": operation.position,
    }
    if with_context:
        obj["context"] = sorted(opid_to_obj(o) for o in operation.context)
    return obj


def operation_from_obj(
    obj: Dict[str, Any], context: Optional[StateKey] = None
) -> Operation:
    """Decode an operation; ``context`` overrides (or replaces a missing)
    stored context."""
    if context is None:
        context = frozenset(opid_from_obj(o) for o in obj["context"])
    return Operation(
        kind=OpKind(obj["kind"]),
        opid=opid_from_obj(obj["opid"]),
        element=(
            element_from_obj(obj["element"])
            if obj["element"] is not None
            else None
        ),
        position=obj["position"],
        context=context,
    )


def _state_key_to_obj(key) -> List[List[Any]]:
    return sorted(opid_to_obj(o) for o in key)


def _state_key_from_obj(obj) -> frozenset:
    return frozenset(opid_from_obj(o) for o in obj)


# ----------------------------------------------------------------------
# Serial-encoded operation contexts (the active-window wire/WAL form)
# ----------------------------------------------------------------------
# A context is the set of operations its generator had processed: the
# first ``d`` serials of the total order plus a handful of the
# generator's own then-pending operations ("extras", serialised later).
# Encoding it as ``[d, [extra opids]]`` is O(extras) instead of
# O(history) *and* rebase-invariant: any decoder resolves the dense
# prefix ``(its own base, d]`` against its serial log, so the same bytes
# decode correctly before and after active-window GC.
def compact_context(operation: Operation, oracle) -> List[Any]:
    """Encode ``operation.context`` as ``[d, [extra opid objs]]``.

    Every context member must already be serialised (true whenever the
    server appends: FIFO channels serialise a client's earlier pending
    operations before the operation that references them).  ``d`` is the
    maximal dense serial prefix the context covers — at least the
    generator's own split, so every invariant proved for the generator's
    ``d`` holds for this one too.
    """
    base = oracle.base
    serials = sorted(oracle.serial_of(o) for o in operation.context)
    d = base
    extra_serials: List[int] = []
    for serial in serials:
        if serial == d + 1 and not extra_serials:
            d = serial
        else:
            extra_serials.append(serial)
    return [
        d,
        sorted(opid_to_obj(oracle.opid_of(s)) for s in extra_serials),
    ]


def context_from_compact(ctx_obj: List[Any], oracle) -> frozenset:
    """Decode a serial-encoded context relative to ``oracle``'s base."""
    d = int(ctx_obj[0])
    base = oracle.base
    if d < base:
        raise ProtocolError(
            f"compact context floor {d} is below the decoder's GC base "
            f"{base}; the record should have been unreachable"
        )
    ids = oracle.opids_between(base, d) if d > base else frozenset()
    extras = ctx_obj[1]
    if extras:
        ids = ids.union(opid_from_obj(o) for o in extras)
    return ids


def record_operation(record: Dict[str, Any], oracle=None) -> Operation:
    """Decode a WAL record's operation, resolving a compact context.

    Records written by the net runtime store their context
    serial-encoded (``record["ctx"]``) and need an oracle that has
    witnessed the serials below the record's; plain records carry the
    absolute context inline and decode without one.
    """
    obj = record["operation"]
    if "ctx" not in record:
        return operation_from_obj(obj)
    if oracle is None:
        raise ProtocolError(
            "compact WAL record needs an order oracle to decode"
        )
    return operation_from_obj(
        obj, context=context_from_compact(record["ctx"], oracle)
    )


# ----------------------------------------------------------------------
# State-space codec
# ----------------------------------------------------------------------
def _node_to_obj(node: StateNode, with_document: bool) -> Dict[str, Any]:
    """One state: its key, ordered out-transitions, and (roots only) list.

    Transition operations omit their context: it is the source key.
    """
    obj: Dict[str, Any] = {"key": _state_key_to_obj(node.key)}
    if with_document:
        obj["document"] = [element_to_obj(e) for e in node.document]
    obj["children"] = [
        {
            "operation": operation_to_obj(t.operation, with_context=False),
            "target": _state_key_to_obj(t.target),
        }
        for t in node.children
    ]
    return obj


def space_to_obj(space: NaryStateSpace) -> Dict[str, Any]:
    """Serialise a state-space: root documents plus ordered transitions.

    Only a *root* — a state no transition reaches: the initial state, or
    the GC floor state after a rebase — carries its ``"document"``; every
    other state's list is implied by an in-transition.  No transition
    carries its operation's context, which always equals its source key
    (:meth:`NaryStateSpace.rebase_below` keeps that true across
    rebases).  The cost is O(transitions + root documents).
    """
    nodes = space._nodes
    reached = {t.target for node in nodes.values() for t in node.children}
    return {
        "version": FORMAT_VERSION,
        "final": _state_key_to_obj(space.final_key),
        "ot_count": space.ot_count,
        "nodes": [
            _node_to_obj(node, key not in reached)
            for key, node in nodes.items()
        ],
    }


def space_from_obj(obj: Dict[str, Any], oracle) -> NaryStateSpace:
    """Rebuild a state-space by regrowing it from its root documents.

    The states no stored transition reaches start the walk, each with its
    stored document.  Every transition is then re-attached through the
    space's own growth path (:meth:`~BaseStateSpace._attach`): the first
    edge into a state creates it *pending* — ``(parent, op)``, no
    document — and every further edge re-checks the CP1 square by length
    and content fingerprint, so the restored space stays lazy.  Each
    operation's context is set to its (interned) source key.

    Raises :class:`ProtocolError` for a transition whose stored target
    differs from the one its operation leads to, a transition to a
    missing state, a broken CP1 square, and a state no document reaches.

    Snapshots that store a document on every state and a context on
    every operation load through the same walk: the extra documents and
    the contexts are not read.
    """
    if obj.get("version") != FORMAT_VERSION:
        raise ProtocolError(
            f"unsupported snapshot version {obj.get('version')!r}"
        )
    space = NaryStateSpace(oracle)
    # Snapshots carry plain sorted frozensets on the wire; restore
    # re-interns every key so the rebuilt space hits the same identity
    # fast paths as one grown through integrate().
    intern = space._interner.intern
    extend = space._interner.extend
    keys = [intern(_state_key_from_obj(n["key"])) for n in obj["nodes"]]
    known = set(keys)
    if len(known) != len(keys):
        raise ProtocolError("snapshot lists a state twice")
    edges: Dict[StateKey, List[Any]] = {}
    reached = set()
    for key, node_obj in zip(keys, obj["nodes"]):
        out = edges[key] = []
        for child in node_obj["children"]:
            target = intern(_state_key_from_obj(child["target"]))
            if target not in known:
                raise ProtocolError(
                    "snapshot transition points at a missing state"
                )
            reached.add(target)
            out.append((target, child["operation"]))
    nodes = space._nodes
    nodes.clear()
    frontier = []
    for key, node_obj in zip(keys, obj["nodes"]):
        if key not in reached and "document" in node_obj:
            nodes[key] = StateNode(
                key,
                ListDocument(
                    element_from_obj(e) for e in node_obj["document"]
                ),
            )
            frontier.append(key)
    while frontier:
        key = frontier.pop()
        source = nodes[key]
        for target, op_obj in edges[key]:
            operation = operation_from_obj(op_obj, context=key)
            if extend(key, operation.opid) is not target:
                raise ProtocolError(
                    f"snapshot transition {operation} from "
                    f"{format_opid_set(key)} is stored with target "
                    f"{format_opid_set(target)}"
                )
            created = target not in nodes
            try:
                space._attach(source, operation)
            except (StateSpaceError, DocumentError) as error:
                raise ProtocolError(f"snapshot is inconsistent: {error}")
            source.children.append(Transition(key, target, operation))
            if created:
                frontier.append(target)
    if len(nodes) != len(keys):
        orphan = next(key for key in keys if key not in nodes)
        raise ProtocolError(
            f"snapshot state {format_opid_set(orphan)} is reached by no "
            "document"
        )
    # Keep the stored node order, so a restored space snapshots to the
    # same bytes as the original.
    space._nodes = {key: nodes[key] for key in keys}
    space.final_key = intern(_state_key_from_obj(obj["final"]))
    if space.final_key not in known:
        raise ProtocolError("snapshot final state missing from node table")
    space.ot_count = int(obj.get("ot_count", 0))
    return space


# ----------------------------------------------------------------------
# Replica snapshots
# ----------------------------------------------------------------------
def snapshot_client(client: CssClient) -> Dict[str, Any]:
    """Serialise a CSS client (space, serial knowledge, pending queue).

    ``serials`` is emitted sorted by serial number (the canonical order of
    :meth:`~repro.jupiter.ordering.ClientOrderOracle.serial_items`), so
    snapshotting the same replica twice — or a replica restored from this
    snapshot — produces byte-identical JSON.
    """
    return {
        "version": FORMAT_VERSION,
        "replica": client.replica_id,
        "next_seq": client.next_seq,
        "space": space_to_obj(client.space),
        "serials": [
            [opid_to_obj(opid), serial]
            for opid, serial in client.oracle.serial_items()
        ],
        "pending": [opid_to_obj(opid) for opid in client.pending_opids()],
    }


def restore_client(obj: Dict[str, Any]) -> CssClient:
    if obj.get("version") != FORMAT_VERSION:
        raise ProtocolError(
            f"unsupported snapshot version {obj.get('version')!r}"
        )
    client = CssClient(str(obj["replica"]))
    for opid_obj, serial in obj["serials"]:
        client.oracle.record(opid_from_obj(opid_obj), int(serial))
    client.space = space_from_obj(obj["space"], client.oracle)
    client.restore_session(
        pending=[opid_from_obj(o) for o in obj["pending"]],
        next_seq=int(obj["next_seq"]),
    )
    return client


def checkpoint_client(
    client: CssClient,
    session: Optional[Dict[str, Any]] = None,
    behaviors_len: int = 0,
    delivered: int = 0,
) -> Dict[str, Any]:
    """Cut a crash-recovery checkpoint for one CSS client.

    A checkpoint is what survives a crash: the protocol snapshot
    (:func:`snapshot_client`) plus the durable transport metadata the
    reliable-session layer needs to resume — the client's sender-side
    sequence state (``session``), how many server messages it had
    consumed (``delivered``, the resync cursor of
    :class:`~repro.jupiter.messages.ResyncRequest`), and how long its
    behaviour log was (entries after it are lost with the crash and
    reconstructed by the resync replay).
    """
    return {
        "version": FORMAT_VERSION,
        "client": snapshot_client(client),
        "session": dict(session or {}),
        "behaviors_len": int(behaviors_len),
        "delivered": int(delivered),
    }


def restore_checkpoint(obj: Dict[str, Any]) -> CssClient:
    """Rebuild the protocol replica held in a checkpoint.

    The transport metadata (``obj["session"]``, ``obj["delivered"]``,
    ``obj["behaviors_len"]``) stays with the caller — the event loop
    re-seeds its session endpoints and behaviour log from it.
    """
    if obj.get("version") != FORMAT_VERSION:
        raise ProtocolError(
            f"unsupported checkpoint version {obj.get('version')!r}"
        )
    return restore_client(obj["client"])


def snapshot_server(server: CssServer) -> Dict[str, Any]:
    """Serialise a CSS server (space + active-window serialisation order).

    ``serials`` is sorted by serial number (see :func:`snapshot_client`),
    so the same server always snapshots to byte-identical JSON.  A server
    whose state was rebased by active-window GC snapshots only the
    serials past its ``base`` — everything below it left the state-space
    and the keys are already relative to it — so checkpoints stay
    O(active window).
    """
    base = server.oracle.base
    snapshot = {
        "version": FORMAT_VERSION,
        "replica": server.replica_id,
        "clients": list(server.clients),
        "space": space_to_obj(server.space),
        "serials": [
            [opid_to_obj(opid), serial]
            for opid, serial in server.oracle.serial_items(after=base)
        ],
    }
    if base:
        snapshot["base"] = base
    return snapshot


def restore_server(obj: Dict[str, Any]) -> CssServer:
    if obj.get("version") != FORMAT_VERSION:
        raise ProtocolError(
            f"unsupported snapshot version {obj.get('version')!r}"
        )
    server = CssServer(str(obj["replica"]), [str(c) for c in obj["clients"]])
    base = int(obj.get("base", 0))
    if base:
        # The snapshot was cut after active-window GC: re-seat the oracle
        # at the rebase floor so replayed serials resume densely there.
        oracle = ServerOrderOracle(start=base)
        server.oracle = oracle
    for opid_obj, serial in sorted(obj["serials"], key=lambda item: item[1]):
        assigned = server.oracle.assign(opid_from_obj(opid_obj))
        if assigned != int(serial):
            raise ProtocolError(
                "snapshot serial numbers are not a dense base+1..n sequence"
            )
    server.space = space_from_obj(obj["space"], server.oracle)
    return server


# ----------------------------------------------------------------------
# Server durability: write-ahead log + snapshot compaction + recovery
# ----------------------------------------------------------------------
def wal_record_to_obj(
    serial: int,
    origin: ReplicaId,
    operation: Operation,
    epoch: int = 0,
    ctx: Optional[List[Any]] = None,
) -> Dict[str, Any]:
    """One WAL entry: a serialised operation in server-serial order.

    ``epoch`` is the replication view under which the record was first
    proposed (0 for an unreplicated log).  View changes re-propose the
    uncommitted suffix under a higher epoch, so ``(epoch, serial)`` pairs
    totally order log prefixes across primaries.

    ``ctx`` is the serial-encoded context (see :func:`compact_context`);
    when given, the record omits the O(history) absolute context and
    stores the O(extras) encoding instead — decode it back with
    :func:`record_operation`.
    """
    record = {
        "serial": int(serial),
        "origin": origin,
        "epoch": int(epoch),
        "operation": operation_to_obj(operation, with_context=ctx is None),
    }
    if ctx is not None:
        record["ctx"] = [int(ctx[0]), list(ctx[1])]
    return record


def _validate_wal_record(record: Any) -> Dict[str, Any]:
    """Raise :class:`ProtocolError` unless ``record`` is a decodable entry."""
    if not isinstance(record, dict):
        raise ProtocolError(f"WAL record is not an object: {record!r}")
    for field in ("serial", "origin", "operation"):
        if field not in record:
            raise ProtocolError(f"WAL record missing field {field!r}")
    ctx = record.get("ctx")
    if ctx is not None:
        if (
            not isinstance(ctx, list)
            or len(ctx) != 2
            or not isinstance(ctx[0], int)
            or not isinstance(ctx[1], list)
        ):
            raise ProtocolError(
                f"WAL record has malformed compact context {ctx!r}"
            )
        # Validate everything but the (serial-encoded) context.
        operation_from_obj({**record["operation"], "context": ctx[1]})
    else:
        operation_from_obj(record["operation"])  # raises on garbage payloads
    return record


def _validate_wal_delta(delta: Any) -> Dict[str, Any]:
    """Raise :class:`ProtocolError` unless ``delta`` is a delta-snapshot."""
    if not isinstance(delta, dict):
        raise ProtocolError(f"WAL delta is not an object: {delta!r}")
    for field in ("upto", "floor", "final", "added", "touched", "serials"):
        if field not in delta:
            raise ProtocolError(f"WAL delta missing field {field!r}")
    for node_obj in delta["added"]:
        if "key" not in node_obj or "children" not in node_obj:
            raise ProtocolError("WAL delta added-node missing key/children")
    return delta


class ServerWriteAheadLog:
    """Durability for the serialisation authority.

    The server appends each operation it serialises — original form,
    origin client, assigned serial — *before* broadcasting it, so a crash
    can never lose serialised history: everything the server has told the
    world is on the log.  Periodically the log is *compacted*: a full
    :func:`snapshot_server` replaces the record prefix it covers, except
    that records a lagging consumer still needs are retained (the
    ``retain_after`` low-water mark — the classic "keep the suffix beyond
    the minimum acknowledged cursor" rule), because the broadcast
    re-shipment of recovery (:meth:`broadcasts_for`) rebuilds
    ``ServerOperation`` payloads from records, not from the snapshot.

    Recovery (:meth:`recover`) restores the latest snapshot and replays
    the record suffix through a real :class:`CssServer` receive path,
    verifying that every replayed operation is assigned exactly the
    serial the log recorded — the dense 1..n sequence every proof in the
    paper leans on resumes precisely where the log left off, with no
    serial skipped or reused.

    Compaction is **incremental**: after the first full checkpoint,
    subsequent compactions emit *delta snapshots* — the state-space nodes
    added since the previous compaction and those whose transition list
    grew, without documents, plus the serials assigned since — so a
    delta's size is O(changes), whatever the window or document size.
    Finding the changes is one pass of dictionary probes over the live
    state keys; nothing unchanged is serialised.  Every
    ``checkpoint_every`` deltas, and whenever the diff base is gone (the
    rebase floor moved, states were pruned, or the server's state-space
    was replaced by recovery or a state transfer), a fresh full
    checkpoint restarts the chain.  Recovery merges checkpoint + deltas
    back into one snapshot and replays the record suffix as before.

    The whole structure is JSON-able (:meth:`to_obj` / :meth:`from_obj`);
    in a deployment each :meth:`append` would be an fsync'd disk write.
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        clients: Sequence[ReplicaId],
        snapshot_every: int = 8,
        initial_text: str = "",
        checkpoint_every: int = 16,
    ) -> None:
        if snapshot_every < 1:
            raise ProtocolError("snapshot_every must be >= 1")
        if checkpoint_every < 1:
            raise ProtocolError("checkpoint_every must be >= 1")
        self.replica_id = replica_id
        self.clients = list(clients)
        self.snapshot_every = snapshot_every
        self.checkpoint_every = checkpoint_every
        self.initial_text = initial_text
        #: latest full checkpoint (``None`` until the first compaction)
        self.snapshot: Optional[Dict[str, Any]] = None
        #: delta snapshots taken since ``snapshot``, oldest first
        self.deltas: List[Dict[str, Any]] = []
        #: records after the truncation point, ascending contiguous serials
        self.records: List[Dict[str, Any]] = []
        self.appends = 0
        self.compactions = 0
        self.records_truncated = 0
        #: what the last :meth:`compact` emitted: ``"full"`` or ``"delta"``
        #: (``None`` before any compaction) — the disk layer appends the
        #: delta as one line instead of rewriting the file when "delta"
        self.last_compaction_mode: Optional[str] = None
        self.last_delta: Optional[Dict[str, Any]] = None
        #: epoch of the highest record witnessed (0 before any append)
        self.last_epoch = 0
        self._next_serial = 1
        self._since_snapshot = 0
        # Diff base for the next delta: live state key -> child-transition
        # count as of the previous compaction, valid only for the same
        # state-space object at the same rebase base.  ``None`` (fresh or
        # restored log) forces the next compaction to be a full checkpoint.
        self._shadow: Optional[Dict[StateKey, int]] = None
        self._shadow_space: Optional[NaryStateSpace] = None
        self._shadow_upto = 0
        self._shadow_base = 0
        self._obs = get_obs()

    # -- write path ----------------------------------------------------
    @property
    def last_serial(self) -> int:
        """The highest serial the log has witnessed (0 when empty)."""
        return self._next_serial - 1

    def append(
        self,
        serial: int,
        origin: ReplicaId,
        operation: Operation,
        epoch: int = 0,
        ctx: Optional[List[Any]] = None,
    ) -> None:
        """Log one serialised operation (call *before* broadcasting it).

        ``ctx`` stores the context serial-encoded (the net runtime's
        O(active-window) form, see :func:`compact_context`) instead of
        the absolute opid set.
        """
        self.append_record(
            wal_record_to_obj(serial, origin, operation, epoch, ctx=ctx)
        )

    def append_record(self, record: Dict[str, Any]) -> None:
        """Append an already-encoded record verbatim.

        Replication backups use this: a compact-context record can only
        be *decoded* with an order oracle that witnessed the serials
        below it, which a backup does not run — but it never needs to
        decode, only to store the bytes the primary certified.
        """
        serial = int(record["serial"])
        epoch = int(record.get("epoch", 0))
        if serial != self._next_serial:
            raise ProtocolError(
                f"WAL append out of order: got serial {serial}, "
                f"expected {self._next_serial}"
            )
        if epoch < self.last_epoch:
            raise ProtocolError(
                f"WAL append with stale epoch {epoch} < {self.last_epoch}"
            )
        self.records.append(record)
        self.last_epoch = epoch
        self._next_serial += 1
        self.appends += 1
        self._since_snapshot += 1
        self._obs.wal_appends.inc()

    def truncate_from(self, serial: int) -> List[Dict[str, Any]]:
        """Discard records with serial >= ``serial``; return them.

        View changes use this on a backup whose uncommitted suffix lost to
        the adopted log: the suffix is cut, handed back to the caller (the
        new primary re-proposes equivalent records under its epoch), and
        the log resumes appending at ``serial``.
        """
        cut = [r for r in self.records if int(r["serial"]) >= serial]
        self.records = [r for r in self.records if int(r["serial"]) < serial]
        self._next_serial = min(self._next_serial, int(serial))
        self.last_epoch = (
            int(self.records[-1]["epoch"]) if self.records else 0
        )
        return cut

    def record_at(self, serial: int) -> Optional[Dict[str, Any]]:
        """The retained record with ``serial``, or ``None`` if truncated."""
        for record in self.records:
            if int(record["serial"]) == serial:
                return record
        return None

    def should_compact(self) -> bool:
        return self._since_snapshot >= self.snapshot_every

    @staticmethod
    def _node_key(key_obj: Sequence[Any]) -> Any:
        """Canonical hashable form of a serialised state key."""
        return tuple((str(o[0]), int(o[1])) for o in key_obj)

    def _dirty_nodes(
        self, server: CssServer
    ) -> Optional[Tuple[List[StateNode], List[StateNode]]]:
        """The ``(added, touched)`` states since the previous compaction.

        ``None`` when no delta can express the change: there is no diff
        base, the state-space object or its rebase base changed, or
        states were pruned (a pruned parent can turn a survivor into a
        root, whose document only a full checkpoint carries).
        Transition lists are insert-only, so a changed child count is
        exactly a changed list.
        """
        shadow = self._shadow
        space = server.space
        if (
            shadow is None
            or space is not self._shadow_space
            or server.oracle.base != self._shadow_base
        ):
            return None
        added: List[StateNode] = []
        touched: List[StateNode] = []
        for key, node in space._nodes.items():
            count = shadow.get(key)
            if count is None:
                added.append(node)
            elif count != len(node.children):
                touched.append(node)
        if len(space._nodes) - len(added) != len(shadow):
            return None
        return added, touched

    def compact(
        self, server: CssServer, retain_after: Optional[int] = None
    ) -> int:
        """Snapshot ``server`` and truncate the record prefix it covers.

        ``retain_after`` is the low-water mark: records with a serial
        above it are kept even though the snapshot covers them, because a
        consumer (a client session cursor or a client-crash checkpoint)
        may still need their broadcast re-shipped.  Returns the number of
        records truncated.

        The first compaction (and every ``checkpoint_every``-th one, and
        any taken after the diff base went away — see
        :meth:`_dirty_nodes`) emits a **full checkpoint**; the rest emit a
        **delta** against the previous compaction — the states added
        since and the states whose ordered child-transition list grew,
        without documents, plus the serials assigned since.  A delta
        serialises O(changes), not O(window).  ``last_compaction_mode``
        tells the disk layer which of the two it got.
        """
        obs = self._obs
        started = time.perf_counter() if obs.enabled else 0.0
        base = server.oracle.base
        # What the snapshot/delta covers is the *server's* state, which
        # in replicated mode can trail the log (proposed-but-uncommitted
        # records are on the log, not in the served state yet).
        covered = server.oracle.last_serial
        floor = self.last_serial
        if retain_after is not None:
            floor = min(floor, int(retain_after))
        # Complete while the record suffix still covers everything since
        # the last compaction — stored so trimmed snapshots keep the
        # per-origin consumption counts recovery re-seeds sessions with.
        counts = self.origin_counts()
        dirty = (
            self._dirty_nodes(server)
            if self.snapshot is not None
            and len(self.deltas) < self.checkpoint_every
            else None
        )
        space = server.space
        if dirty is not None:
            added, touched = dirty
            delta = {
                "upto": covered,
                "floor": floor,
                "base": base,
                "final": _state_key_to_obj(space.final_key),
                "ot_count": space.ot_count,
                "added": [_node_to_obj(node, False) for node in added],
                "touched": [
                    _node_to_obj(node, False) for node in touched
                ],
                "serials": [
                    [opid_to_obj(opid), serial]
                    for opid, serial in server.oracle.serial_items(
                        after=self._shadow_upto
                    )
                ],
                "origin_counts": {
                    str(k): int(v) for k, v in sorted(counts.items())
                },
                "clients": list(server.clients),
            }
            self.deltas.append(delta)
            self.last_delta = delta
            self.last_compaction_mode = "delta"
            for node in added + touched:
                self._shadow[node.key] = len(node.children)
        else:
            self.snapshot = snapshot_server(server)
            self.snapshot["origin_counts"] = {
                str(k): int(v) for k, v in sorted(counts.items())
            }
            self.deltas = []
            self.last_delta = None
            self.last_compaction_mode = "full"
            self._shadow = {
                key: len(node.children) for key, node in space._nodes.items()
            }
            self._shadow_space = space
            self._shadow_base = base
        self._shadow_upto = covered
        kept = [r for r in self.records if r["serial"] > floor]
        truncated = len(self.records) - len(kept)
        self.records = kept
        self.records_truncated += truncated
        self.compactions += 1
        self._since_snapshot = 0
        if obs.enabled:
            obs.wal_compactions.inc()
            obs.wal_records_truncated.inc(truncated)
            obs.wal_compaction_duration.observe(time.perf_counter() - started)
            obs.trace(
                "wal.compact",
                serial=self.last_serial,
                truncated=truncated,
                retained=len(kept),
                mode=self.last_compaction_mode,
            )
        return truncated

    def _merged_snapshot(self) -> Optional[Dict[str, Any]]:
        """The full checkpoint with every delta folded in (obj level)."""
        if self.snapshot is None:
            return None
        if not self.deltas:
            return self.snapshot
        space = self.snapshot["space"]
        nodes = {self._node_key(n["key"]): n for n in space["nodes"]}
        serials = [list(item) for item in self.snapshot["serials"]]
        for delta in self.deltas:
            # Deltas written before root-only snapshots could remove
            # states; current ones never do (a prune forces a checkpoint).
            for key_obj in delta.get("removed", ()):
                nodes.pop(self._node_key(key_obj), None)
            for patch in delta["touched"]:
                key = self._node_key(patch["key"])
                node = dict(nodes[key])
                node["children"] = patch["children"]
                nodes[key] = node
            for node_obj in delta["added"]:
                nodes[self._node_key(node_obj["key"])] = node_obj
            serials.extend(list(item) for item in delta["serials"])
        last = self.deltas[-1]
        merged = {
            "version": FORMAT_VERSION,
            "replica": self.snapshot["replica"],
            "clients": list(last.get("clients", self.snapshot["clients"])),
            "space": {
                "version": FORMAT_VERSION,
                "final": last["final"],
                "ot_count": int(last.get("ot_count", 0)),
                "nodes": [nodes[key] for key in sorted(nodes)],
            },
            "serials": serials,
        }
        merged_base = int(last.get("base", self.snapshot.get("base", 0)))
        if merged_base:
            merged["base"] = merged_base
        return merged

    # -- recovery ------------------------------------------------------
    def recover(self) -> CssServer:
        """Rebuild the server: latest snapshot + replay of the log suffix.

        The suffix replays through the real :meth:`CssServer.receive`
        path, so recovery exercises serialisation, integration and
        broadcast construction exactly as live traffic does.  Every
        replayed operation must be assigned the serial the log recorded.
        """
        obs = self._obs
        started = time.perf_counter() if obs.enabled else 0.0
        snapshot = self._merged_snapshot()
        if snapshot is not None:
            server = restore_server(snapshot)
        else:
            initial = (
                ListDocument.from_string(self.initial_text)
                if self.initial_text
                else None
            )
            server = CssServer(self.replica_id, list(self.clients), initial)
        for record in self.records:
            serial = int(record["serial"])
            if serial <= server.oracle.last_serial:
                continue  # snapshot already covers this retained record
            operation = record_operation(record, server.oracle)
            server.receive(record["origin"], ClientOperation(operation))
            assigned = server.oracle.serial_of(operation.opid)
            if assigned != serial:
                raise ProtocolError(
                    f"WAL replay assigned serial {assigned} to "
                    f"{operation.opid} but the log recorded {serial}; "
                    "the recovered order diverges from the logged one"
                )
        if server.oracle.last_serial != self.last_serial:
            raise ProtocolError(
                f"WAL recovery stopped at serial "
                f"{server.oracle.last_serial} but the log reaches "
                f"{self.last_serial}"
            )
        if obs.enabled:
            obs.wal_recovery_duration.observe(time.perf_counter() - started)
            obs.trace(
                "wal.recover",
                serial=self.last_serial,
                replayed=len(self.records),
                from_snapshot=self.snapshot is not None,
            )
        return server

    def broadcasts_for(
        self, server: CssServer, delivered: int
    ) -> List[ServerOperation]:
        """Rebuild the broadcasts a consumer with cursor ``delivered`` missed.

        Answers a :class:`~repro.jupiter.messages.ResyncRequest` from the
        replayed log: one :class:`ServerOperation` per serial in
        ``delivered + 1 .. last_serial``, with the prefix sets recomputed
        from the recovered server's oracle.
        """
        total = self.last_serial
        if not 0 <= delivered <= total:
            raise ProtocolError(
                f"resync cursor {delivered} outside the log's 0..{total}"
            )
        if delivered == total:
            return []
        available = {int(r["serial"]): r for r in self.records}
        missing = [
            serial
            for serial in range(delivered + 1, total + 1)
            if serial not in available
        ]
        if missing:
            raise ProtocolError(
                f"WAL compacted past a consumer: serials {missing} were "
                "truncated but a resync cursor still needs them (the "
                "retain_after low-water mark was too aggressive)"
            )
        return [
            ServerOperation(
                operation=record_operation(available[serial], server.oracle),
                origin=available[serial]["origin"],
                serial=serial,
                prefix=server.oracle.serialized_before(serial),
            )
            for serial in range(delivered + 1, total + 1)
        ]

    def origin_counts(self) -> Dict[ReplicaId, int]:
        """Serialised operations per origin client (snapshot + suffix).

        This is exactly the per-channel consumption count the server's
        session receivers held before the crash: origin ``c`` had
        ``origin_counts()[c]`` frames consumed from its channel, so the
        recovered receiver resumes expecting frame ``count + 1``.

        Computed as a *max-of-sequence-numbers* merge: each origin's
        sequence numbers are dense from 1, so its count equals the
        highest sequence witnessed anywhere — stored counts from earlier
        compactions (which may cover serials a GC-trimmed snapshot no
        longer lists), snapshot and delta serial logs, and the record
        suffix.  Overlap between sources is harmless under max.
        """
        counts: Dict[ReplicaId, int] = {}

        def bump(origin: ReplicaId, seq: int) -> None:
            if seq > counts.get(origin, 0):
                counts[origin] = seq

        if self.snapshot is not None:
            for origin, count in self.snapshot.get(
                "origin_counts", {}
            ).items():
                bump(str(origin), int(count))
            for opid_obj, _serial in self.snapshot["serials"]:
                opid = opid_from_obj(opid_obj)
                bump(opid.replica, opid.seq)
        for delta in self.deltas:
            for origin, count in delta.get("origin_counts", {}).items():
                bump(str(origin), int(count))
            for opid_obj, _serial in delta["serials"]:
                opid = opid_from_obj(opid_obj)
                bump(opid.replica, opid.seq)
        for record in self.records:
            opid = opid_from_obj(record["operation"]["opid"])
            bump(opid.replica, opid.seq)
        return counts

    # -- codec ---------------------------------------------------------
    def to_obj(self) -> Dict[str, Any]:
        return {
            "version": FORMAT_VERSION,
            "replica": self.replica_id,
            "clients": list(self.clients),
            "snapshot_every": self.snapshot_every,
            "checkpoint_every": self.checkpoint_every,
            "initial_text": self.initial_text,
            "snapshot": self.snapshot,
            "deltas": [dict(d) for d in self.deltas],
            "records": [dict(r) for r in self.records],
            "next_serial": self._next_serial,
        }

    @classmethod
    def from_obj(cls, obj: Dict[str, Any]) -> "ServerWriteAheadLog":
        if obj.get("version") != FORMAT_VERSION:
            raise ProtocolError(
                f"unsupported WAL version {obj.get('version')!r}"
            )
        wal = cls(
            str(obj["replica"]),
            [str(c) for c in obj["clients"]],
            snapshot_every=int(obj["snapshot_every"]),
            initial_text=str(obj.get("initial_text", "")),
            checkpoint_every=int(obj.get("checkpoint_every", 16)),
        )
        wal.snapshot = obj["snapshot"]
        wal.deltas = [dict(d) for d in obj.get("deltas", [])]
        wal.records = [dict(r) for r in obj["records"]]
        wal._next_serial = int(obj["next_serial"])
        if wal.records:
            wal.last_epoch = int(wal.records[-1].get("epoch", 0))
        # The diff shadow is not serialised: a restored log takes a full
        # checkpoint at its next compaction and resumes deltas from there.
        return wal


# ----------------------------------------------------------------------
# On-disk WAL: header + one JSON record per line, torn-tail tolerant
# ----------------------------------------------------------------------
def save_wal(wal: ServerWriteAheadLog, path: str) -> None:
    """Persist a WAL as JSON-lines: one header line, one line per record.

    The record-per-line layout mirrors how an appending log hits disk: a
    crash mid-append leaves at most one truncated final line, which
    :func:`load_wal` detects and drops (the torn tail).  Delta snapshots
    accumulated in memory ride in the header here (this is the full
    rewrite a *full* checkpoint triggers); between rewrites the disk
    layer appends each new delta as its own ``{"delta": ...}`` line.
    """
    header = wal.to_obj()
    records = header.pop("records")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def load_wal(path: str) -> ServerWriteAheadLog:
    """Load a WAL saved by :func:`save_wal`, tolerating a torn tail.

    A crash mid-append can leave the *final* line truncated or garbled.
    A torn record was never acknowledged to anyone (the append had not
    completed, so the op was neither broadcast nor quorum certified) and
    a torn delta line loses no history at all (the records it would have
    truncated are still on the earlier lines), so either is safe to
    drop: recovery logs a warning, bumps the ``wal_torn_tail_dropped``
    counter, and resumes from the previous line.  Corruption anywhere
    *before* the final line is not a torn tail — it means lost
    acknowledged history — and raises :class:`ProtocolError`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().split("\n") if line.strip()]
    if not lines:
        raise ProtocolError(f"WAL file {path} is empty")
    try:
        header = json.loads(lines[0])
    except ValueError as error:
        raise ProtocolError(f"WAL header in {path} is corrupt: {error}")
    records: List[Dict[str, Any]] = []
    deltas: List[Dict[str, Any]] = [
        dict(d) for d in (header.get("deltas") or [])
    ]
    torn: Optional[str] = None
    for index, line in enumerate(lines[1:], start=1):
        final = index == len(lines) - 1
        try:
            obj = json.loads(line)
            if isinstance(obj, dict) and "delta" in obj:
                delta = _validate_wal_delta(obj["delta"])
                deltas.append(delta)
                floor = int(delta["floor"])
                records = [
                    r for r in records if int(r["serial"]) > floor
                ]
            else:
                records.append(_validate_wal_record(obj))
        except (ValueError, ProtocolError) as error:
            if not final:
                raise ProtocolError(
                    f"WAL record {index} in {path} is corrupt mid-log "
                    f"(not a torn tail): {error}"
                )
            torn = str(error)
    if torn is not None:
        warnings.warn(
            f"dropping torn final WAL record in {path}: {torn}",
            RuntimeWarning,
            stacklevel=2,
        )
        get_obs().wal_torn_tail_dropped.inc()
    header["records"] = records
    header["deltas"] = deltas
    header["next_serial"] = (
        int(records[-1]["serial"]) + 1
        if records
        else _post_snapshot_serial(header)
    )
    return ServerWriteAheadLog.from_obj(header)


def _post_snapshot_serial(header: Dict[str, Any]) -> int:
    """First serial after the header's compaction state (1 if none)."""
    deltas = header.get("deltas") or []
    if deltas:
        return int(deltas[-1]["upto"]) + 1
    snapshot = header.get("snapshot")
    if not snapshot:
        return 1
    serials = [int(serial) for _opid, serial in snapshot["serials"]]
    base = int(snapshot.get("base", 0))
    return max(serials, default=base) + 1
