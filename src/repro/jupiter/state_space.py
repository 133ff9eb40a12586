"""Shared machinery for Jupiter state-spaces.

Both the 2D state-spaces of the CSCW protocol and the n-ary ordered
state-space of the CSS protocol are DAGs whose nodes are replica states —
identified by the :class:`frozenset` of original operation ids processed
(Definition 4.5) — and whose transitions are labelled with (original or
transformed) operations.  Every node also carries the list document at
that state, so the paper's per-state lists (``w13 = "ax"`` etc.) can be
read straight off the structure.

Two hot-path representations keep growth near-linear in operations
processed (see ``docs/ARCHITECTURE.md`` § "The hot path"):

* state keys are hash-consed through a per-space
  :class:`~repro.jupiter.keys.KeyInterner`, so the square construction
  never recomputes a union or re-hashes a key it has seen before;
* node documents are **lazy**: attaching a node records ``(parent, op)``
  in O(1) and the document materialises — once, cached — only when
  somebody reads it.  The always-on CP1 cross-check at square corners
  compares the O(1)-maintained length and content fingerprint; the full
  ordered-document comparison (and eager materialisation, i.e. the exact
  seed behaviour) is restored by constructing the space with
  ``strict_cp1=True``, which the verifier and the equivalence tests do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.ids import OpId, StateKey, format_opid_set
from repro.document.list_document import ListDocument
from repro.errors import PositionError, StateSpaceError, UnknownStateError
from repro.jupiter.keys import KeyInterner
from repro.ot.operations import Operation


@dataclass(frozen=True)
class Transition:
    """A labelled edge ``source --operation--> target``."""

    source: StateKey
    target: StateKey
    operation: Operation

    @property
    def org_id(self) -> OpId:
        """The original-operation identity of the label."""
        return self.operation.opid

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{format_opid_set(self.source)} --{self.operation}--> "
            f"{format_opid_set(self.target)}"
        )


def _content_fingerprint(document: ListDocument) -> int:
    """Order-insensitive fingerprint: XOR of the element-id hashes.

    The key of a state already determines *which* elements its document
    contains (inserts present minus deletes present); the fingerprint is
    the O(1)-maintainable shadow of that fact, used by the cheap CP1
    corner check.  Order divergence — the part CP1 is really about — is
    caught by the ``strict_cp1`` full comparison.
    """
    fp = 0
    for element in document:
        fp ^= hash(element.opid)
    return fp


class StateNode:
    """A state: its key, its document, and its outgoing transitions.

    The document is either *materialised* (``_doc`` set) or *pending*
    (``_parent``/``_op`` set): the document of the parent node with one
    operation applied.  Pending nodes cost O(1) to create; reading
    :attr:`document` materialises the chain up to the nearest
    materialised ancestor and caches the result here.  ``length`` and
    ``content_fp`` are always maintained eagerly in O(1).
    """

    __slots__ = ("key", "children", "length", "content_fp", "_doc", "_parent", "_op")

    def __init__(
        self,
        key: StateKey,
        document: Optional[ListDocument] = None,
        *,
        parent: Optional["StateNode"] = None,
        operation: Optional[Operation] = None,
        length: Optional[int] = None,
        content_fp: Optional[int] = None,
    ) -> None:
        self.key = key
        self.children: List[Transition] = []
        self._doc = document
        self._parent = parent
        self._op = operation
        if document is not None:
            self.length = len(document)
            self.content_fp = _content_fingerprint(document)
        else:
            if parent is None or operation is None:
                raise StateSpaceError(
                    "a pending node needs both a parent and an operation"
                )
            assert length is not None and content_fp is not None
            self.length = length
            self.content_fp = content_fp

    @property
    def document(self) -> ListDocument:
        """The list document at this state (materialised on demand)."""
        if self._doc is None:
            self._materialise()
        return self._doc  # type: ignore[return-value]

    @property
    def materialised(self) -> bool:
        return self._doc is not None

    def _materialise(self) -> None:
        chain: List[StateNode] = []
        cursor: StateNode = self
        while cursor._doc is None:
            chain.append(cursor)
            cursor = cursor._parent  # type: ignore[assignment]
        document = cursor._doc.copy()
        for node in reversed(chain):
            node._op.apply(document)  # type: ignore[union-attr]
        self._doc = document
        # Release the chain so pruned ancestors can actually be freed.
        self._parent = None
        self._op = None

    def child_org_ids(self) -> List[OpId]:
        return [t.org_id for t in self.children]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"State{format_opid_set(self.key)}={self.document.as_string()!r}"


#: A canonical, comparable rendering of a state-space: for every state
#: key, the ordered list of (org id, kind, position, target key).
Signature = Dict[
    StateKey, Tuple[Tuple[OpId, str, Optional[int], StateKey], ...]
]


class BaseStateSpace:
    """Node bookkeeping shared by the 2D and n-ary state-spaces."""

    def __init__(
        self,
        initial_document: Optional[ListDocument] = None,
        *,
        strict_cp1: bool = False,
    ) -> None:
        self._interner = KeyInterner()
        self._strict_cp1 = bool(strict_cp1)
        document = (initial_document or ListDocument()).copy()
        root = StateNode(self._interner.intern(frozenset()), document)
        self._nodes: Dict[StateKey, StateNode] = {root.key: root}
        self.final_key: StateKey = root.key
        #: number of pairwise OTs performed while building this space.
        self.ot_count: int = 0

    @property
    def strict_cp1(self) -> bool:
        """Whether corners verify CP1 by full ordered-document equality."""
        return self._strict_cp1

    # ------------------------------------------------------------------
    # Node access
    # ------------------------------------------------------------------
    def node(self, key: StateKey) -> StateNode:
        try:
            return self._nodes[key]
        except KeyError:
            raise UnknownStateError(
                f"no state {format_opid_set(key)} in this state-space"
            ) from None

    def has_state(self, key: StateKey) -> bool:
        return key in self._nodes

    def states(self) -> List[StateKey]:
        return list(self._nodes)

    def node_count(self) -> int:
        return len(self._nodes)

    def transition_count(self) -> int:
        return sum(len(node.children) for node in self._nodes.values())

    def transitions(self) -> Iterable[Transition]:
        for node in self._nodes.values():
            yield from node.children

    @property
    def final_node(self) -> StateNode:
        return self._nodes[self.final_key]

    @property
    def document(self) -> ListDocument:
        """The document at the final state — the replica's current list."""
        return self.final_node.document

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def _attach(
        self,
        source: StateNode,
        operation: Operation,
        target: Optional[StateNode] = None,
    ) -> StateNode:
        """Create or reuse the target node of ``operation`` from ``source``.

        Creating a node is O(op): the target records ``(source, op)`` and
        its eagerly derived length/fingerprint.  When the target already
        exists (the closing corner of a CP1 square), the derived length
        and content fingerprint must match the stored ones — the cheap,
        always-on shadow of the CP1 check.  With ``strict_cp1`` the
        document is additionally recomputed along this second edge and
        compared in full (the seed behaviour), which also catches pure
        *order* divergence that the fingerprint cannot see.

        ``target`` optionally names the corner node the caller already
        holds (Algorithm 1 holds it: the square's first edge created it),
        sparing the key union/lookup for the closing edge entirely.
        """
        if operation.context is not source.key:
            # Interned contexts hit the identity fast path above; anything
            # else pays a comparison — full in strict mode, length-only on
            # the hot path (transformed contexts are equal by construction
            # of the CP1 square).
            if self._strict_cp1:
                if operation.context != source.key:
                    raise StateSpaceError(
                        f"operation {operation.pretty()} attached at state "
                        f"{format_opid_set(source.key)} with a different "
                        "context"
                    )
            elif len(operation.context) != len(source.key):
                raise StateSpaceError(
                    f"operation {operation.pretty()} attached at state "
                    f"{format_opid_set(source.key)} with a different context"
                )
        if target is None:
            target_key = self._interner.extend(source.key, operation.opid)
            existing = self._nodes.get(target_key)
        else:
            target_key = target.key
            existing = target
        if operation.is_nop:
            length, content_fp = source.length, source.content_fp
        else:
            position = operation.position
            assert operation.element is not None and position is not None
            if operation.is_insert:
                if not 0 <= position <= source.length:
                    raise PositionError(
                        f"insert position {position} out of range for "
                        f"document of length {source.length}"
                    )
                length = source.length + 1
            else:
                if not 0 <= position < source.length:
                    raise PositionError(
                        f"position {position} out of range for document "
                        f"of length {source.length}"
                    )
                length = source.length - 1
            content_fp = source.content_fp ^ hash(operation.element.opid)
        if existing is not None:
            if existing.length != length or existing.content_fp != content_fp:
                raise StateSpaceError(
                    f"CP1 square broken at {format_opid_set(target_key)}: "
                    f"length/content fingerprint mismatch along "
                    f"{operation.pretty()}"
                )
            if self._strict_cp1:
                recomputed = source.document.copy()
                operation.apply(recomputed)
                if recomputed != existing.document:
                    raise StateSpaceError(
                        f"CP1 square broken at {format_opid_set(target_key)}: "
                        f"{recomputed.as_string()!r} != "
                        f"{existing.document.as_string()!r}"
                    )
            return existing
        if self._strict_cp1:
            document = source.document.copy()
            operation.apply(document)
            node = StateNode(target_key, document)
        else:
            node = StateNode(
                target_key,
                parent=source,
                operation=operation,
                length=length,
                content_fp=content_fp,
            )
        self._nodes[target_key] = node
        return node

    # ------------------------------------------------------------------
    # Comparison / inspection
    # ------------------------------------------------------------------
    def signature(self) -> Signature:
        """Canonical structure for equality comparisons across replicas."""
        return {
            key: tuple(
                (
                    t.org_id,
                    t.operation.kind.value,
                    t.operation.position,
                    t.target,
                )
                for t in node.children
            )
            for key, node in self._nodes.items()
        }

    def same_structure(self, other: "BaseStateSpace") -> bool:
        """Structural equality (Proposition 6.6's notion of sameness)."""
        return self.signature() == other.signature()

    def contains_structure(self, other: "BaseStateSpace") -> bool:
        """Whether every state and transition of ``other`` is in ``self``.

        Transition order is ignored (a 2D state-space does not order
        siblings the way the n-ary one does); this is the containment of
        Proposition 7.4, ``DSS ⊆ CSS``.
        """
        mine = self.signature()
        for key, edges in other.signature().items():
            if key not in mine:
                return False
            if not set(edges) <= set(mine[key]):
                return False
        return True

    def document_at(self, key: StateKey) -> ListDocument:
        """The list document at a given state (e.g. ``w13``)."""
        return self.node(key).document

    def iter_documents(self) -> Iterator[Tuple[StateKey, ListDocument]]:
        """Yield ``(key, document)`` for every state, without permanently
        caching lazy nodes.

        Equivalence checks compare every state's list across replicas;
        materialising them through :attr:`StateNode.document` would pin
        them all in memory for the life of the space.  This walk shares
        the per-chain work through a transient memo instead, so it costs
        a transient O(states × length) and the space stays lazy.
        Snapshots do not use it: they store documents only at root states
        (see :func:`repro.jupiter.persistence.space_to_obj`).
        """
        memo: Dict[int, ListDocument] = {}

        def doc_of(node: StateNode) -> ListDocument:
            if node._doc is not None:
                return node._doc
            cached = memo.get(id(node))
            if cached is not None:
                return cached
            chain: List[StateNode] = []
            cursor: StateNode = node
            while cursor._doc is None and id(cursor) not in memo:
                chain.append(cursor)
                cursor = cursor._parent  # type: ignore[assignment]
            document = cursor._doc if cursor._doc is not None else memo[id(cursor)]
            for entry in reversed(chain):
                document = document.copy()
                entry._op.apply(document)  # type: ignore[union-attr]
                memo[id(entry)] = document
            return memo[id(node)]

        for key, node in self._nodes.items():
            yield key, doc_of(node)
