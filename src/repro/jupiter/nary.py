"""The n-ary ordered state-space and Algorithm 1 (Sections 6.1–6.2).

A state may have up to ``n`` child transitions (one per client, Lemma 6.1),
kept ordered left-to-right by the server total order on their original
operations.  Integrating an operation ``o`` whose context matches state
``σ``:

1. saves ``o`` at ``σ`` along the transition of the right order among all
   transitions from ``σ``;
2. transforms ``o`` with the sequence ``L`` of operations along the
   *leftmost* transitions from ``σ`` to the final state, adding the new
   transitions of each CP1 square in their appropriate order (Algorithm 1);
3. returns ``o{L}`` for the replica to execute — the document of the new
   final state already reflects it.

Each CP1 square is O(1) amortised: the corner node created by
:meth:`_insert_ordered` is carried into the next square instead of being
re-derived from a fresh key union, and all key bookkeeping goes through
the space's :class:`~repro.jupiter.keys.KeyInterner`.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Protocol, Set

from repro.common.ids import OpId, StateKey, format_opid_set
from repro.document.list_document import ListDocument
from repro.errors import StateSpaceError
from repro.jupiter.keys import KeyInterner
from repro.jupiter.state_space import BaseStateSpace, StateNode, Transition
from repro.obs import get_obs
from repro.ot.operations import Operation
from repro.ot.transform import transform_pair


class TotalOrderOracle(Protocol):
    """Anything that can decide ``first ⇒ second`` on original ids."""

    def before(self, first: OpId, second: OpId) -> bool:  # pragma: no cover
        ...


class NaryStateSpace(BaseStateSpace):
    """The CSS protocol's single compact state-space."""

    def __init__(
        self,
        oracle: TotalOrderOracle,
        initial_document: Optional[ListDocument] = None,
        *,
        strict_cp1: bool = False,
    ) -> None:
        super().__init__(initial_document, strict_cp1=strict_cp1)
        self._oracle = oracle
        self._obs = get_obs()

    # ------------------------------------------------------------------
    # Ordered transition insertion
    # ------------------------------------------------------------------
    def _insert_ordered(
        self,
        source: StateNode,
        operation: Operation,
        target: Optional[StateNode] = None,
    ) -> StateNode:
        """Add a transition from ``source`` at its total-order position
        and return the target node."""
        target = self._attach(source, operation, target)
        transition = Transition(source.key, target.key, operation)
        for index, sibling in enumerate(source.children):
            if sibling.org_id == operation.opid:
                raise StateSpaceError(
                    f"duplicate transition for {operation.opid} at "
                    f"{format_opid_set(source.key)}"
                )
            if not self._oracle.before(sibling.org_id, operation.opid):
                source.children.insert(index, transition)
                return target
        source.children.append(transition)
        return target

    # ------------------------------------------------------------------
    # The leftmost path (Lemma 6.4)
    # ------------------------------------------------------------------
    def leftmost_path(self, key: StateKey) -> List[Transition]:
        """Transitions along leftmost children from ``key`` to the final
        state.  By Lemma 6.4 these are exactly the processed operations not
        in ``key``, in total order."""
        path: List[Transition] = []
        cursor = self.node(key)
        while cursor.key != self.final_key:
            if not cursor.children:
                raise StateSpaceError(
                    f"leftmost path from {format_opid_set(key)} got stuck "
                    f"at {format_opid_set(cursor.key)} before reaching the "
                    "final state"
                )
            step = cursor.children[0]
            path.append(step)
            cursor = self.node(step.target)
        return path

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def integrate(self, operation: Operation) -> Operation:
        """Integrate ``operation`` and return its executed form ``o{L}``."""
        obs = self._obs
        started = time.perf_counter() if obs.enabled else 0.0
        source = self.node(operation.context)  # the matching state
        path = self.leftmost_path(source.key)

        corner = self._insert_ordered(source, operation)

        current = operation
        for step in path:
            # The two transformed forms attach at states whose keys this
            # loop already holds interned — hand them over so no set union
            # is recomputed per square.
            transformed, step_shifted = transform_pair(
                current, step.operation, contexts=(step.target, corner.key)
            )
            self.ot_count += 1
            # Close the CP1 square: the shifted path operation continues
            # from the corner we just created — its target *is* the next
            # corner, so no key union needs recomputing...
            next_corner = self._insert_ordered(corner, step_shifted)
            # ...and the transformed operation re-attaches at the path's
            # next state, into the same corner node, ordered among that
            # state's existing transitions.
            self._insert_ordered(
                self.node(step.target), transformed, target=next_corner
            )
            corner = next_corner
            current = transformed

        self.final_key = corner.key
        if obs.enabled:
            obs.ot_transforms.inc(len(path))
            obs.space_nodes.set(len(self._nodes))
            obs.document_length.set(corner.length)
            obs.css_integrate_duration.observe(time.perf_counter() - started)
        return current

    # ------------------------------------------------------------------
    # Invariant checks used by the property tests (Lemmas 6.1–6.3, 8.4)
    # ------------------------------------------------------------------
    def max_out_degree(self) -> int:
        """For Lemma 6.1: must never exceed the number of clients."""
        return max(
            (len(node.children) for node in self._nodes.values()), default=0
        )

    def children_are_ordered(self) -> bool:
        """Sibling transitions must be strictly increasing in total order."""
        for node in self._nodes.values():
            ids = node.child_org_ids()
            for first, second in zip(ids, ids[1:]):
                if not self._oracle.before(first, second):
                    return False
        return True

    # ------------------------------------------------------------------
    # Garbage collection (the §10 metadata-overhead concern)
    # ------------------------------------------------------------------
    def prune_below(self, floor: StateKey) -> int:
        """Discard states that can never be matched again; return count.

        ``floor`` must be a lower bound on the context of every operation
        this replica may still have to integrate (for the server: the
        meet of all clients' known states; for a client: the meet of the
        other replicas' known states and its own).  Any future matching
        state, and every state on a transform path from it, is a superset
        of ``floor``, so states whose key does not contain ``floor`` are
        unreachable and safe to drop.

        An over-eager ``floor`` is *detected*, not silently absorbed: a
        later context lookup for a pruned state raises
        :class:`~repro.errors.UnknownStateError`.
        """
        floor = frozenset(floor)
        if not floor <= self.final_key:
            raise StateSpaceError(
                "prune floor mentions operations this replica has not "
                "processed"
            )
        doomed = [key for key in self._nodes if not floor <= key]
        if doomed:
            doomed_set = set(doomed)
            # Materialise the documents of surviving nodes whose pending
            # chain starts at a doomed parent, so no survivor keeps a
            # pruned subgraph alive through its materialisation chain.
            for key, node in self._nodes.items():
                if key in doomed_set or node.materialised:
                    continue
                parent = node._parent
                if parent is not None and parent.key in doomed_set:
                    node._materialise()
            for key in doomed:
                del self._nodes[key]
            self._interner.forget(doomed)
        obs = self._obs
        if obs.enabled:
            obs.space_pruned.inc(len(doomed))
            obs.space_nodes.set(len(self._nodes))
        return len(doomed)

    def rebase_below(self, floor: StateKey) -> int:
        """Prune below ``floor`` *and* subtract it from every key.

        :meth:`prune_below` bounds the node **count**, but every
        surviving key still contains the whole garbage-collected prefix,
        so per-operation key unions stay O(history).  Rebasing rewrites
        each survivor's key to ``key - floor`` — the relabelling is a
        bijection on the surviving nodes (all of them contain ``floor``),
        so the graph structure, sibling order, and documents are
        untouched and every key is O(active window) afterwards.

        Callers must feed the space operations whose contexts are
        expressed relative to the same floor from then on (the net
        runtime's serial-encoded contexts do exactly that).  Stored
        transition operations are relabelled with their source's new key
        too: a later concurrent operation is transformed against them
        (Algorithm 1), and :func:`~repro.ot.transform.transform` requires
        both sides to share a context.  Every transition's context equals
        its source key, before and after a rebase — the invariant
        snapshots rely on to omit contexts.
        """
        floor = frozenset(floor)
        pruned = self.prune_below(floor)
        if not floor:
            return pruned
        fresh = KeyInterner()
        remap = {
            key: fresh.intern(key - floor) for key in self._nodes
        }
        nodes: Dict[StateKey, StateNode] = {}
        for key, node in self._nodes.items():
            new_key = remap[key]
            node.key = new_key
            node.children = [
                Transition(
                    new_key,
                    remap[t.target],
                    dataclasses.replace(t.operation, context=new_key),
                )
                for t in node.children
            ]
            nodes[new_key] = node
        self._nodes = nodes
        self._interner = fresh
        self.final_key = remap[self.final_key]
        return pruned

    def _ancestors(
        self,
        key: StateKey,
        parents: Optional[Dict[StateKey, List[StateKey]]] = None,
    ) -> Set[StateKey]:
        """All states with a path to ``key`` (including ``key`` itself).

        ``parents`` is the reverse-edge map; pass one (from
        :meth:`_parents_map`) to amortise it over several calls.
        """
        if parents is None:
            parents = self._parents_map()
        seen = {key}
        frontier = [key]
        while frontier:
            state = frontier.pop()
            for parent in parents[state]:
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return seen

    def _parents_map(self) -> Dict[StateKey, List[StateKey]]:
        parents: Dict[StateKey, List[StateKey]] = {
            state: [] for state in self._nodes
        }
        for transition in self.transitions():
            parents[transition.target].append(transition.source)
        return parents

    def lowest_common_ancestors(
        self, first: StateKey, second: StateKey
    ) -> List[StateKey]:
        """All LCAs of two states; Lemma 8.4 says there is exactly one.

        The reverse-edge map is built once and every candidate's ancestor
        set is memoised, so the lowest-filter is linear in the graph per
        distinct candidate instead of rebuilding the map per pair.
        """
        parents = self._parents_map()
        ancestor_sets: Dict[StateKey, Set[StateKey]] = {}

        def ancestors_of(key: StateKey) -> Set[StateKey]:
            cached = ancestor_sets.get(key)
            if cached is None:
                ancestor_sets[key] = cached = self._ancestors(key, parents)
            return cached

        common = ancestors_of(first) & ancestors_of(second)
        lowest = [
            candidate
            for candidate in common
            if not any(
                other != candidate and candidate in ancestors_of(other)
                for other in common
            )
        ]
        return lowest

    def lca(self, first: StateKey, second: StateKey) -> StateKey:
        """The unique lowest common ancestor of two states (Lemma 8.4).

        Raises :class:`StateSpaceError` if uniqueness fails — which the
        paper proves cannot happen for spaces built by the CSS protocol
        (Example 8.2 shows it *can* for naive unions of client spaces).
        """
        lowest = self.lowest_common_ancestors(first, second)
        if len(lowest) != 1:
            raise StateSpaceError(
                f"states {format_opid_set(first)} and "
                f"{format_opid_set(second)} have {len(lowest)} lowest "
                "common ancestors"
            )
        return lowest[0]
