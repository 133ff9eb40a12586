"""Deterministic workload inputs: a pure function of (workload, seed).

The program under test never sees the seed.  It receives only what these
functions return: per-writer keystroke streams (with due times on the
open-loop workloads) for the wire workloads, and simulator configurations
for ``sim-verify``.  Keystrokes follow the repository's editing-session
model (the scenario engine's :class:`~repro.scenarios.dsl.TypingBurst`
mix, the same one ``sim-verify`` simulates): mostly typing at the
cursor, some backspaces and cursor jumps.  Each is an
:class:`~repro.scenarios.compile.EditIntent` with a symbolic position,
resolved against the writer's live document by ``resolve_intent`` when
it is sent, so every operation is valid whatever the concurrent edits
did.
"""

from __future__ import annotations

import json
import random
import string
from typing import Any, Dict, Iterator, List

#: the sessions of each wire workload, and which of them type on an open
#: loop (the rest only read: a viewer applies every remote op)
WRITERS = {"solo-disk": ["w1"], "duo-typing": ["w1", "w2"], "typist-viewer": ["w1", "v1"]}
TYPISTS = {"duo-typing": ["w1", "w2"], "typist-viewer": ["w1"]}

#: characters of the document every wire episode starts from; typing
#: grows it from there
DOC_CHARS = 200

#: open loop: mean keystrokes per second per typist, and the shape of a
#: typing burst (keys per burst, seconds between keys inside a burst).
TYPING_RATE = 25.0
BURST_KEYS = (3, 9)
BURST_GAP = 0.02

#: sim-verify sizes.  One invocation simulates ``SIM_LONG_RUNS`` long
#: runs of phase (a) (history grows, no GC) and ``SIM_VERIFY_RUNS`` short
#: executions of phase (b), each verified against the paper's specs; it
#: repeats the whole set, in rounds, until the time is spent.
SIM_CLIENTS = 4
SIM_LONG_OPS = 480
SIM_LONG_RUNS = 8
SIM_VERIFY_OPS = 32
SIM_VERIFY_RUNS = 24


def _rng(workload: str, seed: int, part: str) -> random.Random:
    # String seeds hash through SHA-512: stable across processes and
    # Python versions, unlike ``hash()``.
    return random.Random(f"{workload}:{seed}:{part}")


def keystrokes(workload: str, seed: int, writer: str) -> Iterator[Any]:
    """Endless keystroke stream of one writer: ``EditIntent`` objects
    drawn by the scenario engine's typing model at its default mix."""
    # Imported here: the sim-verify set-up probe imports this module and
    # must not pay for the scenario engine it does not use.
    from repro.scenarios.compile import _typing_intent
    from repro.scenarios.dsl import TypingBurst

    mix = TypingBurst()
    rng = _rng(workload, seed, f"keys:{writer}")
    while True:
        yield _typing_intent(rng, mix.backspace_ratio, mix.jump_ratio)


def initial_text(workload: str, seed: int) -> str:
    """The document every episode's server starts with."""
    rng = _rng(workload, seed, "initial")
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(DOC_CHARS))


def due_times(workload: str, seed: int, writer: str, seconds: float) -> List[float]:
    """Open-loop send times: exactly ``TYPING_RATE * seconds`` keys in
    ``[0, seconds)``, in typing bursts of ``BURST_KEYS`` keys about
    ``BURST_GAP`` apart separated by exponential pauses.  The drawn timeline
    is stretched to span the window, so every seed offers the same load."""
    rng = _rng(workload, seed, f"due:{writer}")
    low, high = BURST_KEYS
    mean_keys = (low + high) / 2
    mean_pause = mean_keys / TYPING_RATE - (mean_keys - 1) * BURST_GAP
    count = int(round(TYPING_RATE * seconds))
    times: List[float] = []
    now = rng.uniform(0.0, mean_pause)
    while len(times) < count:
        for index in range(min(rng.randint(low, high), count - len(times))):
            if index:
                now += BURST_GAP
            times.append(now)
        now += rng.expovariate(1.0 / mean_pause)
    return [round(t * seconds / now, 6) for t in times]


def open_schedule(workload: str, seed: int, seconds: float) -> Dict:
    """An open-loop workload's inputs: each typist's due times and
    keystrokes."""
    out: Dict = {}
    for writer in TYPISTS[workload]:
        due = due_times(workload, seed, writer, seconds)
        stream = keystrokes(workload, seed, writer)
        out[writer] = {"due": due, "keys": [next(stream) for _ in due]}
    return out


def sim_schedule(seed: int) -> Dict:
    """sim-verify inputs: the long and the short simulator configurations."""
    rng = _rng("sim-verify", seed, "runs")

    def config(ops: int) -> Dict:
        return {
            "clients": SIM_CLIENTS,
            "operations": ops,
            "positions": "typing",
            "seed": rng.randrange(2**31),
        }

    return {
        "long": [config(SIM_LONG_OPS) for _ in range(SIM_LONG_RUNS)],
        "verify": [config(SIM_VERIFY_OPS) for _ in range(SIM_VERIFY_RUNS)],
    }


def schedule_bytes(workload: str, seed: int, seconds: float = 30.0, keys: int = 2000) -> bytes:
    """Canonical bytes of a workload's inputs (what the tests compare); the
    closed loop's endless streams are cut at ``keys`` keystrokes."""
    if workload == "sim-verify":
        return json.dumps(sim_schedule(seed), sort_keys=True).encode()
    if workload in TYPISTS:
        obj = {
            w: {"due": inputs["due"], "keys": [key.to_obj() for key in inputs["keys"]]}
            for w, inputs in open_schedule(workload, seed, seconds).items()
        }
    else:
        streams = {w: keystrokes(workload, seed, w) for w in WRITERS[workload]}
        obj = {w: [next(stream).to_obj() for _ in range(keys)] for w, stream in streams.items()}
    obj = {"initial": initial_text(workload, seed), "inputs": obj}
    return json.dumps(obj, sort_keys=True).encode()
