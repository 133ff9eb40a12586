"""The wire workloads: ``repro serve`` in its own process, clients in ours.

The server is launched exactly as deployed (``python -m repro serve``,
observability on, default settings; ``--wal-dir`` on ``solo-disk``), or
through :mod:`perfbench.traced_server` for a traced run.  The clients are
public :class:`~repro.net.client.NetClient` objects driven by one asyncio
loop.  Counts come from the server's admin ``metrics``/``signature``
replies and from ``/proc/<pid>``.

A session that dies is not reconnected: its unacknowledged and unsent
operations are counted as failed.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from perfbench import procfs
from perfbench.schedule import WRITERS, initial_text, keystrokes, open_schedule
from perfbench.spans import hook

#: solo-disk: most operations a writer keeps unacknowledged.
WINDOW = 10
#: solo-disk: closed-loop seconds before timing starts; its ~700 ops
#: cross the GC threshold and the compaction interval (both 64 serials)
#: about ten times.
WARMUP_S = 2.0
#: open loop: it sleeps until this long before an op is due,
#: then yields to the loop until it is due.  A timer alone wakes up to a
#: millisecond late (epoll's resolution), which would count as latency.
SPIN_S = 0.001
#: seconds after the last send that late acks still count
DRAIN_S = 3.0
#: set-ups per run, half before the timed window and half after it: the
#: host's speed drifts over seconds, so the samples span the run.  Their
#: minimum is ``setup_s``: start-up has a floor (process launch and
#: imports, all CPU), and the fastest sample is the one the host slowed
#: least.
SETUPS = 10
#: seconds between samples of the server's resident set size
RSS_EVERY_S = 0.25
#: budget for one server launch or admin exchange
STEP_TIMEOUT = 20.0


@dataclass
class OpRecord:
    writer: str
    due: float  # when the op was due (open loop) or generated (closed loop)
    session: str = ""  # client id that sent it ("" = never sent)
    opid: Any = None


class Observer:
    """Notes when each client generates and applies operations.

    Hooks the public ``CssClient.generate``/``receive`` once per process
    (:func:`perfbench.spans.hook`); the cost is one clock read and one
    dict write per call.
    """

    def __init__(self) -> None:
        from repro.jupiter.css import CssClient

        self.reset()
        hook(CssClient, "generate", self._generated)
        hook(CssClient, "receive", self._received)

    def reset(self) -> None:
        self.last_generated: Dict[str, Any] = {}
        self.applied: Dict[Any, Dict[str, float]] = {}
        self.acked: Dict[Any, float] = {}
        #: set on every acknowledgement (wakes the closed loop)
        self.wake = asyncio.Event()

    def _generated(self, args, result) -> None:
        self.last_generated[args[0].replica_id] = result.operation.opid

    def _received(self, args, _result) -> None:
        now = time.perf_counter()
        client, payload = args
        opid = payload.operation.opid
        if payload.origin == client.replica_id:
            self.acked[opid] = now
            self.wake.set()
        else:
            self.applied.setdefault(opid, {})[client.replica_id] = now


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``repro serve`` child; always killed and reaped by :meth:`stop`."""

    def __init__(self, argv: List[str], env: Dict[str, str], stderr_path: str) -> None:
        self.argv, self.env, self.stderr_path = argv, env, stderr_path
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port = 0

    @property
    def pid(self) -> int:
        return self.proc.pid

    async def start(self) -> None:
        with open(self.stderr_path, "ab") as stderr:
            self.proc = await asyncio.create_subprocess_exec(
                *self.argv,
                stdout=asyncio.subprocess.PIPE,
                stderr=stderr,
                env=self.env,
            )
        procfs.CHILDREN.add(self.proc.pid)
        while True:
            line = await asyncio.wait_for(self.proc.stdout.readline(), STEP_TIMEOUT)
            if not line:
                raise RuntimeError(f"server exited before announcing: see {self.stderr_path}")
            if line.startswith(b"REPRO-SERVE "):
                import json

                self.port = int(json.loads(line[len(b"REPRO-SERVE "):])["port"])
                return

    async def admin(self, command: str) -> Dict[str, Any]:
        """One admin command on one short-lived connection."""
        from repro.net.codec import encode_envelope
        from repro.net.transport import read_frame, write_frame

        reader, writer = await asyncio.wait_for(
            asyncio.open_connection("127.0.0.1", self.port), STEP_TIMEOUT
        )
        try:
            await write_frame(writer, encode_envelope("admin", cmd=command))
            reply = await asyncio.wait_for(read_frame(reader), STEP_TIMEOUT)
        finally:
            writer.close()
        if reply is None or reply.get("type") != "admin_reply" or "error" in reply:
            raise RuntimeError(f"admin {command!r}: bad reply {reply!r}")
        return reply

    async def stop(self, graceful: bool) -> None:
        """Shut down (``graceful``: ask over the admin plane first, so a
        traced server writes its spans), then kill whatever is left."""
        if self.proc is None:
            return
        try:
            if graceful and self.proc.returncode is None:
                try:
                    await self.admin("shutdown")
                    await asyncio.wait_for(self.proc.wait(), STEP_TIMEOUT)
                except (OSError, RuntimeError, asyncio.TimeoutError):
                    pass
        finally:
            if self.proc.returncode is None:
                self.proc.kill()
            await self.proc.wait()
            procfs.CHILDREN.discard(self.proc.pid)


def server_argv(workload: str, seed: int, out_dir: str, traced: bool, spans_path: str) -> List[str]:
    serve = ["serve", "--port", "0", "--announce", "--quiet", "--initial", initial_text(workload, seed)]
    if workload == "solo-disk":
        wal_dir = os.path.join(out_dir, "wal")
        shutil.rmtree(wal_dir, ignore_errors=True)
        serve += ["--wal-dir", wal_dir]
    if traced:
        launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_server.py")
        return [sys.executable, launcher, "--spans-out", spans_path, "--", *serve]
    return [sys.executable, "-m", "repro", *serve]


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
class Writer:
    """One user: an editor cursor and the session of the current episode."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.cursor = 0
        self.client: Any = None
        self._dead = False

    def open_session(self, client: Any) -> None:
        self.client, self._dead = client, False

    def alive(self) -> bool:
        """True while the current session's read loop runs.

        ``NetClient`` exposes no liveness flag (``connected`` stays true
        after the peer hangs up), so this reads its reader task, the same
        probe ``NetClient.wait_converged`` uses."""
        task = self.client._reader_task if self.client is not None else None
        return task is not None and not task.done()

    def session_died(self) -> Optional[str]:
        """The cause, once, when the current session's read loop has ended:
        the server closed the session, or the client raised on a frame."""
        if self._dead or self.client is None or self.alive():
            return None
        self._dead = True
        task = self.client._reader_task
        if not task.cancelled() and task.exception() is not None:
            return type(task.exception()).__name__
        return "closed"


class WireRun:
    """One wire run: set-up, a timed window split into episodes, checks.

    An episode is one server process with one session per writer.  When a
    session dies the episode ends: the server is killed, a fresh one (empty
    document) is launched, and every writer opens a new session under a new
    client id.  Nothing is retransmitted: ops unacknowledged at the death,
    and ops due while no episode is up, count as failed.
    """

    def __init__(
        self, workload: str, seed: int, seconds: float, out_dir: str, src_dir: str,
        traced: bool, observer: Observer,
    ) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.out_dir, self.traced, self.observer = out_dir, traced, observer
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.writers = [Writer(name) for name in WRITERS[workload]]
        self.records: List[OpRecord] = []
        self.server: Optional[ServerProcess] = None
        self.launches = 0
        self.episodes = 0
        #: seconds of each timed set-up (see ``SETUPS``)
        self.setup_times: List[float] = []
        self.up = False
        self.broken = asyncio.Event()
        self.deaths: List[str] = []
        #: failed output checks, from every episode
        self.problems: List[str] = []
        self.lateness: List[float] = []
        self.spans_paths: List[str] = []
        #: server CPU seconds of the timed window, summed over episodes
        self.server_cpu = 0.0
        self._cpu_mark = 0.0
        self.rss_mb = 0.0
        self.rss_samples: List[float] = []
        #: what the servers of ended episodes counted: admin ``metrics``
        #: snapshots, serials and ``wchar`` bytes
        self.past_scrapes: List[Dict[str, Any]] = []
        self.past_serials = 0
        self.past_wchar = 0

    # -- episodes -----------------------------------------------------------
    async def _start_episode(self) -> float:
        """Launch a server and open every writer's session; returns the
        seconds that took."""
        from repro.net.client import NetClient

        started = time.perf_counter()
        self.launches += 1
        self.episodes += 1
        spans = os.path.join(self.out_dir, f"{self.workload}-server-spans-{self.launches}.json")
        if os.path.exists(spans):
            os.remove(spans)
        self.server = ServerProcess(
            server_argv(self.workload, self.seed, self.out_dir, self.traced, spans),
            self.env,
            os.path.join(self.out_dir, f"{self.workload}-server.log"),
        )
        await self.server.start()
        for writer in self.writers:
            # A fresh client id per launch: a new session, never a reconnect.
            client_id = f"{writer.name}.{self.launches}"
            writer.open_session(NetClient(client_id, port=self.server.port))
            await asyncio.wait_for(writer.client.connect(), STEP_TIMEOUT)
        if self.traced:
            self.spans_paths.append(spans)
        self._cpu_mark = procfs.cpu_seconds(self.server.pid)
        self.up = True
        return time.perf_counter() - started

    async def _end_episode(self, graceful: bool) -> None:
        self.up = False
        if self.server is not None and self.server.proc is not None:
            pid = self.server.pid
            self.server_cpu += _probe(lambda: procfs.cpu_seconds(pid) - self._cpu_mark) or 0.0
            self.rss_mb = max(self.rss_mb, _probe(lambda: procfs.status_kb(pid, "VmHWM") / 1024.0) or 0.0)
        for writer in self.writers:
            if writer.client is not None:
                await writer.client.drop()
        if self.server is not None:
            await self.server.stop(graceful)

    async def setup(self, count: int, keep: bool) -> List[float]:
        """Launch the server and connect every writer, ``count`` times;
        with ``keep`` the last launch stays up for the run.  Returns the
        times."""
        times = []
        for attempt in range(count):
            times.append(await self._start_episode())
            if not keep or attempt < count - 1:
                await self._end_episode(graceful=False)
        return times

    def _live(self) -> bool:
        """True when the writers can send now; notices session deaths."""
        if not self.up:
            return False
        for each in self.writers:
            cause = each.session_died()
            if cause is not None:
                self.deaths.append(cause)
                self.up = False
                self.broken.set()
        return self.up

    async def supervise(self, until: float) -> None:
        """Replace the episode whenever a session dies, until ``until``."""
        while True:
            try:
                await asyncio.wait_for(self.broken.wait(), until - time.perf_counter())
            except asyncio.TimeoutError:
                return
            self.broken.clear()
            await self._keep_counts()
            await self._end_episode(graceful=self.traced)
            if time.perf_counter() >= until:
                return
            await self._start_episode()

    async def _keep_counts(self) -> None:
        """Check and scrape an episode's server before it is replaced.  A
        session death leaves the process serving its admin plane; if the
        process itself died, its counts are lost and there is nothing to
        check the surviving sessions against."""
        pid = self.server.pid
        self.past_wchar += _probe(lambda: procfs.io_field(pid, "wchar")) or 0
        try:
            serial = await self._check()
            scrape = (await self.server.admin("metrics"))["snapshot"]
        except (OSError, RuntimeError, asyncio.TimeoutError):
            return
        self.past_scrapes.append(scrape)
        self.past_serials += serial

    async def _watch(self, until: float) -> None:
        """Notice deaths even while no writer is sending, and sample the
        server's resident set size every ``RSS_EVERY_S``."""
        next_sample = 0.0
        while time.perf_counter() < until:
            await asyncio.sleep(0.05)
            if not self.up:
                continue
            self._live()
            if time.perf_counter() >= next_sample:
                next_sample = time.perf_counter() + RSS_EVERY_S
                pid = self.server.pid
                rss = _probe(lambda: procfs.status_kb(pid, "VmRSS") / 1024.0)
                if rss is not None:
                    self.rss_samples.append(rss)

    # -- load -------------------------------------------------------------
    async def _send(self, writer: Writer, intent, record: OpRecord) -> None:
        from repro.scenarios.compile import resolve_intent

        client = writer.client
        spec, writer.cursor = resolve_intent(intent, writer.cursor, len(client.css.document))
        record.session = client.client_id
        await client.generate(spec)
        record.opid = self.observer.last_generated[client.client_id]

    async def closed_loop(self, writer: Writer, keys, stop_at: float) -> None:
        """Keep at most ``WINDOW`` ops of ``writer`` unacknowledged."""
        acked, wake = self.observer.acked, self.observer.wake
        mine: List[OpRecord] = []
        while time.perf_counter() < stop_at:
            if not self._live():
                await asyncio.sleep(0.01)
                continue
            session = writer.client.client_id
            recent = [r for r in mine[-WINDOW:] if r.session == session]
            if sum(r.opid not in acked for r in recent) >= WINDOW:
                wake.clear()
                try:
                    await asyncio.wait_for(wake.wait(), 0.05)
                except asyncio.TimeoutError:
                    pass
                continue
            record = OpRecord(writer.name, time.perf_counter())
            mine.append(record)
            self.records.append(record)
            await self._send(writer, next(keys), record)

    async def open_loop(self, writer: Writer, due: List[float], keys: List, start: float) -> None:
        """Send each key when due, whatever happened to earlier ones."""
        for offset, key in zip(due, keys):
            record = OpRecord(writer.name, start + offset)
            self.records.append(record)
            delay = record.due - time.perf_counter() - SPIN_S
            if delay > 0:
                await asyncio.sleep(delay)
            while time.perf_counter() < record.due:
                await asyncio.sleep(0)
            if not self._live():
                continue  # unsent: fails
            self.lateness.append(time.perf_counter() - record.due)
            await self._send(writer, key, record)

    def _settled(self) -> bool:
        """Every op of the current sessions acked, and applied at every
        other current session."""
        if not self._live():
            return True
        acked, applied = self.observer.acked, self.observer.applied
        live = {w.client.client_id for w in self.writers}
        for record in self.records:
            if record.session not in live:
                continue
            if record.opid not in acked:
                return False
            seen = applied.get(record.opid, {})
            if any(other not in seen for other in live if other != record.session):
                return False
        return True

    async def drain(self) -> None:
        deadline = time.perf_counter() + DRAIN_S
        while time.perf_counter() < deadline and not self._settled():
            await asyncio.sleep(0.01)

    # -- the run ----------------------------------------------------------
    async def run(self) -> Dict[str, Any]:
        try:
            result = await self._run()
        finally:
            await self._end_episode(graceful=self.traced)
        if not self.traced:
            self.setup_times += await self.setup(SETUPS // 2, keep=False)
        result["setup_s"] = min(self.setup_times)
        return result

    async def _run(self) -> Dict[str, Any]:
        self.setup_times = await self.setup(SETUPS - SETUPS // 2, keep=True)
        self.episodes = 1
        self.spans_paths = self.spans_paths[-1:]
        if self.workload == "solo-disk":
            writer = self.writers[0]
            keys = keystrokes(self.workload, self.seed, writer.name)
            await self.closed_loop(writer, keys, time.perf_counter() + WARMUP_S)
            warm = len(self.records)
            start = time.perf_counter()
            end = start + self.seconds
            load = [self.closed_loop(writer, keys, end)]
        else:
            sched = open_schedule(self.workload, self.seed, self.seconds)
            start = time.perf_counter() + 0.05
            end = start + self.seconds
            warm = 0
            load = [
                self.open_loop(writer, sched[writer.name]["due"], sched[writer.name]["keys"], start)
                for writer in self.writers if writer.name in sched
            ]
        self.server_cpu = 0.0
        self._cpu_mark = procfs.cpu_seconds(self.server.pid)
        own0 = time.process_time()
        await asyncio.gather(self.supervise(end), self._watch(end), *load)
        window = max(time.perf_counter(), end) - start
        own_cpu = time.process_time() - own0
        await self.drain()
        horizon = time.perf_counter() - start
        result = self._summarise(self.records[warm:], start, start + window, horizon)
        if self.up:
            self.server_cpu += procfs.cpu_seconds(self.server.pid) - self._cpu_mark
            self._cpu_mark = procfs.cpu_seconds(self.server.pid)
        pid = self.server.pid
        result.update(
            server_cpu_s=self.server_cpu,
            loadgen_cpu_s=own_cpu,
            wchar=self.past_wchar + (_probe(lambda: procfs.io_field(pid, "wchar")) or 0),
        )
        try:
            serial = await self._check()
            scrape = (await self.server.admin("metrics"))["snapshot"]
        except (OSError, RuntimeError, asyncio.TimeoutError) as exc:
            result["problems"].append(f"server unreachable after the run: {exc!r}")
            return result
        from repro.obs.registry import merge_snapshots

        result["scrape_last"] = scrape
        result["scrape"] = merge_snapshots([*self.past_scrapes, scrape])
        result["served"] = self.past_serials + serial
        return result

    async def _wait(self, done, seconds: float = DRAIN_S) -> bool:
        """Poll ``done()`` for up to ``seconds``; its last answer."""
        deadline = time.perf_counter() + seconds
        while not done() and time.perf_counter() < deadline:
            await asyncio.sleep(0.01)
        return done()

    async def _check(self) -> int:
        """Check the current episode's server; returns its serial.

        Nothing new is sent by now.  The surviving sessions settle (every
        op acknowledged), then the server's admin signature is read: each
        survivor must reach it, and the server must hold every op the
        episode's sessions saw acknowledged, dead ones included.  A
        survivor whose session dies meanwhile is a death (its
        unacknowledged ops fail), not a failed check.  Failures go to
        ``self.problems``.
        """
        live = [w for w in self.writers if w.alive()]
        await self._wait(lambda: all(not w.alive() or not w.client.css.pending_count for w in live))
        signature = await self.server.admin("signature")
        serial = int(signature["serial"])
        sessions = {w.client.client_id for w in self.writers}
        acked = sum(
            1 for r in self.records if r.session in sessions and r.opid in self.observer.acked
        )
        if serial < acked:
            self.problems.append(f"server serial {serial} < {acked} acked ops")
        for writer in live:
            client = writer.client

            def caught_up() -> bool:
                return client.delivered >= serial and not client.css.pending_count

            await self._wait(lambda: caught_up() or not writer.alive())
            cause = writer.session_died()
            if cause is not None:
                self.deaths.append(cause)
            elif not caught_up():
                self.problems.append(f"{client.client_id} did not catch up with the server")
            elif client.signature() != signature["signature"]:
                self.problems.append(f"{client.client_id} diverged from the server")
        return serial

    def _summarise(self, timed: List[OpRecord], start: float, end: float,
                   horizon: float) -> Dict[str, Any]:
        """Latencies in ms; a failed op is ``inf`` (ranked above all)."""
        acked_at, applied = self.observer.acked, self.observer.applied
        inf = float("inf")
        ack_ms, visible_ms, due_s, ack_s = [], [], [], []
        acked_in_window = 0
        for record in timed:
            ack = acked_at.get(record.opid)
            if ack is not None and ack <= end:
                acked_in_window += 1
            ack_ms.append((ack - record.due) * 1e3 if ack is not None else inf)
            due_s.append(record.due - start)
            ack_s.append(ack - start if ack is not None else inf)
            for other in self.writers:
                if other.name != record.writer:
                    seen = _seen_by(other, applied.get(record.opid, {}))
                    visible_ms.append((seen - record.due) * 1e3 if seen else inf)
        return {
            "workload": self.workload,
            "window_s": end - start,
            "horizon_ms": horizon * 1e3,
            "attempted": len(timed),
            "failed": sum(value == inf for value in ack_ms),
            "acked_in_window": acked_in_window,
            "ack_ms": ack_ms,
            "due_s": due_s,
            "ack_s": ack_s,
            "visible_ms": visible_ms,
            "late_ms": [value * 1e3 for value in self.lateness],
            "sessions_died": len(self.deaths),
            "death_causes": sorted(set(self.deaths)),
            "episodes": self.episodes,
            "state_transfers": sum(
                w.client.state_transfers for w in self.writers if w.client is not None
            ),
            "problems": self.problems,
            "scrape": None,
            "scrape_last": None,
            "served": 0,
            "spans_paths": self.spans_paths,
        }


def _seen_by(other: Writer, seen: Dict[str, float]) -> Optional[float]:
    """When ``other`` first applied an op, given ``seen`` (client id ->
    apply time); ``None`` if none of its sessions did."""
    times = [t for client_id, t in seen.items() if client_id.split(".")[0] == other.name]
    return min(times) if times else None


def _probe(read):
    """A ``/proc`` reading, or ``None`` when the process is gone."""
    try:
        return read()
    except (OSError, KeyError, ValueError):
        return None


def run_wire(workload: str, seed: int, seconds: float, out_dir: str, src_dir: str,
             traced: bool, observer: Observer) -> Dict[str, Any]:
    """One run in a fresh event loop, under a hard deadline.

    ``observer`` is the process's one :class:`Observer`; a traced run
    leaves its wrappers installed, so it must be the process's last run.
    """
    observer.reset()
    tracer = None
    if traced:
        from perfbench.layers import install_loadgen
        from perfbench.spans import Tracer

        tracer = Tracer()
        install_loadgen(tracer)
    run = WireRun(workload, seed, seconds, out_dir, src_dir, traced, observer)
    budget = 2 * SETUPS * STEP_TIMEOUT + WARMUP_S + seconds + DRAIN_S + 4 * STEP_TIMEOUT

    async def bounded():
        return await asyncio.wait_for(run.run(), budget)

    result = asyncio.run(bounded())
    result["rss_mb"] = run.rss_mb
    result["rss_samples_mb"] = run.rss_samples
    if tracer is not None:
        result["loadgen_trace"] = tracer.summary()
    return result
