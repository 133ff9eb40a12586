"""The ``sim-verify`` workload: the protocol core with zero I/O.

Phase (a) replays long simulated 4-client CSS runs (no GC, history
grows) through :class:`~repro.sim.runner.SimulationRunner`.  Phase (b)
checks short simulated executions against the paper's specifications:
``abstract_from_execution`` → ``check_convergence`` +
``check_weak_list``.  A round runs every long configuration of the seed
once and verifies every short execution once; rounds repeat until the
measuring time is spent.  Each configuration's time is the best of its
rounds: the program's work is the same in every round, and a shared host
only ever adds time to it.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from perfbench import procfs
from perfbench.schedule import sim_schedule

#: set-ups per run, half before the timed window and half after it (see
#: :data:`perfbench.wire.SETUPS`); their minimum is ``setup_s``
SETUPS = 10
#: simulated network: uniform one-way latency (seconds of simulated time)
LATENCY = (0.01, 0.4)


def _simulate(config: Dict[str, Any]):
    from repro.sim import SimulationRunner, UniformLatency, WorkloadConfig

    latency = UniformLatency(*LATENCY, seed=config["seed"])
    return SimulationRunner("css", WorkloadConfig(**config), latency).run()


def measure_setup(root: str, src_dir: str, seed: int, count: int) -> List[float]:
    """Wall times of ``count`` fresh processes, each importing the layers
    and generating the schedule (``python -m perfbench.simverify SEED``)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, root]))
    times = []
    for _ in range(count):
        started = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "perfbench.simverify", str(seed)],
                                 env=env, cwd=root)
        procfs.CHILDREN.add(child.pid)
        try:
            # A blocking wait: ``wait(timeout=...)`` polls in steps of up
            # to 50 ms, which would quantise the time.  The run's
            # watchdog bounds a hang.
            code = child.wait()
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            procfs.CHILDREN.discard(child.pid)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        times.append(time.perf_counter() - started)
    return times


def run_sim(seed: int, seconds: float, tracer: Optional[Any] = None) -> Dict[str, Any]:
    from repro.model import abstract as model_abstract
    from repro.specs import convergence, weak_list

    abstract_from_execution = model_abstract.abstract_from_execution
    check_convergence = convergence.check_convergence
    check_weak_list = weak_list.check_weak_list
    if tracer is not None:
        from perfbench.layers import install_sim

        install_sim(tracer)
        abstract_from_execution = tracer.wrap("model.abstract", abstract_from_execution)
        check_convergence = tracer.wrap("specs.convergence", check_convergence)
        check_weak_list = tracer.wrap("specs.weak_list", check_weak_list)

    sched = sim_schedule(seed)
    # Phase (b) checks the same executions every round; they are
    # simulated once, outside the clock.
    executions = [_simulate(config).execution for config in sched["verify"]]
    gc.collect()
    attempted = failed = rounds = 0
    long_best = [float("inf")] * len(sched["long"])
    verdict_best = [float("inf")] * len(executions)
    verdict_s: List[float] = []
    long_s = 0.0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        rounds += 1
        for index, config in enumerate(sched["long"]):
            began = time.perf_counter()
            result = _simulate(config)
            took = time.perf_counter() - began
            long_best[index] = min(long_best[index], took)
            long_s += took
            attempted += 1
            failed += not result.converged
            # The long run's history is garbage now; collect it outside
            # the clock.
            del result
            gc.collect()
        for index, execution in enumerate(executions):
            began = time.perf_counter()
            abstract = abstract_from_execution(execution)
            passed = check_convergence(abstract).ok and check_weak_list(abstract).ok
            took = time.perf_counter() - began
            verdict_best[index] = min(verdict_best[index], took)
            verdict_s.append(took)
            attempted += 1
            failed += not passed
    long_ops = [config["operations"] for config in sched["long"]]
    return {
        "workload": "sim-verify",
        "attempted": attempted,
        "failed": failed,
        "sim_ops": rounds * sum(long_ops),
        "sim_ops_all": rounds * sum(long_ops)
        + sum(config["operations"] for config in sched["verify"]),
        "sim_s": long_s,
        "long_best": list(zip(long_ops, long_best)),
        "verdict_s": verdict_s,
        "verdict_best": verdict_best,
        "rss_mb": procfs.status_kb(os.getpid(), "VmHWM") / 1024.0,
        "problems": [f"{failed} of {attempted} executions failed a check"] if failed else [],
        "trace": tracer.summary() if tracer is not None else None,
    }


if __name__ == "__main__":
    # Set-up probe: the imports the workload needs, plus its schedule.
    import repro.model.abstract  # noqa: F401
    import repro.sim  # noqa: F401
    import repro.specs  # noqa: F401

    sim_schedule(int(sys.argv[1]))
