"""What every result row records about the machine and the library build,
plus the process hygiene the benchmark owes its host."""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Any, Dict, List, Mapping

import numpy as np


def set_knobs(environ: Mapping[str, str]) -> List[str]:
    """Every ``REPRO_*`` variable set in *environ*.  The benchmark runs
    only on library defaults, so both sides of a comparison measure the
    same configuration; any set knob (faults included) refuses the run."""
    return sorted(name for name in environ if name.startswith("REPRO_"))


def calibration_s(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python plus numpy loop -- a drift
    diagnostic of the machine, recorded with every run and never used as
    a metric or to rescale one."""
    times = []
    vec = np.arange(4096, dtype=np.float64)
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        for _ in range(200):
            vec = np.sqrt(vec * vec + 1.0)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def record() -> Dict[str, Any]:
    """Kernel backend, pool mode, every declared knob's value, core count,
    interpreter/numpy versions and the calibration loop."""
    from repro.batch import jit, persistent_pool_enabled
    from repro.tools import knobs

    return {
        "kernel_backend": jit.backend_name(),
        "pool": "persistent" if persistent_pool_enabled() else "per-call",
        # no knob may be set (see set_knobs), so each runs at its default
        "knobs": {name: spec.default for name, spec in sorted(knobs.REGISTRY.items())},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "calibration_s": calibration_s(),
    }


def reset_runtime() -> None:
    """Stop the engine's worker pool, joining every worker, and release
    its shared memory, so the next set-up pays the pool spawn and publish
    a fresh process pays."""
    from repro.batch.runtime import get_runtime

    get_runtime().shutdown()


def stop_children() -> None:
    """:func:`reset_runtime`, then stop the shared-memory resource tracker
    multiprocessing started, waiting for it to exit."""
    reset_runtime()
    from multiprocessing import resource_tracker

    # private, but the only way to join the tracker before this process exits
    resource_tracker._resource_tracker._stop()


def _vm_hwm_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:  # the process exited meanwhile
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory so far of this process plus that of its
    largest live child (a pool worker), in MB, from ``VmHWM`` in
    ``/proc``.  Read right after the measured phase, before the checks
    build their reference indexes."""
    children: List[str] = []
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children", encoding="ascii") as handle:
            children.extend(handle.read().split())
    kids = max((_vm_hwm_kb(pid) for pid in children), default=0)
    return (_vm_hwm_kb("self") + kids) * 1024 / 1e6
