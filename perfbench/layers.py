"""Per-layer accounting for one traced cell.

The tracer wraps the public entry points of each layer -- class
attributes patched in the benchmark's own child process, before the
cell is built -- and keeps, per entry point, a call count and the
host seconds spent inside it.  Wrapped calls nest: a wrapper adds its
elapsed time to its caller's child time, so a layer's *self* time is
its time minus the time of the wrapped calls made under it, and the
self times of all entry points plus the drive loop's sum to the traced
cell's host time.

Some entry points are counted but not timed: their time stays in
their caller's self time.  Outcome hooks count useful results where a layer can do work for nothing, such as a
heartbeat answered with no directive.

Tracing never touches the simulation: no event, RNG draw or trace
record changes, which the benchmark checks by comparing the traced
cell's outcome with an untraced run of the same cell.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional

#: (layer key, module, class, method, timed, outcome hook name)
ENTRY_POINTS = (
    ("sim.step", "repro.sim.engine", "Simulation", "step", True, None),
    ("trace.record", "repro.sim.trace", "TraceLog", "record", True, None),
    ("tasktracker.build_report", "repro.hadoop.tasktracker", "TaskTracker",
     "build_report", True, "statuses"),
    ("jobtracker.heartbeat", "repro.hadoop.jobtracker", "JobTracker",
     "heartbeat", True, "actions"),
    ("hfsp.assign_tasks", "repro.schedulers.hfsp", "HfspScheduler",
     "assign_tasks", True, "non_empty"),
    ("osmodel.headroom", "repro.osmodel.kernel", "NodeKernel",
     "memory_headroom", True, None),
    ("osmodel.make_room", "repro.osmodel.vmm", "VirtualMemoryManager",
     "make_room", False, None),
    ("osmodel.fault_in", "repro.osmodel.vmm", "VirtualMemoryManager",
     "fault_in", False, None),
    ("resources.set_speed_factor", "repro.osmodel.resources", "RateResource",
     "set_speed_factor", True, None),
    ("resources.activate", "repro.osmodel.resources", "RateResource",
     "activate", True, None),
    ("resources.pause", "repro.osmodel.resources", "RateResource",
     "pause", True, None),
    ("netmodel.start_flow", "repro.netmodel.fabric", "Fabric",
     "start_flow", True, None),
    ("netmodel.pause_flow", "repro.netmodel.fabric", "Fabric",
     "pause_flow", True, None),
    ("netmodel.resume_flow", "repro.netmodel.fabric", "Fabric",
     "resume_flow", True, None),
    ("netmodel.cancel_flow", "repro.netmodel.fabric", "Fabric",
     "cancel_flow", True, None),
    ("preemption.preempt", "repro.preemption.kill", "KillPrimitive",
     "preempt", True, None),
    ("preemption.restore", "repro.preemption.kill", "KillPrimitive",
     "restore", True, None),
    ("preemption.preempt", "repro.preemption.suspend",
     "SuspendResumePrimitive", "preempt", True, None),
    ("preemption.restore", "repro.preemption.suspend",
     "SuspendResumePrimitive", "restore", True, None),
    ("preemption.preempt", "repro.preemption.wait", "WaitPrimitive",
     "preempt", True, None),
    ("preemption.restore", "repro.preemption.wait", "WaitPrimitive",
     "restore", True, None),
    ("admission.evaluate", "repro.preemption.admission",
     "SuspendAdmissionGate", "evaluate", True, "admitted"),
    ("workloads.generate", "repro.workloads.swim", "SwimGenerator",
     "generate_workload", True, None),
)


def _useful(hook: str, result) -> int:
    """How many useful outcomes one call's result carries."""
    if hook == "statuses":
        return len(result.attempts)
    if hook == "actions":
        return 1 if result.actions else 0
    if hook == "non_empty":
        return 1 if result else 0
    return 1 if result.admitted else 0  # "admitted"


class LayerStats:
    """Counters of one entry point (shared by every class it wraps)."""

    __slots__ = ("calls", "total_s", "self_s", "useful")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.useful = 0


class Tracer:
    """Installs the counting and timing wrappers."""

    def __init__(self):
        self.stats: Dict[str, LayerStats] = {}
        #: child-time accumulators of the wrapped calls now running
        self._stack: List[float] = []

    def install(self) -> None:
        import importlib

        for key, module, cls_name, method, timed, hook in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            stats = self.stats.setdefault(key, LayerStats())
            wrap = self._timed if timed else self._counted
            setattr(cls, method, wrap(original, stats, hook))

    def _timed(self, fn: Callable, stats: LayerStats,
               hook: Optional[str]) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                stats.useful += _useful(hook, result)
            return result

        return wrapper

    def _counted(self, fn: Callable, stats: LayerStats,
                 hook: Optional[str]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain per-entry-point counters, for the parent process."""
        return {
            key: {"calls": s.calls, "total_s": s.total_s,
                  "self_s": s.self_s, "useful": s.useful}
            for key, s in self.stats.items()
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(layers: Dict[str, Dict[str, float]], cell_s: float,
                  labels: Dict[str, int], events: int) -> Dict[str, float]:
    """The per-layer metrics of one traced cell.

    ``cell_s`` is the traced cell's host time; ``labels`` the engine's
    fired-event counts per label family.
    """
    def calls(key):
        return layers[key]["calls"]

    def self_s(*keys):
        return sum(layers[key]["self_s"] for key in keys)

    return {
        "sim.events": events,
        "sim.step.self_s": self_s("sim.step"),
        "sim.fired.tt.actions": labels.get("tt.actions", 0),
        "sim.fired.tt.heartbeat": labels.get("tt.heartbeat", 0),
        "trace.record.calls": calls("trace.record"),
        "trace.record.self_s": self_s("trace.record"),
        "tasktracker.build_report.calls": calls("tasktracker.build_report"),
        "tasktracker.build_report.self_s": self_s("tasktracker.build_report"),
        "tasktracker.statuses_per_report": _ratio(
            layers["tasktracker.build_report"]["useful"],
            calls("tasktracker.build_report"),
        ),
        "jobtracker.heartbeat.calls": calls("jobtracker.heartbeat"),
        "jobtracker.heartbeat.self_s": self_s("jobtracker.heartbeat"),
        "jobtracker.actionful_ratio": _ratio(
            layers["jobtracker.heartbeat"]["useful"],
            calls("jobtracker.heartbeat"),
        ),
        "hfsp.assign_tasks.calls": calls("hfsp.assign_tasks"),
        "hfsp.assign_tasks.self_s": self_s("hfsp.assign_tasks"),
        "hfsp.grant_ratio": _ratio(
            layers["hfsp.assign_tasks"]["useful"], calls("hfsp.assign_tasks")
        ),
        "osmodel.headroom.calls": calls("osmodel.headroom"),
        "osmodel.headroom.self_s": self_s("osmodel.headroom"),
        "osmodel.make_room.calls": calls("osmodel.make_room"),
        "osmodel.fault_in.calls": calls("osmodel.fault_in"),
        "resources.set_speed_factor.calls": calls(
            "resources.set_speed_factor"
        ),
        "resources.self_s": self_s(
            "resources.set_speed_factor", "resources.activate",
            "resources.pause",
        ),
        "netmodel.start_flow.calls": calls("netmodel.start_flow"),
        "netmodel.start_flow.self_s": self_s("netmodel.start_flow"),
        "netmodel.self_s": self_s(
            "netmodel.start_flow", "netmodel.pause_flow",
            "netmodel.resume_flow", "netmodel.cancel_flow",
        ),
        "preemption.preempt.calls": calls("preemption.preempt"),
        "preemption.restore.calls": calls("preemption.restore"),
        "preemption.self_s": self_s(
            "preemption.preempt", "preemption.restore", "admission.evaluate"
        ),
        "admission.evaluate.calls": calls("admission.evaluate"),
        "admission.admit_ratio": _ratio(
            layers["admission.evaluate"]["useful"], calls("admission.evaluate")
        ),
        "workloads.generate_s": layers["workloads.generate"]["total_s"],
        "drive.self_s": cell_s - layers["sim.step"]["total_s"],
    }
