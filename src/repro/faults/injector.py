"""The fault injector: turns a :class:`~repro.faults.plan.FaultPlan`
into simulator events.

Every fault is delivered through the same interfaces real faults use:

* **node crash** kills the TaskTracker daemon silently -- no goodbye
  message -- so detection happens through the JobTracker's
  heartbeat-timeout monitor, and recovery through attempt requeueing
  and completed-map re-execution;
* **slow node** degrades the node's CPU and disk
  :class:`~repro.osmodel.resources.RateResource` objects, so running
  attempts genuinely slow down (and speculative execution sees real
  progress-rate divergence, not a scripted flag);
* **transient task failure** delivers SIGTERM to one victim process,
  which surfaces as a FAILED attempt in the next heartbeat and goes
  through the ``mapred.map.max.attempts`` retry path;
* **cache corruption** drops (a fraction of) a node's page cache --
  modelling latent sector errors under the cached input -- optionally
  killing the attempt that was reading it.

Victim selection for TASK_FAIL draws from the cluster's seeded
``faults`` RNG stream over a deterministically ordered candidate list,
so a plan injects the same faults on every same-seed run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.hadoop.attempt import AttemptRole, TaskAttempt
from repro.osmodel.signals import Signal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hadoop.cluster import HadoopCluster


@dataclass
class InjectionRecord:
    """What actually happened when one fault event fired."""

    at: float
    event: FaultEvent
    detail: str = ""


@dataclass
class InjectorStats:
    """Aggregate injection counters for reports and tests."""

    crashes: int = 0
    restarts: int = 0
    slowdowns: int = 0
    task_failures: int = 0
    corruptions: int = 0
    skipped: int = 0
    records: List[InjectionRecord] = field(default_factory=list)


class FaultInjector:
    """Schedules and executes a fault plan against one cluster."""

    RNG_STREAM = "faults"

    def __init__(self, cluster: "HadoopCluster", plan: FaultPlan):
        self.cluster = cluster
        self.plan = plan
        self.rng = cluster.sim.rng.stream(self.RNG_STREAM)
        self.stats = InjectorStats()
        self._installed = False
        #: per-host generation counter so a bounded slow-node fault's
        #: heal event cannot clobber a newer degradation of the host
        self._slow_generation: dict = {}

    # -- wiring ----------------------------------------------------------------

    def install(self) -> None:
        """Schedule every plan event on the cluster's sim clock."""
        if self._installed:
            return
        self._installed = True
        for event in self.plan.ordered():
            self.cluster.sim.schedule_at(
                event.at,
                self._fire,
                event,
                label=f"fault.{event.kind.value}",
            )

    def _fire(self, event: FaultEvent) -> None:
        self.cluster.trace("fault.inject", fault=event.describe())
        if event.kind is FaultKind.NODE_CRASH:
            self._crash(event)
        elif event.kind is FaultKind.SLOW_NODE:
            self._slow_node(event)
        elif event.kind is FaultKind.TASK_FAIL:
            self._fail_task(event)
        elif event.kind is FaultKind.CACHE_CORRUPTION:
            self._corrupt_cache(event)

    def _record(self, event: FaultEvent, detail: str) -> None:
        self.stats.records.append(
            InjectionRecord(at=self.cluster.sim.now, event=event, detail=detail)
        )

    # -- fault implementations ----------------------------------------------------

    def _crash(self, event: FaultEvent) -> None:
        tracker = self.cluster.trackers.get(event.host)
        if tracker is None or not tracker.started:
            self.stats.skipped += 1
            self._record(event, "skipped: tracker not running")
            return
        self.cluster.crash_tracker(event.host)
        self.stats.crashes += 1
        self._record(event, "crashed")
        if event.duration is not None:
            self.cluster.sim.schedule(
                event.duration,
                self._restart,
                event,
                label=f"fault.restart:{event.host}",
            )

    def _restart(self, event: FaultEvent) -> None:
        tracker = self.cluster.trackers.get(event.host)
        if tracker is None or tracker.started:
            self.stats.skipped += 1
            self._record(event, "restart skipped")
            return
        self.cluster.restart_tracker(event.host)
        self.stats.restarts += 1
        self._record(event, "restarted")

    def _slow_node(self, event: FaultEvent) -> None:
        kernel = self.cluster.kernels.get(event.host)
        if kernel is None:
            self.stats.skipped += 1
            self._record(event, "skipped: unknown host")
            return
        generation = self._slow_generation.get(event.host, 0) + 1
        self._slow_generation[event.host] = generation
        self._set_node_speed(kernel, event.factor)
        self.stats.slowdowns += 1
        self._record(event, f"degraded to x{event.factor:g}")
        if event.duration is not None:
            self.cluster.sim.schedule(
                event.duration,
                self._heal_node,
                event,
                generation,
                label=f"fault.heal:{event.host}",
            )

    def _heal_node(self, event: FaultEvent, generation: int) -> None:
        if self._slow_generation.get(event.host) != generation:
            # A newer slow-node fault superseded this one; its heal (if
            # any) owns the host now.
            self._record(event, "heal superseded")
            return
        kernel = self.cluster.kernels.get(event.host)
        if kernel is None:
            return
        self._set_node_speed(kernel, 1.0)
        self._record(event, "healed")

    @staticmethod
    def _set_node_speed(kernel, factor: float) -> None:
        # One virtual-rate update per device; in-flight claims keep
        # their completion order and only the armed crossing events
        # move (no fleet-wide reschedule).
        kernel.set_speed_factor(factor)

    def _fail_task(self, event: FaultEvent) -> None:
        victim = self._pick_victim(event)
        if victim is None:
            self.stats.skipped += 1
            self._record(event, "skipped: no victim attempt")
            return
        self.stats.task_failures += 1
        self._record(event, f"SIGTERM {victim.attempt_id}")
        # SIGTERM with the default disposition -> ExitReason.TERMINATED
        # -> AttemptState.FAILED -> the JobTracker's retry path.
        victim.kernel.signal(victim.pid, Signal.SIGTERM)

    def _corrupt_cache(self, event: FaultEvent) -> None:
        kernel = self.cluster.kernels.get(event.host)
        if kernel is None:
            self.stats.skipped += 1
            self._record(event, "skipped: unknown host")
            return
        vmm = kernel.vmm
        dropped = vmm.drop_cache(int(vmm.page_cache.size * event.fraction))
        self.stats.corruptions += 1
        detail = f"dropped {dropped} cached bytes"
        if event.fail_running:
            victim = self._pick_victim(
                FaultEvent(at=event.at, kind=FaultKind.TASK_FAIL,
                           host=event.host)
            )
            if victim is not None:
                detail += f"; SIGTERM {victim.attempt_id}"
                self.stats.task_failures += 1
                victim.kernel.signal(victim.pid, Signal.SIGTERM)
        self._record(event, detail)

    # -- victim selection -------------------------------------------------------------

    def _pick_victim(self, event: FaultEvent) -> Optional[TaskAttempt]:
        """One live, running work attempt matching the event's filters.

        Candidates are gathered in sorted attempt-id order and drawn
        from the seeded stream, so selection is deterministic.
        """
        job_id: Optional[str] = None
        if event.job_name is not None:
            for job in self.cluster.jobtracker.jobs.values():
                if job.spec.name == event.job_name:
                    job_id = job.job_id
            if job_id is None:
                return None
        candidates: List[TaskAttempt] = []
        for host in sorted(self.cluster.trackers):
            if event.host is not None and host != event.host:
                continue
            tracker = self.cluster.trackers[host]
            for attempt_id in sorted(tracker.attempts):
                attempt = tracker.attempts[attempt_id]
                if attempt.state.terminal or attempt.role is not AttemptRole.TASK:
                    continue
                if attempt.process is None or not attempt.process.running:
                    continue  # suspended images cannot hit a task error
                if job_id is not None and attempt.job_id != job_id:
                    continue
                candidates.append(attempt)
        if not candidates:
            return None
        return self.rng.choice(candidates)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"FaultInjector(events={len(self.plan)}, "
            f"crashes={self.stats.crashes}, fails={self.stats.task_failures})"
        )
