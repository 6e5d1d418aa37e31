"""Simulated Unix processes.

A process is the unit the paper's preemption primitive acts on: Hadoop
tasks "are regular Unix processes running in child JVMs spawned by the
TaskTracker ... they can safely be handled with the POSIX signaling
infrastructure".

State machine::

    RUNNING --SIGTSTP/SIGSTOP--> STOPPED --SIGCONT--> RUNNING
    RUNNING/STOPPED --SIGKILL/SIGTERM or plan completion--> DEAD

``SIGTSTP`` delivery runs the process's handler for the configured
latency before the stop takes effect (the handler closes network
connections etc.); ``SIGCONT`` arriving during that window cancels the
pending stop, exactly as a real shell job-control race would resolve.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.errors import ProcessStateError
from repro.osmodel.memory import MemoryImage
from repro.osmodel.signals import Signal, SignalDispositions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.osmodel.kernel import NodeKernel
    from repro.osmodel.work import WorkEngine


class ProcessState(enum.Enum):
    """Lifecycle states of a simulated process."""

    RUNNING = "running"
    STOPPED = "stopped"
    DEAD = "dead"


class ExitReason(enum.Enum):
    """Why a process left the RUNNING/STOPPED states."""

    EXITED = "exited"
    KILLED = "killed"
    TERMINATED = "terminated"
    OOM = "oom"


class OSProcess:
    """One simulated process on one node.

    Created via :meth:`repro.osmodel.kernel.NodeKernel.spawn`; driven
    by an attached :class:`~repro.osmodel.work.WorkEngine`.
    """

    def __init__(self, kernel: "NodeKernel", pid: int, name: str):
        self.kernel = kernel
        self.pid = pid
        self.name = name
        self.state = ProcessState.RUNNING
        self.image = MemoryImage()
        self.dispositions = SignalDispositions()
        self.engine: Optional["WorkEngine"] = None
        self.spawned_at = kernel.sim.now
        self.stopped_at: Optional[float] = None
        self.died_at: Optional[float] = None
        self.exit_reason: Optional[ExitReason] = None
        self.exit_callbacks: List[Callable[["OSProcess", ExitReason], None]] = []
        self.stop_callbacks: List[Callable[["OSProcess"], None]] = []
        self.resume_callbacks: List[Callable[["OSProcess"], None]] = []
        #: cumulative wall time spent in STOPPED
        self.stopped_seconds = 0.0
        self._pending_stop: Optional[Any] = None  # EventHandle during TSTP latency

    # -- queries ------------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True until the process dies."""
        return self.state is not ProcessState.DEAD

    @property
    def running(self) -> bool:
        """True while the process may consume CPU."""
        return self.state is ProcessState.RUNNING

    @property
    def stopped(self) -> bool:
        """True while the process is suspended by a stop signal."""
        return self.state is ProcessState.STOPPED

    def on_exit(self, callback: Callable[["OSProcess", ExitReason], None]) -> None:
        """Register a callback fired once when the process dies."""
        self.exit_callbacks.append(callback)

    def on_stop(self, callback: Callable[["OSProcess"], None]) -> None:
        """Register a callback fired each time the process stops."""
        self.stop_callbacks.append(callback)

    def on_resume(self, callback: Callable[["OSProcess"], None]) -> None:
        """Register a callback fired each time the process resumes."""
        self.resume_callbacks.append(callback)

    # -- signal handling (invoked by the kernel) ------------------------------

    def deliver(self, sig: Signal) -> None:
        """Deliver ``sig`` to this process.

        Use :meth:`repro.osmodel.kernel.NodeKernel.signal` rather than
        calling this directly, so kernel-wide accounting stays
        consistent.
        """
        if not self.alive:
            raise ProcessStateError(f"pid {self.pid} is dead; cannot signal")
        if sig is Signal.SIGKILL:
            self._die(ExitReason.KILLED)
        elif sig is Signal.SIGTERM:
            handler = self.dispositions.handler_for(sig)
            if handler is not None:
                handler(self)
            else:
                self._die(ExitReason.TERMINATED)
        elif sig is Signal.SIGSTOP:
            self._stop_now()
        elif sig is Signal.SIGTSTP:
            handler = self.dispositions.handler_for(sig)
            latency = 0.0
            if handler is not None:
                handler(self)
                latency = self.kernel.config.sigtstp_handler_latency
            self._schedule_stop(latency)
        elif sig is Signal.SIGCONT:
            self._continue()
        else:  # pragma: no cover - enum is closed
            raise ProcessStateError(f"unhandled signal {sig}")

    def _schedule_stop(self, latency: float) -> None:
        if self.state is ProcessState.STOPPED or self._pending_stop is not None:
            return
        if latency <= 0:
            self._stop_now()
            return
        self._pending_stop = self.kernel.sim.schedule(
            latency, self._stop_from_handler, label=f"proc.stop:{self.name}"
        )

    def _stop_from_handler(self) -> None:
        self._pending_stop = None
        if self.alive and self.state is ProcessState.RUNNING:
            self._stop_now()

    def _stop_now(self) -> None:
        if self.state is not ProcessState.RUNNING:
            return
        self.state = ProcessState.STOPPED
        self.stopped_at = self.kernel.sim.now
        if self.engine is not None:
            self.engine.pause()
        self.kernel.note_process_stopped(self)
        for callback in list(self.stop_callbacks):
            callback(self)

    def _continue(self) -> None:
        if self._pending_stop is not None:
            # SIGCONT raced the TSTP handler: the stop never lands.
            self._pending_stop.cancel()
            self._pending_stop = None
            return
        if self.state is not ProcessState.STOPPED:
            return
        assert self.stopped_at is not None
        self.stopped_seconds += self.kernel.sim.now - self.stopped_at
        self.state = ProcessState.RUNNING
        self.stopped_at = None
        self.kernel.note_process_resumed(self)
        if self.engine is not None:
            self.engine.resume()
        for callback in list(self.resume_callbacks):
            callback(self)

    # -- exit -----------------------------------------------------------------

    def exit_normally(self) -> None:
        """Called by the work engine when the plan completes."""
        self._die(ExitReason.EXITED)

    def die_oom(self) -> None:
        """Reaped by the OOM killer (see
        :meth:`repro.osmodel.kernel.NodeKernel.oom_kill`): like SIGKILL
        but recorded as :attr:`ExitReason.OOM` so the Hadoop layer can
        charge the loss to the right wasted-work cause."""
        self._die(ExitReason.OOM)

    def _die(self, reason: ExitReason) -> None:
        if not self.alive:
            return
        if self._pending_stop is not None:
            self._pending_stop.cancel()
            self._pending_stop = None
        if self.state is ProcessState.STOPPED and self.stopped_at is not None:
            self.stopped_seconds += self.kernel.sim.now - self.stopped_at
        self.state = ProcessState.DEAD
        self.kernel.note_process_died(self)
        self.died_at = self.kernel.sim.now
        self.exit_reason = reason
        if self.engine is not None:
            self.engine.abort()
        self.kernel.reap(self)
        for callback in list(self.exit_callbacks):
            callback(self, reason)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"OSProcess(pid={self.pid}, name={self.name!r}, "
            f"state={self.state.value})"
        )
