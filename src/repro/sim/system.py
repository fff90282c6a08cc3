"""The simulated distributed system: processes, programs, guards.

A *program* is a Python generator taking a :class:`ProcessContext` and
yielding commands::

    def server(ctx):
        yield ctx.compute(2.0)             # time passes, no event
        yield ctx.set(avail=False)         # local event
        yield ctx.send(1, {"op": "sync"})  # send event
        msg = yield ctx.receive()          # receive event (blocks)
        yield ctx.set(avail=True)

Every ``set``/``send``/``receive`` is one event of the underlying
computation and produces one new local state in the recorded deposet.
Before an event is applied, the system's :class:`TransitionGuard` is
consulted; a guard may defer the commit arbitrarily long -- the process
just appears slow.  This is the paper's transparent controller hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.sim.kernel import EventQueue
from repro.sim.network import Delivery, Network
from repro.sim.recorder import TraceRecorder
from repro.trace.deposet import Deposet

_SIM_RUNS = METRICS.counter("sim.runs")
_SIM_APP_MSGS = METRICS.counter("sim.app_messages")
_SIM_CTL_MSGS = METRICS.counter("sim.control_messages")
_SIM_DEADLOCKS = METRICS.counter("sim.deadlocks")
_SIM_CRASHED_RUNS = METRICS.counter("sim.crashed_runs")

__all__ = ["System", "ProcessContext", "TransitionGuard", "Observer", "RunResult"]


# -- commands -----------------------------------------------------------------


@dataclass(frozen=True)
class _Compute:
    duration: float


@dataclass(frozen=True)
class _SetVars:
    updates: Dict[str, Any]


@dataclass(frozen=True)
class _Send:
    dst: int
    payload: Any
    tag: Optional[str]
    updates: Dict[str, Any]


@dataclass(frozen=True)
class _Receive:
    tag: Optional[str]
    updates: Dict[str, Any]


@dataclass
class _AppMessage:
    payload: Any
    tag: Optional[str]
    src_ref: tuple  # sender's state before its send event
    uid: int = -1   # per-run unique message id (for observers)


class ProcessContext:
    """Handed to each program; builds commands and exposes identity/time."""

    def __init__(self, system: "System", proc: int, rng: np.random.Generator):
        self._system = system
        self.proc = proc
        self.rng = rng

    @property
    def now(self) -> float:
        return self._system.queue.now

    @property
    def n(self) -> int:
        return self._system.n

    def vars(self) -> Dict[str, Any]:
        """The process's current variable assignment (copy)."""
        return dict(self._system.recorder.current_vars(self.proc))

    def compute(self, duration: float) -> _Compute:
        """Let simulated time pass (no event, no new state)."""
        return _Compute(float(duration))

    def set(self, **updates: Any) -> _SetVars:
        """A local event updating variables."""
        return _SetVars(updates)

    def send(
        self, dst: int, payload: Any = None, tag: Optional[str] = None, **updates: Any
    ) -> _Send:
        """A send event; variable updates apply to the sender's new state."""
        return _Send(dst, payload, tag, updates)

    def receive(self, tag: Optional[str] = None, **updates: Any) -> _Receive:
        """Block until a message (optionally matching ``tag``) arrives.

        Yields the message payload.  Variable updates apply to the
        receiver's new state.
        """
        return _Receive(tag, updates)


class Observer:
    """Passive run observer: notified *after* every committed transition.

    Unlike a :class:`TransitionGuard` (which gates transitions and of which
    a system has exactly one), any number of observers may watch a run --
    the attachment point for on-line *detection* (e.g.
    :class:`repro.detection.online.ViolationMonitor`, which reads the
    causality the recorder has already stored in ``system.recorder.store``).

    ``kind`` is ``"local"``, ``"send"`` or ``"receive"``; for the message
    kinds ``msg_uid`` identifies the message (the same uid is seen by the
    sender's and the receiver's notifications), letting observers that
    keep their own clocks carry them across messages.
    """

    system: "System"

    def attach(self, system: "System") -> None:
        self.system = system

    def on_event(
        self,
        proc: int,
        index: int,
        vars: Dict[str, Any],
        kind: str,
        msg_uid: Optional[int] = None,
    ) -> None:  # pragma: no cover - default no-op
        pass

    def on_control(
        self, src_proc: int, dst_proc: int, src_state: int
    ) -> None:  # pragma: no cover - default no-op
        """A control message sent while ``src_proc`` was *in* state
        ``src_state`` reached ``dst_proc``'s controller; the induced
        causality is *enter(src_state) before dst's next entered state*."""

    def on_run_end(self) -> None:  # pragma: no cover - default no-op
        pass


class TransitionGuard:
    """Hook consulted before every state transition.

    The default implementation commits immediately.  On-line controllers
    override :meth:`request_transition` and may hold on to ``commit`` --
    the process blocks until it is invoked (exactly once).
    """

    system: "System"

    def attach(self, system: "System") -> None:
        self.system = system

    def request_transition(
        self,
        proc: int,
        updates: Dict[str, Any],
        next_vars: Dict[str, Any],
        commit: Callable[[], None],
    ) -> None:
        commit()


@dataclass
class RunResult:
    """Outcome of :meth:`System.run`."""

    deposet: Deposet
    duration: float
    events: int
    app_messages: int
    control_messages: int
    deadlocked: bool
    blocked: Dict[int, str] = field(default_factory=dict)
    #: processes that crashed (fail-stop), with their crash sim times
    crashed: Dict[int, float] = field(default_factory=dict)
    #: injected-fault counts for this run (empty without a fault plan)
    faults: Dict[str, int] = field(default_factory=dict)


class _ProcState:
    __slots__ = (
        "gen", "inbox", "waiting_recv", "blocked_guard", "finished", "crashed",
    )

    def __init__(self, gen: Generator):
        self.gen = gen
        self.inbox: List[_AppMessage] = []
        self.waiting_recv: Optional[_Receive] = None
        self.blocked_guard = False
        self.finished = False
        self.crashed = False


class System:
    """Builds and runs one simulated computation.

    Parameters
    ----------
    programs:
        One generator function per process; called with a
        :class:`ProcessContext`.
    start_vars:
        Initial variable assignment per process.
    mean_delay / jitter:
        Channel delay model (the paper's ``T``).
    guard:
        Transition guard (on-line controller attachment point).
    seed:
        Master seed; per-process program RNGs and the network RNG are
        derived from it, so runs are reproducible.
    observers:
        Passive :class:`Observer` instances notified of every committed
        transition (on-line detection hook).
    fifo:
        Per-channel FIFO delivery (the paper's default model does not
        require it; the protocols here do not either).
    faults:
        A :class:`~repro.faults.plan.FaultPlan` (or a ready-made
        :class:`~repro.faults.injector.FaultInjector`): lossy channels,
        crashes, stalls, partitions.  ``None`` keeps the paper's fault-free
        model.
    """

    def __init__(
        self,
        programs: List[Callable[[ProcessContext], Generator]],
        start_vars: Optional[List[Dict[str, Any]]] = None,
        mean_delay: float = 1.0,
        jitter: float = 0.0,
        guard: Optional[TransitionGuard] = None,
        seed: int = 0,
        proc_names: Optional[List[str]] = None,
        observers: Optional[List[Observer]] = None,
        fifo: bool = False,
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
    ):
        self.n = len(programs)
        if self.n == 0:
            raise SimulationError("need at least one process")
        if start_vars is None:
            start_vars = [{} for _ in range(self.n)]
        if len(start_vars) != self.n:
            raise SimulationError(
                f"{len(start_vars)} start assignments for {self.n} processes"
            )
        self.queue = EventQueue()
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults)
        self.faults = faults
        root = np.random.default_rng(seed)
        self.network = Network(
            self.queue, mean_delay=mean_delay, jitter=jitter,
            rng=np.random.default_rng(root.integers(2**63)),
            fifo=fifo,
            faults=faults,
        )
        self.recorder = TraceRecorder(self.n, [dict(v) for v in start_vars])
        self.crashed: Dict[int, float] = {}
        self._stalled_until: Dict[int, float] = {}
        self.guard = guard if guard is not None else TransitionGuard()
        self.guard.attach(self)
        self.observers: List[Observer] = list(observers or [])
        for obs in self.observers:
            obs.attach(self)
        self._msg_uid = 0
        self._delivered_uids: Set[int] = set()
        self.proc_names = proc_names
        self._procs: List[_ProcState] = []
        self._contexts: List[ProcessContext] = []
        for i, program in enumerate(programs):
            ctx = ProcessContext(self, i, np.random.default_rng(root.integers(2**63)))
            self._contexts.append(ctx)
            self._procs.append(_ProcState(program(ctx)))
        if self.faults is not None:
            self.faults.attach(self)

    # -- driving one process ---------------------------------------------------

    def _start(self) -> None:
        for i in range(self.n):
            self.queue.schedule(0.0, lambda i=i: self._advance(i, None))

    def _advance(self, proc: int, value: Any) -> None:
        """Resume the program with ``value`` and dispatch its next command."""
        ps = self._procs[proc]
        if ps.crashed:
            return
        resume_at = self._stalled_until.get(proc)
        if resume_at is not None and resume_at > self.queue.now:
            self.queue.schedule(
                resume_at - self.queue.now, lambda: self._advance(proc, value)
            )
            return
        try:
            command = ps.gen.send(value)
        except StopIteration:
            ps.finished = True
            self.guard_on_finish(proc)
            return
        self._dispatch(proc, command)

    def guard_on_finish(self, proc: int) -> None:
        hook = getattr(self.guard, "on_process_finished", None)
        if hook is not None:
            hook(proc)

    # -- injected process faults -------------------------------------------------

    def is_crashed(self, proc: int) -> bool:
        return self._procs[proc].crashed

    def is_finished(self, proc: int) -> bool:
        return self._procs[proc].finished

    def is_stalled(self, proc: int) -> bool:
        return self._stalled_until.get(proc, 0.0) > self.queue.now

    def fault_crash(self, proc: int) -> None:
        """Fail-stop ``proc`` now: no further events, its in-flight and
        queued messages are lost, the controller is notified."""
        ps = self._procs[proc]
        if ps.crashed or ps.finished:
            return
        ps.crashed = True
        self.crashed[proc] = self.queue.now
        ps.gen.close()
        ps.inbox.clear()
        ps.waiting_recv = None
        hook = getattr(self.guard, "on_process_crashed", None)
        if hook is not None:
            hook(proc)

    def fault_stall(self, proc: int, until: float) -> None:
        """Pause ``proc`` until sim time ``until``; messages queue up and
        every deferred step resumes afterwards."""
        if self._procs[proc].crashed:
            return
        current = self._stalled_until.get(proc, 0.0)
        if until <= current:
            return
        self._stalled_until[proc] = until
        self.queue.schedule(until - self.queue.now, lambda: self._wake(proc))

    def _wake(self, proc: int) -> None:
        ps = self._procs[proc]
        if ps.crashed or self.is_stalled(proc):
            return
        self._try_deliver(proc)

    def _notify(self, proc: int, kind: str, msg_uid: Optional[int] = None) -> None:
        index = self.recorder.current_state(proc)
        vars = self.recorder.current_vars(proc)
        if TRACER.enabled:
            TRACER.event(
                "sim.event", proc=proc, kind=kind, index=index,
                sim_time=self.queue.now,
            )
        for obs in self.observers:
            obs.on_event(proc, index, vars, kind, msg_uid)

    def _dispatch(self, proc: int, command: Any) -> None:
        ps = self._procs[proc]
        if isinstance(command, _Compute):
            self.queue.schedule(command.duration, lambda: self._advance(proc, None))
        elif isinstance(command, _SetVars):
            self._guarded_event(
                proc, command.updates, lambda: self._advance(proc, None),
                after_commit=lambda: self._notify(proc, "local"),
            )
        elif isinstance(command, _Send):
            self._do_send(proc, command)
        elif isinstance(command, _Receive):
            ps.waiting_recv = command
            self._try_deliver(proc)
        else:
            raise SimulationError(
                f"process {proc} yielded {command!r}; commands come from the "
                f"ProcessContext methods"
            )

    def _guarded_event(
        self, proc: int, updates: Dict[str, Any], resume: Callable[[], None],
        after_commit: Optional[Callable[[], None]] = None,
        received: Optional[Tuple[Tuple[int, int], Any, Optional[str]]] = None,
    ) -> None:
        """Route a state transition through the guard.

        ``received`` carries the incoming message of a receive event
        ``(src_ref, payload, tag)`` so the recorder appends the message
        arrow together with the state (O(n) index extension).
        """
        ps = self._procs[proc]
        next_vars = dict(self.recorder.current_vars(proc))
        next_vars.update(updates)
        committed = [False]

        def commit() -> None:
            if committed[0]:
                raise SimulationError(f"transition of process {proc} committed twice")
            if ps.crashed:
                return  # released after the crash: the step never happens
            resume_at = self._stalled_until.get(proc)
            if resume_at is not None and resume_at > self.queue.now:
                self.queue.schedule(resume_at - self.queue.now, commit)
                return
            committed[0] = True
            ps.blocked_guard = False
            self.recorder.record_event(proc, updates, self.queue.now, received=received)
            if after_commit is not None:
                after_commit()
            self.queue.schedule(0.0, resume)

        ps.blocked_guard = True
        self.guard.request_transition(proc, dict(updates), next_vars, commit)

    def _do_send(self, proc: int, command: _Send) -> None:
        if not (0 <= command.dst < self.n):
            raise SimulationError(f"process {proc} sending to unknown process {command.dst}")
        src_ref = (proc, self.recorder.current_state(proc))
        uid = self._msg_uid
        self._msg_uid += 1

        def after_commit() -> None:
            msg = _AppMessage(command.payload, command.tag, src_ref, uid)
            self.network.send(
                proc, command.dst, msg, self._on_app_delivery, tag=command.tag,
            )
            self._notify(proc, "send", uid)

        self._guarded_event(
            proc, command.updates, lambda: self._advance(proc, None),
            after_commit=after_commit,
        )

    # -- message plumbing --------------------------------------------------------

    def _on_app_delivery(self, delivery: Delivery) -> None:
        if self._procs[delivery.dst].crashed:
            if self.faults is not None:
                self.faults.note_delivery_to_crashed(
                    delivery.src, delivery.dst, False, self.queue.now
                )
            return
        msg: _AppMessage = delivery.payload
        if msg.uid in self._delivered_uids:
            return  # an injected duplicate: one send, one receive (D3)
        self._delivered_uids.add(msg.uid)
        self._procs[delivery.dst].inbox.append(msg)
        self._try_deliver(delivery.dst)

    def _try_deliver(self, proc: int) -> None:
        ps = self._procs[proc]
        if ps.crashed or self.is_stalled(proc):
            return
        recv = ps.waiting_recv
        if recv is None or ps.blocked_guard:
            return
        for idx, msg in enumerate(ps.inbox):
            if recv.tag is None or msg.tag == recv.tag:
                ps.inbox.pop(idx)
                ps.waiting_recv = None

                def resume(m=msg) -> None:
                    self._advance(proc, m.payload)

                def after_commit(m=msg) -> None:
                    self._notify(proc, "receive", m.uid)

                self._guarded_event(
                    proc, recv.updates, resume, after_commit,
                    received=(msg.src_ref, msg.payload, msg.tag),
                )
                return

    # -- control-plane helpers (used by controllers/guards) -------------------------

    def control_arrow(
        self,
        src: int,
        dst: int,
        src_state: int,
        mode: str = "entered",
        tag: Optional[str] = None,
    ) -> None:
        """Record the control arrow a delivered control message induces and
        notify observers (shared by :meth:`send_control` and the reliable
        control channel, which must record each logical message once even
        when the transport retransmits it)."""
        self.recorder.control_delivered(src, dst, src_state, mode=mode, tag=tag)
        for obs in self.observers:
            obs.on_control(src, dst, src_state)

    def send_control(
        self,
        src: int,
        dst: int,
        payload: Any,
        deliver: Callable[[Delivery], None],
        tag: Optional[str] = None,
        record_mode: str = "entered",
    ) -> None:
        """Ship a control message and record its induced control arrow.

        Deliveries to a crashed process are dropped: the controller is
        co-located with its process, so fail-stop takes both down.
        """
        src_state = self.recorder.current_state(src)
        sent_ev = None
        if TRACER.enabled:
            sent_ev = TRACER.event(
                "ctl.send", proc=src, dst=dst, tag=tag,
                src_state=src_state, sim_time=self.queue.now,
                flow=f"ctl-{self.network.control_messages_sent}",
            )

        def on_arrival(delivery: Delivery) -> None:
            if self._procs[dst].crashed:
                if self.faults is not None:
                    self.faults.note_delivery_to_crashed(
                        src, dst, True, self.queue.now
                    )
                return
            if TRACER.enabled and sent_ev is not None:
                TRACER.event(
                    "ctl.deliver", proc=dst, cause=sent_ev, src=src, tag=tag,
                    src_state=src_state, sim_time=self.queue.now,
                    flow=sent_ev.fields["flow"],
                )
            self.control_arrow(src, dst, src_state, mode=record_mode, tag=tag)
            deliver(delivery)

        self.network.send(src, dst, payload, on_arrival, tag=tag, control=True)

    # -- running ------------------------------------------------------------------

    def run(self, max_events: int = 5_000_000, until: Optional[float] = None) -> RunResult:
        """Execute to completion (or deadlock / bounds)."""
        with TRACER.span("system.run", n=self.n):
            self._start()
            self.queue.run(max_events=max_events, until=until)
        for obs in self.observers:
            obs.on_run_end()
        blocked: Dict[int, str] = {}
        for i, ps in enumerate(self._procs):
            if ps.finished or ps.crashed:
                continue
            if ps.blocked_guard:
                blocked[i] = "blocked by controller"
            elif ps.waiting_recv is not None:
                blocked[i] = "waiting for a message"
            else:
                blocked[i] = "not scheduled"
        deadlocked = bool(blocked) and len(self.queue) == 0
        _SIM_RUNS.inc()
        _SIM_APP_MSGS.inc(self.network.app_messages_sent)
        _SIM_CTL_MSGS.inc(self.network.control_messages_sent)
        if deadlocked:
            _SIM_DEADLOCKS.inc()
        if self.crashed:
            _SIM_CRASHED_RUNS.inc()
        return RunResult(
            deposet=self.recorder.build(self.proc_names),
            duration=self.queue.now,
            events=self.queue.events_processed,
            app_messages=self.network.app_messages_sent,
            control_messages=self.network.control_messages_sent,
            deadlocked=deadlocked,
            blocked=blocked,
            crashed=dict(self.crashed),
            faults=self.faults.summary() if self.faults is not None else {},
        )
