"""Exception hierarchy for the predicate-control library.

Every error raised on purpose by :mod:`repro` derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while still distinguishing the interesting cases:

* :class:`MalformedTraceError` -- a deposet violates the model constraints
  (D1--D3 of the paper, or causality contains a cycle).
* :class:`NoControllerExistsError` -- the predicate-control algorithm proved
  the predicate infeasible for the given computation (Lemma 2 of the paper:
  an overlapping set of false-intervals exists).
* :class:`InterferenceError` -- a proposed control relation interferes with
  the computation's causality (would create a cycle in the extended
  happened-before relation), so no valid controlled deposet exists for it.
* :class:`ReplayDeadlockError` -- a controlled replay could not make
  progress; operationally this is how interference manifests at run time.
* :class:`SimulationError` -- the discrete-event substrate was driven into
  an invalid configuration (e.g. a message to an unknown process).
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "MalformedTraceError",
    "TruncatedStreamError",
    "SourceLostError",
    "UnknownTraceFormatError",
    "UnknownFreezeFormatError",
    "StorageError",
    "StorageCorruptError",
    "UnknownBranchError",
    "PredicateError",
    "NotDisjunctiveError",
    "NotRegularError",
    "NoControllerExistsError",
    "InterferenceError",
    "ReplayDeadlockError",
    "LintGateError",
    "SimulationError",
    "OnlineControlError",
    "AssumptionViolationError",
    "FaultPlanError",
    "ControlChannelError",
    "ControlChannelLostError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class MalformedTraceError(ReproError):
    """A trace/deposet violates the model constraints (D1, D2, D3, acyclicity).

    ``rule`` is the ``repro lint`` rule reporting the same problem with
    the same text (or ``None``); ``location`` is where lint reports it --
    ``messages[3]`` in a document, ``file:line`` in a stream -- and
    prefixes the message (``None`` when unknown).
    """

    def __init__(self, message: str = "", *, rule: Optional[str] = None,
                 location: Optional[str] = None):
        super().__init__(message)
        self.rule = rule
        self.location = location


class TruncatedStreamError(MalformedTraceError):
    """A ``repro-events/1`` stream ends mid-record (partial JSON at EOF).

    Raised by :func:`repro.trace.io.ingest_event_stream` when the *final*
    line of the file fails to parse **and** carries no trailing newline --
    the signature of a writer that crashed (or is still appending) mid
    record.  The message carries ``file:lineno`` like every other stream
    error.  In follow mode :func:`repro.trace.io.iter_stream_lines` waits
    for the rest of such a line instead of raising.
    """

    def __init__(self, message: str, *, lineno: int = 0):
        super().__init__(message)
        #: 1-based line number of the truncated record.
        self.lineno = lineno


class SourceLostError(ReproError):
    """A stream file is missing or unreadable and its retry budget (none
    outside follow mode) is spent (:func:`repro.trace.io.iter_stream_lines`);
    ``repro tail`` reports it as a ``source-lost`` error event, exit 3."""


class UnknownTraceFormatError(MalformedTraceError):
    """A trace file matches neither supported format.

    Raised by :func:`repro.trace.sniff_trace_format` on empty or ambiguous
    input instead of guessing; the message names both candidate formats
    (``repro-deposet/1`` and ``repro-events/1``) and what was seen.
    """


class UnknownFreezeFormatError(MalformedTraceError):
    """A ``TraceStore.freeze()`` payload declares a format this build
    cannot restore.

    Raised by :meth:`repro.store.TraceStore.restore` instead of letting an
    incompatible checkpoint fail with an opaque ``KeyError`` deep inside
    the rebuild; the message names the payload's format and the formats
    this build understands (the typed-error style of
    :func:`repro.trace.io.sniff_trace_format`).  Payloads with no
    ``format`` field are accepted as the legacy (pre-versioned) layout.
    """


class StorageError(ReproError):
    """A trace storage backend was misused or misconfigured.

    Covers backend-level protocol violations -- an unknown ``--store``
    target scheme, branching an unnamed fork point, opening a database
    created by an incompatible schema version -- as opposed to damage at
    rest (:class:`StorageCorruptError`) or model violations
    (:class:`MalformedTraceError`).
    """


class StorageCorruptError(StorageError):
    """A durable trace store failed an integrity check.

    Raised when a commit's CRC does not match its recorded operation
    batch, a page body fails its CRC, or the commit chain is broken
    (a parent id that does not exist).  Recovery refuses to guess: the
    message names the offending commit/page so forensics can start there.
    """


class UnknownBranchError(StorageError):
    """A named branch does not exist in the trace store."""


class PredicateError(ReproError):
    """A predicate was used in a way its class does not support."""


class NotDisjunctiveError(PredicateError):
    """A predicate could not be normalised to disjunctive form.

    The efficient algorithms of Sections 5-6 of the paper require
    ``B = l_1 v l_2 v ... v l_n`` with ``l_i`` local to process ``i``.
    """


class NotRegularError(PredicateError):
    """A predicate could not be normalised into the regular (conjunctive)
    class required by the polynomial slicing engine.

    Callers that can fall back should catch this and use the exhaustive
    lattice walk instead; :func:`repro.detection.possibly` with
    ``engine="auto"`` does exactly that.
    """


class NoControllerExistsError(ReproError):
    """Predicate control is infeasible for the given computation.

    Raised by the off-line algorithm (Figure 2 of the paper) when it detects
    an overlapping set of false-intervals: by Lemma 2 *every* global sequence
    of the computation passes through a global state violating ``B``, so no
    control strategy can satisfy ``B``.
    """

    def __init__(self, message: str = "No Controller Exists", *, witness=None):
        super().__init__(message)
        #: Optional overlap witness: one false-interval per process.
        self.witness = witness


class InterferenceError(ReproError):
    """A control relation interferes with causality (creates a cycle)."""

    def __init__(self, message: str = "control relation interferes with causality", *, cycle=None):
        super().__init__(message)
        #: Optional list of states forming the offending cycle.
        self.cycle = cycle


class ReplayDeadlockError(ReproError):
    """A controlled replay deadlocked (no process can take its next step)."""

    def __init__(
        self,
        message: str = "replay deadlocked",
        *,
        blocked=None,
        lost_tokens=None,
        interference=None,
    ):
        super().__init__(message)
        #: Optional mapping of process -> description of what it waits for.
        self.blocked = blocked
        #: Stalled arrows whose token was sent but never arrived (channel
        #: fault): list of (arrow id, src StateRef, dst StateRef).
        self.lost_tokens = lost_tokens or []
        #: Stalled arrows whose source state was never left (the control
        #: relation fights the computation's causality).
        self.interference = interference or []


class LintGateError(ReproError):
    """A replay was refused because lint found a disqualifying finding.

    Raised by ``repro replay`` when the input trace's control relation
    carries a C101 (interference cycle) or C104 (Lemma-2 obstruction)
    finding: the controlled re-execution would deadlock or chase a
    controller that provably does not exist.  ``--force`` overrides the
    gate.  Carries the offending findings (as dicts) for reporting.
    """

    def __init__(self, message: str, *, findings=None):
        super().__init__(message)
        #: The gate findings, as ``Finding.to_dict()`` payloads.
        self.findings = findings or []


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid configuration."""


class OnlineControlError(ReproError):
    """An on-line control strategy failed (protocol violation or deadlock)."""


class AssumptionViolationError(OnlineControlError):
    """A program violates assumption A1 or A2 required by on-line control.

    A1: a process never blocks in a state where its local predicate is false.
    A2: the local predicate holds in every final state.
    """


class FaultPlanError(ReproError):
    """A fault-injection plan is malformed (bad rates, windows, or groups)."""


class ControlChannelError(ReproError):
    """The reliable control channel was misused or misconfigured."""


class ControlChannelLostError(ControlChannelError):
    """A logical control message exhausted its retransmit budget.

    Raised (only) by :class:`~repro.faults.reliable.ReliableControlChannel`
    when ``raise_on_lost`` is set and a message gives up after
    ``max_retries`` retransmissions -- the typed alternative to silently
    dropping a logical message or requiring a per-send callback.
    Carries the message's ``seq``, endpoints, and attempt count.
    """

    def __init__(self, message: str, *, seq: int = -1, src: int = -1,
                 dst: int = -1, attempts: int = 0):
        super().__init__(message)
        self.seq = seq
        self.src = src
        self.dst = dst
        self.attempts = attempts
