"""The closed-instance simulation engine.

:func:`simulate` drives an :class:`~repro.sim.instance.Instance` of jobs,
each running its own :class:`~repro.sim.protocolbase.Protocol`, over a
shared multiple-access channel.  It is a front end of the slot-stepping
core :class:`~repro.sim.slotloop.SlotLoop`, which it shares with the
streaming engine: it pushes the instance's jobs into the core's pending
heap, stops at the first idle gap past ``horizon``, attaches its
per-slot instrumentation and builds the :class:`SimulationResult`.

Fault and telemetry hooks
-------------------------
A :class:`~repro.faults.plan.FaultPlan` (``faults=``) lets the engine
perturb feedback, clocks, and job lifecycles, an
:class:`~repro.sim.invariants.InvariantChecker` (``invariants=``) audits
every slot, a :class:`~repro.obs.telemetry.Telemetry` object
(``telemetry=``) collects metrics, lifecycle events, and spans, and a
:class:`~repro.sim.watchdog.Watchdog` (``watchdog=``) cancels runaway
adversarial runs gracefully with a partial result.  All four are
strictly pay-for-what-you-use: with none attached the core runs its
plain loop, and with sparse-capable protocols it steps sparsely.  The
per-slot instrumentation (trace, observers, invariants, telemetry)
keeps stepping dense, draws no randomness and never alters results, so
it is *not* folded into cache keys.  Fault randomness draws from
dedicated RNG streams, never from the channel or job streams.

Any change that alters simulation *semantics* (outcomes, slot counts,
randomness consumption) must bump :data:`ENGINE_VERSION`, which the
result cache folds into its content digests.  Fault-injected runs are
additionally keyed on their plan (see :func:`repro.cache.run_key`), so
attaching a plan never needs a version bump.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple, Union

from repro.channel.channel import SlotOutcome
from repro.channel.feedback import Feedback
from repro.channel.jamming import Jammer, NoJammer
from repro.channel.messages import Message
from repro.sim.instance import Instance
from repro.sim.job import Job, JobStatus
from repro.sim.metrics import JobOutcome, SimulationResult
from repro.sim.protocolbase import Protocol
from repro.sim.slotloop import ProtocolFactory, SlotLoop
from repro.sim.trace import TraceRecorder
from repro.sim.watchdog import Watchdog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan
    from repro.obs.telemetry import Telemetry
    from repro.sim.invariants import InvariantChecker

__all__ = ["ENGINE_VERSION", "ProtocolFactory", "SlotObserver", "simulate"]

#: Version of the engine's observable simulation semantics.  Bump whenever
#: a change can alter any :class:`SimulationResult` for some input — the
#: content-addressed result cache keys on it, so stale entries invalidate
#: themselves.
#: 3: RNG stream keys moved from crc32 (32-bit, collision-prone) to a
#: 128-bit blake2b derivation (see :func:`repro.sim.rng._label_key`);
#: every random stream, and therefore every sampled outcome, changed.
ENGINE_VERSION = 3

#: Optional per-slot callback ``(outcome, live_job_ids)`` for instrumentation.
SlotObserver = Callable[[SlotOutcome, Tuple[int, ...]], None]

_SILENCE = Feedback.SILENCE
_SUCCESS = Feedback.SUCCESS
_NOISE = Feedback.NOISE


class _ClosedLoop(SlotLoop):
    """:func:`simulate`'s front end: a fixed instance, cut at ``end``."""

    def __init__(
        self,
        instance: Instance,
        factory: ProtocolFactory,
        seed: int,
        jammer: Optional[Jammer],
        faults: Optional["FaultPlan"],
        end: int,
        recorder: Optional[TraceRecorder],
        observers: Sequence[SlotObserver],
        checker: Optional["InvariantChecker"],
        telemetry: Optional["Telemetry"],
    ) -> None:
        super().__init__(
            factory,
            seed,
            jammer,
            faults,
            instrumented=bool(
                recorder is not None
                or observers
                or checker is not None
                or telemetry is not None
            ),
        )
        self.end = end
        self.recorder = recorder
        self.observers = observers
        self.checker = checker
        self.events = telemetry.events if telemetry is not None else None
        self.tele_slot = telemetry.record_slot if telemetry is not None else None
        self.outcomes: Dict[int, JobOutcome] = {}
        for job in instance.by_release:
            self.push(job)

    def before_slot(self, t: int) -> bool:
        return t < self.end or bool(self.protos)

    def on_start(self, job: Job, proto: Protocol, t: int) -> None:
        events = self.events
        if events is not None:
            # Bind before begin(): protocols that construct inner
            # machines in on_begin propagate the sink to them.
            bind = getattr(proto, "bind_telemetry", None)
            if bind is not None:
                bind(events)
            events.emit("job.activated", t, job.job_id, window=job.window)
        if self.checker is not None:
            self.checker.on_activate(job, proto, t)

    def on_slot(
        self,
        t: int,
        n_tx: int,
        jammed: bool,
        msg: Optional[Message],
        delivered_now: int,
        tx_idx: list,
    ) -> None:
        protos = self.protos
        if self.checker is not None:
            self.checker.after_slot(t, delivered_now, self.ids, protos, tx_idx)
        recorder = self.recorder
        if recorder is None and self.tele_slot is None and not self.observers:
            return
        # Contention: the per-slot ``last_p`` sum of the protocols that
        # expose one (protocols set it in act()).
        contention = 0.0
        have_contention = False
        for proto in protos:
            p = getattr(proto, "last_p", None)
            if p is not None:
                contention += float(p)
                have_contention = True
        if not have_contention:
            contention = float("nan")
        if self.tele_slot is not None:
            self.tele_slot(n_tx, jammed, len(protos), contention)
        if recorder is None and not self.observers:
            return
        if msg is not None:
            fb = _SUCCESS
        elif jammed or n_tx:
            fb = _NOISE
        else:
            fb = _SILENCE
        outcome = SlotOutcome(t, fb, msg, n_tx, jammed)
        if recorder is not None:
            recorder.record(outcome, n_live=len(protos), contention=contention)
        if self.observers:
            ids = tuple(self.ids)
            for cb in self.observers:
                cb(outcome, ids)

    def record(
        self,
        job: Job,
        proto: Protocol,
        status: JobStatus,
        completion: int,
        jammed: int,
    ) -> None:
        events = self.events
        if events is not None:
            if status is JobStatus.SUCCEEDED:
                events.emit(
                    "job.success",
                    completion,
                    job.job_id,
                    latency=completion - job.release + 1,
                    transmissions=proto.transmissions,
                )
            elif status is JobStatus.GAVE_UP:
                events.emit("job.gave_up", -1, job.job_id)
            else:
                events.emit("job.deadline_miss", job.deadline, job.job_id)
        self.outcomes[job.job_id] = JobOutcome(
            job, status, completion, proto.transmissions, jammed
        )


def simulate(
    instance: Instance,
    factory: ProtocolFactory,
    *,
    jammer: Optional[Jammer] = None,
    seed: int = 0,
    trace: bool = False,
    observers: Sequence[SlotObserver] = (),
    horizon: Optional[int] = None,
    faults: Optional["FaultPlan"] = None,
    invariants: Union[bool, "InvariantChecker"] = False,
    telemetry: Optional["Telemetry"] = None,
    watchdog: Optional[Watchdog] = None,
) -> SimulationResult:
    """Run one complete simulation and return per-job outcomes.

    Parameters
    ----------
    instance:
        The jobs to simulate.
    factory:
        Builds each job's protocol; receives ``(job, rng)`` where ``rng``
        is the job's private stream from :class:`RngFactory`.
    jammer:
        Optional channel adversary.
    seed:
        Root seed; fixes every random stream in the run.
    trace:
        Record a per-slot :class:`TraceRecorder` (sums per-slot contention
        from protocols that expose ``last_p``).
    observers:
        Extra per-slot callbacks (e.g. schedule reconstruction).
    horizon:
        Stop at the first idle gap at or after this slot; defaults to
        (and is capped at) the instance horizon.  Jobs whose activation
        slot is at or after ``horizon`` are not started while nobody is
        live, and count as failed with zero attempts.  A job live at
        ``horizon`` runs on to its own deadline, and later jobs keep
        activating while anyone is live.  Jobs are hard-stopped at their
        own deadlines regardless.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`.  A plan may carry
        its own jammer, mutually exclusive with ``jammer=``.  A no-op
        plan behaves exactly like ``None``.
    invariants:
        ``True`` to audit the run with a fresh
        :class:`~repro.sim.invariants.InvariantChecker`, or a
        caller-supplied checker instance (inspect it after the run).
        Violations raise :class:`repro.errors.InvariantViolationError`.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` collector.
        When attached, the engine records per-slot channel statistics
        and contention, emits job lifecycle events, binds protocols to
        the event sink (so they emit their own phase events), and times
        the run as a ``simulate`` span.  Never changes results.
    watchdog:
        Optional :class:`~repro.sim.watchdog.Watchdog`.  When one of its
        limits trips, the run is cancelled *gracefully*: live jobs are
        finalized as failed (like a horizon cut), a ``watchdog.*``
        telemetry event is emitted when telemetry is attached, and the
        partial result carries the :class:`~repro.sim.watchdog.WatchdogTrip`
        in :attr:`~repro.sim.metrics.SimulationResult.watchdog`.  Nothing
        is raised.  Absent (or with no limits set) the hot loop pays one
        ``is None`` guard per slot and results are bit-identical.

    Returns
    -------
    SimulationResult
    """
    checker: Optional["InvariantChecker"]
    if invariants is True:
        from repro.sim.invariants import InvariantChecker

        checker = InvariantChecker()
    elif invariants:
        checker = invariants  # type: ignore[assignment]
    else:
        checker = None
    recorder = TraceRecorder() if trace else None
    end = instance.horizon if horizon is None else min(horizon, instance.horizon)
    loop = _ClosedLoop(
        instance,
        factory,
        seed,
        jammer,
        faults,
        end,
        recorder,
        observers,
        checker,
        telemetry,
    )
    corrupt = loop.corrupt
    if checker is not None and corrupt is not None:
        if corrupt.p_success_erasure > 0.0 and corrupt.affect_transmitters:
            # an erased transmitter legitimately re-sends; only the
            # duplicate-delivery check is relaxed.
            checker.allow_redelivery = True
    if telemetry is not None:
        telemetry.on_run_start(
            seed=seed,
            n_jobs=len(instance),
            horizon=end,
            jammer=None if type(loop.jam) is NoJammer else loop.jam,
            faults=loop.plan,
        )

    loop.run(watchdog, instance.max_window)

    trip = loop.trip
    if trip is not None and loop.events is not None:
        loop.events.emit(
            trip.event_kind,
            trip.slot,
            -1,
            slots_simulated=trip.slots_simulated,
            detail=trip.detail,
        )
    # Jobs never activated (horizon cut): failed with zero attempts.
    outcomes = loop.outcomes
    result = SimulationResult(
        instance=instance,
        outcomes=tuple(
            outcomes.get(j.job_id) or JobOutcome(j, JobStatus.FAILED, -1, 0)
            for j in instance.by_release
        ),
        slots_simulated=loop.slots_simulated,
        trace=recorder,
        watchdog=trip,
        channel_attempts=loop.channel_attempts,
    )
    if telemetry is not None:
        telemetry.on_run_end(result)
    return result
