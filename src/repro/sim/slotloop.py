"""The slot-stepping core behind both engines.

The paper's model is one slotted channel with ternary feedback on which
every job lives inside its own release/deadline window.  :class:`SlotLoop`
is the one implementation of that model.  :func:`repro.sim.engine.simulate`
(a closed instance) and :func:`repro.stream.engine.stream_simulate` (open
arrivals) are front ends that subclass it.  Each simulated slot:

1. activate pending jobs whose slot arrived, in ``(activation, release,
   deadline, job_id)`` order — an instance's ``by_release`` order,
   stably re-sorted by fault-shifted activation;
2. collect each awake live protocol's action (transmit / listen);
3. resolve the slot (jammer included);
4. deliver the resulting observation to every awake live protocol;
5. retire jobs that succeeded, gave up, or hit their deadline.

Ground-truth delivery is decided here from channel outcomes — a job
succeeded iff a :class:`DataMessage` with its id was delivered (directly
or piggybacked on a leader's timekeeper beacon), strictly inside its
window.  Protocol self-reported success is cross-checked against this
and any disagreement raises :class:`SimulationError`.

Hot-path layout
---------------
* live jobs are kept in flat parallel lists instead of a dict; retired
  jobs are deleted in place, so the order is preserved;
* slot resolution is inlined (semantically identical to
  :func:`repro.channel.channel.resolve_slot`), and the jammer callout is
  skipped entirely for the benign :class:`NoJammer`;
* observations are shared frozen singletons where their content is
  identical for every listener (silence / noise);
* message delivery dispatches on the :attr:`Message.kind` tag;
* feedback corruption draws from the shared ``fault-feedback`` stream in
  live-list fan-out order, and per-job fault records come from
  :func:`repro.faults.plan.job_fault_record` on the job's own
  ``fault-job`` stream — identical whether a front end pushes every job
  up front or one at a time as it arrives.

Sparse wake-up
--------------
Protocols may define ``next_wake`` (see :mod:`repro.sim.protocolbase`).
Only awake jobs act and observe; with no jammer, slots in which every
live job sleeps are jumped over and counted as simulated silent slots —
exactly what dense stepping records for them.  A jump stops at every
wake, deadline, pending activation, watchdog trip point and whatever
:meth:`SlotLoop.limit_jump` adds.  Stepping is sparse only where every
skipped call is a no-op: feedback corruption draws once per listener
per slot and per-job fault wrappers keep their own clocks, so either
keeps every job awake, and so does per-slot instrumentation (it sees
every live protocol every slot).

Any change that alters simulation semantics (outcomes, slot counts,
randomness consumption) must bump
:data:`repro.sim.engine.ENGINE_VERSION`.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.channel.feedback import Feedback, Observation
from repro.channel.jamming import Jammer, NoJammer
from repro.channel.messages import KIND_BEACON, KIND_DATA, Message
from repro.errors import InvalidParameterError, SimulationError
from repro.faults.plan import FaultPlan, _JobRecord, fault_wrappers, job_fault_record
from repro.sim.job import Job, JobStatus
from repro.sim.protocolbase import Protocol
from repro.sim.rng import RngFactory
from repro.sim.watchdog import (
    REASON_SLOTS,
    REASON_STALL,
    REASON_WALL,
    WALL_CHECK_PERIOD,
    Watchdog,
    WatchdogTrip,
)

__all__ = ["ProtocolFactory", "SlotLoop"]

#: Builds the protocol for one job, given the job and its private stream.
ProtocolFactory = Callable[[Job, np.random.Generator], Protocol]

# Shared immutable observations; their content is independent of the
# perceiving job, so one object per (feedback, transmitted) pair serves
# every listener of every slot.
_OBS_SILENCE = Observation.silence(False)
_OBS_NOISE = Observation.noise(False)
_OBS_NOISE_TX = Observation.noise(True)
_SUCCESS = Feedback.SUCCESS


def _active(fault):
    return fault if fault is not None and not fault.is_noop else None


class SlotLoop:
    """One run's live set, pending heap and slot loop.

    The live set is kept as parallel lists (same index across all):
    ``ids``, ``jobs``, ``protos``, pre-bound ``acts``/``observes``,
    ``deadlines``, ``wakes`` (the slot a sparse job next needs stepping,
    ``-1`` for a job stepped every slot) and ``jammed`` (the job's send
    attempts that went into jammed slots).  The lists are only mutated
    in place, so a front end may hold on to them across hook calls.

    A front end pushes jobs (:meth:`push`) and overrides the hooks below;
    :meth:`run` steps slots until the front end runs dry or the watchdog
    trips.  Everything but :attr:`WIRING` is run state, so a loop pickles
    into a checkpoint and resumes bit-identically.
    """

    #: Attributes that connect a run to its caller rather than hold its
    #: state; they are not pickled and are set again on resume.
    WIRING: Tuple[str, ...] = ("factory", "wd", "wd_slots", "wd_stall", "wd_wall")

    def __init__(
        self,
        factory: ProtocolFactory,
        seed: int,
        jammer: Optional[Jammer],
        faults: Optional[FaultPlan],
        *,
        instrumented: bool = False,
    ) -> None:
        plan = _active(faults)
        if plan is not None and plan.jammer is not None:
            if jammer is not None:
                raise InvalidParameterError(
                    "got a jammer= argument and a FaultPlan with its own "
                    "jammer; pick one adversary"
                )
            jammer = plan.jammer
        self.factory = factory
        self.plan = plan
        self.rngs = RngFactory(seed)
        self.ch_rng = self.rngs.channel_rng()
        self.jam: Jammer = jammer if jammer is not None else NoJammer()
        if type(self.jam) is not NoJammer:
            self.jam.reset()  # budgeted jammers: restore per-run counters
        self.corrupt = _active(plan.feedback) if plan is not None else None
        self.f_rng = (
            self.rngs.stream("fault-feedback") if self.corrupt is not None else None
        )
        self.jf = _active(plan.jobs) if plan is not None else None
        self.cf = _active(plan.clock) if plan is not None else None
        #: Per-slot instrumentation: dense stepping, :meth:`on_slot` calls.
        self.instrumented = instrumented
        self.sparse = (
            not instrumented
            and self.corrupt is None
            and self.jf is None
            and self.cf is None
        )

        self.ids: List[int] = []
        self.jobs: List[Job] = []
        self.protos: List[Protocol] = []
        self.acts: List[Callable[[int], Optional[Message]]] = []
        self.observes: List[Callable[[int, Observation], None]] = []
        self.deadlines: List[int] = []
        self.wakes: List[int] = []
        self.jammed: List[int] = []
        self.n_sparse = 0  # live jobs with a wake slot (wakes[i] >= 0)

        #: Heap of ``(activation, release, deadline, job_id, job, record)``.
        self.pending: List[tuple] = []
        self.delivered: Dict[int, int] = {}  # job id -> first delivery slot
        self.t = 0
        self.slots_simulated = 0
        self.channel_attempts = 0
        self.silence_slots = 0
        self.success_slots = 0
        self.collision_slots = 0
        self.jammed_slots = 0
        self.wd_mark = 0  # slots_simulated at the last progress sign
        self.trip: Optional[WatchdogTrip] = None

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in self.WIRING}

    # -- live set ------------------------------------------------------------

    def push(self, job: Job) -> None:
        """Queue ``job`` for activation, drawing its fault record."""
        rec = None
        if self.jf is not None or self.cf is not None:
            rec = job_fault_record(
                self.jf, self.cf, job, self.rngs.fresh("fault-job", job.job_id)
            )
        heapq.heappush(
            self.pending,
            (
                job.release if rec is None else rec.activation,
                job.release,
                job.deadline,
                job.job_id,
                job,
                rec,
            ),
        )

    def start(self, job: Job, rec: Optional[_JobRecord], t: int) -> None:
        """Build ``job``'s protocol, begin it at slot ``t`` and make it live."""
        proto = self.factory(job, self.rngs.fresh("job", job.job_id))
        if self.instrumented:
            self.on_start(job, proto, t)
        act, observe = fault_wrappers(job, proto, t, rec)
        self.ids.append(job.job_id)
        self.jobs.append(job)
        self.protos.append(proto)
        self.acts.append(act)
        self.observes.append(observe)
        self.deadlines.append(job.deadline)
        self.jammed.append(0)
        next_wake = getattr(proto, "next_wake", None) if self.sparse else None
        if next_wake is None:
            self.wakes.append(-1)
        else:
            self.wakes.append(next_wake(t))
            self.n_sparse += 1

    def evict(self, i: int) -> Tuple[Protocol, int]:
        """Drop live job ``i`` without finalizing it.

        Returns its protocol and its jammed-attempt count.
        """
        proto, jammed = self.protos[i], self.jammed[i]
        self._drop((i,))
        return proto, jammed

    def _drop(self, descending) -> None:
        # In place, so the lists the loop holds stay current.
        lists = (
            self.ids,
            self.jobs,
            self.protos,
            self.acts,
            self.observes,
            self.deadlines,
            self.jammed,
        )
        wakes = self.wakes
        for i in descending:
            for lst in lists:
                del lst[i]
            if wakes.pop(i) >= 0:
                self.n_sparse -= 1

    def _finalize(self, i: int) -> None:
        job, proto = self.jobs[i], self.protos[i]
        comp = self.delivered.pop(job.job_id, -1)
        if comp >= 0:
            status = JobStatus.SUCCEEDED
        elif proto.gave_up:
            status = JobStatus.GAVE_UP
        else:
            status = JobStatus.FAILED
        if proto.succeeded and status is not JobStatus.SUCCEEDED:
            raise SimulationError(
                f"job {job.job_id} claims success but no delivery was observed"
            )
        self.record(job, proto, status, comp, self.jammed[i])

    # -- front-end hooks -----------------------------------------------------

    def before_slot(self, t: int) -> bool:
        """Called before anything of slot ``t``; False ends the run."""
        return True

    def admit(self, job: Job, rec: Optional[_JobRecord], t: int) -> None:
        """A pending job's activation slot ``t`` arrived."""
        self.start(job, rec, t)

    def next_event(self, t: int) -> Optional[int]:
        """With nobody live after slot ``t``'s activations: where to jump
        (``None`` ends the run).  No slot is simulated in between."""
        return self.pending[0][0] if self.pending else None

    def limit_jump(self, t: int, nxt: int) -> int:
        """Bound a sparse jump from ``t`` to ``nxt`` by front-end events."""
        return nxt

    def after_slot(self, t: int, step: int) -> None:
        """Slots up to ``t`` (exclusive) are done; ``step`` were simulated."""

    def drained(self) -> bool:
        """With nothing live or pending: True if nothing more can arrive."""
        return True

    def on_start(self, job: Job, proto: Protocol, t: int) -> None:
        """A protocol was built for ``job``, about to begin at slot ``t``
        (``instrumented`` only)."""

    def on_slot(
        self,
        t: int,
        n_tx: int,
        jammed: bool,
        msg: Optional[Message],
        delivered_now: int,
        tx_idx: List[int],
    ) -> None:
        """Slot ``t`` was resolved and fanned out (``instrumented`` only).

        ``msg`` is the successfully broadcast message or ``None``;
        ``delivered_now`` the job id delivered in the slot or ``-1``.
        """

    def record(
        self,
        job: Job,
        proto: Protocol,
        status: JobStatus,
        completion: int,
        jammed: int,
    ) -> None:
        """A live job retired with ``status``."""
        raise NotImplementedError

    # -- the loop ------------------------------------------------------------

    def run(self, watchdog: Optional[Watchdog], max_window: int) -> None:
        """Step slots until the front end runs dry or ``watchdog`` trips.

        On a trip the live jobs are finalized like a horizon cut and
        :attr:`trip` holds the :class:`WatchdogTrip`; jobs still pending
        are left to the front end.
        """
        wd = watchdog if watchdog is not None and watchdog.enabled else None
        self.wd = wd
        if wd is not None:
            self.wd_slots = wd.max_slots
            self.wd_stall = wd.stall_slots(max_window)
            self.wd_wall = (
                time.perf_counter() + wd.max_seconds
                if wd.max_seconds is not None
                else None
            )
        jam = self.jam
        no_jam = type(jam) is NoJammer
        ch_rng = self.ch_rng
        corrupt = self.corrupt
        f_rng = self.f_rng
        pending = self.pending
        delivered = self.delivered
        instrumented = self.instrumented

        while True:
            t = self.t
            if not self.before_slot(t):
                break
            # 1. activate
            if pending and pending[0][0] == t:
                while pending and pending[0][0] == t:
                    entry = heapq.heappop(pending)
                    self.admit(entry[4], entry[5], t)
                if wd is not None:
                    self.wd_mark = self.slots_simulated  # activation is progress
            protos = self.protos
            if not protos:
                # Jump over an idle gap: no slot simulated, no jam draw.
                nxt = self.next_event(t)
                if nxt is None:
                    break
                self.t = nxt
                continue
            ids = self.ids
            acts = self.acts
            observes = self.observes
            deadlines = self.deadlines
            wakes = self.wakes
            n_live = len(protos)
            awake = (
                [i for i in range(n_live) if wakes[i] <= t] if self.n_sparse else None
            )
            idx = range(n_live) if awake is None else awake

            step = 1
            if awake is not None and not awake and no_jam:
                # Every live job sleeps and nothing draws per slot: jump
                # to the next event.  Slot t is simulated below as a
                # silent slot with no one stepped; the other skipped
                # slots are counted here.  Stopping at each deadline,
                # activation and watchdog trip point keeps retirement,
                # admission and trips on the slots where dense stepping
                # has them.
                slots = self.slots_simulated
                nxt = min(min(wakes), min(deadlines))
                if pending:
                    nxt = min(nxt, pending[0][0])
                if wd is not None:
                    if self.wd_slots is not None:
                        nxt = min(nxt, t + self.wd_slots - slots)
                    if self.wd_stall is not None:
                        stall_at = self.wd_mark + self.wd_stall
                        nxt = min(nxt, t + max(1, stall_at - slots))
                nxt = self.limit_jump(t, nxt)
                step = nxt - t
                self.slots_simulated = slots + step - 1
                self.silence_slots += step - 1

            # 2. collect actions
            sent: List[Message] = []
            tx_idx: List[int] = []
            for i in idx:
                msg = acts[i](t)
                if msg is not None:
                    sent.append(msg)
                    tx_idx.append(i)

            # 3. resolve the slot: silence when nobody transmits, success
            # when exactly one transmits un-jammed, noise otherwise.
            self.slots_simulated += 1
            delivered_now = -1
            success = None
            n_tx = len(sent)
            self.channel_attempts += n_tx
            if n_tx == 0:
                jammed = (not no_jam) and jam.attempt(t, 0, None, ch_rng)
                if jammed:
                    self.jammed_slots += 1
                    obs = _OBS_NOISE
                else:
                    self.silence_slots += 1
                    obs = _OBS_SILENCE
            else:
                msg0 = sent[0] if n_tx == 1 else None
                jammed = (not no_jam) and jam.attempt(t, n_tx, msg0, ch_rng)
                if msg0 is not None and not jammed:
                    self.success_slots += 1
                    success = msg0
                    kind = msg0.kind
                    if kind == KIND_DATA:
                        delivered.setdefault(msg0.sender, t)
                        delivered_now = msg0.sender
                    elif kind == KIND_BEACON and msg0.payload is not None:
                        delivered.setdefault(msg0.payload.sender, t)
                        delivered_now = msg0.payload.sender
                    obs = Observation(_SUCCESS, msg0, False, False)
                    obs_tx = Observation(
                        _SUCCESS, msg0, True, msg0.sender == ids[tx_idx[0]]
                    )
                else:
                    # A collision, or a lone sender jammed: noise for all.
                    if n_tx > 1:
                        self.collision_slots += 1
                    if jammed:
                        self.jammed_slots += 1
                        for i in tx_idx:
                            self.jammed[i] += 1
                    obs = _OBS_NOISE
                    obs_tx = _OBS_NOISE_TX

            # 4. fan the observation out: transmitters (tx_idx, ascending
            # like idx) get obs_tx, listeners obs.
            k = 0
            if corrupt is None:
                if n_tx == 0:
                    for i in idx:
                        observes[i](t, obs)
                else:
                    for i in idx:
                        if k < n_tx and tx_idx[k] == i:
                            observes[i](t, obs_tx)
                            k += 1
                        else:
                            observes[i](t, obs)
            else:
                for i in idx:
                    if k < n_tx and tx_idx[k] == i:
                        observes[i](t, corrupt.corrupt(obs_tx, f_rng))
                        k += 1
                    else:
                        observes[i](t, corrupt.corrupt(obs, f_rng))

            if instrumented:
                self.on_slot(t, n_tx, jammed, success, delivered_now, tx_idx)
            if awake:
                for i in awake:
                    if wakes[i] >= 0:
                        wakes[i] = protos[i].next_wake(t + 1)

            # 5. retire: finalize in live order, then drop from the back
            t += step
            self.t = t
            dead = []
            for i in range(n_live):
                p = protos[i]
                if p.succeeded or p.gave_up or t >= deadlines[i]:
                    dead.append(i)
            if dead:
                for i in dead:
                    self._finalize(i)
                self._drop(reversed(dead))

            self.after_slot(t, step)

            if wd is not None:
                slots = self.slots_simulated
                if delivered_now >= 0:
                    self.wd_mark = slots
                if self.wd_slots is not None and slots >= self.wd_slots:
                    self.trip = WatchdogTrip(
                        REASON_SLOTS, t - 1, slots, f"max_slots={self.wd_slots}"
                    )
                elif (
                    self.wd_stall is not None
                    and self.protos
                    and slots - self.wd_mark >= self.wd_stall
                ):
                    self.trip = WatchdogTrip(
                        REASON_STALL,
                        t - 1,
                        slots,
                        f"no delivery for {self.wd_stall} slots "
                        f"(stall_factor={wd.stall_factor:g})",
                    )
                elif (
                    self.wd_wall is not None
                    and (step > 1 or slots % WALL_CHECK_PERIOD == 0)
                    and time.perf_counter() > self.wd_wall
                ):
                    self.trip = WatchdogTrip(
                        REASON_WALL, t - 1, slots, f"max_seconds={wd.max_seconds:g}"
                    )
                if self.trip is not None:
                    # Graceful cancellation: live jobs finalize like a
                    # horizon cut and the result is partial.
                    for i in range(len(self.protos)):
                        self._finalize(i)
                    break

            if not self.protos and not pending and self.drained():
                break
