"""The open-arrival streaming engine: bounded memory at any offered load.

:func:`stream_simulate` is the open-loop counterpart of
:func:`repro.sim.engine.simulate`.  Jobs are not materialized up front —
they are drawn lazily from an :class:`~repro.stream.arrivals.ArrivalProcess`
— and the engine keeps only a sliding window of live state:

* completed/expired jobs are evicted the slot they retire; their
  outcome collapses into counters, a :class:`~repro.obs.sketches.QuantileSketch`
  (p50/p99/p999 latency) and a :class:`~repro.obs.sketches.ReservoirSampler`;
* the arrival buffer holds at most two RNG blocks;
* a hard live-set budget (:class:`StreamBudget`) sheds or queues work
  under overload, with shedding as first-class telemetry.

**Bit-identical to the closed engine.**  For any finite prefix the
streaming run must agree with the closed engine run on the instance
frozen by :func:`repro.stream.arrivals.materialize` — same delivery
slots, same miss set, same number of simulated slots (the
``streaming-equivalence`` verification corpus enforces this).  Both
engines are front ends of one slot-stepping core,
:class:`repro.sim.slotloop.SlotLoop`; this one feeds the core's pending
heap from the arrival process as slots pass, and adds admission
control, checkpoints, progress and the :class:`StreamResult` counters.
Per-job streams come from :meth:`RngFactory.fresh` in both, so the
factory cache does not grow per job.

**Crash recovery.**  With a :class:`~repro.stream.checkpoint.CheckpointConfig`
attached, the engine snapshots its complete resumable state every
``every_slots`` simulated slots, *before* the slot is processed; a run
killed at any point resumes from the last checkpoint and produces
bit-identical final statistics (pickle memoization preserves the object
identity between protocols, their RNG streams, and the factory).
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.cache import stable_digest
from repro.channel.jamming import Jammer
from repro.errors import InvalidParameterError
from repro.faults.plan import FaultPlan, _JobRecord
from repro.obs.sketches import QuantileSketch, ReservoirSampler
from repro.sim.engine import ENGINE_VERSION
from repro.sim.job import Job, JobStatus
from repro.sim.protocolbase import Protocol
from repro.sim.slotloop import ProtocolFactory, SlotLoop
from repro.sim.watchdog import Watchdog, WatchdogTrip
from repro.stream.arrivals import ArrivalProcess
from repro.stream.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "POLICIES",
    "STREAM_VERSION",
    "StreamBudget",
    "StreamResult",
    "stream_simulate",
]

#: Version of the streaming engine's observable semantics *and* its
#: checkpoint state layout.  Bump on any change that can alter a
#: :class:`StreamResult` or that breaks resuming an older checkpoint.
#: 2: live state carries the sparse wake-up list; the config key
#: digests the protocol factory.
#: 3: the state is the pickled slot-stepping core; the config key
#: digests the fault plan and the jammer.
STREAM_VERSION = 3

#: Admission-control policies for :class:`StreamBudget`.
POLICIES = ("shed-newest", "shed-loosest-deadline", "block")

#: Chunk size for unbounded next-arrival scans (max_jobs mode).
_SCAN_CHUNK = 1 << 16


@dataclass(frozen=True)
class StreamBudget:
    """A hard live-set budget with an admission-control policy.

    Attributes
    ----------
    max_live:
        Maximum number of concurrently live jobs.  Admissions beyond it
        are handled by ``policy``.
    policy:
        ``"shed-newest"`` rejects the arriving job; ``"shed-loosest-deadline"``
        evicts the undelivered live job with the loosest deadline if it
        is looser than the arrival's (otherwise the arrival is shed);
        ``"block"`` parks arrivals in a bounded FIFO and admits them as
        slots free up (jobs whose deadline passes while blocked are
        shed; late admission starts the protocol's local clock at the
        admission slot, like a late-release fault).
    queue_capacity:
        FIFO capacity for ``"block"`` (defaults to ``max_live``);
        overflow is shed as ``queue-full``.
    """

    max_live: int
    policy: str = "shed-newest"
    queue_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_live < 1:
            raise InvalidParameterError(
                f"max_live must be >= 1, got {self.max_live}"
            )
        if self.policy not in POLICIES:
            raise InvalidParameterError(
                f"unknown policy {self.policy!r}; pick one of {list(POLICIES)}"
            )
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise InvalidParameterError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )

    @property
    def capacity(self) -> int:
        """Effective FIFO capacity for the ``block`` policy."""
        return self.queue_capacity if self.queue_capacity is not None else self.max_live

    def describe(self) -> str:
        if self.policy == "block":
            return f"{self.policy}(max_live={self.max_live}, queue={self.capacity})"
        return f"{self.policy}(max_live={self.max_live})"


@dataclass
class StreamResult:
    """Aggregated outcome of one streaming run (or a merge of shards).

    Per-job records are *not* kept (that is the point of streaming);
    latency lives in a mergeable :class:`QuantileSketch` plus a
    :class:`ReservoirSampler` of raw samples, everything else in
    counters.  ``outcomes`` is populated only under
    ``record_outcomes=True`` — the debug/verification mode the
    ``streaming-equivalence`` corpus uses.
    """

    seed: int = 0
    process: str = ""
    offered_load: float = 0.0
    budget: str = "none"

    jobs_released: int = 0
    jobs_admitted: int = 0
    jobs_succeeded: int = 0
    jobs_missed: int = 0
    jobs_gave_up: int = 0
    #: Shedding breakdown by reason: ``arrival``, ``evicted``,
    #: ``queue-full``, ``expired-blocked``, ``crashed-blocked``.
    shed: Dict[str, int] = field(default_factory=dict)

    transmissions: int = 0
    #: Send attempts that went into jammed slots (the energy a jammer
    #: wasted), summed over finalized and evicted jobs.
    jammed_transmissions: int = 0
    slots_simulated: int = 0
    final_slot: int = 0
    silence_slots: int = 0
    success_slots: int = 0
    collision_slots: int = 0
    jammed_slots: int = 0
    peak_live: int = 0

    checkpoints_written: int = 0
    resumed_at_slot: int = -1
    healed_checkpoint: bool = False

    latency_sketch: QuantileSketch = field(default_factory=QuantileSketch)
    latency_sample: ReservoirSampler = field(
        default_factory=lambda: ReservoirSampler(4096, 0)
    )
    watchdog: Optional[WatchdogTrip] = None
    outcomes: Optional[Dict[int, Tuple[JobStatus, int, int, int]]] = None

    # -- derived -----------------------------------------------------------

    @property
    def jobs_shed(self) -> int:
        return sum(self.shed.values())

    @property
    def success_rate(self) -> float:
        return self.jobs_succeeded / self.jobs_released if self.jobs_released else 0.0

    @property
    def miss_rate(self) -> float:
        """Deadline misses among released jobs (sheds counted separately)."""
        return self.jobs_missed / self.jobs_released if self.jobs_released else 0.0

    @property
    def loss_rate(self) -> float:
        """All released jobs that did not deliver (miss + gave up + shed)."""
        if not self.jobs_released:
            return 0.0
        return 1.0 - self.jobs_succeeded / self.jobs_released

    @property
    def throughput(self) -> float:
        """Delivered jobs per elapsed channel slot."""
        return self.jobs_succeeded / self.final_slot if self.final_slot else 0.0

    def latency_quantile(self, q: float) -> float:
        return self.latency_sketch.quantile(q)

    def merge(self, other: "StreamResult") -> "StreamResult":
        """Combine two shards (counters add, sketches merge).

        Slot counters add, so :attr:`throughput` of a merge is delivered
        jobs per *channel*-slot summed over the shard channels.
        """
        shed: Dict[str, int] = dict(self.shed)
        for k, v in other.shed.items():
            shed[k] = shed.get(k, 0) + v
        sketch = copy.deepcopy(self.latency_sketch)
        sketch.merge(other.latency_sketch)
        sample = copy.deepcopy(self.latency_sample)
        sample.merge(other.latency_sample)
        return StreamResult(
            seed=-1,
            process=self.process or other.process,
            offered_load=self.offered_load or other.offered_load,
            budget=self.budget,
            jobs_released=self.jobs_released + other.jobs_released,
            jobs_admitted=self.jobs_admitted + other.jobs_admitted,
            jobs_succeeded=self.jobs_succeeded + other.jobs_succeeded,
            jobs_missed=self.jobs_missed + other.jobs_missed,
            jobs_gave_up=self.jobs_gave_up + other.jobs_gave_up,
            shed=shed,
            transmissions=self.transmissions + other.transmissions,
            jammed_transmissions=self.jammed_transmissions
            + other.jammed_transmissions,
            slots_simulated=self.slots_simulated + other.slots_simulated,
            final_slot=self.final_slot + other.final_slot,
            silence_slots=self.silence_slots + other.silence_slots,
            success_slots=self.success_slots + other.success_slots,
            collision_slots=self.collision_slots + other.collision_slots,
            jammed_slots=self.jammed_slots + other.jammed_slots,
            peak_live=max(self.peak_live, other.peak_live),
            checkpoints_written=self.checkpoints_written
            + other.checkpoints_written,
            latency_sketch=sketch,
            latency_sample=sample,
            watchdog=self.watchdog or other.watchdog,
        )

    def to_dict(self) -> dict:
        """A JSON-serializable summary (the report row format)."""
        return {
            "seed": self.seed,
            "process": self.process,
            "offered_load": self.offered_load,
            "budget": self.budget,
            "jobs_released": self.jobs_released,
            "jobs_admitted": self.jobs_admitted,
            "jobs_succeeded": self.jobs_succeeded,
            "jobs_missed": self.jobs_missed,
            "jobs_gave_up": self.jobs_gave_up,
            "jobs_shed": self.jobs_shed,
            "shed": dict(sorted(self.shed.items())),
            "transmissions": self.transmissions,
            "jammed_transmissions": self.jammed_transmissions,
            "slots_simulated": self.slots_simulated,
            "final_slot": self.final_slot,
            "silence_slots": self.silence_slots,
            "success_slots": self.success_slots,
            "collision_slots": self.collision_slots,
            "jammed_slots": self.jammed_slots,
            "peak_live": self.peak_live,
            "checkpoints_written": self.checkpoints_written,
            "resumed_at_slot": self.resumed_at_slot,
            "success_rate": self.success_rate,
            "miss_rate": self.miss_rate,
            "loss_rate": self.loss_rate,
            "throughput": self.throughput,
            "latency_p50": self.latency_quantile(0.50),
            "latency_p99": self.latency_quantile(0.99),
            "latency_p999": self.latency_quantile(0.999),
            "watchdog": None if self.watchdog is None else self.watchdog.reason,
        }


def _config_key(
    seed: int,
    process: ArrivalProcess,
    factory: ProtocolFactory,
    budget: Optional[StreamBudget],
    max_jobs: Optional[int],
    max_slots: Optional[int],
    faults: Optional[FaultPlan],
    jammer: Optional[Jammer],
) -> tuple:
    """What a checkpoint must agree on to be resumable under this call.

    Faults and jammer are content digests, reset first as in
    :func:`repro.cache.run_key`, so an equal but separately built
    adversary resumes and any field that changes results changes the key.
    """
    if faults is not None and faults.is_noop:
        faults = None
    for adversary in (faults, jammer):
        if adversary is not None:
            adversary.reset()
    return (
        STREAM_VERSION,
        ENGINE_VERSION,
        int(seed),
        process,
        stable_digest(factory),
        budget,
        max_jobs,
        max_slots,
        None if faults is None else stable_digest(faults),
        None if jammer is None else stable_digest(jammer),
    )


class _StreamLoop(SlotLoop):
    """:func:`stream_simulate`'s front end: arrivals, admission, checkpoints."""

    WIRING = SlotLoop.WIRING + ("ckpt", "cfg_key", "next_mark", "progress")

    def __init__(
        self,
        process: ArrivalProcess,
        factory: ProtocolFactory,
        seed: int,
        jammer: Optional[Jammer],
        faults: Optional[FaultPlan],
        budget: Optional[StreamBudget],
        max_jobs: Optional[int],
        max_slots: Optional[int],
        res: StreamResult,
    ) -> None:
        super().__init__(factory, seed, jammer, faults)
        self.bound = process.bind(self.rngs.stream("arrivals"))
        self.budget = budget
        self.max_jobs = max_jobs
        self.max_slots = max_slots
        self.releasing = True
        self.blocked: deque = deque()
        self.res = res

    def attach(
        self,
        factory: ProtocolFactory,
        ckpt: Optional[CheckpointConfig],
        cfg_key: Optional[tuple],
        progress: Optional[Callable[[int, int], None]],
    ) -> None:
        """Set the run's :attr:`WIRING` (again, after a resume)."""
        self.factory = factory
        self.ckpt = ckpt
        self.cfg_key = cfg_key
        self.progress = progress
        if ckpt is not None:
            every = ckpt.every_slots
            self.next_mark = (self.slots_simulated // every + 1) * every

    def report_progress(self) -> None:
        res = self.res
        if self.max_jobs is not None:
            self.progress(
                res.jobs_succeeded + res.jobs_missed + res.jobs_gave_up + res.jobs_shed,
                self.max_jobs,
            )
        else:
            self.progress(self.slots_simulated, self.max_slots)

    def shed(self, reason: str) -> None:
        self.res.shed[reason] = self.res.shed.get(reason, 0) + 1

    def enlist(self, job: Job, rec: Optional[_JobRecord], at: int) -> None:
        planned = rec.activation if rec is not None else job.release
        if at > planned:
            # Blocked admission: the protocol's local clock starts at
            # the admission slot (the deadline does not move) — the same
            # semantics as a late-release JobFault, including the
            # begin() guard for protocols that reject mid-window starts.
            rec = _JobRecord(
                activation=at,
                begin=at,
                skew_ff=rec.skew_ff if rec is not None else 0,
                drift=rec.drift if rec is not None else 0.0,
                crash_slot=rec.crash_slot if rec is not None else -1,
            )
        self.start(job, rec, at)
        res = self.res
        res.jobs_admitted += 1
        if len(self.ids) > res.peak_live:
            res.peak_live = len(self.ids)

    # -- core hooks ----------------------------------------------------------

    def before_slot(self, t: int) -> bool:
        # 0. checkpoint — before anything of slot t is processed, so a
        # resumed run re-enters the loop at exactly this point.
        ckpt = self.ckpt
        if ckpt is not None and self.slots_simulated >= self.next_mark:
            self.res.final_slot = t
            save_checkpoint(ckpt.path, {"config": self.cfg_key, "t": t, "loop": self})
            self.res.checkpoints_written += 1
            every = ckpt.every_slots
            self.next_mark = (self.slots_simulated // every + 1) * every
        # 1a. drain the blocked FIFO into freed live slots.
        blocked = self.blocked
        while blocked and len(self.protos) < self.budget.max_live:
            job, rec = blocked.popleft()
            if rec is not None and 0 <= rec.crash_slot <= t:
                self.shed("crashed-blocked")
            elif t >= job.deadline:
                self.shed("expired-blocked")
            else:
                self.enlist(job, rec, t)
        # 1b. discover arrivals released at slot t.
        if self.releasing:
            if self.max_slots is not None and t >= self.max_slots:
                self.releasing = False
            else:
                res = self.res
                for w in self.bound.arrivals_at(t):
                    if self.max_jobs is not None and res.jobs_released >= self.max_jobs:
                        self.releasing = False
                        break
                    self.push(Job(res.jobs_released, t, t + w))
                    res.jobs_released += 1
        return True

    def admit(self, job: Job, rec: Optional[_JobRecord], t: int) -> None:
        budget = self.budget
        if budget is None or len(self.protos) < budget.max_live:
            self.enlist(job, rec, t)
        elif budget.policy == "shed-newest":
            self.shed("arrival")
        elif budget.policy == "shed-loosest-deadline":
            best = -1
            bk = None
            for i, jid in enumerate(self.ids):
                if jid in self.delivered:
                    continue
                k = (self.deadlines[i], jid)
                if bk is None or k > bk:
                    bk = k
                    best = i
            if bk is not None and bk > (job.deadline, job.job_id):
                proto, jammed = self.evict(best)
                self.res.transmissions += proto.transmissions
                self.res.jammed_transmissions += jammed
                self.shed("evicted")
                self.enlist(job, rec, t)
            else:
                self.shed("arrival")
        elif len(self.blocked) < budget.capacity:
            self.blocked.append((job, rec))
        else:
            self.shed("queue-full")

    def next_event(self, t: int) -> Optional[int]:
        nxt = self.pending[0][0] if self.pending else None
        if self.releasing:
            start = t + 1
            if self.max_slots is not None:
                arr = (
                    self.bound.next_arrival_at(start, self.max_slots)
                    if start < self.max_slots
                    else None
                )
                if arr is None:
                    self.releasing = False
            else:
                arr = None
                while arr is None:
                    arr = self.bound.next_arrival_at(start, start + _SCAN_CHUNK)
                    if arr is None:
                        start += _SCAN_CHUNK
            if arr is not None and (nxt is None or arr < nxt):
                nxt = arr
        if nxt is not None:
            self.bound.release_before(nxt)
        return nxt

    def limit_jump(self, t: int, nxt: int) -> int:
        if self.ckpt is not None:
            nxt = min(nxt, t + self.next_mark - self.slots_simulated)
        if self.releasing:
            if self.max_slots is not None:
                nxt = min(nxt, self.max_slots)
            arr = self.bound.next_arrival_at(t + 1, nxt)
            if arr is not None:
                nxt = arr
        return nxt

    def after_slot(self, t: int, step: int) -> None:
        # Housekeeping on the 256-slot cadence; a jump also releases
        # arrival history and reports progress if it crossed a mark.
        crossed = (t >> 8) != ((t - step) >> 8)
        if crossed or step > 1:
            self.bound.release_before(t)
            if crossed and self.progress is not None:
                self.report_progress()

    def drained(self) -> bool:
        return not self.releasing and not self.blocked

    def record(
        self,
        job: Job,
        proto: Protocol,
        status: JobStatus,
        completion: int,
        jammed: int,
    ) -> None:
        res = self.res
        if status is JobStatus.SUCCEEDED:
            res.jobs_succeeded += 1
            latency = completion - job.release + 1
            res.latency_sketch.offer(latency)
            res.latency_sample.offer(latency)
        elif status is JobStatus.GAVE_UP:
            res.jobs_gave_up += 1
        else:
            res.jobs_missed += 1
        res.transmissions += proto.transmissions
        res.jammed_transmissions += jammed
        if res.outcomes is not None:
            res.outcomes[job.job_id] = (
                status,
                completion,
                proto.transmissions,
                jammed,
            )

    def finish(self) -> StreamResult:
        res = self.res
        if self.trip is not None:
            # Jobs still pending/blocked at a watchdog cut count as
            # misses with zero attempts.
            res.watchdog = self.trip
            waiting = [entry[4] for entry in self.pending]
            waiting += [job for job, _rec in self.blocked]
            for job in waiting:
                res.jobs_missed += 1
                if res.outcomes is not None:
                    res.outcomes[job.job_id] = (JobStatus.FAILED, -1, 0, 0)
        res.slots_simulated = self.slots_simulated
        res.final_slot = self.t
        res.silence_slots = self.silence_slots
        res.success_slots = self.success_slots
        res.collision_slots = self.collision_slots
        res.jammed_slots = self.jammed_slots
        if self.progress is not None:
            self.report_progress()
        return res


def stream_simulate(
    process: ArrivalProcess,
    factory: ProtocolFactory,
    *,
    seed: int = 0,
    max_jobs: Optional[int] = None,
    max_slots: Optional[int] = None,
    budget: Optional[StreamBudget] = None,
    jammer: Optional[Jammer] = None,
    faults: Optional[FaultPlan] = None,
    watchdog: Optional[Watchdog] = None,
    checkpoint: Optional[CheckpointConfig] = None,
    resume: bool = False,
    record_outcomes: bool = False,
    reservoir_capacity: int = 4096,
    sketch_alpha: float = 0.01,
    progress: Optional[Callable[[int, int], None]] = None,
) -> StreamResult:
    """Run one open-arrival streaming simulation.

    Parameters
    ----------
    process:
        The arrival process; jobs are drawn lazily from the dedicated
        ``"arrivals"`` stream of the run's :class:`RngFactory`.
    factory:
        Builds each job's protocol, as in the closed engine.
    seed:
        Root seed; fixes every stream (arrivals, channel, jobs, faults).
    max_jobs / max_slots:
        Stop *releasing* after this many jobs / at this arrival-horizon
        slot (at least one must be set; both may be).  Already-released
        jobs always drain to their deadlines, so a ``max_slots`` run is
        bit-identical to the closed engine on
        ``materialize(process, rng, max_slots)``.
    budget:
        Optional :class:`StreamBudget`; without one the live set is
        unbounded (pure equivalence mode).
    jammer / faults / watchdog:
        As in :func:`repro.sim.engine.simulate`; a fault plan's jammer
        is mutually exclusive with ``jammer=``.
    checkpoint:
        Optional :class:`CheckpointConfig` — snapshot the full resumable
        state every ``every_slots`` simulated slots.
    resume:
        Load ``checkpoint.path`` (healing from ``.prev`` if needed) and
        continue instead of starting fresh.  The call's configuration
        must match the checkpointed one.
    record_outcomes:
        Keep a per-job ``{job_id: (status, delivery_slot, transmissions,
        jammed_transmissions)}`` dict — unbounded memory, for
        equivalence verification only.
    reservoir_capacity / sketch_alpha:
        Telemetry memory/accuracy knobs (see :mod:`repro.obs.sketches`).
    progress:
        Optional ``progress(done, total)`` callback invoked on the
        engine's existing 256-slot housekeeping cadence (once per
        sparse jump that crosses a mark, and once at the end):
        finalized jobs (succeeded, missed, gave up or shed) against
        ``max_jobs`` when set, simulated slots against ``max_slots``
        otherwise.  Purely
        observational — it sees counters, never simulation state — so
        attaching it cannot change results.

    Returns
    -------
    StreamResult
    """
    if max_jobs is None and max_slots is None:
        raise InvalidParameterError("set max_jobs and/or max_slots")
    if max_jobs is not None and max_jobs < 1:
        raise InvalidParameterError(f"max_jobs must be >= 1, got {max_jobs}")
    if max_slots is not None and max_slots < 1:
        raise InvalidParameterError(f"max_slots must be >= 1, got {max_slots}")
    if max_slots is None and process.mean_rate <= 0.0:
        raise InvalidParameterError(
            "max_jobs without max_slots requires a positive arrival rate"
        )
    if resume and checkpoint is None:
        raise InvalidParameterError("resume=True requires a checkpoint config")

    cfg_key = (
        _config_key(
            seed, process, factory, budget, max_jobs, max_slots, faults, jammer
        )
        if checkpoint is not None
        else None
    )
    if resume:
        state, healed = load_checkpoint(checkpoint.path)
        if state["config"] != cfg_key:
            raise CheckpointError(
                f"checkpoint {checkpoint.path} was written by a different "
                "run configuration; refusing to resume"
            )
        loop: _StreamLoop = state["loop"]
        loop.res.resumed_at_slot = loop.t
        loop.res.healed_checkpoint = loop.res.healed_checkpoint or healed
    else:
        loop = _StreamLoop(
            process,
            factory,
            seed,
            jammer,
            faults,
            budget,
            max_jobs,
            max_slots,
            StreamResult(
                seed=seed,
                process=process.describe(),
                offered_load=process.mean_rate,
                budget=budget.describe() if budget is not None else "none",
                latency_sketch=QuantileSketch(alpha=sketch_alpha),
                latency_sample=ReservoirSampler(reservoir_capacity, seed ^ 0x5EED),
                outcomes={} if record_outcomes else None,
            ),
        )
    loop.attach(factory, checkpoint, cfg_key, progress)
    loop.run(watchdog, process.max_window)
    return loop.finish()
