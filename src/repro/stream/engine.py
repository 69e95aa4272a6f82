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
``streaming-equivalence`` verification corpus enforces this).  The slot
loop therefore mirrors :func:`repro.sim.engine.simulate` statement for
statement wherever randomness is consumed:

* activation order is a heap keyed ``(activation, release, deadline,
  job_id)`` — exactly the closed engine's ``by_release`` order (and its
  fault-shifted stable re-sort) expressed incrementally;
* per-job streams come from :meth:`RngFactory.fresh`, which yields the
  same initial state as the closed engine's cached :meth:`stream`
  without growing the factory cache per job;
* gap jumps skip idle slots without touching the channel stream, and
  the jammer draws once per *simulated* slot in the same patterns;
* sparse wake-up (see :mod:`repro.sim.protocolbase`) skips ``act`` and
  ``observe`` for jobs whose protocol says they sleep, and with no
  jammer jumps over slots in which every live job sleeps — those count
  as simulated silent slots, exactly what the closed engine records
  for them;
* feedback corruption draws from the shared ``fault-feedback`` stream
  in live-list fan-out order, and per-job fault records come from
  :func:`repro.faults.plan.job_fault_record` on the job's own
  ``fault-job`` stream — identical decisions whether drawn up front
  (closed) or at arrival (here).

**Crash recovery.**  With a :class:`~repro.stream.checkpoint.CheckpointConfig`
attached, the engine snapshots its complete resumable state every
``every_slots`` simulated slots, *before* the slot is processed; a run
killed at any point resumes from the last checkpoint and produces
bit-identical final statistics (pickle memoization preserves the object
identity between protocols, their RNG streams, and the factory).
"""

from __future__ import annotations

import copy
import heapq
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cache import stable_digest
from repro.channel.feedback import Feedback, Observation
from repro.channel.jamming import Jammer, NoJammer
from repro.channel.messages import KIND_BEACON, KIND_DATA, Message
from repro.errors import InvalidParameterError, SimulationError
from repro.faults.plan import (
    FaultPlan,
    _JobRecord,
    fault_wrappers,
    job_fault_record,
)
from repro.obs.sketches import QuantileSketch, ReservoirSampler
from repro.sim.engine import ENGINE_VERSION, ProtocolFactory
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
STREAM_VERSION = 2

#: Admission-control policies for :class:`StreamBudget`.
POLICIES = ("shed-newest", "shed-loosest-deadline", "block")

# Shared immutable observations, as in the closed engine.
_OBS_SILENCE = Observation.silence(False)
_OBS_NOISE = Observation.noise(False)
_OBS_NOISE_TX = Observation.noise(True)
_SUCCESS = Feedback.SUCCESS

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
    outcomes: Optional[Dict[int, Tuple[JobStatus, int, int]]] = None

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
    """What a checkpoint must agree on to be resumable under this call."""
    return (
        STREAM_VERSION,
        ENGINE_VERSION,
        int(seed),
        process,
        stable_digest(factory),
        budget,
        max_jobs,
        max_slots,
        None if faults is None else faults.describe(),
        None if jammer is None else repr(jammer),
    )


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
        Keep a per-job ``{job_id: (status, delivery_slot, transmissions)}``
        dict — unbounded memory, for equivalence verification only.
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

    plan = faults if faults is not None and not faults.is_noop else None
    if plan is not None and plan.jammer is not None:
        if jammer is not None:
            raise InvalidParameterError(
                "got a jammer= argument and a FaultPlan with its own "
                "jammer; pick one adversary"
            )
        jammer = plan.jammer
    cfg_key = (
        _config_key(
            seed, process, factory, budget, max_jobs, max_slots, faults, jammer
        )
        if checkpoint is not None
        else None
    )

    pol = budget.policy if budget is not None else None
    max_live = budget.max_live if budget is not None else None

    if resume:
        state, healed = load_checkpoint(checkpoint.path)
        if state["config"] != cfg_key:
            raise CheckpointError(
                f"checkpoint {checkpoint.path} was written by a different "
                "run configuration; refusing to resume"
            )
        rngs: RngFactory = state["rngs"]
        ch_rng = state["ch_rng"]
        f_rng = state["f_rng"]
        corrupt = state["corrupt"]
        jf = state["jf"]
        cf = state["cf"]
        jam: Jammer = state["jam"]
        bound = state["bound"]
        t: int = state["t"]
        slots_simulated: int = state["slots_simulated"]
        next_id: int = state["next_id"]
        releasing: bool = state["releasing"]
        pending: list = state["pending"]
        blocked: deque = deque(state["blocked"])
        (
            live_ids,
            live_jobs,
            live_protos,
            live_act,
            live_observe,
            live_deadline,
            live_wake,
        ) = state["live"]
        delivered: Dict[int, int] = state["delivered"]
        res: StreamResult = state["result"]
        wd_progress_mark: int = state["wd_progress_mark"]
        res.resumed_at_slot = t
        res.healed_checkpoint = res.healed_checkpoint or healed
    else:
        rngs = RngFactory(seed)
        ch_rng = rngs.channel_rng()
        corrupt = None
        jf = cf = None
        if plan is not None:
            ff = plan.feedback
            corrupt = ff if ff is not None and not ff.is_noop else None
            jf = plan.jobs if plan.jobs is not None and not plan.jobs.is_noop else None
            cf = plan.clock if plan.clock is not None and not plan.clock.is_noop else None
        f_rng = rngs.stream("fault-feedback") if corrupt is not None else None
        jam = jammer if jammer is not None else NoJammer()
        if type(jam) is not NoJammer:
            jam.reset()
        bound = process.bind(rngs.stream("arrivals"))
        t = 0
        slots_simulated = 0
        next_id = 0
        releasing = True
        pending = []  # heap of (activation, release, deadline, job_id, job, rec)
        blocked = deque()
        live_ids = []
        live_jobs = []
        live_protos = []
        live_act = []
        live_observe = []
        live_deadline = []
        live_wake = []
        delivered = {}
        res = StreamResult(
            seed=seed,
            process=process.describe(),
            offered_load=process.mean_rate,
            budget=budget.describe() if budget is not None else "none",
            latency_sketch=QuantileSketch(alpha=sketch_alpha),
            latency_sample=ReservoirSampler(reservoir_capacity, seed ^ 0x5EED),
            outcomes={} if record_outcomes else None,
        )
        wd_progress_mark = 0

    no_jam = type(jam) is NoJammer
    have_job_faults = jf is not None or cf is not None
    outcomes = res.outcomes
    # Sparse wake-up needs every skipped call to be a no-op.  Feedback
    # faults draw f_rng once per listener per slot, and per-job fault
    # wrappers keep their own clocks, so either keeps every job awake.
    # ``live_wake[i]`` is the engine slot job i next needs stepping, or
    # -1 for a job stepped every slot; ``n_sparse`` counts the former.
    sparse_ok = corrupt is None and not have_job_faults
    n_sparse = len(live_wake) - live_wake.count(-1)

    wd = watchdog if watchdog is not None and watchdog.enabled else None
    wd_trip: Optional[WatchdogTrip] = None
    if wd is not None:
        wd_slot_limit = wd.max_slots
        wd_deadline = (
            time.perf_counter() + wd.max_seconds
            if wd.max_seconds is not None
            else None
        )
        wd_stall_limit = wd.stall_slots(process.max_window)

    ckpt = checkpoint
    if ckpt is not None:
        every = ckpt.every_slots
        next_mark = (slots_simulated // every + 1) * every

    sketch = res.latency_sketch
    sample = res.latency_sample

    def report_progress() -> None:
        if max_jobs is not None:
            progress(
                res.jobs_succeeded
                + res.jobs_missed
                + res.jobs_gave_up
                + res.jobs_shed,
                max_jobs,
            )
        else:
            progress(slots_simulated, max_slots)

    def finalize(job: Job, proto: Protocol) -> None:
        comp = delivered.pop(job.job_id, -1)
        if comp >= 0:
            status = JobStatus.SUCCEEDED
            res.jobs_succeeded += 1
            latency = comp - job.release + 1
            sketch.offer(latency)
            sample.offer(latency)
        elif proto.gave_up:
            status = JobStatus.GAVE_UP
            res.jobs_gave_up += 1
        else:
            status = JobStatus.FAILED
            res.jobs_missed += 1
        if proto.succeeded and status is not JobStatus.SUCCEEDED:
            raise SimulationError(
                f"job {job.job_id} claims success but no delivery was observed"
            )
        res.transmissions += proto.transmissions
        if outcomes is not None:
            outcomes[job.job_id] = (status, comp, proto.transmissions)

    def shed(reason: str) -> None:
        res.shed[reason] = res.shed.get(reason, 0) + 1

    def admit(job: Job, rec: Optional[_JobRecord], at: int) -> None:
        nonlocal n_sparse
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
        proto = factory(job, rngs.fresh("job", job.job_id))
        act_fn, observe_fn = fault_wrappers(job, proto, at, rec)
        live_ids.append(job.job_id)
        live_jobs.append(job)
        live_protos.append(proto)
        live_act.append(act_fn)
        live_observe.append(observe_fn)
        live_deadline.append(job.deadline)
        next_wake = getattr(proto, "next_wake", None) if sparse_ok else None
        if next_wake is None:
            live_wake.append(-1)
        else:
            live_wake.append(next_wake(at))
            n_sparse += 1
        res.jobs_admitted += 1
        if len(live_ids) > res.peak_live:
            res.peak_live = len(live_ids)

    while True:
        # 0. checkpoint — before anything of slot t is processed, so a
        # resumed run re-enters the loop at exactly this point.
        if ckpt is not None and slots_simulated >= next_mark:
            res.final_slot = t
            save_checkpoint(
                ckpt.path,
                {
                    "config": cfg_key,
                    "rngs": rngs,
                    "ch_rng": ch_rng,
                    "f_rng": f_rng,
                    "corrupt": corrupt,
                    "jf": jf,
                    "cf": cf,
                    "jam": jam,
                    "bound": bound,
                    "t": t,
                    "slots_simulated": slots_simulated,
                    "next_id": next_id,
                    "releasing": releasing,
                    "pending": pending,
                    "blocked": list(blocked),
                    "live": (
                        live_ids,
                        live_jobs,
                        live_protos,
                        live_act,
                        live_observe,
                        live_deadline,
                        live_wake,
                    ),
                    "delivered": delivered,
                    "result": res,
                    "wd_progress_mark": wd_progress_mark,
                },
            )
            res.checkpoints_written += 1
            next_mark = (slots_simulated // every + 1) * every

        # 1a. drain the blocked FIFO into freed live slots.
        if blocked:
            while blocked and len(live_protos) < max_live:
                job, rec = blocked.popleft()
                if rec is not None and 0 <= rec.crash_slot <= t:
                    shed("crashed-blocked")
                    continue
                if t >= job.deadline:
                    shed("expired-blocked")
                    continue
                admit(job, rec, t)

        # 1b. discover arrivals released at slot t.
        if releasing:
            if max_slots is not None and t >= max_slots:
                releasing = False
            else:
                for w in bound.arrivals_at(t):
                    if max_jobs is not None and res.jobs_released >= max_jobs:
                        releasing = False
                        break
                    job = Job(next_id, t, t + w)
                    rec = (
                        job_fault_record(
                            jf, cf, job, rngs.fresh("fault-job", next_id)
                        )
                        if have_job_faults
                        else None
                    )
                    heapq.heappush(
                        pending,
                        (
                            rec.activation if rec is not None else t,
                            t,
                            job.deadline,
                            next_id,
                            job,
                            rec,
                        ),
                    )
                    next_id += 1
                    res.jobs_released += 1

        # 1c. activate pending jobs whose slot arrived, in the closed
        # engine's order: (activation, release, deadline, job_id).
        activated = False
        while pending and pending[0][0] == t:
            _, _, _, _, job, rec = heapq.heappop(pending)
            activated = True
            if max_live is None or len(live_protos) < max_live:
                admit(job, rec, t)
            elif pol == "shed-newest":
                shed("arrival")
            elif pol == "shed-loosest-deadline":
                best = -1
                bk = None
                for i in range(len(live_protos)):
                    if live_ids[i] in delivered:
                        continue
                    k = (live_deadline[i], live_ids[i])
                    if bk is None or k > bk:
                        bk = k
                        best = i
                if bk is not None and bk > (job.deadline, job.job_id):
                    res.transmissions += live_protos[best].transmissions
                    shed("evicted")
                    del live_ids[best]
                    del live_jobs[best]
                    del live_protos[best]
                    del live_act[best]
                    del live_observe[best]
                    del live_deadline[best]
                    if live_wake.pop(best) >= 0:
                        n_sparse -= 1
                    admit(job, rec, t)
                else:
                    shed("arrival")
            else:  # block
                if len(blocked) < budget.capacity:
                    blocked.append((job, rec))
                else:
                    shed("queue-full")
        if wd is not None and activated:
            wd_progress_mark = slots_simulated

        # 1d. jump over idle gaps — no slot simulated, no jam draw,
        # exactly like the closed engine's gap jump.
        if not live_protos:
            nxt = pending[0][0] if pending else None
            if releasing:
                start = t + 1
                if max_slots is not None:
                    arr = (
                        bound.next_arrival_at(start, max_slots)
                        if start < max_slots
                        else None
                    )
                    if arr is None:
                        releasing = False
                else:
                    arr = None
                    while arr is None:
                        arr = bound.next_arrival_at(start, start + _SCAN_CHUNK)
                        if arr is None:
                            start += _SCAN_CHUNK
                if arr is not None and (nxt is None or arr < nxt):
                    nxt = arr
            if nxt is None:
                break
            t = nxt
            bound.release_before(t)
            continue

        n_live = len(live_protos)
        awake = (
            [i for i in range(n_live) if live_wake[i] <= t] if n_sparse else None
        )
        idx = range(n_live) if awake is None else awake

        step = 1
        if awake is not None and not awake and no_jam:
            # 2'. every live job sleeps and nothing draws per slot: jump
            # to the next event.  Slot t is simulated below as a silent
            # slot with no one stepped; the other skipped slots are
            # counted here.  Stopping at each deadline, arrival,
            # activation, checkpoint mark and watchdog trip point keeps
            # retirement, admission, checkpoints and trips on the slots
            # where dense stepping has them.
            nxt = min(min(live_wake), min(live_deadline))
            if pending:
                nxt = min(nxt, pending[0][0])
            if ckpt is not None:
                nxt = min(nxt, t + next_mark - slots_simulated)
            if wd is not None:
                if wd_slot_limit is not None:
                    nxt = min(nxt, t + wd_slot_limit - slots_simulated)
                if wd_stall_limit is not None:
                    stall_at = wd_progress_mark + wd_stall_limit
                    nxt = min(nxt, t + max(1, stall_at - slots_simulated))
            if releasing:
                if max_slots is not None:
                    nxt = min(nxt, max_slots)
                arr = bound.next_arrival_at(t + 1, nxt)
                if arr is not None:
                    nxt = arr
            step = nxt - t
            slots_simulated += step - 1
            res.silence_slots += step - 1

        # 2. collect actions.
        transmissions: List[Tuple[int, Message]] = []
        tx_idx: List[int] = []
        for i in idx:
            msg = live_act[i](t)
            if msg is not None:
                transmissions.append((live_ids[i], msg))
                tx_idx.append(i)

        # 3 + 4. resolve the slot and fan the observation out — the
        # closed engine's inlined resolve_slot(), randomness included.
        slots_simulated += 1
        delivered_now = -1
        n_tx = len(transmissions)
        if n_tx == 0:
            jammed = (not no_jam) and jam.attempt(t, 0, None, ch_rng)
            obs = _OBS_NOISE if jammed else _OBS_SILENCE
            if jammed:
                res.jammed_slots += 1
            else:
                res.silence_slots += 1
            if corrupt is None:
                for i in idx:
                    live_observe[i](t, obs)
            else:
                for i in idx:
                    live_observe[i](t, corrupt.corrupt(obs, f_rng))
        elif n_tx == 1:
            jid0, msg0 = transmissions[0]
            i0 = tx_idx[0]
            jammed = (not no_jam) and jam.attempt(t, 1, msg0, ch_rng)
            if jammed:
                res.jammed_slots += 1
                if corrupt is None:
                    for i in idx:
                        live_observe[i](
                            t, _OBS_NOISE_TX if i == i0 else _OBS_NOISE
                        )
                else:
                    for i in idx:
                        live_observe[i](
                            t,
                            corrupt.corrupt(
                                _OBS_NOISE_TX if i == i0 else _OBS_NOISE,
                                f_rng,
                            ),
                        )
            else:
                res.success_slots += 1
                kind = msg0.kind
                if kind == KIND_DATA:
                    delivered.setdefault(msg0.sender, t)
                    delivered_now = msg0.sender
                elif kind == KIND_BEACON and msg0.payload is not None:
                    delivered.setdefault(msg0.payload.sender, t)
                    delivered_now = msg0.payload.sender
                obs_listen = Observation(_SUCCESS, msg0, False, False)
                obs_tx = Observation(_SUCCESS, msg0, True, msg0.sender == jid0)
                if corrupt is None:
                    for i in idx:
                        live_observe[i](t, obs_tx if i == i0 else obs_listen)
                else:
                    for i in idx:
                        live_observe[i](
                            t,
                            corrupt.corrupt(
                                obs_tx if i == i0 else obs_listen, f_rng
                            ),
                        )
        else:
            jammed = (not no_jam) and jam.attempt(t, n_tx, None, ch_rng)
            res.collision_slots += 1
            if jammed:
                res.jammed_slots += 1
            k = 0
            if corrupt is None:
                for i in idx:
                    if k < n_tx and tx_idx[k] == i:
                        live_observe[i](t, _OBS_NOISE_TX)
                        k += 1
                    else:
                        live_observe[i](t, _OBS_NOISE)
            else:
                for i in idx:
                    if k < n_tx and tx_idx[k] == i:
                        live_observe[i](t, corrupt.corrupt(_OBS_NOISE_TX, f_rng))
                        k += 1
                    else:
                        live_observe[i](t, corrupt.corrupt(_OBS_NOISE, f_rng))

        if awake:
            for i in awake:
                if live_wake[i] >= 0:
                    live_wake[i] = live_protos[i].next_wake(t + 1)

        # 5. retire — compaction preserves order, as in the closed engine.
        t += step
        any_dead = False
        for i in range(n_live):
            p = live_protos[i]
            if p.succeeded or p.gave_up or t >= live_deadline[i]:
                any_dead = True
                break
        if any_dead:
            keep_ids: List[int] = []
            keep_jobs: List[Job] = []
            keep_protos: List[Protocol] = []
            keep_act: List[Callable[[int], Optional[Message]]] = []
            keep_observe: List[Callable[[int, Observation], None]] = []
            keep_deadline: List[int] = []
            keep_wake: List[int] = []
            for i in range(n_live):
                p = live_protos[i]
                if p.succeeded or p.gave_up or t >= live_deadline[i]:
                    finalize(live_jobs[i], p)
                else:
                    keep_ids.append(live_ids[i])
                    keep_jobs.append(live_jobs[i])
                    keep_protos.append(p)
                    keep_act.append(live_act[i])
                    keep_observe.append(live_observe[i])
                    keep_deadline.append(live_deadline[i])
                    keep_wake.append(live_wake[i])
            live_ids = keep_ids
            live_jobs = keep_jobs
            live_protos = keep_protos
            live_act = keep_act
            live_observe = keep_observe
            live_deadline = keep_deadline
            live_wake = keep_wake
            if n_sparse:
                n_sparse = len(live_wake) - live_wake.count(-1)

        # Housekeeping on the 256-slot cadence; a jump also releases
        # arrival history and reports progress if it crossed a mark.
        crossed = (t >> 8) != ((t - step) >> 8)
        if crossed or step > 1:
            bound.release_before(t)
            if crossed and progress is not None:
                report_progress()

        if wd is not None:
            if delivered_now >= 0:
                wd_progress_mark = slots_simulated
            if wd_slot_limit is not None and slots_simulated >= wd_slot_limit:
                wd_trip = WatchdogTrip(
                    REASON_SLOTS,
                    t - 1,
                    slots_simulated,
                    f"max_slots={wd_slot_limit}",
                )
            elif (
                wd_stall_limit is not None
                and live_protos
                and slots_simulated - wd_progress_mark >= wd_stall_limit
            ):
                wd_trip = WatchdogTrip(
                    REASON_STALL,
                    t - 1,
                    slots_simulated,
                    f"no delivery for {wd_stall_limit} slots "
                    f"(stall_factor={wd.stall_factor:g})",
                )
            elif (
                wd_deadline is not None
                and (step > 1 or slots_simulated % WALL_CHECK_PERIOD == 0)
                and time.perf_counter() > wd_deadline
            ):
                wd_trip = WatchdogTrip(
                    REASON_WALL,
                    t - 1,
                    slots_simulated,
                    f"max_seconds={wd.max_seconds:g}",
                )
            if wd_trip is not None:
                break

        if not releasing and not pending and not blocked and not live_protos:
            break

    if wd_trip is not None:
        # Graceful cancellation: live jobs finalize like a horizon cut;
        # jobs still pending/blocked count as misses with zero attempts.
        res.watchdog = wd_trip
        for i in range(len(live_protos)):
            finalize(live_jobs[i], live_protos[i])
        for entry in pending:
            res.jobs_missed += 1
            if outcomes is not None:
                outcomes[entry[3]] = (JobStatus.FAILED, -1, 0)
        for job, _rec in blocked:
            res.jobs_missed += 1
            if outcomes is not None:
                outcomes[job.job_id] = (JobStatus.FAILED, -1, 0)

    res.slots_simulated = slots_simulated
    res.final_slot = t
    if progress is not None:
        report_progress()
    return res
