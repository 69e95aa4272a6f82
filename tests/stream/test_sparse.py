"""Sparse wake-up stepping: skipping sleeping jobs must be bit-exact.

Protocols that pre-draw their sends expose ``next_wake`` and both
engines skip their ``act``/``observe`` calls (and, without a jammer,
whole slots) until then.  Masking ``next_wake`` on the instance makes
the engine step the same protocol every slot, so each run below is
compared against its own dense twin.
"""

import copy
import enum
import json
import os
import tempfile
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.beb import BinaryExponentialBackoff, beb_factory
from repro.baselines.edf import OracleEdfProtocol, edf_factory
from repro.baselines.slowfeedback import SlowFeedbackBackoff, slowfeedback_factory
from repro.baselines.softened import softened_factory
from repro.baselines.windowed import (
    WindowedBackoff,
    fixed_window_factory,
    linear_backoff_factory,
)
from repro.channel.feedback import Feedback, Observation
from repro.channel.jamming import StochasticJammer
from repro.channel.messages import DataMessage, LeaderClaim, TimekeeperBeacon
from repro.core.punctual import PunctualProtocol, Stage, punctual_factory
from repro.core.uniform import UniformProtocol, uniform_factory
from repro.params import PunctualParams, UniformParams
from repro.sim.engine import simulate
from repro.sim.job import Job
from repro.sim.protocolbase import ProtocolContext
from repro.sim.rng import RngFactory
from repro.sim.watchdog import Watchdog
from repro.stream.arrivals import (
    BurstyProcess,
    DiurnalProcess,
    PoissonProcess,
    materialize,
)
from repro.stream.checkpoint import CheckpointConfig
from repro.stream.engine import StreamBudget, stream_simulate

#: PUNCTUAL with a ``log(w)``-slot pullback (default ``2·log²(w)``).
SHORT_PULLBACK = PunctualParams(lam=1, slingshot_exp=1)


class Dense:
    """A factory wrapper hiding ``next_wake`` from the engine."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, job, rng):
        proto = self.inner(job, rng)
        proto.next_wake = None
        return proto


class Counting:
    """A factory wrapper counting ``act`` calls of the protocols it makes."""

    def __init__(self, inner):
        self.inner = inner
        self.acts = 0

    def __call__(self, job, rng):
        proto = self.inner(job, rng)
        act = proto.act

        def counted(slot):
            self.acts += 1
            return act(slot)

        proto.act = counted
        return proto


SPARSE = {
    "uniform": uniform_factory,
    "uniform2": lambda: uniform_factory(UniformParams(attempts=2)),
    "beb": beb_factory,
    "fixed": lambda: fixed_window_factory(8),
    "linear": linear_backoff_factory,
    "slowfb": slowfeedback_factory,
    # PUNCTUAL sleeps in its ANARCHIST stage only; the short pullback
    # sends more jobs there, through RECHECK_TK
    "punctual": lambda: punctual_factory(PunctualParams()),
    "punctual-short": lambda: punctual_factory(SHORT_PULLBACK),
}

#: Closed runs also cover the EDF oracle, whose factory needs the instance.
CLOSED_SPARSE = {
    **{name: (lambda instance, make=make: make()) for name, make in SPARSE.items()},
    "edf": edf_factory,
}

PROCESSES = {
    "poisson": PoissonProcess(rate=0.08, window_sizes=(16, 64)),
    "bursty": BurstyProcess(
        calm_rate=0.02,
        burst_rate=0.6,
        p_enter=0.01,
        p_exit=0.1,
        window_sizes=(16, 64),
    ),
    "diurnal": DiurnalProcess(
        base_rate=0.06, amplitude=0.8, period=256, window_sizes=(32,)
    ),
}

BUDGETS = {
    "none": None,
    "shed-newest": StreamBudget(3),
    "shed-loosest-deadline": StreamBudget(3, "shed-loosest-deadline"),
    "block": StreamBudget(3, "block", 2),
}


def _observed(res):
    # JSON text, because an empty sketch reports NaN quantiles
    return (
        json.dumps(res.to_dict(), sort_keys=True),
        res.latency_sample.values.tolist(),
        res.outcomes,
        res.checkpoints_written,
        res.watchdog,
    )


#: Windowed schedules are lambdas, so those protocols cannot be pickled
#: into a checkpoint.
UNPICKLABLE = ("fixed", "linear")


def _run(factory, cfg, tmpdir, tag):
    ckpt = None
    if cfg["every"] is not None and cfg["protocol"] not in UNPICKLABLE:
        ckpt = CheckpointConfig(os.path.join(tmpdir, tag), every_slots=cfg["every"])
    progress = []
    kwargs = dict(
        seed=cfg["seed"],
        budget=cfg["budget"],
        jammer=StochasticJammer(0.1) if cfg["jam"] else None,
        watchdog=cfg["watchdog"],
        checkpoint=ckpt,
        record_outcomes=True,
        **cfg["limit"],
    )
    res = stream_simulate(
        cfg["process"],
        factory,
        progress=lambda done, total: progress.append((done, total)),
        **kwargs,
    )
    if ckpt is not None and res.checkpoints_written:
        # resuming from the last checkpoint (wake list included) must
        # land on the same result
        resumed = stream_simulate(cfg["process"], factory, resume=True, **kwargs)
        assert _resumable(resumed) == _resumable(res)
    # Progress is observational: a jump reports once per crossing, so
    # only the final call has to agree.
    return _observed(res) + (progress[-1],)


def _resumable(res):
    d = res.to_dict()
    del d["checkpoints_written"], d["resumed_at_slot"]
    return json.dumps(d, sort_keys=True), res.latency_sample.values.tolist()


configs = st.fixed_dictionaries(
    {
        "protocol": st.sampled_from(sorted(SPARSE)),
        "process": st.sampled_from(sorted(PROCESSES)).map(PROCESSES.get),
        "budget": st.sampled_from(sorted(BUDGETS)).map(BUDGETS.get),
        "jam": st.booleans(),
        "limit": st.one_of(
            st.integers(20, 150).map(lambda n: {"max_jobs": n}),
            st.integers(100, 900).map(lambda n: {"max_slots": n}),
        ),
        "every": st.one_of(st.none(), st.integers(7, 90)),
        "watchdog": st.sampled_from(
            [
                None,
                Watchdog(stall_factor=0.5),
                Watchdog(stall_factor=2.0),
                Watchdog(max_slots=300),
            ]
        ),
        "seed": st.integers(0, 2**16),
    }
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cfg=configs)
def test_sparse_stepping_matches_dense_stepping(cfg):
    make = SPARSE[cfg["protocol"]]
    with tempfile.TemporaryDirectory() as tmpdir:
        sparse = _run(make(), cfg, tmpdir, "sparse.ck")
        dense = _run(Dense(make()), cfg, tmpdir, "dense.ck")
    assert sparse == dense


@pytest.mark.parametrize(
    "watchdog",
    [None, Watchdog(max_slots=300), Watchdog(stall_factor=0.5)],
    ids=["none", "slot-budget", "stall"],
)
@pytest.mark.parametrize("every", [None, 37])
def test_jumps_stop_at_checkpoint_marks_and_trip_points(watchdog, every):
    # UNIFORM at a low rate jumps across most of these marks
    for seed in range(6):
        cfg = {
            "protocol": "uniform",
            "process": PROCESSES["poisson"],
            "budget": None,
            "jam": False,
            "limit": {"max_slots": 900},
            "every": every,
            "watchdog": watchdog,
            "seed": seed,
        }
        with tempfile.TemporaryDirectory() as tmpdir:
            sparse = _run(uniform_factory(), cfg, tmpdir, "sparse.ck")
            dense = _run(Dense(uniform_factory()), cfg, tmpdir, "dense.ck")
        assert sparse == dense


@pytest.mark.parametrize("name", sorted(SPARSE))
def test_sparse_stepping_skips_sleeping_jobs(name):
    process = PoissonProcess(rate=0.05, window_sizes=(256, 1024))
    sparse, dense = Counting(SPARSE[name]()), Counting(Dense(SPARSE[name]()))
    a = stream_simulate(process, sparse, seed=4, max_jobs=200)
    b = stream_simulate(process, dense, seed=4, max_jobs=200)
    assert _observed(a) == _observed(b)
    assert sparse.acts < dense.acts
    # every skipped slot is still a simulated silent slot
    assert a.slots_simulated == b.slots_simulated


def test_dense_protocols_keep_dense_stepping():
    # soft draws a coin every slot: no next_wake, nothing to skip
    process = PoissonProcess(rate=0.2, window_sizes=(16, 64))
    a = stream_simulate(process, softened_factory(), seed=2, max_jobs=300)
    b = stream_simulate(process, Dense(softened_factory()), seed=2, max_jobs=300)
    assert _observed(a) == _observed(b)


closed_configs = st.fixed_dictionaries(
    {
        "protocol": st.sampled_from(sorted(CLOSED_SPARSE)),
        "process": st.sampled_from(sorted(PROCESSES)).map(PROCESSES.get),
        "jam": st.booleans(),
        "slots": st.integers(100, 900),
        "horizon": st.one_of(st.none(), st.integers(50, 900)),
        "watchdog": st.sampled_from(
            [
                None,
                Watchdog(stall_factor=0.5),
                Watchdog(max_slots=300),
            ]
        ),
        "seed": st.integers(0, 2**16),
    }
)


def _closed(name, cfg, dense):
    instance = materialize(
        cfg["process"], RngFactory(cfg["seed"]).stream("arrivals"), cfg["slots"]
    )
    factory = CLOSED_SPARSE[name](instance)
    if dense:
        factory = Dense(factory)
    res = simulate(
        instance,
        factory,
        seed=cfg["seed"],
        jammer=StochasticJammer(0.1) if cfg["jam"] else None,
        horizon=cfg["horizon"],
        watchdog=cfg["watchdog"],
    )
    return (
        res.slots_simulated,
        res.channel_attempts,
        res.watchdog,
        [
            (o.status, o.completion_slot, o.transmissions, o.jammed_transmissions)
            for o in res.outcomes
        ],
    )


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cfg=closed_configs)
def test_closed_sparse_stepping_matches_dense_stepping(cfg):
    name = cfg["protocol"]
    assert _closed(name, cfg, dense=False) == _closed(name, cfg, dense=True)


@pytest.mark.parametrize("name", sorted(CLOSED_SPARSE))
def test_closed_sparse_stepping_skips_sleeping_jobs(name):
    instance = materialize(
        PoissonProcess(rate=0.05, window_sizes=(256, 1024)),
        RngFactory(4).stream("arrivals"),
        3000,
    )
    make = CLOSED_SPARSE[name]
    sparse = Counting(make(instance))
    dense = Counting(Dense(make(instance)))
    a = simulate(instance, sparse, seed=4)
    b = simulate(instance, dense, seed=4)
    assert a.outcomes == b.outcomes
    assert a.slots_simulated == b.slots_simulated
    assert sparse.acts < dense.acts


# ---------------------------------------------------------------------------
# the wake contract, per protocol
# ---------------------------------------------------------------------------

CONTRACT = {
    "uniform": lambda ctx, job: UniformProtocol(ctx, UniformParams()),
    "uniform3": lambda ctx, job: UniformProtocol(ctx, UniformParams(attempts=3)),
    "beb": lambda ctx, job: BinaryExponentialBackoff(ctx, 1, 16),
    "beb4": lambda ctx, job: BinaryExponentialBackoff(ctx, 4, 3),
    "fixed": lambda ctx, job: WindowedBackoff(ctx, lambda k: 8, "fixed"),
    "linear": lambda ctx, job: WindowedBackoff(ctx, lambda k: 3 * k, "linear"),
    "slowfb": lambda ctx, job: SlowFeedbackBackoff(ctx, 2, 2),
    "slowfb1": lambda ctx, job: SlowFeedbackBackoff(ctx, 1, 5),
    "edf": lambda ctx, job: OracleEdfProtocol(ctx, job.release + job.window // 2),
    "edf-unassigned": lambda ctx, job: OracleEdfProtocol(ctx, None),
    "punctual": lambda ctx, job: PunctualProtocol(ctx, SHORT_PULLBACK),
}

_BASE_STATE = ("started", "start_slot", "succeeded", "gave_up", "transmissions")


def _plain(value):
    """``value`` as comparable data.

    Objects compared by identity (the round synchronizer, the leader
    tracker, the ALIGNED machine and its view) become their ``vars()``,
    recursively, and a generator becomes its bit-generator state.
    """
    if isinstance(value, enum.Enum):
        return value
    if isinstance(value, np.random.Generator):
        return copy.deepcopy(value.bit_generator.state)
    if isinstance(value, (list, tuple, deque)):
        return (type(value).__name__, [_plain(v) for v in value])
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if type(value).__eq__ is object.__eq__ and hasattr(value, "__dict__"):
        return (type(value).__name__, _plain(vars(value)))
    return copy.deepcopy(value)


def _state(proto):
    snap = {k: _plain(v) for k, v in vars(proto).items() if k != "last_p"}
    snap.update((k, getattr(proto, k)) for k in _BASE_STATE)
    snap["rng"] = copy.deepcopy(proto.ctx.rng.bit_generator.state)
    return snap


def _feedback(rng, proto, msg):
    """A random channel outcome consistent with the job's own action."""
    u = rng.random()
    if msg is not None:
        if u < 0.3:
            return Observation(Feedback.SUCCESS, msg, True, True)
        return Observation.noise(True)
    if u < 0.3:
        other = DataMessage(proto.ctx.job_id + 1)
        return Observation(Feedback.SUCCESS, other, False, False)
    return Observation.noise(False) if u < 0.6 else Observation.silence(False)


def _drive(name, proto, job, rng, feedback=_feedback):
    """Step ``proto`` every slot of its window, checking that it neither
    sends nor changes state before each wake; returns (slept, woke)."""
    proto.begin(job.release)
    wake = proto.next_wake(job.release)
    assert wake >= job.release
    slept = woke = 0
    for slot in range(job.release, job.deadline):
        if proto.done:
            break
        before = _state(proto)
        msg = proto.act(slot)
        proto.observe(slot, feedback(rng, proto, msg))
        if slot < wake:
            slept += 1
            assert msg is None, f"{name} sent at {slot} before its wake {wake}"
            assert _state(proto) == before, f"{name} changed state at {slot}"
        else:
            woke += 1
            assert slot == wake, f"{name} slept through its wake {wake}"
            if proto.done:
                break
            wake = proto.next_wake(slot + 1)
            assert wake > slot
    return slept, woke


@pytest.mark.parametrize("name", sorted(CONTRACT))
@pytest.mark.parametrize("seed", range(12))
def test_wake_contract(name, seed):
    rng = np.random.default_rng(seed)
    release = int(rng.integers(0, 50))
    job = Job(7, release, release + int(rng.choice([1, 2, 16, 64, 200])))
    ctx = ProtocolContext.for_job(job, np.random.default_rng(seed))
    slept, woke = _drive(name, CONTRACT[name](ctx, job), job, rng)
    assert woke >= 1 or slept == job.window


def _leader_after_anarchy(rng, proto, msg):
    """:func:`_feedback`, except that the job's own leader claims collide,
    so it goes from its pullback to anarchy; once it is an anarchist, a
    leader's beacons and claims fill some of the slots it listens in."""
    if isinstance(msg, LeaderClaim):
        rng.random()
        return Observation.noise(True)
    if msg is None and proto.stage is Stage.ANARCHIST and rng.random() < 0.3:
        other = proto.ctx.job_id + 1
        if rng.random() < 0.5:
            leader = TimekeeperBeacon(
                other, global_time=50, deadline=40, abdicating=False
            )
        else:
            leader = LeaderClaim(other, deadline=60)
        return Observation(Feedback.SUCCESS, leader, False, False)
    return _feedback(rng, proto, msg)


@pytest.mark.parametrize("seed", range(12))
def test_wake_contract_punctual_anarchist(seed):
    rng = np.random.default_rng(seed)
    release = int(rng.integers(0, 50))
    job = Job(7, release, release + int(rng.choice([300, 700, 1024])))
    proto = PunctualProtocol(
        ProtocolContext.for_job(job, np.random.default_rng(seed)), SHORT_PULLBACK
    )
    slept, woke = _drive("punctual", proto, job, rng, _leader_after_anarchy)
    assert proto.stage is Stage.ANARCHIST
    assert slept > 0 and woke > 0
