"""Unit tests for the slot engine."""

from typing import Optional

import numpy as np
import pytest

from repro.channel.jamming import PeriodicJammer
from repro.channel.messages import DataMessage, Message
from repro.sim.engine import simulate
from repro.sim.instance import Instance
from repro.sim.job import Job, JobStatus
from repro.sim.protocolbase import Protocol, ProtocolContext


class FirstSlotProtocol(Protocol):
    """Transmits its data message in its first window slot only."""

    def on_act(self, slot) -> Optional[Message]:
        if self.local_age(slot) == 0:
            return DataMessage(self.ctx.job_id)
        return None

    def on_observe(self, slot, obs):
        if self.local_age(slot) >= 0 and not self.succeeded:
            self.gave_up = True


class NthSlotProtocol(Protocol):
    """Transmits at a fixed local age (set per job id for determinism)."""

    def on_act(self, slot) -> Optional[Message]:
        if self.local_age(slot) == self.ctx.job_id:
            return DataMessage(self.ctx.job_id)
        return None


def factory(cls):
    def make(job: Job, rng: np.random.Generator) -> Protocol:
        return cls(ProtocolContext.for_job(job, rng))

    return make


class TestEngineBasics:
    def test_single_job_succeeds(self):
        inst = Instance([Job(0, 0, 4)])
        res = simulate(inst, factory(FirstSlotProtocol))
        assert res.n_succeeded == 1
        assert res.outcome_of(0).completion_slot == 0
        assert res.outcome_of(0).latency == 1

    def test_two_jobs_same_slot_collide(self):
        inst = Instance([Job(0, 0, 4), Job(1, 0, 4)])
        res = simulate(inst, factory(FirstSlotProtocol))
        assert res.n_succeeded == 0
        statuses = {o.status for o in res.outcomes}
        assert statuses == {JobStatus.GAVE_UP}

    def test_staggered_jobs_all_succeed(self):
        inst = Instance([Job(i, 0, 8) for i in range(4)])
        res = simulate(inst, factory(NthSlotProtocol))
        assert res.n_succeeded == 4
        assert [res.outcome_of(i).completion_slot for i in range(4)] == [0, 1, 2, 3]

    def test_deadline_cuts_job(self):
        # job 3 transmits at local age 3, but its window is only 2 slots
        inst = Instance([Job(3, 0, 2)])
        res = simulate(inst, factory(NthSlotProtocol))
        assert res.outcome_of(3).status is JobStatus.FAILED

    def test_idle_gap_skipped(self):
        inst = Instance([Job(0, 0, 2), Job(1, 1000, 1002)])
        res = simulate(inst, factory(FirstSlotProtocol))
        assert res.n_succeeded == 2
        # only the busy slots are simulated, not the 998-slot gap
        assert res.slots_simulated < 20

    def test_empty_instance(self):
        res = simulate(Instance(()), factory(FirstSlotProtocol))
        assert len(res) == 0
        assert res.success_rate == 1.0

    def test_jamming_blocks_success(self):
        inst = Instance([Job(0, 0, 4)])
        res = simulate(
            inst, factory(FirstSlotProtocol), jammer=PeriodicJammer(1, [0])
        )
        assert res.n_succeeded == 0

    def test_transmission_counting(self):
        inst = Instance([Job(0, 0, 4), Job(1, 0, 4)])
        res = simulate(inst, factory(FirstSlotProtocol))
        assert res.outcome_of(0).transmissions == 1


class TestDeterminism:
    def test_same_seed_same_result(self):
        from repro.core.uniform import uniform_factory

        inst = Instance([Job(i, 0, 64) for i in range(16)])
        r1 = simulate(inst, uniform_factory(), seed=5)
        r2 = simulate(inst, uniform_factory(), seed=5)
        assert [o.status for o in r1.outcomes] == [o.status for o in r2.outcomes]
        assert [o.completion_slot for o in r1.outcomes] == [
            o.completion_slot for o in r2.outcomes
        ]

    def test_different_seeds_differ(self):
        from repro.core.uniform import uniform_factory

        inst = Instance([Job(i, 0, 64) for i in range(16)])
        slots1 = [
            o.completion_slot
            for o in simulate(inst, uniform_factory(), seed=1).outcomes
        ]
        slots2 = [
            o.completion_slot
            for o in simulate(inst, uniform_factory(), seed=2).outcomes
        ]
        assert slots1 != slots2


class TestTrace:
    def test_trace_records_every_slot(self):
        inst = Instance([Job(0, 0, 4)])
        res = simulate(inst, factory(FirstSlotProtocol), trace=True)
        assert res.trace is not None
        assert len(res.trace) == res.slots_simulated

    def test_trace_absent_by_default(self):
        inst = Instance([Job(0, 0, 4)])
        res = simulate(inst, factory(FirstSlotProtocol))
        assert res.trace is None

    def test_observer_called(self):
        seen = []
        inst = Instance([Job(0, 0, 3)])
        simulate(
            inst,
            factory(FirstSlotProtocol),
            observers=[lambda out, live: seen.append((out.slot, live))],
        )
        assert seen and seen[0][1] == (0,)


class TestHorizon:
    """``horizon`` ends the run at the first idle gap at or after it."""

    INSTANCE = Instance([Job(0, 0, 100), Job(1, 50, 150)])

    def test_live_job_keeps_later_jobs_activating(self):
        from repro.core.uniform import uniform_factory

        # job 0 is live at slot 40, so job 1 still activates at 50 and
        # the run lasts until job 1 retires
        res = simulate(self.INSTANCE, uniform_factory(), seed=0, horizon=40)
        assert res.slots_simulated == 121
        assert [o.completion_slot for o in res.outcomes] == [96, 120]

    def test_idle_gap_past_horizon_ends_the_run(self):
        from repro.core.uniform import uniform_factory

        # job 0 delivers at 48 and nobody is live past the horizon
        res = simulate(self.INSTANCE, uniform_factory(), seed=2, horizon=40)
        assert res.slots_simulated == 49
        late = res.outcome_of(1)
        assert late.status is JobStatus.FAILED
        assert late.transmissions == 0


class TestInstrumentationIsObservational:
    """Trace, observers, telemetry and invariants never change outcomes.

    They keep the engine stepping every live job every slot, while the
    plain runs below step sparsely (UNIFORM, beb and slowfb sleep
    between pre-drawn sends).
    """

    @pytest.mark.parametrize("jam", [0.0, 0.2])
    @pytest.mark.parametrize("name", ["uniform", "beb", "slowfb", "sawtooth"])
    def test_same_outcomes_with_and_without(self, name, jam):
        from repro.channel.jamming import StochasticJammer
        from repro.obs.telemetry import Telemetry
        from repro.registry import protocol_factory
        from repro.workloads import batch_instance

        inst = batch_instance(24, window=256).merged(
            batch_instance(8, window=64).relabeled(start=100).shifted(700)
        )

        def run(**kwargs):
            res = simulate(
                inst,
                protocol_factory(name, {}, inst),
                seed=3,
                jammer=StochasticJammer(jam) if jam else None,
                **kwargs,
            )
            return (
                res.slots_simulated,
                res.channel_attempts,
                [
                    (
                        o.status,
                        o.completion_slot,
                        o.transmissions,
                        o.jammed_transmissions,
                    )
                    for o in res.outcomes
                ],
            )

        plain = run()
        assert run(trace=True) == plain
        assert run(observers=[lambda outcome, ids: None]) == plain
        assert run(telemetry=Telemetry()) == plain
        assert run(invariants=True) == plain
