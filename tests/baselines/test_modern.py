"""Unit tests for the modern protocol zoo: softened, slow-feedback, no-CD."""

import numpy as np
import pytest

from repro.baselines.nocd import NoCollisionDetectionBackoff, nocd_factory
from repro.baselines.slowfeedback import (
    SlowFeedbackBackoff,
    slowfeedback_factory,
)
from repro.baselines.softened import (
    CollisionSofteningBackoff,
    softened_factory,
)
from repro.channel.feedback import Feedback, Observation
from repro.channel.messages import DataMessage
from repro.errors import InvalidParameterError
from repro.sim.engine import simulate
from repro.sim.protocolbase import ProtocolContext
from repro.workloads import batch_instance


def ctx(seed=0):
    return ProtocolContext(0, 1 << 12, np.random.default_rng(seed))


def silence():
    return Observation(Feedback.SILENCE)


def noise(transmitted=False):
    return Observation(Feedback.NOISE, transmitted=transmitted)


def other_success():
    return Observation(Feedback.SUCCESS, message=DataMessage(99))


class TestSoftened:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            CollisionSofteningBackoff(ctx(), growth=1.0)
        with pytest.raises(InvalidParameterError):
            CollisionSofteningBackoff(ctx(), soften=0.9)
        with pytest.raises(InvalidParameterError):
            CollisionSofteningBackoff(ctx(), initial_window=0.5)
        with pytest.raises(InvalidParameterError):
            CollisionSofteningBackoff(ctx(), max_window=1.0, initial_window=2.0)

    def test_own_collision_grows_subdoubling(self):
        p = CollisionSofteningBackoff(ctx(), growth=1.5)
        p.begin(0)
        assert p.act(0) is not None  # W=1 transmits surely
        p.observe(0, noise(transmitted=True))
        assert p.window_size == pytest.approx(1.5)

    def test_observed_success_softens(self):
        p = CollisionSofteningBackoff(ctx(), growth=1.5, soften=1.25)
        p.begin(0)
        p.act(0)
        p.observe(0, noise(transmitted=True))
        p.act(1)
        # make sure this slot wasn't an own collided attempt
        p._transmitted = False
        p.observe(1, other_success())
        assert p.window_size == pytest.approx(1.5 / 1.25)

    def test_window_floor_and_cap(self):
        p = CollisionSofteningBackoff(ctx(), max_window=2.0)
        p.begin(0)
        for slot in range(20):
            p.act(slot)
            p._transmitted = True
            p.observe(slot, noise(transmitted=True))
        assert p.window_size == 2.0
        for slot in range(20, 60):
            p.act(slot)
            p._transmitted = False
            p.observe(slot, other_success())
        assert p.window_size == 1.0


class TestSlowFeedback:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SlowFeedbackBackoff(ctx(), budget=0)
        with pytest.raises(InvalidParameterError):
            SlowFeedbackBackoff(ctx(), base=0)

    def test_budget_caps_attempts_per_epoch(self):
        p = SlowFeedbackBackoff(ctx(seed=5), budget=2, base=8)
        p.begin(0)
        sends = 0
        for slot in range(8):  # exactly epoch 0
            if p.act(slot) is not None:
                sends += 1
            p.observe(slot, silence())
        assert sends == 2

    def test_epochs_double(self):
        p = SlowFeedbackBackoff(ctx(), budget=1, base=2)
        p.begin(0)
        lengths = [p.epoch_len]
        for slot in range(2 + 4 + 8):
            p.act(slot)
            p.observe(slot, silence())
            if p.epoch_start == slot + 1:
                lengths.append(p.epoch_len)
        assert lengths[:4] == [2, 4, 8, 16]

    def test_short_epoch_transmits_every_slot(self):
        p = SlowFeedbackBackoff(ctx(), budget=4, base=2)
        p.begin(0)
        assert p.act(0) is not None
        p.observe(0, silence())
        assert p.act(1) is not None

    def test_energy_is_logarithmic(self):
        # over T slots, attempts <= budget * (#epochs) = O(budget log T)
        res = simulate(
            batch_instance(1, window=4096), slowfeedback_factory(2, 2), seed=0
        )
        import math

        assert res.total_energy <= 2 * (math.log2(4096) + 1)


class TestNoCD:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            NoCollisionDetectionBackoff(ctx(), initial_estimate=0.5)
        with pytest.raises(InvalidParameterError):
            NoCollisionDetectionBackoff(ctx(), patience=0.0)
        with pytest.raises(InvalidParameterError):
            NoCollisionDetectionBackoff(
                ctx(), initial_estimate=4.0, max_estimate=2.0
            )

    def test_success_decrements_estimate(self):
        p = NoCollisionDetectionBackoff(ctx(), initial_estimate=3.0)
        p.begin(0)
        p.act(0)
        p.observe(0, other_success())
        assert p.estimate == 2.0

    def test_successless_stretch_doubles_estimate(self):
        p = NoCollisionDetectionBackoff(
            ctx(), initial_estimate=2.0, patience=2.0
        )
        p.begin(0)
        for slot in range(4):  # patience * m = 4 successless slots
            p.act(slot)
            p.observe(slot, silence())
        assert p.estimate == 4.0

    def test_silence_and_noise_indistinguishable(self):
        # the no-CD feedback discipline: a silent slot and a collided
        # slot must drive the estimator identically
        a = NoCollisionDetectionBackoff(ctx(seed=1))
        b = NoCollisionDetectionBackoff(ctx(seed=1))
        a.begin(0)
        b.begin(0)
        for slot in range(10):
            a.act(slot)
            b.act(slot)
            a.observe(slot, silence())
            b.observe(slot, noise())
            assert a.estimate == b.estimate
            assert a._successless == b._successless

    def test_estimate_floor_and_cap(self):
        p = NoCollisionDetectionBackoff(
            ctx(), initial_estimate=1.0, patience=1.0, max_estimate=4.0
        )
        p.begin(0)
        p.act(0)
        p.observe(0, other_success())
        assert p.estimate == 1.0  # floor
        for slot in range(1, 40):
            p.act(slot)
            p.observe(slot, silence())
        assert p.estimate == 4.0  # cap


class TestEndToEnd:
    @pytest.mark.parametrize(
        "factory",
        [softened_factory(), slowfeedback_factory(), nocd_factory()],
        ids=["soft", "slowfb", "nocd"],
    )
    def test_batch_delivery_with_invariants(self, factory):
        res = simulate(
            batch_instance(8, window=1024), factory, seed=0, invariants=True
        )
        assert res.n_succeeded == 8
        assert res.total_energy >= 8  # a success costs at least one attempt
