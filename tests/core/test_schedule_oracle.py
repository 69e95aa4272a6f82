"""The incremental pecking-order view against a scanning reference.

:class:`repro.core.schedule.PeckingOrderView` keeps its runs' lengths
and the active class incrementally.  The reference below is the direct
reading of Section 3 that it replaced: every slot it resets every class
whose size divides the slot, recomputes each run's length from its
estimate, and scans all tracked classes for the smallest unfinished
one.  Both are fed the same feedback and must agree in every slot.
"""

import random
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.broadcast import BroadcastSchedule, total_active_steps
from repro.core.estimation import estimation_length, phase_of_step, resolve_estimate
from repro.core.schedule import (
    BroadcastStep,
    ClassRun,
    EstimationStep,
    PeckingOrderView,
    StepKind,
)
from repro.errors import ProtocolViolationError
from repro.params import AlignedParams


class RefClassRun:
    """One class's run, every length recomputed on each query."""

    def __init__(self, level: int, params: AlignedParams) -> None:
        self.level = level
        self.params = params
        self.steps_taken = 0
        self.counts: List[int] = [0] * level
        self.estimate: Optional[int] = None
        self.schedule: Optional[BroadcastSchedule] = None
        if level == 0:
            self.estimate = 0
            self.schedule = BroadcastSchedule.trivial()

    @property
    def estimation_steps(self) -> int:
        return estimation_length(self.level, self.params.lam)

    @property
    def total_steps(self) -> Optional[int]:
        if self.level == 0:
            return 1
        if self.estimate is None:
            return None
        return total_active_steps(self.level, self.estimate, self.params.lam)

    @property
    def done(self) -> bool:
        total = self.total_steps
        return total is not None and self.steps_taken >= total

    def next_step(self):
        if self.done:
            raise ProtocolViolationError("run complete")
        if self.level > 0 and self.steps_taken < self.estimation_steps:
            phase = phase_of_step(self.level, self.params.lam, self.steps_taken)
            return EstimationStep(StepKind.ESTIMATION, phase)
        bstep = self.steps_taken - self.estimation_steps
        return BroadcastStep(StepKind.BROADCAST, self.schedule.position(bstep))

    def advance(self, success: bool) -> None:
        if self.done:
            raise ProtocolViolationError("advance() on completed run")
        if self.level > 0 and self.steps_taken < self.estimation_steps:
            phase = phase_of_step(self.level, self.params.lam, self.steps_taken)
            if success:
                self.counts[phase - 1] += 1
            self.steps_taken += 1
            if self.steps_taken >= self.estimation_steps:
                self.estimate = resolve_estimate(
                    self.counts, self.params.tau, self.level
                )
                if self.estimate:
                    self.schedule = BroadcastSchedule(
                        self.level, self.estimate, self.params.lam
                    )
            return
        self.steps_taken += 1


class RefView:
    """Resets and scans every tracked class in every slot."""

    def __init__(self, params: AlignedParams, max_level: int, origin: int) -> None:
        self.params = params
        self.levels = range(params.min_level, max_level + 1)
        self.runs: Dict[int, RefClassRun] = {
            lv: RefClassRun(lv, params) for lv in self.levels
        }
        self.expected = origin
        self.phase = "start"
        self.active: Optional[int] = None

    def on_slot_start(self, t: int) -> Optional[int]:
        if self.phase != "start" or t != self.expected:
            raise ProtocolViolationError("out of order")
        for lv in self.levels:
            if t % (1 << lv) == 0:
                self.runs[lv] = RefClassRun(lv, self.params)
        self.active = next((lv for lv in self.levels if not self.runs[lv].done), None)
        self.phase = "end"
        return self.active

    def on_slot_end(self, t: int, success: bool) -> None:
        if self.phase != "end" or t != self.expected:
            raise ProtocolViolationError("out of order")
        if self.active is not None:
            self.runs[self.active].advance(success)
        self.expected = t + 1
        self.phase = "start"

    def snapshot(self):
        return tuple(
            (lv, r.steps_taken, r.estimate, r.done)
            for lv, r in ((lv, self.runs[lv]) for lv in self.levels)
        )


def _runs(view) -> list:
    return [
        (lv, r.steps_taken, r.estimate, r.done, r.total_steps, r.estimation_steps)
        for lv, r in sorted(view.runs.items())
    ]


def _illegal_calls(view, t: int, in_slot: bool) -> list:
    """Calls that break the start/end alternation at slot ``t``."""
    calls = [lambda: view.on_slot_start(t + 1), lambda: view.on_slot_end(t + 1, False)]
    if in_slot:
        calls.append(lambda: view.on_slot_start(t))
    else:
        calls.append(lambda: view.on_slot_end(t, False))
    return calls


@settings(max_examples=200, deadline=None)
@given(
    lam=st.integers(1, 3),
    tau=st.sampled_from([2, 4, 8]),
    min_level=st.integers(0, 5),
    span=st.integers(0, 3),
    windows=st.integers(0, 3),
    density=st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    n_windows=st.integers(1, 4),
)
def test_incremental_view_matches_scanning_reference(
    lam, tau, min_level, span, windows, density, seed, n_windows
):
    params = AlignedParams(lam=lam, tau=tau, min_level=min_level)
    max_level = min_level + span
    origin = windows << max_level
    view = PeckingOrderView(params, max_level, origin)
    ref = RefView(params, max_level, origin)
    coins = random.Random(seed)
    # cross a few window boundaries of the largest class, and with it
    # every smaller class's boundaries
    for t in range(origin, origin + n_windows * (1 << max_level) + 3):
        if coins.random() < 0.1:
            for call in _illegal_calls(view, t, in_slot=False):
                with pytest.raises(ProtocolViolationError):
                    call()
        active = view.on_slot_start(t)
        assert active == ref.on_slot_start(t) == view.active_level
        if active is not None:
            assert view.run_of(active).next_step() == ref.runs[active].next_step()
        assert view.snapshot() == ref.snapshot()
        if coins.random() < 0.1:
            for call in _illegal_calls(view, t, in_slot=True):
                with pytest.raises(ProtocolViolationError):
                    call()
        success = coins.random() < density
        view.on_slot_end(t, success)
        ref.on_slot_end(t, success)
        assert view.snapshot() == ref.snapshot()
        assert _runs(view) == _runs(ref)


@settings(max_examples=100, deadline=None)
@given(
    lam=st.integers(1, 3),
    tau=st.sampled_from([2, 4, 8]),
    level=st.integers(0, 6),
    density=st.sampled_from([0.0, 0.2, 0.8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_class_run_matches_reference_to_completion(lam, tau, level, density, seed):
    params = AlignedParams(lam=lam, tau=tau, min_level=0)
    run, ref = ClassRun(level, params), RefClassRun(level, params)
    coins = random.Random(seed)
    while not ref.done:
        assert not run.done
        assert run.total_steps == ref.total_steps
        assert run.next_step() == ref.next_step()
        success = coins.random() < density
        run.advance(success)
        ref.advance(success)
        assert (run.steps_taken, run.estimate) == (ref.steps_taken, ref.estimate)
    assert run.done and run.total_steps == ref.total_steps
    with pytest.raises(ProtocolViolationError):
        run.next_step()
    with pytest.raises(ProtocolViolationError):
        run.advance(False)
