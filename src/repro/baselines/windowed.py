"""The windowed-backoff family ([91]: "Singletons for Simpletons").

Classic backoff is a sequence of **windows**: during the k-th window of
size ``w_k`` the job transmits in exactly one uniformly random slot of
the window.  The growth schedule is the whole algorithm:

* binary exponential — ``w_k = 2^k`` (see :mod:`repro.baselines.beb`,
  kept separate since it is the headline baseline);
* **fixed** — ``w_k = W`` forever (slotted-ALOHA-with-memory);
* **linear** — ``w_k = k·W``;
* **polynomial** — ``w_k = W·k^d`` for degree d (quadratic by default);
* **fibonacci** — ``w_k = W·F_k``, an intermediate growth rate between
  polynomial and exponential that the windowed-backoff literature uses
  as a probe of the growth-rate/makespan trade-off.

[91] revisits exactly these schedules with Chernoff-style analyses; the
E17 face-off benchmark reproduces the qualitative ordering (slower
growth ⇒ better makespan at known scale but worse adaptivity; faster
growth ⇒ robust but overshoots).  All variants stop at their deadline,
like every baseline here.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.channel.feedback import Observation
from repro.channel.messages import DataMessage, Message
from repro.errors import InvalidParameterError
from repro.sim.job import Job
from repro.sim.protocolbase import Protocol, ProtocolContext

__all__ = [
    "WindowedBackoff",
    "fixed_window_factory",
    "linear_backoff_factory",
    "polynomial_backoff_factory",
    "fibonacci_backoff_factory",
]

#: Maps the 1-indexed attempt number to that attempt's window size.
GrowthSchedule = Callable[[int], int]


class WindowedBackoff(Protocol):
    """One random transmission per window; windows sized by a schedule."""

    def __init__(
        self, ctx: ProtocolContext, schedule: GrowthSchedule, name: str = ""
    ) -> None:
        super().__init__(ctx)
        self.schedule = schedule
        self.name = name or "windowed"
        self.attempt = 1
        self._window_size = self._checked_size(1)
        self._window_start = 0  # local age at which the current window began
        self._tx_offset = 0
        self.last_p = 0.0

    def _checked_size(self, attempt: int) -> int:
        size = int(self.schedule(attempt))
        if size < 1:
            raise InvalidParameterError(
                f"growth schedule returned {size} for attempt {attempt}"
            )
        return size

    def on_begin(self, slot: int) -> None:
        self._tx_offset = int(self.ctx.rng.integers(self._window_size))

    def on_act(self, slot: int) -> Optional[Message]:
        age = self.local_age(slot)
        self.last_p = 1.0 / self._window_size
        if age - self._window_start == self._tx_offset:
            return DataMessage(self.ctx.job_id)
        return None

    def on_observe(self, slot: int, obs: Observation) -> None:
        age = self.local_age(slot)
        if age - self._window_start == self._window_size - 1 and not self.succeeded:
            # window over: open the next one
            self.attempt += 1
            self._window_start = age + 1
            self._window_size = self._checked_size(self.attempt)
            self._tx_offset = int(self.ctx.rng.integers(self._window_size))

    def next_wake(self, slot: int) -> int:
        """Sparse wake-up: the window's send slot, else its last slot.

        The last slot of a window is where the next window is drawn, so
        the job must see that slot even after its send (see
        :class:`Protocol`).
        """
        age = slot - self.start_slot
        tx = self._window_start + self._tx_offset
        if tx < age:
            tx = self._window_start + self._window_size - 1
        return self.start_slot + tx


def _factory(schedule: GrowthSchedule, name: str):
    def make(job: Job, rng: np.random.Generator) -> WindowedBackoff:
        return WindowedBackoff(ProtocolContext.for_job(job, rng), schedule, name)

    return make


def fixed_window_factory(window: int = 32):
    """``w_k = W``: memoryful slotted ALOHA at rate 1/W."""
    if window < 1:
        raise InvalidParameterError(f"window must be >= 1, got {window}")
    return _factory(lambda k: window, f"fixed({window})")


def linear_backoff_factory(base: int = 4):
    """``w_k = k·W``."""
    if base < 1:
        raise InvalidParameterError(f"base must be >= 1, got {base}")
    return _factory(lambda k: base * k, f"linear({base})")


def polynomial_backoff_factory(base: int = 2, degree: int = 2):
    """``w_k = W·k^d`` (quadratic by default)."""
    if base < 1 or degree < 1:
        raise InvalidParameterError("base and degree must be >= 1")
    return _factory(lambda k: base * k**degree, f"poly({base},{degree})")


def fibonacci_backoff_factory(base: int = 2):
    """``w_k = W·F_k`` with F₁ = F₂ = 1."""
    if base < 1:
        raise InvalidParameterError(f"base must be >= 1, got {base}")

    def fib_window(k: int) -> int:
        a, b = 1, 1
        for _ in range(k - 1):
            a, b = b, a + b
        return base * a

    return _factory(fib_window, f"fibonacci({base})")
