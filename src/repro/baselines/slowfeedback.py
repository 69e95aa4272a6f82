"""Slow-feedback energy-efficient backoff (after arXiv 2302.07751).

The energy-efficient backoff line asks how little a device can *listen*
and still resolve contention: per-slot feedback is expensive (the radio
must be on), so the protocol commits to a whole epoch of decisions in
advance and only learns its own success or failure.  The scheme here is
the batched form of that idea: epoch ``i`` spans ``base·2^i`` slots, and
the job picks a fixed *budget* of uniformly random slots in the epoch to
transmit in, sleeping through the rest.  Within an epoch it reads no
channel feedback at all — the single bit it consumes is whether one of
its own attempts succeeded (which the engine reports on the attempt
itself) — so its channel-access energy is ``O(budget · log T)`` over any
span ``T``, against the ``Θ(T)``-listening of fully-adaptive protocols.

Like the other unaware baselines, deadlines only truncate it; its energy
frugality is exactly what the deadline-miss × energy frontier trades off
against the deadline-aware protocols' responsiveness.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.feedback import Observation
from repro.channel.messages import DataMessage, Message
from repro.errors import InvalidParameterError
from repro.sim.job import Job
from repro.sim.protocolbase import Protocol, ProtocolContext

__all__ = ["SlowFeedbackBackoff", "slowfeedback_factory"]


class SlowFeedbackBackoff(Protocol):
    """Doubling epochs with a fixed per-epoch budget of blind attempts.

    Parameters
    ----------
    ctx:
        Protocol context.
    budget:
        Send attempts per epoch (``>= 1``).  Epochs shorter than the
        budget transmit in every slot.
    base:
        Length of epoch 0 (``>= 1``); epoch ``i`` spans ``base·2^i``
        slots.
    """

    def __init__(
        self, ctx: ProtocolContext, budget: int = 2, base: int = 2
    ) -> None:
        super().__init__(ctx)
        if budget < 1:
            raise InvalidParameterError(f"budget must be >= 1, got {budget}")
        if base < 1:
            raise InvalidParameterError(f"base must be >= 1, got {base}")
        self.budget = budget
        self.base = base
        self.epoch_len = 0  # set by _start_epoch
        self.epoch_start = 0  # local age of the current epoch's first slot
        self._sends: list = []  # ascending send offsets of this epoch
        self._send_i = 0  # next offset to compare against
        self.last_p = 0.0
        self._start_epoch(base, 0)

    def _start_epoch(self, length: int, start: int) -> None:
        self.epoch_len = length
        self.epoch_start = start
        self._send_i = 0
        k = min(self.budget, length)
        picks = self.ctx.rng.choice(length, size=k, replace=False)
        self._sends = sorted(int(x) for x in picks)

    def on_act(self, slot: int) -> Optional[Message]:
        # Expected send rate of the epoch; the actual decision is the
        # pre-committed offset list (no per-slot randomness or feedback).
        self.last_p = min(self.budget, self.epoch_len) / self.epoch_len
        # The epoch position comes from the slot, not from counting
        # calls, so an engine may skip the slots between wake-ups.
        pos = self.local_age(slot) - self.epoch_start
        if self._send_i < len(self._sends) and self._sends[self._send_i] == pos:
            self._send_i += 1
            return DataMessage(self.ctx.job_id)
        return None

    def on_observe(self, slot: int, obs: Observation) -> None:
        # Slow feedback: nothing in ``obs`` is consumed (the base class
        # already latched own-success, which stops the protocol).
        age = self.local_age(slot)
        if age + 1 - self.epoch_start >= self.epoch_len and not self.succeeded:
            self._start_epoch(self.epoch_len * 2, age + 1)

    def next_wake(self, slot: int) -> int:
        """Sparse wake-up: the next send offset, else the epoch's last slot.

        The last slot of an epoch is where the next epoch's offsets are
        drawn (see :class:`Protocol`).
        """
        if self._send_i < len(self._sends):
            offset = self._sends[self._send_i]
        else:
            offset = self.epoch_len - 1
        return self.start_slot + self.epoch_start + offset


def slowfeedback_factory(budget: int = 2, base: int = 2):
    """A :data:`~repro.sim.engine.ProtocolFactory` running slow-feedback backoff."""

    def make(job: Job, rng: np.random.Generator) -> SlowFeedbackBackoff:
        return SlowFeedbackBackoff(
            ProtocolContext.for_job(job, rng), budget, base
        )

    return make
