"""The protocol interface every contention-resolution strategy implements.

A protocol is a *per-job* state machine.  The engine drives it with the
slot loop::

    begin(slot)                      # once, at the job's release
    repeat while the job is live:
        msg = act(slot)              # None = listen, Message = transmit
        obs = ...channel resolution...
        observe(slot, obs)

The model gives jobs no global clock; protocols must only use ``slot``
relative to the slot passed to :meth:`begin` (local age).  The aligned
special case (Section 3) is the exception — window alignment implies a
shared slot index, and aligned protocols may use ``slot`` directly.  Each
protocol documents which convention it follows.

**Sparse wake-up (optional).**  A protocol may define
``next_wake(slot) -> int``: the earliest engine slot at or after
``slot`` at which the job might transmit or must see feedback.  Before
that slot every ``act`` would return ``None`` and every ``observe``
would leave the protocol's state unchanged (display-only fields such as
``last_p`` aside), so an engine may skip both calls for the job until
then.  The engines call it once right after ``begin`` and again with
``slot + 1`` after each slot the job was stepped in; the answer of a
protocol that is done is never used.  The method is deliberately *not*
defined here: engines look
it up on the instance (``getattr(proto, "next_wake", None)``), so a
wrapping proxy forwards it, and protocols without it are stepped every
slot.  The protocols that draw a fresh coin or read feedback every slot
do not define it.

Success tracking is redundant on purpose: the engine decides ground-truth
delivery from channel outcomes, while protocols also track their own
success (collision detection lets a transmitter see its own result) so
they can stop transmitting.  Tests assert the two never disagree.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.channel.feedback import Observation
from repro.channel.messages import DataMessage, Message
from repro.errors import ProtocolViolationError
from repro.sim.job import Job

__all__ = ["Protocol", "ProtocolContext"]


class ProtocolContext:
    """Everything a protocol is allowed to know at activation.

    Attributes
    ----------
    job_id:
        Simulator identity (used only to stamp outgoing messages).
    window:
        The job's window size ``w_j`` — known a priori per the model.
    rng:
        The job's private random stream.
    """

    __slots__ = ("job_id", "window", "rng")

    def __init__(self, job_id: int, window: int, rng: np.random.Generator) -> None:
        self.job_id = job_id
        self.window = window
        self.rng = rng

    @classmethod
    def for_job(cls, job: Job, rng: np.random.Generator) -> "ProtocolContext":
        return cls(job.job_id, job.window, rng)

    def data_message(self) -> DataMessage:
        """The job's unit data message."""
        return DataMessage(self.job_id)


class Protocol(abc.ABC):
    """Abstract per-job contention-resolution state machine.

    Subclasses implement :meth:`on_begin`, :meth:`on_act`, and
    :meth:`on_observe`; the base class enforces the legal calling order
    and maintains the ``started`` / ``succeeded`` / ``gave_up`` flags and
    the transmission counter.

    The base-class state lives in ``__slots__`` so the engine's per-slot
    reads of ``succeeded`` / ``gave_up`` / ``transmissions`` skip the
    instance dict; subclasses without their own ``__slots__`` still get a
    ``__dict__`` for protocol-specific state.
    """

    __slots__ = (
        "ctx",
        "started",
        "start_slot",
        "succeeded",
        "gave_up",
        "transmissions",
        "_awaiting_observation",
        "_events",
    )

    def __init__(self, ctx: ProtocolContext) -> None:
        self.ctx = ctx
        self.started = False
        self.start_slot: int = -1
        self.succeeded = False
        self.gave_up = False
        self.transmissions = 0
        self._awaiting_observation = False
        self._events = None  # telemetry sink; bound by the engine

    # -- engine-facing lifecycle ------------------------------------------

    def bind_telemetry(self, sink) -> None:
        """Attach an :class:`~repro.obs.events.EventSink` for lifecycle
        events.  The engine calls this before :meth:`begin` when a
        telemetry object is attached; without one, ``_events`` stays
        ``None`` and :meth:`emit` is never reached (all emission sites
        guard on the sink), so event work is strictly pay-for-use.
        """
        self._events = sink

    def emit(self, kind: str, slot: int = -1, **data) -> None:
        """Emit one lifecycle event, stamped with this job's id.

        No-op when no sink is bound.  Emission sites on hot paths
        should guard on ``self._events is not None`` themselves to
        skip building ``data`` kwargs.
        """
        if self._events is not None:
            self._events.emit(kind, slot, self.ctx.job_id, **data)

    def begin(self, slot: int) -> None:
        """Activate the protocol at its job's release slot."""
        if self.started:
            raise ProtocolViolationError("begin() called twice")
        self.started = True
        self.start_slot = slot
        self.on_begin(slot)

    def act(self, slot: int) -> Optional[Message]:
        """Return the message to transmit this slot, or None to listen."""
        if not self.started:
            raise ProtocolViolationError("act() before begin()")
        if self._awaiting_observation:
            raise ProtocolViolationError("act() called twice without observe()")
        self._awaiting_observation = True
        if self.done:
            return None
        msg = self.on_act(slot)
        if msg is not None:
            self.transmissions += 1
        return msg

    def observe(self, slot: int, obs: Observation) -> None:
        """Deliver the slot's channel observation."""
        if not self._awaiting_observation:
            raise ProtocolViolationError("observe() without a preceding act()")
        self._awaiting_observation = False
        if (
            obs.own_success
            and obs.message is not None
            and isinstance(obs.message, DataMessage)
            and obs.message.sender == self.ctx.job_id
        ):
            self.succeeded = True
        self.on_observe(slot, obs)

    # -- state queries -----------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether the protocol has stopped interacting with the channel.

        A done protocol still receives observations (it may be listening
        passively in the model, but our engines skip it for speed; no
        implemented protocol acts on post-done feedback).
        """
        return self.succeeded or self.gave_up

    def local_age(self, slot: int) -> int:
        """Slots elapsed since activation (0 in the activation slot)."""
        return slot - self.start_slot

    # -- subclass hooks ------------------------------------------------------

    def on_begin(self, slot: int) -> None:
        """Hook: called once at activation (default: nothing)."""

    @abc.abstractmethod
    def on_act(self, slot: int) -> Optional[Message]:
        """Hook: decide this slot's action (never called once done)."""

    def on_observe(self, slot: int, obs: Observation) -> None:
        """Hook: digest the slot's feedback (default: nothing)."""
