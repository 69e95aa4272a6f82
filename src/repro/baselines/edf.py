"""Centralized earliest-deadline-first — the omniscient reference point.

Section 3 observes that a centralized scheduler doing pecking-order /
earliest-deadline-first scheduling is optimal for jobs with deadlines.
This module provides that genie: a scheduler that sees every job and
assigns one slot per job with no collisions, computing the best possible
outcome for an instance.  Protocol comparisons report their success rates
against this upper bound.

Two entry points:

* :func:`edf_schedule` — the assignment itself (job → slot), maximal: it
  delivers every job iff the instance is 1-slack feasible;
* :class:`OracleEdfProtocol` — the same assignment wrapped as a
  :class:`Protocol` so it can run through the ordinary engine (each job
  transmits exactly in its assigned slot; no collisions ever occur),
  letting the comparison benches use one pipeline for everything.
"""

from __future__ import annotations

import heapq
from typing import Dict, Optional

import numpy as np

from repro.channel.messages import DataMessage, Message
from repro.sim.instance import Instance
from repro.sim.job import Job
from repro.sim.protocolbase import Protocol, ProtocolContext

__all__ = ["edf_schedule", "OracleEdfProtocol", "edf_factory"]


def edf_schedule(instance: Instance) -> Dict[int, int]:
    """Earliest-deadline-first slot assignment.

    Scans time; at each slot serves the released, unexpired job with the
    earliest deadline.  Returns ``job_id -> slot`` for every job that can
    be served; jobs missing from the map are unschedulable (EDF is
    optimal for unit jobs, so no schedule serves more).
    """
    jobs = list(instance.by_release)
    assignment: Dict[int, int] = {}
    if not jobs:
        return assignment
    heap: list[tuple[int, int]] = []  # (deadline, job_id)
    idx = 0
    t = jobs[0].release
    while idx < len(jobs) or heap:
        if not heap and idx < len(jobs):
            t = max(t, jobs[idx].release)
        while idx < len(jobs) and jobs[idx].release <= t:
            heapq.heappush(heap, (jobs[idx].deadline, jobs[idx].job_id))
            idx += 1
        # drop expired jobs
        while heap and heap[0][0] <= t:
            heapq.heappop(heap)
        if heap:
            _, jid = heapq.heappop(heap)
            assignment[jid] = t
        t += 1
    return assignment


class OracleEdfProtocol(Protocol):
    """Transmit exactly in the slot the centralized EDF oracle assigned."""

    def __init__(self, ctx: ProtocolContext, assigned_slot: Optional[int]) -> None:
        super().__init__(ctx)
        self.assigned_slot = assigned_slot
        self.last_p = 0.0

    def on_act(self, slot: int) -> Optional[Message]:
        if self.assigned_slot is not None and slot == self.assigned_slot:
            self.last_p = 1.0
            return DataMessage(self.ctx.job_id)
        self.last_p = 0.0
        return None

    def next_wake(self, slot: int) -> int:
        """Sleep until the assigned slot; a job without one wakes now
        (its first :meth:`observe` gives up)."""
        if self.assigned_slot is None:
            return slot
        return max(slot, self.assigned_slot)

    def on_observe(self, slot: int, obs) -> None:
        if self.assigned_slot is None or slot >= self.assigned_slot:
            if not self.succeeded:
                self.gave_up = True


def edf_factory(instance: Instance):
    """A factory precomputing the EDF assignment for ``instance``.

    Must be built from the same instance that is then simulated.
    """
    assignment = edf_schedule(instance)

    def make(job: Job, rng: np.random.Generator) -> OracleEdfProtocol:
        return OracleEdfProtocol(
            ProtocolContext.for_job(job, rng), assignment.get(job.job_id)
        )

    return make
