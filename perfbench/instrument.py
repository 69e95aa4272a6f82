"""Wrap each layer's public functions with spans for one traced round.

Nothing in the program is edited: :func:`instrument` swaps module and
class attributes for traced wrappers and restores them on exit.  The
benchmark's own call sites go through module attributes
(``parallel.run_seeds``, ``stream_engine.stream_simulate``,
``campaign_run.run_campaign``) so they see the wrappers too.

Protocols are traced by wrapping the factory the engine receives: every
job's protocol becomes a :class:`TimedProtocol` proxy.  The wrap happens
inside ``simulate``/``stream_simulate``, after ``run_seeds`` has chosen
between the engine and a kernel, so kernel routing (which looks for
markers on the factory) never changes under tracing.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from typing import Any, Callable, Iterator, List

import repro.cache as cache_mod
import repro.campaign.executor as executor
import repro.campaign.run as campaign_run
import repro.campaign.spec as campaign_spec
import repro.campaign.state as campaign_state
import repro.experiments.parallel as parallel
import repro.fastpath.batched as batched
import repro.stream.engine as stream_engine
import repro.workloads as workloads
from repro.channel.jamming import NoJammer, StochasticJammer
from repro.stream.arrivals import BoundArrivals
from spans import Tracer

_perf = time.perf_counter

#: Spans whose cache reads are the dispatch path (one read per seed),
#: as opposed to a campaign's plan-time cache predictions.
DISPATCH_SPANS = ("experiments.run_seeds", "fastpath.run_batch")


class TimedProtocol:
    """A protocol proxy that times ``begin``/``act``/``observe``.

    Each call's time and count go to the tracer's leaf accumulators of
    the enclosing engine span; ``act`` also tallies sends.  The engine
    reads ``succeeded``/``gave_up``/``transmissions`` every slot, so the
    proxy copies them after each call instead of forwarding lookups.
    """

    __slots__ = (
        "inner", "succeeded", "gave_up", "transmissions",
        "_act", "_observe", "_acc_begin", "_acc_act", "_acc_obs",
    )

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self.inner = inner
        self._act = inner.act
        self._observe = inner.observe
        self._acc_begin = tracer.leaf("proto.begin")
        self._acc_act = tracer.leaf("proto.act")
        self._acc_obs = tracer.leaf("proto.observe")
        self.succeeded = inner.succeeded
        self.gave_up = inner.gave_up
        self.transmissions = inner.transmissions

    def begin(self, slot: int) -> None:
        t0 = _perf()
        self.inner.begin(slot)
        acc = self._acc_begin
        acc[1] += _perf() - t0
        acc[0] += 1
        inner = self.inner
        self.succeeded = inner.succeeded
        self.gave_up = inner.gave_up

    def act(self, slot: int):
        t0 = _perf()
        msg = self._act(slot)
        acc = self._acc_act
        acc[1] += _perf() - t0
        acc[0] += 1
        if msg is not None:
            acc[2] += 1
        inner = self.inner
        self.succeeded = inner.succeeded
        self.gave_up = inner.gave_up
        self.transmissions = inner.transmissions
        return msg

    def observe(self, slot: int, obs: Any) -> None:
        t0 = _perf()
        self._observe(slot, obs)
        acc = self._acc_obs
        acc[1] += _perf() - t0
        acc[0] += 1
        inner = self.inner
        self.succeeded = inner.succeeded
        self.gave_up = inner.gave_up

    def __getattr__(self, name: str) -> Any:
        # Rarely read protocol attributes (``last_p``, ...) pass through.
        return getattr(self.inner, name)


def _timed_factory(factory: Callable, tracer: Tracer) -> Callable:
    def make(job, rng):
        return TimedProtocol(factory(job, rng), tracer)

    return make


def _has_jammer(kwargs: dict) -> bool:
    jam = kwargs.get("jammer")
    if jam is None:
        jam = getattr(kwargs.get("faults"), "jammer", None)
    return jam is not None and type(jam) is not NoJammer


@contextlib.contextmanager
def instrument(tracer: Tracer, counts: Counter) -> Iterator[None]:
    """Trace every layer boundary the benchmark's workloads cross.

    ``counts`` receives the tallies that need a call's arguments or
    result: seeds per dispatch call, keys hashed, cache hits, and the
    slots and sends the engines report (to cross-check the proxies).
    """
    patches: List[tuple] = []

    def patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def span(name: str) -> Callable[[Callable], Callable]:
        return lambda orig: tracer.wrap(orig, name)

    def traced_engine(name: str, sends: str):
        """``simulate``/``stream_simulate`` with their protocols proxied."""

        def make(orig):
            def run(first, factory, **kwargs):
                token = tracer.open(name)
                try:
                    res = orig(first, _timed_factory(factory, tracer), **kwargs)
                finally:
                    tracer.close(token, name)
                counts["engine.slots"] += res.slots_simulated
                counts["engine.sends"] += getattr(res, sends)
                if _has_jammer(kwargs):
                    counts["engine.jammed_slots"] += res.slots_simulated
                counts["stream.peak_live"] = max(
                    counts["stream.peak_live"], getattr(res, "peak_live", 0)
                )
                return res

            return run

        return make

    def counted(name: str, key: str, size: Callable[..., int]):
        def make(orig):
            inner = tracer.wrap(orig, name)

            def call(*args, **kwargs):
                counts[key] += size(*args, **kwargs)
                return inner(*args, **kwargs)

            return call

        return make

    def traced_get(orig):
        def get(self, key):
            dispatch = tracer.current in DISPATCH_SPANS
            token = tracer.open("cache.get")
            try:
                value = orig(self, key)
            finally:
                tracer.close(token, "cache.get")
            if value is not None:
                counts["cache.hits"] += 1
                if dispatch:
                    counts["cache.dispatch_hits"] += 1
            return value

        return get

    def leaf(name: str):
        def make(orig):
            def call(self, *args):
                acc = tracer.leaf(name)
                t0 = _perf()
                out = orig(self, *args)
                acc[1] += _perf() - t0
                acc[0] += 1
                if out:
                    acc[2] += 1
                return out

            return call

        return make

    def seeds_of(build, protocol, seeds, **kwargs) -> int:
        return len(seeds)

    patch(parallel, "simulate", traced_engine("sim.simulate", "channel_attempts"))
    patch(stream_engine, "stream_simulate", traced_engine("stream.simulate", "transmissions"))
    patch(parallel, "run_seeds", counted(
        "experiments.run_seeds", "run_seeds.seeds", seeds_of))
    patch(executor, "run_seeds", lambda orig: parallel.run_seeds)
    patch(batched, "run_batch", counted(
        "fastpath.run_batch", "run_batch.seeds", seeds_of))
    patch(batched, "simulate_fastpath", span("fastpath.trial"))
    one_key = counted("cache.key", "cache.keys", lambda *a, **k: 1)
    key_batch = counted(
        "cache.key", "cache.keys", lambda *a, **k: len(k["seeds"]))
    patch(parallel, "run_key", one_key)
    patch(campaign_run, "run_key", one_key)
    patch(batched, "run_key_batch", key_batch)
    patch(campaign_run, "run_key_batch", key_batch)
    patch(cache_mod.ResultCache, "get", traced_get)
    patch(cache_mod.ResultCache, "put", counted("cache.put", "cache.puts", lambda *a, **k: 1))
    patch(campaign_state, "append_jsonl_atomic", span("campaign.state_append"))
    patch(campaign_run, "evaluate", span("campaign.evaluate"))
    patch(campaign_run, "run_campaign", span("campaign.run"))
    patch(executor, "execute_cell", span("campaign.cell"))
    patch(campaign_spec, "build_workload", span("workloads.build"))
    patch(workloads, "batch_instance", span("workloads.build"))
    patch(StochasticJammer, "attempt", leaf("channel.jam"))
    patch(BoundArrivals, "arrivals_at", leaf("stream.arrivals"))
    patch(BoundArrivals, "next_arrival_at", leaf("stream.arrivals"))
    try:
        yield
    finally:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)
