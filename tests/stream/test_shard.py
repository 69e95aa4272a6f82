"""Tests for the sharded streaming runner: serial/parallel parity, merging."""

import pytest

from repro.baselines.sawtooth import sawtooth_factory
from repro.errors import InvalidParameterError
from repro.sim.job import Job
from repro.sim.protocolbase import ProtocolContext
from repro.stream.arrivals import PoissonProcess
from repro.stream.shard import StreamShardSpec, run_stream_shards

PROCESS = PoissonProcess(rate=0.2, window_sizes=(16, 64))


def module_level_factory(job: Job, rng):
    """A picklable protocol factory (specs cross process boundaries)."""
    from repro.baselines.sawtooth import SawtoothBackoff

    return SawtoothBackoff(ProtocolContext.for_job(job, rng))


def _specs(n):
    return [
        StreamShardSpec(
            seed=s, process=PROCESS, factory=module_level_factory,
            max_jobs=300,
        )
        for s in range(n)
    ]


class TestShards:
    def test_serial_matches_parallel(self):
        merged_s, per_s = run_stream_shards(_specs(3), processes=1)
        merged_p, per_p = run_stream_shards(_specs(3), processes=3)
        assert [r.to_dict() for r in per_s] == [r.to_dict() for r in per_p]
        assert merged_s.to_dict() == merged_p.to_dict()

    def test_merged_counters_are_sums(self):
        merged, per_shard = run_stream_shards(_specs(3), processes=1)
        assert merged.jobs_released == sum(r.jobs_released for r in per_shard)
        assert merged.jobs_succeeded == sum(
            r.jobs_succeeded for r in per_shard
        )
        assert merged.final_slot == sum(r.final_slot for r in per_shard)
        assert merged.latency_sketch.count == sum(
            r.latency_sketch.count for r in per_shard
        )

    def test_merged_jammed_transmissions_are_sums(self):
        from dataclasses import replace

        from repro.channel.jamming import StochasticJammer

        specs = [replace(s, jammer=StochasticJammer(0.3)) for s in _specs(2)]
        merged, per_shard = run_stream_shards(specs, processes=1)
        assert all(r.jammed_transmissions > 0 for r in per_shard)
        assert merged.jammed_transmissions == sum(
            r.jammed_transmissions for r in per_shard
        )
        assert merged.to_dict()["jammed_transmissions"] == (
            merged.jammed_transmissions
        )

    def test_distinct_seeds_give_distinct_realizations(self):
        _, per_shard = run_stream_shards(_specs(2), processes=1)
        a, b = per_shard
        assert (
            a.jobs_succeeded != b.jobs_succeeded
            or a.slots_simulated != b.slots_simulated
        )

    def test_empty_specs_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_stream_shards([])

    def test_unpicklable_factory_fails_loudly_in_parallel(self):
        specs = [
            StreamShardSpec(
                seed=s, process=PROCESS,
                factory=sawtooth_factory(),  # a closure: not picklable
                max_jobs=50,
            )
            for s in range(2)
        ]
        with pytest.raises(Exception):
            run_stream_shards(specs, processes=2)
        # ... but serial execution never pickles and works fine
        merged, _ = run_stream_shards(specs, processes=1)
        assert merged.jobs_released == 100
