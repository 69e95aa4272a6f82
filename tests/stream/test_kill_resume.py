"""Mid-stream crash recovery: a SIGKILL'd run must resume bit-identically.

A child process runs a checkpointed streaming simulation and SIGKILLs
itself right after the second checkpoint lands — a real kill of a real
interpreter, not an exception.  The parent then resumes from the
surviving checkpoint and compares the final statistics against an
uninterrupted run of the same configuration: counters, quantile
sketches, and reservoir contents must all match exactly.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.baselines.sawtooth import sawtooth_factory
from repro.core.uniform import uniform_factory
from repro.stream.arrivals import PoissonProcess
from repro.stream.engine import stream_simulate

SEED = 3
MAX_JOBS = 1500
EVERY_SLOTS = 800
PROCESS = PoissonProcess(rate=0.25, window_sizes=(16, 64))
#: UNIFORM sleeps between its sends, so its checkpoints carry the
#: sparse wake-up state of the live jobs.
UNIFORM_PROCESS = PoissonProcess(rate=0.05, window_sizes=(256, 1024))

#: Runs the checkpointed simulation; in "kill" mode the process SIGKILLs
#: itself immediately after the Nth checkpoint is written, in "resume"
#: mode it resumes and prints the comparable final state as JSON.
_CHILD = """
import json, os, signal, sys
from repro.baselines.sawtooth import sawtooth_factory
from repro.core.uniform import uniform_factory
from repro.stream.arrivals import PoissonProcess
from repro.stream.checkpoint import CheckpointConfig
import repro.stream.engine as eng

mode, path = sys.argv[1], sys.argv[2]
if sys.argv[3] == "uniform":
    factory = uniform_factory()
    process = PoissonProcess(rate=0.05, window_sizes=(256, 1024))
else:
    factory = sawtooth_factory()
    process = PoissonProcess(rate=0.25, window_sizes=(16, 64))

if mode == "kill":
    real_save = eng.save_checkpoint
    written = [0]

    def save_then_die(p, state):
        real_save(p, state)
        written[0] += 1
        if written[0] == 2:
            os.kill(os.getpid(), signal.SIGKILL)

    eng.save_checkpoint = save_then_die

res = eng.stream_simulate(
    process,
    factory,
    seed={seed},
    max_jobs={max_jobs},
    checkpoint=CheckpointConfig(path, every_slots={every_slots}),
    resume=(mode == "resume"),
)
d = res.to_dict()
d.pop("checkpoints_written")
d.pop("resumed_at_slot")
print(json.dumps({{
    "stats": d,
    "reservoir": sorted(res.latency_sample.values.tolist()),
    "resumed_at_slot": res.resumed_at_slot,
}}))
""".format(seed=SEED, max_jobs=MAX_JOBS, every_slots=EVERY_SLOTS)


def _child(mode, path, protocol="sawtooth"):
    return subprocess.run(
        [sys.executable, "-c", _CHILD, mode, path, protocol],
        capture_output=True,
        text=True,
    )


def _uninterrupted(process=PROCESS, factory=sawtooth_factory):
    res = stream_simulate(process, factory(), seed=SEED, max_jobs=MAX_JOBS)
    d = res.to_dict()
    d.pop("checkpoints_written")
    d.pop("resumed_at_slot")
    return d, sorted(res.latency_sample.values.tolist())


def _killed(tmp_path_factory, protocol):
    path = str(tmp_path_factory.mktemp("kill") / "ck.bin")
    proc = _child("kill", path, protocol)
    assert proc.returncode == -signal.SIGKILL, (
        f"child should die by SIGKILL, got rc={proc.returncode}, "
        f"stderr={proc.stderr[-500:]}"
    )
    assert os.path.exists(path), "no checkpoint survived the kill"
    return path


@pytest.fixture(scope="module")
def killed_checkpoint(tmp_path_factory):
    return _killed(tmp_path_factory, "sawtooth")


@pytest.fixture(scope="module")
def killed_uniform_checkpoint(tmp_path_factory):
    return _killed(tmp_path_factory, "uniform")


class TestKillResume:
    def test_resume_reproduces_uninterrupted_run(self, killed_checkpoint):
        proc = _child("resume", killed_checkpoint)
        assert proc.returncode == 0, proc.stderr[-800:]
        resumed = json.loads(proc.stdout)
        assert resumed["resumed_at_slot"] >= 0, "resume did not engage"
        stats, reservoir = _uninterrupted()
        assert resumed["stats"] == stats
        assert resumed["reservoir"] == reservoir

    def test_resume_heals_torn_final_write(self, killed_checkpoint):
        # Simulate the classic torn write: the final checkpoint
        # generation loses its tail.  Resume must fall back to .prev and
        # still reproduce the uninterrupted statistics exactly.
        with open(killed_checkpoint, "r+b") as fh:
            fh.truncate(os.path.getsize(killed_checkpoint) - 12)
        proc = _child("resume", killed_checkpoint)
        assert proc.returncode == 0, proc.stderr[-800:]
        resumed = json.loads(proc.stdout)
        stats, reservoir = _uninterrupted()
        assert resumed["stats"] == stats
        assert resumed["reservoir"] == reservoir


class TestKillResumeUniform:
    def test_resume_reproduces_uninterrupted_run(self, killed_uniform_checkpoint):
        proc = _child("resume", killed_uniform_checkpoint, "uniform")
        assert proc.returncode == 0, proc.stderr[-800:]
        resumed = json.loads(proc.stdout)
        assert resumed["resumed_at_slot"] >= 0, "resume did not engage"
        stats, reservoir = _uninterrupted(UNIFORM_PROCESS, uniform_factory)
        assert resumed["stats"] == stats
        assert resumed["reservoir"] == reservoir
