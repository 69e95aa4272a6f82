"""Tests for the atomic checkpoint format and in-process resume."""

import os
import pickle

import pytest

from repro.baselines.sawtooth import sawtooth_factory
from repro.channel.jamming import PeriodicJammer, ReactiveJammer
from repro.channel.messages import KIND_DATA
from repro.baselines.softened import softened_factory
from repro.core.uniform import uniform_factory
from repro.errors import InvalidParameterError
from repro.faults import FaultPlan, FeedbackFault
from repro.stream.arrivals import PoissonProcess
from repro.stream.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
import repro.stream.engine as engine
from repro.stream.engine import stream_simulate

PROCESS = PoissonProcess(rate=0.25, window_sizes=(16, 64))


def _is_data(message):
    return message.kind == KIND_DATA


class TestFormat:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        state = {"counters": [1, 2, 3], "label": "x"}
        save_checkpoint(path, state)
        loaded, healed = load_checkpoint(path)
        assert loaded == state
        assert healed is False

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "absent.bin"))

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_tail(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, {"k": list(range(1000))})
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 10)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, heal=False)

    def test_bit_rot_detected_by_crc(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, {"k": list(range(1000))})
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, heal=False)

    def test_heals_from_prev_generation(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, {"gen": 1})
        save_checkpoint(path, {"gen": 2})  # rotates gen 1 to .prev
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 4)
        loaded, healed = load_checkpoint(path)
        assert healed is True
        assert loaded == {"gen": 1}

    def test_both_generations_bad_reports_primary_error(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        save_checkpoint(path, {"gen": 1})
        save_checkpoint(path, {"gen": 2})
        for p in (path, path + ".prev"):
            with open(p, "r+b") as fh:
                fh.truncate(8)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_save_is_atomic_replace(self, tmp_path):
        # the target must hold a complete valid file after every save
        path = str(tmp_path / "ck.bin")
        for gen in range(5):
            save_checkpoint(path, {"gen": gen})
            loaded, _ = load_checkpoint(path)
            assert loaded == {"gen": gen}
        assert os.path.exists(path + ".prev")

    def test_config_validation(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            CheckpointConfig("")
        with pytest.raises(InvalidParameterError):
            CheckpointConfig(str(tmp_path / "x"), every_slots=0)


class TestResume:
    def _run(self, path, *, resume=False):
        return stream_simulate(
            PROCESS,
            sawtooth_factory(),
            seed=9,
            max_jobs=1500,
            checkpoint=CheckpointConfig(path, every_slots=1000),
            resume=resume,
        )

    @staticmethod
    def _comparable(res):
        d = res.to_dict()
        d.pop("checkpoints_written")
        d.pop("resumed_at_slot")
        return d, sorted(res.latency_sample.values.tolist())

    def test_resume_from_last_checkpoint_is_bit_identical(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        full = self._run(path)
        assert full.checkpoints_written >= 2
        # the final checkpoint on disk is from mid-run; resuming replays
        # the tail and must land on the same statistics, sketches and
        # reservoir contents included
        resumed = self._run(path, resume=True)
        assert resumed.resumed_at_slot >= 0
        assert self._comparable(resumed) == self._comparable(full)

    def test_resume_heals_truncated_primary(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        full = self._run(path)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 16)
        resumed = self._run(path, resume=True)
        assert resumed.healed_checkpoint is True
        assert self._comparable(resumed) == self._comparable(full)

    def test_resume_rejects_config_drift(self, tmp_path):
        path = str(tmp_path / "ck.bin")
        self._run(path)
        with pytest.raises(CheckpointError):
            stream_simulate(
                PoissonProcess(rate=0.3, window_sizes=(16, 64)),
                sawtooth_factory(),
                seed=9,
                max_jobs=1500,
                checkpoint=CheckpointConfig(path, every_slots=1000),
                resume=True,
            )

    def test_resume_rejects_protocol_drift(self, tmp_path):
        # the checkpoint key digests the protocol factory: a UNIFORM
        # checkpoint must not resume under another protocol
        path = str(tmp_path / "ck.bin")
        kwargs = dict(
            seed=3,
            max_jobs=600,
            checkpoint=CheckpointConfig(path, every_slots=1000),
        )
        stream_simulate(PROCESS, uniform_factory(), **kwargs)
        with pytest.raises(CheckpointError):
            stream_simulate(PROCESS, softened_factory(), resume=True, **kwargs)
        # an equal factory built afresh digests the same and resumes
        resumed = stream_simulate(PROCESS, uniform_factory(), resume=True, **kwargs)
        assert resumed.resumed_at_slot >= 0

    def test_resume_rejects_feedback_fault_drift(self, tmp_path):
        # affect_transmitters changes results (a blind transmitter keeps
        # sending) but is not shown by FaultPlan.describe()
        path = str(tmp_path / "ck.bin")
        kwargs = dict(
            seed=3,
            max_jobs=600,
            checkpoint=CheckpointConfig(path, every_slots=500),
        )
        erase = dict(p_success_erasure=0.5)
        stream_simulate(
            PROCESS,
            sawtooth_factory(),
            faults=FaultPlan(feedback=FeedbackFault(**erase)),
            **kwargs,
        )
        flipped = FaultPlan(
            feedback=FeedbackFault(affect_transmitters=True, **erase)
        )
        with pytest.raises(CheckpointError):
            stream_simulate(
                PROCESS, sawtooth_factory(), faults=flipped, resume=True, **kwargs
            )

    @pytest.mark.parametrize(
        "make_jammer",
        [
            lambda: PeriodicJammer(4, [0]),
            lambda: ReactiveJammer(_is_data, 0.3),
        ],
        ids=["periodic", "reactive"],
    )
    def test_resume_accepts_an_equal_jammer(self, tmp_path, make_jammer):
        # the key digests the jammer's content, not its object address
        path = str(tmp_path / "ck.bin")
        kwargs = dict(
            seed=3,
            max_jobs=600,
            checkpoint=CheckpointConfig(path, every_slots=500),
        )
        # both alive at once, so the second cannot reuse the first's address
        first, second = make_jammer(), make_jammer()
        full = stream_simulate(PROCESS, sawtooth_factory(), jammer=first, **kwargs)
        resumed = stream_simulate(
            PROCESS, sawtooth_factory(), jammer=second, resume=True, **kwargs
        )
        assert resumed.resumed_at_slot >= 0
        assert self._comparable(resumed) == self._comparable(full)

    def test_resume_rejects_older_stream_version(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ck.bin")
        monkeypatch.setattr(engine, "STREAM_VERSION", 1)
        self._run(path)
        monkeypatch.undo()
        with pytest.raises(CheckpointError):
            self._run(path, resume=True)

    def test_checkpoint_state_pickles_standalone(self, tmp_path):
        # the payload must be loadable by a plain pickle reader too
        # (header is struct + pickle, no custom serializer)
        path = str(tmp_path / "ck.bin")
        self._run(path)
        state, _ = load_checkpoint(path)
        clone = pickle.loads(pickle.dumps(state))
        assert clone["t"] == state["t"]
