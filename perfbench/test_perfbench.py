"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json

import pytest

import run
from spans import ROOT, Span, Tracer, self_times


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        Span(0, "outer", 0.0, 10.0),
        Span(1, "child", 1.0, 3.0, parent=0),  # two siblings under outer
        Span(2, "child", 4.0, 8.0, parent=0),
        Span(3, "leaf", 5.0, 6.0, parent=2),  # nested one level deeper
        Span(4, "other", 20.0, 21.0, parent=ROOT),
    ]
    st = self_times(spans)
    assert st["outer"] == pytest.approx(10.0 - 2.0 - 4.0)
    assert st["child"] == pytest.approx(2.0 + (4.0 - 1.0))
    assert st["leaf"] == pytest.approx(1.0)
    assert st["other"] == pytest.approx(1.0)
    # Self times partition the root spans' wall time.
    assert sum(st.values()) == pytest.approx(10.0 + 1.0)


def test_overlapping_children_are_counted_once():
    spans = [
        Span(0, "outer", 0.0, 10.0),
        Span(1, "a", 2.0, 6.0, parent=0),
        Span(2, "b", 4.0, 7.0, parent=0),
    ]
    assert self_times(spans)["outer"] == pytest.approx(10.0 - 5.0)


def test_leaf_aggregates_are_charged_to_their_parent():
    spans = [Span(0, "engine", 0.0, 10.0), Span(1, "build", 0.0, 1.0, parent=0)]
    leaves = {(0, "proto.act"): [100, 3.0, 7], (0, "proto.observe"): [100, 2.0, 0]}
    st = self_times(spans, leaves)
    assert st["engine"] == pytest.approx(10.0 - 1.0 - 5.0)
    assert st["proto.act"] == pytest.approx(3.0)
    assert st["proto.observe"] == pytest.approx(2.0)


def test_tracer_records_parents_and_leaves():
    tr = Tracer()
    outer = tr.wrap(lambda f: f(), "outer")
    inner = tr.wrap(lambda: tr.leaf("tick").__setitem__(0, 1), "inner")
    outer(inner)
    by_name = {s.name: s for s in tr.spans}
    assert by_name["outer"].parent == ROOT
    assert by_name["inner"].parent == by_name["outer"].sid
    assert tr.leaves == {(by_name["inner"].sid, "tick"): [1, 0.0, 0]}


def test_perturbed_reference_counts_as_failed(tmp_path, monkeypatch, capsys):
    stored = json.loads(run.REFERENCE.read_text())
    key = sorted(stored["stream-sparse"])[0]
    stored["stream-sparse"][key]["jobs_succeeded"] += 1
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(stored))

    argv = ["--workload", "stream-sparse", "--seed", str(run.DEFAULT_SEED),
            "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == 0
    clean = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert clean["correct"] and clean["failed"] == 0

    monkeypatch.setattr(run, "REFERENCE", perturbed)
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["attempted"] == clean["attempted"]


def test_traced_round_matches_untraced_round(capsys):
    argv = ["--workload", "stream-sparse", "--seed", "5", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["proto.act_calls"] == m["proto.observe_calls"] > 0
    assert m["proto.act_per_attempt"] * m["channel.attempts"] == pytest.approx(m["proto.act_calls"])
    assert m["stream.self_s"] > 0 and m["sim.self_s"] == 0
