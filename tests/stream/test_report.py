"""Tests for the sustained-load report: every released job is accounted for."""

import json
from dataclasses import replace

import pytest

from repro.core.uniform import uniform_factory
from repro.errors import SimulationError
from repro.stream.arrivals import PoissonProcess
from repro.stream.engine import StreamBudget, stream_simulate
from repro.stream.report import SustainedLoadReport


def _run(rho, **kwargs):
    return stream_simulate(
        PoissonProcess(rate=rho, window_sizes=(256, 1024)),
        uniform_factory(),
        seed=3,
        max_jobs=400,
        **kwargs,
    )


class TestOutcomeAccounting:
    def test_gave_up_column_shows_uniform_loss(self):
        # UNIFORM sends once and gives up on a collision: at light load
        # its whole loss is gave-up jobs, not deadline misses
        res = _run(0.05)
        assert res.jobs_gave_up > 0
        assert res.jobs_missed == 0
        report = SustainedLoadReport(protocol="uniform")
        report.add(0.05, res)
        table = report.table()
        assert "gave-up rate" in table
        assert f"{res.jobs_gave_up / res.jobs_released:.4f}" in table

    def test_rows_with_shedding_add_up(self):
        report = SustainedLoadReport()
        for rho in (0.05, 0.5):
            report.add(rho, _run(rho, budget=StreamBudget(8, "block", 4)))
        for row in json.loads(json.dumps(report.to_dict()))["rows"]:
            assert row["jobs_succeeded"] + row["jobs_missed"] + row[
                "jobs_gave_up"
            ] + row["jobs_shed"] == row["jobs_released"]

    def test_a_row_that_does_not_add_up_is_refused(self):
        res = _run(0.05)
        lost = replace(res, jobs_gave_up=res.jobs_gave_up - 1)
        with pytest.raises(SimulationError, match="released"):
            SustainedLoadReport().add(0.05, lost)
