"""The benchmark's workloads: set-up, one round of work, output checks.

Every workload is closed-loop from the host's side (one call at a time)
and runs in *rounds*.  Round ``r`` of seed ``s`` is a fixed piece of
work whose inputs come from ``(s, r)`` alone; a timed run repeats rounds
until its time is up and reports the median per-round rate.  Round 0
always runs, so its outputs give the run's fingerprint and, for the
default seed, are compared with ``reference.json``.

The program is reached only through module attributes
(``parallel.run_seeds`` and friends), which the traced run swaps for
wrappers (see ``instrument.py``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro.campaign.run as campaign_run
import repro.experiments.parallel as parallel
import repro.stream.engine as stream_engine
import repro.workloads as workloads
from repro.campaign import CampaignSpec
from repro.experiments.robustness import fault_plan
from repro.registry import protocol_factory
from repro.sim.engine import simulate
from repro.sim.instance import Instance
from repro.sim.protocolbase import Protocol, ProtocolContext
from repro.stream import PoissonProcess

#: Modules a workload imports; ``setup_s`` times importing them afresh.
IMPORTS = (
    "repro",
    "repro.campaign",
    "repro.experiments.parallel",
    "repro.fastpath.batched",
    "repro.stream",
)

#: Seeds of round ``r`` start at ``seed * SEED_STRIDE + r * (seeds per round)``.
SEED_STRIDE = 1_000_000

DENSE_N, DENSE_WINDOW = 64, 4096
STREAM_RATE, STREAM_WINDOWS = 0.05, (256, 1024)
STREAM_RUNS = (("uniform", 1000), ("beb", 4000), ("slowfb", 4000))
NULL_STREAM_JOBS = 300
SPEC_FILE = Path(__file__).with_name("campaign.json")


@dataclass
class RoundResult:
    """What one round did, measured and checked."""

    seconds: float
    ops: int  # operations attempted (seeds, stream runs, cells)
    seeds: int
    slots: int
    jobs: int  # finalized jobs
    outputs: Dict[str, Any]  # canonical outputs, keyed for the reference
    failures: List[str] = field(default_factory=list)
    #: Cache entries written and seeds served from cache (campaigns).
    cache_puts: int = 0
    cache_served: int = 0
    cache_bytes: int = 0


def canonical(obj: Any) -> Any:
    """``obj`` as plain JSON data (tuples become lists)."""
    return json.loads(json.dumps(obj, sort_keys=True))


def dense_instance() -> Instance:
    """The closed-dense instance: 64 jobs sharing one 4096-slot window."""
    return workloads.batch_instance(DENSE_N, window=DENSE_WINDOW)


class NullProtocol(Protocol):
    """Listens every slot and sends once, in the last slot of its window.

    Its per-slot work is two trivial method calls, so an engine run of it
    costs the engine's own per-job-slot work and little else.
    """

    def on_begin(self, slot: int) -> None:
        self.fire = slot + self.ctx.window - 1

    def on_act(self, slot: int):
        return self.ctx.data_message() if slot == self.fire else None


class NullFactory:
    """Builds :class:`NullProtocol` jobs and counts their live job-slots."""

    def __init__(self) -> None:
        self.job_slots = 0

    def __call__(self, job, rng) -> NullProtocol:
        # A null job lives exactly its window: it cannot succeed before
        # its last slot, and it retires at its deadline either way.
        self.job_slots += job.window
        return NullProtocol(ProtocolContext.for_job(job, rng))


def _file_stats(root: Path) -> Tuple[int, int]:
    """(count, bytes) of the result-cache entries under ``root``."""
    files = list(root.glob("*/*.pkl")) if root.is_dir() else []
    return len(files), sum(p.stat().st_size for p in files)


class Workload:
    """Base class: subclasses define :meth:`build` and :meth:`round`."""

    name = ""

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.root = root
        self.seed = seed
        self.workdir = workdir

    def build(self) -> None:
        """Build instances, specs and factories (timed as set-up)."""
        raise NotImplementedError

    def prime(self) -> None:
        """Untimed preparation after set-up (default: nothing)."""

    def close(self) -> None:
        """Remove what :meth:`prime` left on disk (default: nothing)."""

    def round(self, r: int, serial: bool = False) -> RoundResult:
        raise NotImplementedError

    def reference_key(self) -> str:
        return self.name

    def null_probe(self) -> float:
        """Engine ns per live job-slot for :class:`NullProtocol` jobs."""
        inst = dense_instance()
        samples = []
        for i in range(3):
            fac = NullFactory()
            t0 = time.perf_counter()
            simulate(inst, fac, seed=self.seed * SEED_STRIDE + i)
            samples.append((time.perf_counter() - t0) / fac.job_slots)
        return statistics.median(samples) * 1e9


# ---------------------------------------------------------------------------
# closed-dense
# ---------------------------------------------------------------------------


class ClosedDense(Workload):
    """ALIGNED and PUNCTUAL in the closed engine, clean and jammed."""

    name = "closed-dense"
    protocols = ("aligned", "punctual")

    def build(self) -> None:
        inst = dense_instance()
        self.configs = [
            (f"{p}/{label}", parallel.ConstantFactory(protocol_factory(p, {}, inst)), plan)
            for p in self.protocols
            for label, plan in (("none", None), ("jam@0.25", fault_plan("jam", 0.25)))
        ]

    def round(self, r: int, serial: bool = False) -> RoundResult:
        seeds = [self.seed * SEED_STRIDE + r]
        results = []
        t0 = time.perf_counter()
        for label, factory, plan in self.configs:
            digests = parallel.run_seeds(
                dense_instance, factory, seeds, faults=plan,
                processes=1, cache=None, fastpath="off",
            )
            results.append((label, digests))
        seconds = time.perf_counter() - t0
        out = RoundResult(seconds, 0, 0, 0, 0, {})
        for label, digests in results:
            for s, d in zip(seeds, digests):
                out.ops += 1
                out.seeds += 1
                out.slots += d.slots_simulated
                out.jobs += d.n_jobs
                out.outputs[f"{label}/{s}"] = canonical(dataclasses.asdict(d))
                problem = _digest_problem(d, s, DENSE_N)
                if problem:
                    out.failures.append(f"{label}/{s}: {problem}")
        return out


def _digest_problem(d, seed: int, n_jobs: int) -> Optional[str]:
    """Why a seed digest is inconsistent, or ``None``."""
    if d.seed != seed:
        return f"digest for seed {d.seed}"
    if d.n_jobs != n_jobs:
        return f"{d.n_jobs} jobs, expected {n_jobs}"
    if not 0 <= d.n_succeeded <= d.n_jobs:
        return f"{d.n_succeeded} successes of {d.n_jobs}"
    if sum(t for _, _, t in d.by_window) != d.n_jobs:
        return "per-window totals do not add up to the job count"
    if sum(ok for _, ok, _ in d.by_window) != d.n_succeeded:
        return "per-window successes do not add up"
    if d.slots_simulated <= 0 or d.watchdog_reason is not None:
        return f"slots={d.slots_simulated}, watchdog={d.watchdog_reason}"
    if 0 <= d.attempts_sum < d.n_succeeded:
        return "fewer sends than successes"
    return None


# ---------------------------------------------------------------------------
# stream-sparse
# ---------------------------------------------------------------------------


class StreamSparse(Workload):
    """Poisson arrivals at rho=0.05 for UNIFORM, beb and slowfb."""

    name = "stream-sparse"

    def build(self) -> None:
        self.process = PoissonProcess(window_sizes=STREAM_WINDOWS, rate=STREAM_RATE)
        empty = Instance(())
        self.factories = [
            (p, n, protocol_factory(p, {}, empty)) for p, n in STREAM_RUNS
        ]

    def round(self, r: int, serial: bool = False) -> RoundResult:
        seed = self.seed * SEED_STRIDE + r
        results = []
        t0 = time.perf_counter()
        for p, n, factory in self.factories:
            res = stream_engine.stream_simulate(
                self.process, factory, seed=seed, max_jobs=n
            )
            results.append((p, n, res))
        seconds = time.perf_counter() - t0
        out = RoundResult(seconds, 0, 0, 0, 0, {})
        for p, n, res in results:
            finalized = (
                res.jobs_succeeded + res.jobs_missed + res.jobs_gave_up + res.jobs_shed
            )
            out.ops += 1
            out.seeds += 1
            out.slots += res.slots_simulated
            out.jobs += finalized
            out.outputs[f"{p}/{seed}"] = canonical({
                k: getattr(res, k)
                for k in (
                    "jobs_released", "jobs_admitted", "jobs_succeeded",
                    "jobs_missed", "jobs_gave_up", "jobs_shed",
                    "transmissions", "slots_simulated", "final_slot",
                    "silence_slots", "success_slots", "collision_slots",
                    "peak_live",
                )
            })
            if finalized != res.jobs_released or res.jobs_released != n:
                out.failures.append(
                    f"{p}/{seed}: {finalized} finalized of "
                    f"{res.jobs_released} released (max_jobs {n})"
                )
            elif res.watchdog is not None:
                out.failures.append(f"{p}/{seed}: watchdog {res.watchdog}")
        return out

    def null_probe(self) -> float:
        samples = []
        for i in range(3):
            fac = NullFactory()
            t0 = time.perf_counter()
            stream_engine.stream_simulate(
                self.process, fac, seed=self.seed * SEED_STRIDE + i,
                max_jobs=NULL_STREAM_JOBS,
            )
            samples.append((time.perf_counter() - t0) / fac.job_slots)
        return statistics.median(samples) * 1e9


# ---------------------------------------------------------------------------
# campaign-cold / campaign-warm
# ---------------------------------------------------------------------------


class _Campaign(Workload):
    """Shared spec handling for the two campaign workloads."""

    def reference_key(self) -> str:
        return "campaign"

    def spec(self, path: Path, seed_base: int, serial: bool) -> CampaignSpec:
        raw = dict(self.raw)
        raw.update(
            seed_base=seed_base,
            cache="cache",
            state="state.jsonl",
            executor="serial" if serial else raw.get("executor", "local"),
            workers=min(int(raw.get("workers", 2)), len(os.sched_getaffinity(0))),
        )
        return CampaignSpec.from_dict(raw, base_dir=path)

    def build(self) -> None:
        self.raw = json.loads(SPEC_FILE.read_text())
        spec = self.spec(self.workdir, 0, False)
        self.n_cells = len(spec.cells())
        self.n_seeds = int(self.raw["seeds"])

    def run_pass(self, path: Path, seed_base: int, serial: bool) -> RoundResult:
        spec = self.spec(path, seed_base, serial)
        before = _file_stats(spec.cache_path)
        t0 = time.perf_counter()
        report = campaign_run.run_campaign(spec)
        seconds = time.perf_counter() - t0
        after = _file_stats(spec.cache_path)
        out = RoundResult(seconds, 0, 0, 0, 0, {})
        out.cache_puts = after[0] - before[0]
        out.cache_bytes = after[1] - before[1]
        for cell in report.executed:
            s = cell.summary
            out.ops += 1
            out.seeds += int(s["runs"])
            out.slots += int(s["slots"])
            out.jobs += int(s["jobs"])
            out.outputs[f"{cell.label}/{seed_base}"] = canonical(s)
            if s["runs"] != self.n_seeds or s["watchdog_trips"]:
                out.failures.append(f"{cell.label}: {s}")
        out.cache_served = out.seeds - out.cache_puts
        if report.exit_code != 0 or report.quarantined:
            out.failures.append(
                f"campaign exit code {report.exit_code}, "
                f"{len(report.quarantined)} quarantined"
            )
        missing = self.n_cells - len(report.executed)
        if missing:
            out.ops += missing
            out.failures.append(f"{missing} cell(s) not executed")
        return out


class CampaignCold(_Campaign):
    """Each round runs the grid into a fresh cache and state directory."""

    name = "campaign-cold"

    def round(self, r: int, serial: bool = False) -> RoundResult:
        path = self.workdir / f"cold-{r}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        try:
            out = self.run_pass(path, self.seed * SEED_STRIDE + r * self.n_seeds, serial)
        finally:
            shutil.rmtree(path, ignore_errors=True)
        if out.cache_puts != out.seeds:
            out.failures.append(
                f"cold pass wrote {out.cache_puts} cache entries for {out.seeds} seeds"
            )
        return out


class CampaignWarm(_Campaign):
    """A cold pass fills the cache once; each round deletes the state
    file and runs the grid again, served entirely from the cache."""

    name = "campaign-warm"

    def prime(self) -> None:
        self.path = self.workdir / "warm"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self.cold = self.run_pass(self.path, self.seed * SEED_STRIDE, False)
        print(f"prime: cold pass {self.cold.seconds:.3f} s, "
              f"{self.cold.cache_puts} cache entries")

    def round(self, r: int, serial: bool = False) -> RoundResult:
        (self.path / "state.jsonl").unlink()
        out = self.run_pass(self.path, self.seed * SEED_STRIDE, serial)
        if out.outputs != self.cold.outputs:
            out.failures.append("warm cell summaries differ from the cold pass")
        if out.cache_puts:
            out.failures.append(f"warm pass wrote {out.cache_puts} cache entries")
        if r == 0:
            out.failures.extend(f"prime: {f}" for f in self.cold.failures)
        return out

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


WORKLOADS = {
    w.name: w for w in (ClosedDense, StreamSparse, CampaignCold, CampaignWarm)
}
