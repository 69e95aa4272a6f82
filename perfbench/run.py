"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload closed-dense --seed 0 --seconds 25 --trace 0

``--trace 0`` times rounds of the workload for ``--seconds`` and prints
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates an
untraced and a traced round 0, checks that both simulated the same
thing, and prints the per-layer metrics.  Earlier output lines carry the
host-noise calibration, set-up breakdown, output fingerprint and failure
share; the last line is the result object.  ``LAYERS.md`` explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
MIN_ROUNDS = 3
MAX_PAIRS = 10
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("closed-dense", "stream-sparse", "campaign-cold", "campaign-warm")


#: Host seconds the probe loop takes on the reference host.  Timed runs
#: report reference seconds: host seconds times ``PROBE_REF_S`` over the
#: probe time measured next to them (see LAYERS.md, "Reference seconds").
PROBE_REF_S = 0.030


def _py_loop() -> int:
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return acc


def probe() -> float:
    """Host seconds of the fixed pure-Python loop, best of three."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        _py_loop()
        samples.append(time.perf_counter() - t0)
    return min(samples)


def median_rate(rounds, scales, attr: str) -> float:
    """Median per-round rate in reference seconds."""
    return statistics.median(
        getattr(r, attr) / r.seconds * k for r, k in zip(rounds, scales)
    )


def fingerprint(outputs: Dict) -> str:
    blob = json.dumps(outputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def reference_mismatches(outputs: Dict, reference: Optional[Dict]) -> List[str]:
    """Keys whose output differs from the stored reference (or is missing)."""
    if reference is None:
        return ["no stored reference for this workload"]
    keys = sorted(set(outputs) | set(reference))
    return [
        f"{k}: output {outputs.get(k)} != reference {reference.get(k)}"
        for k in keys
        if outputs.get(k) != reference.get(k)
    ]


def host_calibration() -> Tuple[float, float]:
    """Milliseconds for a fixed pure-Python loop and a fixed numpy loop."""
    import numpy as np

    data = np.random.default_rng(0).random(200_000)

    def np_loop() -> float:
        return float(sum(np.sort(data)[0] for _ in range(20)))

    def best(fn) -> float:
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples) * 1e3

    return best(_py_loop), best(np_loop)


def import_seconds(modules) -> float:
    """Median time to import ``modules`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def measure_setup(wl, modules) -> Tuple[float, float, float]:
    """(setup_s, import_s, build_s): medians of repeated set-ups."""
    imp = import_seconds(modules)
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.build()
        builds.append(time.perf_counter() - t0)
    build = statistics.median(builds)
    return imp + build, imp, build


def run_round(wl, r: int, serial: bool = False):
    """One round; an exception becomes a failed round (no timing)."""
    try:
        return wl.round(r, serial=serial)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def timed_run(wl, seconds: float):
    """Rounds until ``seconds`` are up.

    Each round's scale is the mean of the probes just before and just
    after it, over ``PROBE_REF_S``: the host's slowness while it ran.
    """
    rounds, scales, crashed = [], [], 0
    before = probe()
    deadline = time.perf_counter() + seconds
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() < deadline:
        res = run_round(wl, r)
        after = probe()
        if res is None:
            crashed += 1
            if r == 0:
                break
        else:
            rounds.append(res)
            scales.append((before + after) / 2 / PROBE_REF_S)
        before = after
        r += 1
    return rounds, scales, crashed


def _leaf(tracer, name: str, idx: int) -> float:
    return sum(acc[idx] for (_, n), acc in tracer.leaves.items() if n == name)


def traced_run(wl, seconds: float):
    """Alternate untraced and traced round 0; check the trace's fidelity."""
    from instrument import instrument
    from spans import Tracer

    tracer, counts = Tracer(), Counter()
    pairs, problems, crashed = [], [], 0
    deadline = time.perf_counter() + seconds
    while not pairs or (time.perf_counter() < deadline and len(pairs) < MAX_PAIRS):
        plain = run_round(wl, 0, serial=True)
        before = (Counter(counts), _leaf(tracer, "proto.act", 2),
                  _leaf(tracer, "channel.jam", 0))
        tracer.run = f"{wl.name}/seed{wl.seed}/pair{len(pairs)}"
        with instrument(tracer, counts):
            traced = run_round(wl, 0, serial=True)
        if plain is None or traced is None:
            crashed += 1
            break
        pairs.append((plain, traced))
        delta = counts - before[0]
        sends = _leaf(tracer, "proto.act", 2) - before[1]
        jams = _leaf(tracer, "channel.jam", 0) - before[2]
        checks = {
            "outputs": (fingerprint(traced.outputs), fingerprint(plain.outputs)),
            "proxy sends vs engine sends": (sends, delta["engine.sends"]),
            "jammer calls vs jammed slots": (jams, delta["engine.jammed_slots"]),
            "cache puts": (delta["cache.puts"], plain.cache_puts),
            "cache hits served": (delta["cache.dispatch_hits"], plain.cache_served),
        }
        if wl.name in ("closed-dense", "stream-sparse"):
            checks["engine slots"] = (delta["engine.slots"], plain.slots)
        for what, (got, want) in checks.items():
            if got != want:
                problems.append(f"trace fidelity: {what}: traced {got} != untraced {want}")
    return tracer, counts, pairs, problems, crashed


def layer_metrics(tracer, counts, pairs, null_ns, calib) -> Dict[str, float]:
    from spans import self_times

    n = len(pairs)
    st = self_times(tracer.spans, tracer.leaves)
    durs: Dict[str, List[float]] = {}
    for s in tracer.spans:
        durs.setdefault(s.name, []).append(s.duration)

    def total(name: str) -> float:
        return sum(durs.get(name, ()))

    def mean_us(name: str) -> float:
        d = durs.get(name)
        return statistics.fmean(d) * 1e6 if d else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    act_calls = _leaf(tracer, "proto.act", 0)
    obs_calls = _leaf(tracer, "proto.observe", 0)
    sends = _leaf(tracer, "proto.act", 2)
    call_s = _leaf(tracer, "proto.act", 1) + _leaf(tracer, "proto.observe", 1)
    engine_self = st.get("sim.simulate", 0.0) + st.get("stream.simulate", 0.0)
    gets = len(durs.get("cache.get", ()))
    plain_s = statistics.median(p.seconds for p, _ in pairs)
    traced_s = statistics.median(t.seconds for _, t in pairs)
    return {
        "proto.act_calls": act_calls / n,
        "proto.observe_calls": obs_calls / n,
        "proto.act_per_attempt": ratio(act_calls, sends),
        "proto.self_s": (call_s + _leaf(tracer, "proto.begin", 1)) / n,
        "proto.ns_per_call": ratio(call_s, act_calls + obs_calls) * 1e9,
        "sim.self_s": st.get("sim.simulate", 0.0) / n,
        "sim.ns_per_job_slot": ratio(engine_self, act_calls) * 1e9,
        "sim.null_ns_per_job_slot": null_ns,
        "sim.slots": counts["engine.slots"] / n,
        "channel.jam_calls": _leaf(tracer, "channel.jam", 0) / n,
        "channel.jam_self_s": _leaf(tracer, "channel.jam", 1) / n,
        "channel.attempts": sends / n,
        "workloads.build_s": total("workloads.build") / n,
        "stream.arrivals_self_s": _leaf(tracer, "stream.arrivals", 1) / n,
        "stream.self_s": st.get("stream.simulate", 0.0) / n,
        "stream.peak_live": counts["stream.peak_live"],
        "fastpath.trials": len(durs.get("fastpath.trial", ())) / n,
        "fastpath.us_per_trial": mean_us("fastpath.trial"),
        "fastpath.routed_share": ratio(counts["run_batch.seeds"], counts["run_seeds.seeds"]),
        "cache.key_us": ratio(total("cache.key"), counts["cache.keys"]) * 1e6,
        "cache.get_us": mean_us("cache.get"),
        "cache.put_us": mean_us("cache.put"),
        "cache.hits": counts["cache.hits"] / n,
        "cache.hit_ratio": ratio(counts["cache.hits"], gets),
        "cache.bytes_written": statistics.fmean(t.cache_bytes for _, t in pairs),
        "experiments.dispatch_us_per_seed": ratio(
            st.get("experiments.run_seeds", 0.0), counts["run_seeds.seeds"]) * 1e6,
        "campaign.evaluate_s": total("campaign.evaluate") / n,
        "campaign.state_append_us": mean_us("campaign.state_append"),
        "campaign.cell_s_p50": statistics.median(durs.get("campaign.cell", [0.0])),
        "trace.overhead": traced_s / plain_s,
        "host.py_loop_ms": calib[0],
        "host.np_loop_ms": calib[1],
    }


def record_reference() -> int:
    """Write round 0 of the default seed for every workload to reference.json."""
    import suite

    ref = {}
    for name in ("closed-dense", "stream-sparse", "campaign-cold"):
        wl = suite.WORKLOADS[name](ROOT, DEFAULT_SEED, WORKDIR)
        wl.build()
        wl.prime()
        res = wl.round(0)
        if res.failures:
            print("\n".join(res.failures), file=sys.stderr)
            return 1
        ref[wl.reference_key()] = res.outputs
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json from the default seed and exit")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)
    import suite

    if args.record_reference:
        return record_reference()
    if args.workload is None:
        ap.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    wl = suite.WORKLOADS[args.workload](ROOT, args.seed, WORKDIR)
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    calib = host_calibration()
    print(f"host calibration: py_loop_ms={calib[0]:.3f} np_loop_ms={calib[1]:.3f}")
    around = probe()
    setup_s, imp, build = measure_setup(wl, suite.IMPORTS)
    around = (around + probe()) / 2
    print(f"setup: {setup_s:.4f} host s (imports {imp:.4f} s, build {build:.4f} s), "
          f"probe {around * 1e3:.3f} ms")
    wl.prime()

    if args.trace:
        tracer, counts, pairs, failures, crashed = traced_run(wl, args.seconds)
        rounds = [r for pair in pairs for r in pair]
        first = pairs[0][0] if pairs else None
    else:
        rounds, scales, crashed = timed_run(wl, args.seconds)
        failures = []
        first = rounds[0] if rounds else None
    wl.close()
    if first is None:
        print("perfbench: round 0 raised; no result", file=sys.stderr)
        return 1

    for r in rounds:
        failures.extend(r.failures)
    if args.seed == DEFAULT_SEED:
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        failures.extend(
            f"reference: {m}"
            for m in reference_mismatches(first.outputs, ref.get(wl.reference_key()))
        )
    attempted = sum(r.ops for r in rounds) + crashed
    failed = min(len(failures) + crashed, attempted)
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)

    print(f"fingerprint: {wl.name} seed={args.seed} round0={fingerprint(first.outputs)}")
    print(f"rounds: {len(rounds)}, failed_share={failed / attempted:.6f} ({failed}/{attempted})")

    if args.trace:
        values = layer_metrics(tracer, counts, pairs, wl.null_probe(), calib)
        out = WORKDIR / f"trace-{wl.name}-{args.seed}.jsonl"
        tracer.dump(out)
        print(f"trace: {len(tracer.spans)} spans, {len(tracer.leaves)} leaf aggregates -> {out}")
    else:
        host = {
            "seeds_per_s": statistics.median(r.seeds / r.seconds for r in rounds),
            "probe_ms": statistics.median(scales) * PROBE_REF_S * 1e3,
        }
        print("host seconds: " + " ".join(f"{k}={v:.4f}" for k, v in host.items()))
        values = {
            "setup_s": setup_s * PROBE_REF_S / around,
            "seeds_per_s": median_rate(rounds, scales, "seeds"),
            "slots_per_s": median_rate(rounds, scales, "slots"),
            "jobs_per_s": median_rate(rounds, scales, "jobs"),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
