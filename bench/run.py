"""Benchmark entry point: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload multiuser_ref --seed 2025 --seconds 20 --trace 0

Run from the root of a checkout.  Builds nothing: the program is imported
from the checkout's `src`.  With `--trace 0` it reports the end-to-end
metrics (set-up time from fresh processes, then op times, throughput and
peak memory from one worker process), with times calibrated to the machine's
speed while they were measured (speed.py).  With `--trace 1` it reports the
per-layer split from spans around the calls into beamkey's layers.  Every
op's output is checked.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from speed import MIXED, SpeedProbe, calibrated  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# BLAS threads for every process the benchmark starts.  One client on a small
# shared machine: one thread is the steadier setting and stays within nproc.
BLAS_THREADS = 1
# Measured set-ups per run, after one unmeasured warm-up: half before the
# worker and half after it, so that they sample the machine at two times.
SETUP_RUNS = 10
RUN_TIMEOUT_S = 170.0
# Tail percentiles, highest first; the tail is the highest one with at least
# ten ops beyond it.  Below 20 ops none has, and the tail is TAIL_FALLBACK:
# the maximum of so few ops is one sample, too noisy to hold to a bound.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_FALLBACK = 75.0
# The set-up a user pays before the first op: import, resolve, validate.
SETUP_CODE = (
    "import sys, beamkey\n"
    "from beamkey.experiments import ScenarioConfig\n"
    "config = ScenarioConfig.from_json(open(sys.argv[1]).read())\n"
    "config.validate()\n"
    "config.resolved()\n"
)

# Per-layer metrics: self time per traced op in seconds.
LAYER_SECONDS = (
    "keyrate.psd_eigh", "channel.beam_covariances", "keyrate.rate_factors",
    "allocation.neutralization_residual", "keyrate.rate", "keyrate.full_sampling_rate",
    "probing.downlink_probe", "probing.uplink_probe", "channel.synthesize_channel",
    "channel.PathSet", "keyrate.secret_key_rate", "keyrate.gaussian_mi_oracle",
    "channel.sample_paths", "allocation.build_matrices", "allocation.select",
    "experiments.write_result",
)
# Per-layer metrics: counts per traced op, with their units.
LAYER_COUNTS = {
    "keyrate.psd_eigh.elems": "count",
    "channel.beam_covariances.lambda_bytes": "bytes",
    "allocation.neutralization_residual.calls": "count",
    "keyrate.rate.calls": "count",
    "probing.downlink_probe.calls": "count",
    "channel.synthesize_channel.calls": "count",
    "experiments.output_bytes": "bytes",
    "keyrate.jitter_events": "count",
}
# Counts that must repeat exactly between ops and between runs.
EXACT_COUNTS = (
    "keyrate.psd_eigh.elems",
    "channel.beam_covariances.lambda_bytes",
    "keyrate.rate.calls",
    "probing.downlink_probe.calls",
    "keyrate.jitter_events",
)


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = p / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[str, float]:
    """(label, value) of the highest ladder percentile with >= 10 ops beyond
    it, or of TAIL_FALLBACK when there are fewer than 20 ops."""
    n = len(values)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return f"p{p:g}", percentile(values, p)
    return f"p{TAIL_FALLBACK:g}, fewer than 10 ops beyond", percentile(values, TAIL_FALLBACK)


def blas_env() -> dict:
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    return {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads}


def worker_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **blas_env())


def measure_setup(config: Path, env: dict, runs: int, probe: SpeedProbe) -> list[tuple]:
    """(wall seconds, mean probe kernel seconds around it) of fresh processes
    that do only the set-up.

    No timeout: with one, `subprocess` polls the child with growing sleeps,
    which rounds the measured times up to its polling steps.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, str(config)]
    return [probe.timed(lambda: subprocess.run(cmd, env=env, cwd=ROOT, check=True))[1:]
            for _ in range(runs)]


def end_to_end(result: dict, setup: list[tuple], w: Workload) -> dict:
    """End-to-end metrics: name -> (value, unit, sample count, note).  Times
    are calibrated to the reference machine speed (speed.py)."""
    ops = [op for op in result["ops"] if op["timed"]]
    timed = [calibrated(op["seconds"], op["kernel_s"], w.probe) for op in ops]
    label, value = tail(timed)
    n = len(timed)
    wall = f"wall {statistics.median(op['seconds'] for op in ops):.6g} s, probe {w.probe.name}"
    return {
        "setup_s": (statistics.median(calibrated(*s, MIXED) for s in setup), "s", len(setup),
                    f"wall {statistics.median(s[0] for s in setup):.6g} s, probe {MIXED.name}"),
        "op_s.p50": (statistics.median(timed), "s", n, wall),
        "op_s.tail": (value, "s", n, label),
        "work_per_s": (w.work_per_op * n / sum(timed), "1/s", n, f"{w.work_unit} per second"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB", 1, ""),
    }


def per_layer(result: dict) -> dict:
    """Per-layer metrics: self times and counts per traced op, and the
    tracing overhead against the untraced ops of the same run.  Same form as
    end_to_end()."""
    traced = [op for op in result["ops"] if op["traced"]]
    untraced = [op["seconds"] for op in result["ops"] if op["timed"] and not op["traced"]]
    n = len(traced)
    self_s = result["self_s"]
    metrics = {f"{layer}.s": (self_s[layer] / n, "s", n, "") for layer in LAYER_SECONDS}
    metrics["experiments.self_s"] = (self_s["experiments"] / n, "s", n, "")
    for key, unit in LAYER_COUNTS.items():
        values = [op["counts"][key] for op in traced]
        exact = len(set(values)) == 1
        note = "exact" if key in EXACT_COUNTS and exact else ""
        if key in EXACT_COUNTS and not exact:
            note = f"NOT EXACT: differs between ops {sorted(set(values))}"
        metrics[key] = (values[0] if exact else sum(values) / n, unit, n, note)
    p50_traced = statistics.median(op["seconds"] for op in traced)
    metrics["traced.op_s.p50"] = (p50_traced, "s", n, "")
    metrics["tracing.overhead_s"] = (p50_traced - statistics.median(untraced), "s",
                                     len(untraced), "traced op_s.p50 minus untraced op_s.p50")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "beamkey" / "__init__.py").is_file():
        print(f"error: no beamkey sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = worker_env()
    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config = work / "config.json"
        config.write_text(json.dumps(w.config))
        setup = []
        if not args.trace:
            os.environ.update(blas_env())  # for the probe's kernel in this process
            probe = SpeedProbe(MIXED)
            setup = measure_setup(config, env, SETUP_RUNS // 2 + 1, probe)[1:]
        result_file = work / "result.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", w.name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work / "worker"),
               "--result", str(result_file)]
        proc = subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0 or not result_file.is_file():
            print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
            return 3
        result = json.loads(result_file.read_text())
        if not args.trace:
            setup += measure_setup(config, env, SETUP_RUNS // 2, probe)
    except subprocess.TimeoutExpired as exc:
        print(f"error: timed out: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(result)
    else:
        metrics = end_to_end(result, setup, w)
    attempted = len(result["ops"])
    failed = sum(not op["ok"] for op in result["ops"])

    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
          f"  ({w.command}, closed loop, 1 client, {w.warmup_ops} warm-up op(s))")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for name, (value, unit, n, note) in metrics.items():
        extra = f"  [{note}]" if note else ""
        print(f"  {name:<42} {value:>16.6g} {unit:<6} n={n}{extra}")
    print(f"  {'failed_ops_ratio':<42} {failed / attempted:>16.6g} {'ratio':<6} "
          f"n={attempted} (failed {failed} of {attempted} attempted)")
    if "trace_file" in result:
        print(f"spans written to {result['trace_file']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _) in metrics.items()},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
