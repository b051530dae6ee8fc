"""Run the benchmark over several seeds and summarise the spread per metric.

    python3 bench/sweep.py --workloads multiuser_ref,validate_suite --seeds 1-10 \
        --seconds 20 --trace 0 --out bench/baselines/BENCH_<commit>.json

Each run is a separate `bench/run.py` process.  For every metric it prints
the median, the quartiles (`statistics.quantiles(values, n=4)`) and their
distance as a share of the median.  With `--out`, the runs and the summary
are merged into that results file under `workloads.<name>.trace<0|1>`.
With `--workers-check`, it also times `single-user-rate` at 20 trials with
`--workers 1` against `--workers 2`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import worker_env  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    machine = next(json.loads(l[len("machine "):]) for l in lines if l.startswith("machine "))
    return {"seed": seed, "wall_s": wall, "machine": machine, "result": json.loads(lines[-1]),
            "report": lines[:-1]}


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": med,
                         "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
                         "min": min(values), "max": max(values)}
    return summary


def workers_check(reps: int = 3) -> dict:
    """Wall time of `single-user-rate --users 1 --trials 20` per worker count
    and BLAS thread count, median of `reps` fresh processes each."""
    code = "import sys; from beamkey.cli import main; sys.exit(main(sys.argv[1:]))"
    out_dir = ROOT / ".bench_work" / "workers_check"
    results = {}
    for blas in (1, 2):
        env = worker_env()
        env.update(OPENBLAS_NUM_THREADS=str(blas), OMP_NUM_THREADS=str(blas),
                   MKL_NUM_THREADS=str(blas))
        for workers in (1, 2):
            times = []
            for _ in range(reps):
                argv = ["single-user-rate", "--users", "1", "--trials", "20", "--seed", "2025",
                        "--workers", str(workers), "--out", str(out_dir)]
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=ROOT,
                               check=True, capture_output=True, timeout=300)
                times.append(time.perf_counter() - t0)
            results[f"blas_threads={blas} workers={workers}"] = statistics.median(times)
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--workers-check", action="store_true")
    args = parser.parse_args()
    doc = json.loads(args.out.read_text()) if args.out and args.out.is_file() else {}
    for name in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(name, seed, args.seconds, args.trace))
            r = runs[-1]
            print(f"{name} seed {seed}: wall {r['wall_s']:.1f} s, correct "
                  f"{r['result']['correct']}, failed {r['result']['failed']}/"
                  f"{r['result']['attempted']}", flush=True)
        summary = summarise(runs)
        for metric, s in summary.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {metric:<42} median {s['median']:<12.6g} {s['unit']:<6} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {spread}", flush=True)
        doc["machine"] = runs[0]["machine"]
        doc.setdefault("workloads", {}).setdefault(name, {})[f"trace{args.trace}"] = {
            "seconds": args.seconds,
            "seeds": [r["seed"] for r in runs],
            "summary": summary,
            "runs": [{k: r[k] for k in ("seed", "wall_s", "result")} for r in runs],
        }
    if args.workers_check:
        doc["workers_check_s"] = workers_check()
        print(json.dumps(doc["workers_check_s"], indent=1))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
