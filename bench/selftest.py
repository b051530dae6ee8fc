"""Self-test of the benchmark itself (not of beamkey).

    python3 bench/selftest.py [--workloads multiuser_ref,single_user_sweep]

1. For each workload, two short traced runs at the default seed and one at
   the confirmation seed: every op passes its checks, and the exact counts
   (run.EXACT_COUNTS) of each op repeat exactly between the two runs at the
   same seed.  It also lists the counts that change with the seed; on
   validate_suite, lambda_bytes does, because the rate-oracle sweep draws its
   array sizes from the seed.
2. run.py prints exactly the metrics and units BENCHMARK.json declares.
3. In a directory that holds only BENCHMARK.json and the benchmark, run.py
   exits non-zero without printing a result.

Exits 1 and lists the problems if any check fails.  Takes about five
minutes for all workloads, mostly the three validate_suite runs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import EXACT_COUNTS, worker_env  # noqa: E402
from workloads import CONFIRM_SEED, DEFAULT_SEED, WORKLOADS  # noqa: E402


def traced_run(workload: str, seed: int, work: Path, tag: str) -> dict:
    result = work / f"{workload}-{seed}-{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1", "--work-dir", str(work / f"{workload}-{seed}-{tag}"),
           "--result", str(result)]
    subprocess.run(cmd, env=worker_env(), cwd=ROOT, check=True, timeout=300)
    return json.loads(result.read_text())


def exact_counts(result: dict) -> dict:
    """Exact counts of each traced op, by op index."""
    return {op["index"]: {k: op["counts"][k] for k in EXACT_COUNTS}
            for op in result["ops"] if op["traced"]}


def check_exact_counts(workload: str, work: Path) -> list[str]:
    problems = []
    runs = {(seed, tag): traced_run(workload, seed, work, tag)
            for seed, tag in ((DEFAULT_SEED, "a"), (DEFAULT_SEED, "b"), (CONFIRM_SEED, "a"))}
    for (seed, tag), result in runs.items():
        problems += [f"{workload} seed {seed} run {tag}: {f}" for f in result["failures"]]
    first, second = exact_counts(runs[DEFAULT_SEED, "a"]), exact_counts(runs[DEFAULT_SEED, "b"])
    common = first.keys() & second.keys()  # runs are timed, so op counts may differ
    if not common or any(first[i] != second[i] for i in common):
        problems.append(f"{workload}: exact counts differ between two runs at seed "
                        f"{DEFAULT_SEED}: {first} != {second}")
    print(f"{workload}: exact counts per op at seed {DEFAULT_SEED}, twice: {first}")
    other = exact_counts(runs[CONFIRM_SEED, "a"])
    varying = sorted({k for c in [*first.values(), *other.values()] for k in EXACT_COUNTS
                      if c[k] != first[0][k]})
    print(f"{workload}: counts that depend on the seed: {varying or 'none'}")
    return problems


def check_metric_names() -> list[str]:
    """run.py prints exactly the metrics, with the units, that BENCHMARK.json
    declares: end_to_end with --trace 0, per_layer with --trace 1."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [*bench["command"], "--workload", "single_user_sweep", "--seed", "1",
               "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                              timeout=180)
        result = json.loads(proc.stdout.splitlines()[-1])
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in bench[key]}
        if got != want:
            problems.append(f"--trace {trace} prints {got}, BENCHMARK.json {key} has {want}")
        if not result["correct"]:
            problems.append(f"--trace {trace}: a check failed")
    print(f"metric names and units match BENCHMARK.json: {not problems}")
    return problems


def check_bare_directory(work: Path) -> list[str]:
    bare = work / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = bench["workloads"][0]["name"]
    cmd = [*bench["command"], "--workload", workload, "--seed", "1",
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    print(f"bare directory: exit code {proc.returncode}: {proc.stderr.strip()}")
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    work = ROOT / ".bench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        problems = check_metric_names() + check_bare_directory(work)
        for name in args.workloads.split(","):
            problems += check_exact_counts(name, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
