"""One benchmark run in one process: a closed loop of CLI ops with one client.

Started by run.py with BLAS threads pinned in the environment and PYTHONPATH
pointing at the checkout's `src`.  Ops run in this schedule:

    op 0, op 0 again, op 1, op 2, ...

The first `warmup_ops` entries are untimed.  The repeat of op 0 must write
byte-identical files.  After at least two timed ops, new ops start until
`--seconds` have passed since the first timed op.  With `--trace 0`, the
machine-speed probe (speed.py) samples around and during every op.  With
`--trace 1`, every other timed op is traced, and the untraced ones give the
tracing overhead; the probe is off, so per-layer times are plain wall times.
Writes its findings as JSON to `--result`.

    python3 bench/worker.py --record-reference --workload multiuser_ref --work-dir DIR
rewrites reference/<workload>.json from the current program.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import filecmp
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from speed import SpeedProbe  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    RATE_FLOOR,
    REFERENCE_ATOL,
    REFERENCE_RTOL,
    WORKLOADS,
    Workload,
    op_seed,
)

def import_beamkey():
    """Import beamkey from this checkout's `src`, never from elsewhere."""
    import beamkey
    import beamkey.cli

    src = (ROOT / "src").resolve()
    if src not in Path(beamkey.__file__).resolve().parents:
        raise SystemExit(f"beamkey was imported from {beamkey.__file__}, not from {src}")
    return beamkey.cli


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def read_outputs(w: Workload, out: Path) -> tuple[list[str], list[float], int]:
    """Check one op's output files; returns (failures, rates, jitter events)."""
    if w.table is None:
        report = json.loads((out / "validation_report.json").read_text())
        if report.get("passed") is not True:
            failed = [c["name"] for c in report.get("checks", []) if c.get("status") == "fail"]
            return [f"validation report not passed: {failed}"], [], 0
        return [], [], 0
    failures = []
    with open(out / f"{w.table}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != w.rows:
        failures.append(f"{w.table}.csv has {len(rows)} rows, expected {w.rows}")
    rates = [float(row[col]) for col in w.rate_columns for row in rows]
    bad = [r for r in rates if not math.isfinite(r) or r < RATE_FLOOR]
    if bad:
        failures.append(f"{len(bad)} rates non-finite or below {RATE_FLOOR}, e.g. {bad[0]!r}")
    meta = json.loads((out / f"{w.table}_meta.json").read_text())
    return failures, rates, int(meta["logdet_jitter_events"])


def load_reference(w: Workload) -> dict | None:
    path = BENCH / "reference" / f"{w.name}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def compare_reference(rates: list[float], expected: list[float]) -> str | None:
    if len(rates) != len(expected):
        return f"rate table has {len(rates)} rates, reference has {len(expected)}"
    worst = None
    for got, want in zip(rates, expected):
        err = abs(got - want)
        if err > max(REFERENCE_RTOL * abs(want), REFERENCE_ATOL):
            worst = max(worst or 0.0, err / max(abs(want), REFERENCE_ATOL))
    if worst is not None:
        return f"rates differ from the reference by up to {worst:.3e} relative"
    return None


def same_files(a: Path, b: Path) -> str | None:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return f"repeat wrote files {names_b}, first op wrote {names_a}"
    differ = [n for n in names_a if not filecmp.cmp(a / n, b / n, shallow=False)]
    return f"repeat of op 0 is not byte-identical: {differ}" if differ else None


# ---------------------------------------------------------------------------
# The op loop
# ---------------------------------------------------------------------------

def run_op(cli, w: Workload, config: Path, seed: int, out: Path, tracer=None,
           op_id: int = 0, probe: SpeedProbe | None = None
           ) -> tuple[float, float | None, list[str], list[float], int]:
    """One op, a `cli.main` call writing to a fresh `out`, and its output
    checks.  Returns (wall seconds without probe time, mean probe kernel
    seconds around the op or None, failed checks, rates, jitter events)."""
    argv = [w.command, "--config", str(config), "--seed", str(seed), "--out", str(out)]
    shutil.rmtree(out, ignore_errors=True)
    log = io.StringIO()

    def call():
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                if tracer is not None:
                    return tracer.run_op(op_id, lambda: cli.main(argv))
                return cli.main(argv)
        except (Exception, SystemExit):
            log.write(traceback.format_exc())
            return None

    if probe is not None:
        rc, elapsed, kernel_s = probe.timed(call)
    else:
        t0 = time.perf_counter()
        rc = call()
        elapsed, kernel_s = time.perf_counter() - t0, None
    if rc != 0:
        tail = " | ".join(log.getvalue().strip().splitlines()[-4:])
        return elapsed, kernel_s, [f"exit code {rc}: {tail}"], [], 0
    try:
        return (elapsed, kernel_s, *read_outputs(w, out))
    except (OSError, ValueError, KeyError) as exc:
        return elapsed, kernel_s, [f"unreadable output: {exc!r}"], [], 0


def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    cli = import_beamkey()
    tracer = probe = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    else:
        probe = SpeedProbe(w.probe)
    config = work / "config.json"
    config.write_text(json.dumps(w.config))
    out, first = work / "out", work / "first"
    shutil.rmtree(first, ignore_errors=True)
    reference = load_reference(w) if seed == DEFAULT_SEED else None

    ops: list[dict] = []
    failures: list[str] = []
    window_start = None
    pos = 0
    if probe is not None:
        probe.start()
    try:
        while True:
            index = max(pos - 1, 0)
            timed = pos >= w.warmup_ops
            if timed and window_start is None:
                window_start = time.perf_counter()
            if pos >= w.warmup_ops + 2 and time.perf_counter() - window_start >= seconds:
                break
            traced = tracer is not None and timed and (pos - w.warmup_ops) % 2 == 0
            s = op_seed(w.name, seed, index)
            elapsed, kernel_s, problems, rates, jitter = run_op(
                cli, w, config, s, out, tracer if traced else None, pos, probe)
            if reference is not None and index < len(reference["rates"]) and not problems:
                mismatch = compare_reference(rates, reference["rates"][index])
                if mismatch:
                    problems.append(mismatch)
            if pos == 0 and out.is_dir():
                out.rename(first)
            elif pos == 1 and not problems:
                mismatch = same_files(first, out) if first.is_dir() else "op 0 wrote no files"
                if mismatch:
                    problems.append(mismatch)

            counts = None
            if traced:
                counts = tracer.op_counts(pos)
                counts["keyrate.jitter_events"] = jitter
            ops.append({"pos": pos, "index": index, "op_seed": s, "seconds": elapsed,
                        "kernel_s": kernel_s, "timed": timed, "traced": traced,
                        "ok": not problems, "counts": counts})
            failures += [f"op {pos} (index {index}, seed {s}): {p}" for p in problems]
            pos += 1
    finally:
        if probe is not None:
            probe.stop()

    result = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops": ops,
        "failures": failures,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_record(),
    }
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        trace_file = ROOT / ".bench_work" / "traces" / f"{w.name}-seed{seed}.npz"
        tracer.write(trace_file)
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    return result


def record_reference(w: Workload, work: Path) -> Path:
    """Write the rates of the first `reference_ops` ops at DEFAULT_SEED."""
    cli = import_beamkey()
    config = work / "config.json"
    config.write_text(json.dumps(w.config))
    rates = []
    for index in range(w.reference_ops):
        seed = op_seed(w.name, DEFAULT_SEED, index)
        _, _, problems, op_rates, _ = run_op(cli, w, config, seed, work / "out")
        if problems:
            raise SystemExit(f"op {index} failed: {problems}")
        rates.append(op_rates)
    path = BENCH / "reference" / f"{w.name}.json"
    path.parent.mkdir(exist_ok=True)
    head = {"workload": w.name, "seed": DEFAULT_SEED, "columns": list(w.rate_columns)}
    rows = ",\n".join(json.dumps(r) for r in rates)
    path.write_text(json.dumps(head)[:-1] + ', "rates": [\n' + rows + "\n]}\n")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    args.work_dir.mkdir(parents=True, exist_ok=True)
    if args.record_reference:
        print(f"wrote {record_reference(w, args.work_dir)}")
        return 0
    result = run(w, args.seed, args.seconds, bool(args.trace), args.work_dir)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
