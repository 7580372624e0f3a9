"""The symsu benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload verify --seed 1 --seconds 35 --trace 0

Run from the repository root; symsu is imported from ./src.  The workload
runs in fresh worker processes (worker.py) with one client in a closed
loop.  --trace 0 reports the end-to-end metrics: set-up time (median of
several worker starts), pass time (median over passes), both at the
reference speed of speed.py, peak memory, and the failed/attempted count.
--trace 1 reports per-layer metrics from a separate traced run.  The last
line of stdout is one JSON object; a run record with the samples goes to
bench/out/.  See README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import references
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOAD_NAMES = ("verify", "enumerate", "dense", "smoke")
# Set-up-only worker starts per run: at least SETUP_MIN, and more, up to
# SETUP_MAX, while they have taken less than SETUP_BUDGET_S.  setup_s is
# their median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 9, 3.0
RUN_LIMIT_S = 170.0     # hard limit for all worker processes of one run

END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB")]
# BLAS threads of the workload process: one thread on one core, so that the
# host's other work on the second core does not stall a BLAS call.
BLAS_THREADS = 1


class WorkerError(RuntimeError):
    pass


def git_commit():
    """HEAD commit read from .git without running git, or None outside a checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {"commit": git_commit(), "seed": seed, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "loadavg_before": os.getloadavg()}


def start_worker(args, mode: str, workdir: Path, deadline: float, span_file=None):
    """Run one worker to completion; returns (set-up seconds, result dict)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", str(workdir)]
    if span_file is not None:
        cmd += ["--spans", str(span_file)]
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0 or not ready.startswith('{"event": "ready"'):
        raise WorkerError(f"{mode} worker exited with code {rc}")
    if mode == "setup":
        return setup_s, {}
    lines = [ln for ln in rest.splitlines() if ln.startswith('{"event": "result"')]
    if not lines:
        raise WorkerError(f"{mode} worker printed no result")
    return setup_s, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(args, workdir: Path, deadline: float, report: list) -> tuple[dict, dict]:
    walls = []
    while len(walls) < SETUP_MIN or (len(walls) < SETUP_MAX and sum(walls) < SETUP_BUDGET_S):
        walls.append(start_worker(args, "setup", workdir, deadline)[0])
    _, result = start_worker(args, "run", workdir, deadline)
    passes, pass_walls, meter = result["pass_s"], result["pass_wall_s"], result["speed"]
    lo, hi = quartiles(passes)
    # A set-up process is too short for the speed meter, so set-up times take
    # the scale of the whole run, measured within a minute of them.
    metrics = {"setup_s": statistics.median(walls) * meter["scale"],
               "pass_s": statistics.median(passes), "peak_rss_mb": result["peak_rss_mb"]}
    report += [
        f"setup_s      {metrics['setup_s']:.6f} s   median of {len(walls)} set-ups x the run's "
        f"speed scale; wall median {statistics.median(walls):.4f} s",
        f"pass_s       {metrics['pass_s']:.6f} s   median of {len(passes)} passes at reference "
        f"speed, quartiles {lo:.4f} .. {hi:.4f}; wall median {statistics.median(pass_walls):.4f} s",
        f"speed        scale {meter['scale']:.4f} = reference slice {meter['reference_slice_s']:.5f} s"
        f" / median of {meter['slices']} slices {meter['median_slice_s']:.5f} s during the passes",
        f"fail_ratio   {result['failed']}/{result['attempted']} failed/attempted",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.3f} MB",
    ]
    result["setup_wall_s"] = walls
    return metrics, result


def traced(args, workdir: Path, deadline: float, report: list) -> tuple[dict, dict]:
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    _, result = start_worker(args, "trace", workdir, deadline, span_file=span_file)
    metrics = result["layers"]
    width = max(len(name) for name, _ in spans.PER_LAYER)
    report += [f"{name.ljust(width)}  {metrics[name]:.6g} {unit}" for name, unit in spans.PER_LAYER]
    coverage = result["span_coverage"]
    report.append(f"span self times / traced cycle wall: {min(coverage):.5f} .. {max(coverage):.5f}"
                  f" ({'ok' if result['coverage_ok'] else 'NOT within tolerance'});"
                  f" spans written to {span_file.relative_to(ROOT)}")
    report.append(f"fail_ratio   {result['failed']}/{result['attempted']} failed/attempted")
    return metrics, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes of one run may take")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "symsu" / "__init__.py").is_file():
        print(f"error: no symsu package under {ROOT / 'src'}; run from a symsu checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    record = run_record(args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    report = [f"symsu benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}"]
    try:
        workdir.mkdir(parents=True)
        references.prepare(args.workload, workdir, args.seed)
        measure = traced if args.trace else end_to_end
        metrics, result = measure(args, workdir, deadline, report)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()

    for failure in result["failures"]:
        report.append(f"failed: {failure['request']} [{failure['kind']}] x{failure['count']}: "
                      f"{failure['detail']}")
    report.append("run record: " + json.dumps(record))
    correct = result["wrong"] == 0 and result.get("coverage_ok", True)
    units = dict(spans.PER_LAYER if args.trace else END_TO_END)
    line = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"record": record, "result": line, "samples": result},
                                   indent=1), encoding="utf-8")
    print("\n".join(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
