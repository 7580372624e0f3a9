"""One workload process: set up, then run the request list in a closed loop.

run.py starts this file as a fresh interpreter, so set-up includes
interpreter start and ``import symsu`` as a CLI user pays them.  It talks
to run.py on stdout, one JSON object a line: {"event": "ready"} as soon as
set-up is done, then, unless --mode setup, {"event": "result", ...}.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# A traced cycle's spans must cover its wall time to within this share.
COVERAGE_TOL = 0.01


def _emit(obj: dict):
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


class Tally:
    """Requests attempted and failed, with each distinct failure and its count."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = {}

    def add(self, outcomes):
        for label, kind, detail in outcomes:
            self.attempted += 1
            if kind == "ok":
                continue
            self.failed += 1
            self.wrong += kind == "wrong"
            key = (label, kind, detail)
            self.failures[key] = self.failures.get(key, 0) + 1

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "wrong": self.wrong,
                "failures": [{"request": label, "kind": kind, "detail": detail, "count": n}
                             for (label, kind, detail), n in self.failures.items()]}


def run_pass(requests, tracer=None):
    """Run every request once, in order; returns (outputs, wall_s, cpu_s).

    An output is (value, None), or (None, error text) when the request
    raised; a raising request never stops the pass.
    """
    outputs = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for request in requests:
        root = tracer.begin_request(request.label) if tracer else None
        try:
            value, err = request.run(), None
        except Exception as exc:
            value, err = None, f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.end_request(root)
        outputs.append((value, err))
    return outputs, time.perf_counter() - wall0, time.process_time() - cpu0


def check_pass(requests, outputs) -> list[tuple[str, str, str]]:
    """(label, "ok" | "error" | "wrong", detail) for each request of a pass.

    "error": the request raised or the CLI exited 2 (usage or input error).
    "wrong": an output or exit code that differs from its reference.
    """
    from workloads import CliOutput, Mismatch

    by_label = {r.label: out for r, (out, err) in zip(requests, outputs) if err is None}
    outcomes = []
    for request, (out, err) in zip(requests, outputs):
        if err is None and isinstance(out, CliOutput) and out.rc == 2:
            err = out.err.strip() or "exit code 2"
        if err is not None:
            outcomes.append((request.label, "error", err))
            continue
        try:
            request.check(out, by_label)
        except Mismatch as exc:
            outcomes.append((request.label, "wrong", str(exc)))
        except Exception as exc:
            outcomes.append((request.label, "wrong", f"check raised {type(exc).__name__}: {exc}"))
        else:
            outcomes.append((request.label, "ok", ""))
    return outcomes


def _another_pass(start: float, passes: int, seconds: float) -> bool:
    """Closed loop: start a pass only if it is expected to end within the budget."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / passes <= seconds


def timed_loop(requests, seconds: float) -> dict:
    """Closed loop of passes while the speed meter samples the machine.

    ``pass_s`` holds each pass's time at the reference speed (speed.py);
    ``pass_wall_s`` and ``cpu_s`` its wall and CPU time, less the slices.
    """
    import speed

    tally, scaled, walls, cpus = Tally(), [], [], []
    meter = speed.Meter()
    meter.start()
    try:
        start = time.perf_counter()
        while not walls or _another_pass(start, len(walls), seconds):
            mark = meter.mark()
            outputs, wall, cpu = run_pass(requests)
            spent = meter.spent_s - mark[1]
            walls.append(wall - spent)
            cpus.append(cpu - spent)
            scaled.append(meter.scaled(mark, wall))
            if len(walls) == 1:
                # Peak over set-up and one pass, read before any check runs:
                # the checks' temporaries are not the workload's, and the
                # heap creeps a little with each pass, so a later reading
                # would depend on how many passes the machine's speed allowed.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            tally.add(check_pass(requests, outputs))
            del outputs
    finally:
        meter.stop()
    return {"pass_s": scaled, "pass_wall_s": walls, "cpu_s": cpus, "peak_rss_mb": peak_rss_mb,
            "speed": meter.summary(), **tally.summary()}


def traced_loop(setup, workdir: Path, seed: int, requests, seconds: float, spans_path) -> dict:
    """Alternate an untraced pass with a traced cycle (set-up plus one pass)."""
    import spans

    tracer, tally = spans.Tracer(), Tally()
    untraced, traced, cpus, cycles, coverage = [], [], [], [], []
    start = time.perf_counter()
    while True:
        outputs, wall, cpu = run_pass(requests)
        tally.add(check_pass(requests, outputs))
        del outputs
        untraced.append(wall)
        cpus.append(cpu)

        uninstall = spans.install(tracer)
        try:
            first = len(tracer.spans)
            t0 = time.perf_counter()
            root = tracer.begin_request("setup")
            cycle_requests = setup(workdir, seed)
            tracer.end_request(root)
            outputs, wall, _ = run_pass(cycle_requests, tracer)
            cycle_s = time.perf_counter() - t0
        finally:
            uninstall()
        tally.add(check_pass(cycle_requests, outputs))
        del outputs
        traced.append(wall)
        totals = spans.self_times(tracer.spans, first, len(tracer.spans))
        coverage.append(sum(e["self_s"] for e in totals.values()) / cycle_s)
        cycles.append({k: v for k, v in totals.items() if not k.startswith("request:")})
        if not _another_pass(start, len(traced), seconds):
            break
    tracer.write(spans_path)
    overhead = statistics.median(traced) / statistics.median(untraced)
    return {"layers": spans.layer_metrics(cycles, cpus, overhead),
            "untraced_pass_s": untraced, "traced_pass_s": traced,
            "span_coverage": coverage,
            "coverage_ok": all(abs(1.0 - c) <= COVERAGE_TOL for c in coverage),
            **tally.summary()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="span output file for --mode trace")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import symsu

    if Path(symsu.__file__).resolve().parent != (SRC / "symsu").resolve():
        print(f"error: symsu imported from {symsu.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    setup = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    requests = setup(args.workdir, args.seed)
    _emit({"event": "ready"})
    if args.mode == "setup":
        return 0
    if args.mode == "run":
        result = timed_loop(requests, args.seconds)
    else:
        result = traced_loop(setup, args.workdir, args.seed, requests, args.seconds, args.spans)
    _emit({"event": "result", **result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
