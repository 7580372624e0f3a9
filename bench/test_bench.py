"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest bench
"""

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import references as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Request, call_cli, expect_rc, require  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _dim_request(n: int, expected: int) -> Request:
    def check(result, _):
        expect_rc(result, 0)
        require(result.out.splitlines()[1] == f"{n},full_swap,{expected}", "dimension")
    return Request(f"dim n={n}", lambda: call_cli(["dim", "--n", str(n), "--symmetry",
                                                     "full_swap", "--no-header"]), check)


def _tally(requests) -> worker.Tally:
    outputs, wall, _ = worker.run_pass(requests)
    assert wall > 0
    tally = worker.Tally()
    tally.add(worker.check_pass(requests, outputs))
    return tally


def test_wrong_expected_value_counts_as_failed():
    tally = _tally([_dim_request(2, 9), _dim_request(2, 10)])
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)
    [failure] = tally.summary()["failures"]
    assert failure["kind"] == "wrong"


def test_raising_request_counts_as_failed_and_the_pass_goes_on():
    def boom():
        raise RuntimeError("boom")

    requests = [Request("raises", boom, lambda out, _: None), _dim_request(3, 19)]
    tally = _tally(requests)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 0)
    assert tally.summary()["failures"][0]["detail"] == "RuntimeError: boom"


def test_cli_input_error_counts_as_failed():
    request = Request("cap", lambda: call_cli(["dim", "--n", "2", "--symmetry", "nope"]),
                      lambda out, _: None)
    tally = _tally([request])
    assert tally.failed == 1 and tally.summary()["failures"][0]["kind"] == "error"


def test_closed_forms_match_enumeration():
    assert [ref.full_swap_dimension(n) for n in range(1, 6)] == [3, 9, 19, 34, 55]
    for symmetry in ("full_swap", "cyclic", "dihedral"):
        for n in range(1, 6):
            assert _tally(workloads.enumerate_requests([(symmetry, n)])).failed == 0


def test_self_times_subtract_children():
    tracer = spans.Tracer()
    root = tracer.begin_request("r")
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer, {"items": 2})
    tracer.end_request(root)
    totals = spans.self_times(tracer.spans, 0, len(tracer.spans))
    duration = tracer.spans[0][4] - tracer.spans[0][3]
    assert abs(sum(t["self_s"] for t in totals.values()) - duration) < 1e-12
    assert totals["outer"]["items"] == 2
    assert {s[2] for s in tracer.spans} == {0}


def test_speed_meter_takes_its_slices_out_of_the_interval():
    meter = speed.Meter()
    meter.start()
    try:
        mark = meter.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        wall = time.perf_counter() - t0
        spent = meter.spent_s - mark[1]
        scaled = meter.scaled(mark, wall)
    finally:
        meter.stop()
    assert len(meter.samples) >= 3 and 0 < spent < wall
    slices = meter.samples[mark[0]:]
    expected = (wall - spent) * speed.REFERENCE_S / statistics.median(slices)
    assert abs(scaled - expected) < 1e-12
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_names_agree_with_benchmark_json():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == spans.PER_LAYER


def _bench(trace: int, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_every_metric_is_printed_with_its_unit():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(trace)
        assert proc.returncode == 0, proc.stderr
        *report, last = proc.stdout.splitlines()
        result = json.loads(last)
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        names = [m["name"] for m in SPEC[key]]
        assert list(result["metrics"]) == names
        for metric in SPEC[key]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert any(line.startswith(metric["name"] + " ")
                       and line.split()[2] == metric["unit"] for line in report), metric
        assert any(line.startswith("fail_ratio   0/") for line in report)


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    proc = _bench(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
