"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest bench/tests``.  Never
run them at the same time as the main suite: its Monte Carlo criteria
assert wall-clock budgets.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import mprfrailty  # noqa: E402
import mprfrailty.fitting  # noqa: E402
import mprfrailty.hlik  # noqa: E402
from spans import FitLog, Tracer, patched  # noqa: E402
from workloads import check, make_dataset  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_wrappers_are_behaviour_neutral():
    ds = make_dataset(10, 5, 0.25, 1)
    plain = mprfrailty.fit(ds, structure="BVNF")
    originals = (mprfrailty.fit, mprfrailty.fitting.logdet_pd,
                 mprfrailty.hlik.Evaluator.__dict__["information"])
    fit_log, tracer, absent = FitLog(), Tracer(), []
    with patched(fit_log.points(), absent), patched(tracer.points(), absent):
        traced = mprfrailty.fit(ds, structure="BVNF")
    assert absent == []
    assert json.dumps(plain.to_dict()) == json.dumps(traced.to_dict())
    assert np.array_equal(plain.H, traced.H)
    assert tracer.layer_totals()["hlik.logdet_pd"][0] > 0
    assert [r["outcome"] for r in fit_log.records] == ["ok"]
    assert originals == (mprfrailty.fit, mprfrailty.fitting.logdet_pd,
                         mprfrailty.hlik.Evaluator.__dict__["information"])


def test_fit_log_reraises_unchanged():
    error = mprfrailty.NonConvergenceError("stuck")

    def failing_fit(dataset, structure="BVNF"):
        raise error

    log = FitLog()
    log.context = "data1"
    with pytest.raises(mprfrailty.NonConvergenceError) as caught:
        log.wrap(failing_fit)(None, structure="CF")
    assert caught.value is error
    assert log.records[0]["key"] == "data1/CF/0"
    assert log.records[0]["outcome"] == "NonConvergenceError"


def test_missing_callable_is_reported_absent():
    absent = []
    points = [("mprfrailty.fitting", "no_such_callable", lambda f: f),
              ("mprfrailty.no_such_module", "fit", lambda f: f)]
    with patched(points, absent):
        pass
    assert absent == ["mprfrailty.fitting.no_such_callable",
                      "mprfrailty.no_such_module.fit"]


def test_gate_rejects_a_wrong_or_newly_failing_fit():
    ref = json.loads((BENCH_DIR / "reference.json").read_text())["full"]["wide-shallow"]
    outputs = json.loads(json.dumps(ref))
    assert check(outputs, ref) == []

    outputs["fits"]["data1/BVNF/0"]["values"]["beta"][1] += 0.01
    assert any("beta" in p for p in check(outputs, ref))

    outputs = json.loads(json.dumps(ref))
    outputs["fits"]["data1/ScF/0"] = {"outcome": "CurvatureError"}
    assert check(outputs, ref) == ["data1/ScF/0: CurvatureError, reference converged"]

    # a fit that failed in the reference may start to succeed
    outputs = json.loads(json.dumps(ref))
    assert ref["fits"]["data1/CF/0"]["outcome"] == "NonConvergenceError"
    outputs["fits"]["data1/CF/0"] = ref["fits"]["data1/BVNF/0"]
    assert check(outputs, ref) == []


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_smoke_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = run_bench("--workload", "wide-shallow", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
