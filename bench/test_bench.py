"""Tests of the benchmark itself; run with ``python3 -m pytest bench``.

They check that inputs depend on the seed alone, that every generated op
passes its check on this source tree, that the checks reject wrong
outputs, and that a short run of each workload prints every metric
BENCHMARK.json names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, check, generate  # noqa: E402
from worker import _run_op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = generate(workload, 7, rounds=3)
    assert first == generate(workload, 7, rounds=3)
    assert first != generate(workload, 8, rounds=3)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_never_repeat_within_a_run(workload):
    inputs = generate(workload, 7)
    argvs = [json.dumps(op["argv"]) for ops in inputs["rounds"] for op in ops]
    if workload == "batch_small":
        argvs = list(inputs["files"].values())
    assert len(argvs) == len(set(argvs))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_ops_pass_their_checks(workload, tmp_path, monkeypatch):
    import bdivkit.cli

    inputs = generate(workload, 5, rounds=1)
    for name, text in inputs["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    for op in inputs["rounds"][0]:
        _, code, out, err = _run_op(bdivkit.cli.main, op["argv"])
        assert check(op, code, out) is None, (op["argv"][0], err)


def test_checks_reject_wrong_outputs():
    reduce_op = {"expect": 0, "check": {"kind": "reduce"}}
    good = {"steps": [{"weight_before": 1}, {"weight_before": 0}],
            "terminated_weight": -1, "verify_ok": True}
    assert check(reduce_op, 0, json.dumps(good)) is None
    assert check(reduce_op, 3, json.dumps(good))
    for bad in (dict(good, terminated_weight=0), dict(good, steps=[]),
                dict(good, steps=[{"weight_before": 0}, {"weight_before": 0}])):
        assert check(reduce_op, 0, json.dumps(bad))
    chain = {"verdict": "NOT_DCC", "witness": {"elements": ["1/2", "1/3"]}, "verified": True}
    batch_op = {"expect": 2, "check": {"kind": "batch", "entries": {
        "e00": [0, "verified"], "e01": [0, "dcc"], "e02": [2, None]}}}
    out = {"first_error": "e02", "results": {
        "e00": {"exit_code": 0, "output": {"verified": True}},
        "e01": {"exit_code": 0, "output": chain},
        "e02": {"exit_code": 2}}}
    assert check(batch_op, 2, json.dumps(out)) is None
    for bad in (dict(chain, verdict="MAYBE"), dict(chain, verified=False),
                dict(chain, witness={"elements": ["1/3", "1/2"]})):
        out["results"]["e01"]["output"] = bad
        assert check(batch_op, 2, json.dumps(out))
    out["results"]["e01"]["output"] = chain
    out["results"]["e02"]["exit_code"] = 3
    assert check(batch_op, 2, json.dumps(out))


def _run(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload):
    proc = _run(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = _run(ROOT, workload, 1)
    assert traced.returncode == 0, traced.stderr
    layers = json.loads(traced.stdout.splitlines()[-1])["metrics"]
    assert sorted(layers) == sorted(m["name"] for m in SPEC["per_layer"])
    assert layers["cli.run_command.calls"]["value"] > 0
    if workload == "reduce_cut":
        for name in ("fans.Fan.construct.calls", "reduction.cuts", "fans.Fan.locate.calls",
                     "logpairs.relative_pullback_coeff.calls",
                     "reduction.verify_reduction.checked"):
            assert layers[name]["value"] > 0, name
        assert all(v["value"] == 0 for k, v in layers.items() if k.startswith("dcc."))
    if workload == "batch_small":
        for name in ("dcc.closure_size", "dcc.dcc_verdict.self_s", "bounds.self_s",
                     "cli.run_batch.self_s"):
            assert layers[name]["value"] > 0, name


def test_counts_repeat_for_a_seed():
    first, second = (
        json.loads(_run(ROOT, "batch_small", 1).stdout.splitlines()[-1])["metrics"]
        for _ in range(2)
    )
    for name, metric in first.items():
        if metric["unit"] == "count":
            assert metric["value"] == second[name]["value"], name


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "batch_small", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
