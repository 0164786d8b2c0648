"""Tests of the benchmark's checker, resource guard and smoke runs.

    python3 -m pytest perfbench

The smoke runs start the chardeg CLI at n <= 12 and take a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import run

ROOT = Path(__file__).resolve().parent.parent


def report(status, inequalities):
    return {"check": "theorem2", "n": 9, "status": status, "witnesses": [], "notes": [],
            "inequalities": [{"label": "q", "left": left, "relation": rel, "right": right}
                             for left, rel, right in inequalities]}


def test_pass_with_zero_inequalities_counts_as_failed():
    tally = checker.Tally()
    tally.add(checker.report_problems(report("pass", [])))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "zero inequalities" in tally.problems[0]


@pytest.mark.parametrize(
    "status, inequalities, failed",
    [
        ("pass", [("7/2", ">", "3")], False),
        ("pass", [("3", ">", "7/2")], True),  # verdict not re-derived
        ("fail", [("3", ">", "7/2")], True),  # a fail status is a failed operation
        ("fail", [], True),
        ("informational", [], False),
        ("inconclusive", [("1", ">", "2")], False),
        ("pass", [("1", "=>", "2")], True),  # unknown relation
    ],
)
def test_report_verdicts(status, inequalities, failed):
    assert bool(checker.report_problems(report(status, inequalities))) is failed


def test_verify_exit_code_must_match_the_verdicts():
    text = json.dumps({"schema": 1, "reports": [report("pass", [("2", ">", "1")])]})
    assert checker.check_verify_output(text, 0)[1] == []
    assert checker.check_verify_output(text, 1)[1]


def spectrum_doc(group, n):
    from chardeg import spectrum_an, spectrum_sn
    from chardeg.serialize import json_text, spectrum_to_doc

    return json_text(spectrum_to_doc(spectrum_sn(n) if group == "S" else spectrum_an(n)))


@pytest.mark.parametrize("group", ["S", "A"])
def test_spectrum_with_one_size_changed_counts_as_failed(group):
    text = spectrum_doc(group, 9)
    assert checker.spectrum_problems(text, group, 9) == []
    doc = json.loads(text)
    doc["classes"][-1]["size"] += 1
    assert checker.spectrum_problems(json.dumps(doc), group, 9)


def test_warm_output_differing_by_one_byte_counts_as_failed():
    cold = spectrum_doc("S", 8).encode()
    assert checker.warm_problems(cold, bytes(cold), "S_8") == []
    warm = bytearray(cold)
    warm[len(warm) // 2] ^= 1
    assert checker.warm_problems(bytes(warm), cold, "S_8")
    assert checker.warm_problems(cold + b"\n", cold, "S_8")


def test_guard_rejects_more_workers_than_cpus_before_any_process(monkeypatch, capsys):
    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.chdir(ROOT)
    with pytest.raises(run.GuardError):
        run.check_workers(2)
    with pytest.raises(run.GuardError):
        run.check_workers(0)
    assert run.main(["--workload", "spectrum-50", "--seed", "1", "--seconds", "1"]) == 2
    assert "os.cpu_count" in capsys.readouterr().err


def test_plans_never_pass_threads_above_cpu_count(tmp_path):
    for w in run.WORKLOADS.values():
        plan = run.make_plan(w, tmp_path)
        for argv in [a for rep in plan.setup + plan.measured for a in rep]:
            if "--threads" in argv:
                assert 1 <= int(argv[argv.index("--threads") + 1]) <= os.cpu_count()


def test_benchmark_json_names_what_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def smoke(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = smoke(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_smoke_counts_repeat_exactly(workload):
    first, second = smoke(workload, 1), smoke(workload, 1)
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == run.PER_LAYER
    counts = [k for k, unit in run.PER_LAYER.items() if unit in ("count", "bytes")]
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    if workload != "spectrum-50":
        assert first["metrics"]["hooks.hook_products"]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
