"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest bench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import measure
from tracing import Tracer
from workloads import DatagenScore, DfPipeline, HighcardSplit, Run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMALL = {
    "df-pipeline": lambda: DfPipeline(rows=600),
    "highcard-split": lambda: HighcardSplit(rows=2000, m_exact=8, m_anneal=24),
    "datagen-score": lambda: DatagenScore(train_rows=600, score_rows=2000),
}


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declared_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        names += [m["name"] for m in SPEC[kind]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(SMALL)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_emits_exactly_its_declared_metrics(name, tmp_path):
    run = Run(str(tmp_path), seed=7)
    metrics = measure.measure(SMALL[name](), run, seconds=0)
    assert {k: v[1] for k, v in metrics.items()} == _declared("end_to_end")
    assert all(v[0] > 0 for v in metrics.values())
    assert run.failed == 0, run.failures

    run = Run(str(tmp_path), seed=7)
    metrics = measure.measure_traced(SMALL[name](), run, tmp_path / "spans.tsv")
    assert {k: v[1] for k, v in metrics.items()} == _declared("per_layer")
    assert all(NAME.fullmatch(k) for k in metrics)
    assert run.failed == 0, run.failures


def test_corrupted_predictions_raise_failed_ratio(tmp_path):
    workload, run = DfPipeline(rows=600), Run(str(tmp_path), seed=3)
    workload.setup(run)
    passes = [measure.run_pass(run, workload, {})]
    assert run.failed == 0
    preds = Path(run.path("preds.csv"))
    lines = preds.read_text().splitlines()
    preds.write_text("\n".join(lines[:1] + [repr(float(v) + 1.0) for v in lines[1:]]) + "\n")
    workload.check(run, passes)
    assert run.failed / run.attempted > 0
    assert any("predict rows" in f for f in run.failures)
    assert any("eval MSE" in f for f in run.failures)


def test_suboptimal_split_fails_greedy_parity(tmp_path):
    workload, run = DfPipeline(rows=600), Run(str(tmp_path), seed=3)
    workload.setup(run)
    for method in ("qubo", "greedy"):
        run.cli(workload.train_argv(run, method))
    data, qubo, greedy = run.path("data.csv"), Path(run.path("model-qubo.json")), run.path("model-greedy.json")
    assert checks.greedy_parity(str(qubo), greedy, data, "ClaimAmount", {})
    doc = json.loads(qubo.read_text())
    doc["nodes"][0]["rule"] = {"variable": "Mileage_km", "kind": "threshold", "left_categories": [],
                               "right_categories": [], "threshold": 1000.0}
    qubo.write_text(json.dumps(doc))
    assert not checks.greedy_parity(str(qubo), greedy, data, "ClaimAmount", {})


def test_trace_wrappers_leave_cli_outputs_byte_identical(tmp_path):
    outputs = []
    for traced in (False, True):
        shutil.rmtree(tmp_path / "w", ignore_errors=True)
        (tmp_path / "w").mkdir()
        run, tracer = Run(str(tmp_path / "w"), seed=5), Tracer()
        workload = SMALL["highcard-split"]()
        if traced:
            tracer.__enter__()
        try:
            workload.setup(run)
            calls = measure.run_pass(run, workload, {})
        finally:
            tracer.__exit__(None, None, None)
        files = {p.name: p.read_bytes() for p in (tmp_path / "w").iterdir()}
        outputs.append((files, {kind: call.stdout for kind, call in calls.items()}))
        assert traced == bool(tracer.names)
    assert outputs[0] == outputs[1]


def test_sorted_scan_matches_brute_force():
    rng = np.random.default_rng(0)
    for m in (2, 3, 5, 7):
        labels = rng.integers(m, size=60)
        y = rng.normal(size=60) * 100 + labels * 7.0
        best = np.inf
        cats = np.unique(labels)
        for mask in range(1, 1 << (len(cats) - 1)):
            left = np.isin(labels, cats[[(mask >> i) & 1 == 1 for i in range(len(cats))]])
            cost = sum(float(np.sum((part - part.mean()) ** 2)) for part in (y[left], y[~left]))
            best = min(best, cost)
        assert checks.costs_agree(checks.sorted_scan_cost(y, labels), best, float(np.sum((y - y.mean()) ** 2)))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "df-pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
