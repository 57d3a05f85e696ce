"""Self-tests of the benchmark. Run from the repository root:

    python -m pytest -q benchmarks
"""

import _env

_env.prepare()

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest
from divsel.info import InfoCache
from divsel.objective import h_value

import checks
import harness
from workloads import WORKLOADS

BENCHMARK_JSON = _env.ROOT / "BENCHMARK.json"
COUNTS = (
    "info.rows_computed",
    "info.pair_evals",
    "greedy.steps",
    "runner.union_size",
    "oracle.subsets",
)

# small cuts of two workloads keep every layer busy in a few seconds
SMALL_WIDE = dataclasses.replace(WORKLOADS["wide-lowcard"], features=2000, k=10, machines=5)
SMALL_CSV = dataclasses.replace(WORKLOADS["csv-binned"], features=40, instances=500, k=5)


@pytest.fixture(autouse=True)
def small_oracle(monkeypatch):
    """In-process runs enumerate C(12, 3) oracle subsets, not C(40, 5)."""
    monkeypatch.setattr(harness, "ORACLE_FEATURES", 12)
    monkeypatch.setattr(harness, "ORACLE_K", 3)


def _run_cli(*args, cwd=_env.ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    w = WORKLOADS[name]
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    assert w.generate(w, 7, a).same_as(w.generate(w, 7, b))
    assert not w.generate(w, 7, a).same_as(w.generate(w, 8, c))


def test_wrong_selection_counts_as_failed(tmp_path):
    w = SMALL_WIDE
    run = harness.Run(w, 3, tmp_path)
    run.prepare(run.setup())
    report, cfg = harness.run_mode("centralized", run.dataset, w.k, w.machines, 1)
    assert run.check("centralized", (report, cfg)) == []

    ids = report.selected_ids
    duplicated = dataclasses.replace(report, selected_ids=(ids[0],) + ids[:-1])
    short = dataclasses.replace(report, selected_ids=ids[:-1])
    wrong_h = dataclasses.replace(report, objective={**report.objective, "h": report.objective["h"] + 1e-6})
    for bad in (duplicated, short, wrong_h):
        fresh = harness.Run(w, 3, tmp_path)
        fresh.dataset = fresh.setup()
        problems = fresh.check("centralized", (bad, cfg))
        assert problems
        fresh.tally.record("centralized", problems)
        assert (fresh.tally.attempted, fresh.tally.failed) == (1, 1)

    serial, _ = harness.run_mode("distributed", run.dataset, w.k, w.machines, 1)
    assert run.check("distributed", (serial, cfg)) == []
    other = tuple(i for i in range(w.features) if i not in serial.selected_ids)[: w.k]
    diverged = dataclasses.replace(
        serial,
        mode="streaming",
        selected_ids=other,
        objective={**serial.objective, "h": h_value(other, cfg, InfoCache(run.dataset))},
    )
    assert run.check("streaming", (diverged, cfg)) == ["streaming and distributed ids differ"]


def test_process_with_other_output_counts_as_failed(tmp_path):
    summaries = [harness.summary(harness.end_to_end(SMALL_CSV, 4, 0, tmp_path)) for _ in range(2)]
    _, attempted, failed, problems = harness.combine(summaries)
    assert failed == 0 and problems == []

    summaries[1]["outputs"]["streaming"] += " "
    _, again, failed, problems = harness.combine(summaries)
    assert again == attempted
    assert failed == summaries[1]["attempted"]["streaming"] >= 1
    assert problems == ["streaming: output of measuring process 2 differs from process 1's"]


def test_asymmetric_distance_counts_as_failed(monkeypatch, tmp_path):
    dataset = harness.Run(SMALL_WIDE, 3, tmp_path).setup()
    calls = []

    def lopsided(a, b):
        calls.append(1)
        return 0.5 if len(calls) % 2 else 0.25

    monkeypatch.setattr(checks, "nvi_distance", lopsided)
    assert checks.symmetry_problems(dataset, [(0, 1)])


def test_benchmark_json_names_every_workload():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(trace, key):
    spec = json.loads(BENCHMARK_JSON.read_text())
    out = _run_cli("--workload", "csv-binned", "--seed", "2", "--seconds", "0", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    table = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$", table, re.M), name


@pytest.mark.parametrize("w", [SMALL_WIDE, SMALL_CSV], ids=lambda w: w.name)
def test_counts_repeat_exactly(w, tmp_path):
    first, run, _ = harness.traced(w, 5, 0, tmp_path)
    second, _, _ = harness.traced(w, 5, 0, tmp_path)
    assert run.tally.failed == 0
    assert {c: first[c] for c in COUNTS} == {c: second[c] for c in COUNTS}
    assert all(first[c] > 0 for c in COUNTS)


def test_fails_without_program_source(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(_env.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_cli("--workload", "csv-binned", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
