"""Command-line surface: exit codes, JSON payloads against the published
schemas, stdin/file plumbing, the declared console script, and the
installed entry point."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import divsel
from divsel.cli import run
from divsel.data import generate_synthesized, write_dense_csv
from divsel.greedy import GreedyVariant, greedy_select
from divsel.objective import ObjectiveConfig
from helpers import instance_with_cache, plain_cfg

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = REPO_ROOT / "schemas"


def _schema(name):
    doc = json.loads((SCHEMA_DIR / name).read_text())
    jsonschema.Draft202012Validator.check_schema(doc)
    return doc


def run_cli(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if stdin_text is None:
            code = run(argv)
        else:
            saved = sys.stdin
            sys.stdin = io.StringIO(stdin_text)
            try:
                code = run(argv)
            finally:
                sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def small_csv():
    data, _ = instance_with_cache(seed=40, d=10, n=30, t=2)
    buf = io.StringIO()
    write_dense_csv(data, buf)
    return buf.getvalue()


SELECT_BASE = ["select", "--input", "-", "--labels", "2", "--binning", "none"]


def test_help_and_missing_subcommand():
    assert run_cli(["--help"])[0] == 0
    assert run_cli([])[0] == 2


def test_usage_errors(small_csv):
    cases = [
        (SELECT_BASE, small_csv),  # --k missing
        (SELECT_BASE + ["--k", "0"], small_csv),
        (SELECT_BASE + ["--k", "3", "--lambda", "1.5"], small_csv),
        (SELECT_BASE + ["--k", "99"], small_csv),  # more than available
        (["select", "--input", "-", "--k", "3"], small_csv),  # --labels missing
        (SELECT_BASE + ["--k", "3", "--mode", "warp"], small_csv),
        (["select", "--input", "-", "--labels", "2", "--bins", "1", "--k", "3"], small_csv),
        (["bench", "--input", "-", "--labels", "2", "--k", "2,x"], small_csv),
        (["bench", "--input", "-", "--labels", "2", "--k", "2", "--modes", "psychic"], small_csv),
        (["oracle", "--input", "-", "--labels", "2", "--k", "2", "--seeds", ""], small_csv),
    ]
    for argv, text in cases:
        code, _, _ = run_cli(argv, stdin_text=text)
        assert code == 2, argv
    sparse = ["select", "--input", "-", "--format", "sparse-ml", "--k", "1"]
    named = [
        (["select", "--input", "-", "--labels", "0", "--k", "1"], small_csv, "--labels must be >= 1"),
        (["select", "--input", "-", "--labels", "-1", "--k", "1"], small_csv, "--labels must be >= 1"),
        (SELECT_BASE + ["--k", "1", "--max-raw-categories", "0"], small_csv, "--max-raw-categories must be >= 1"),
        (sparse + ["--n-features", "0", "--n-labels", "1"], "0 1:1\n", "--n-features must be >= 1"),
        (sparse + ["--n-features", "2", "--n-labels", "0"], "0 1:1\n", "--n-labels must be >= 1"),
        (
            ["bench", "--input", "-", "--labels", "2", "--k", "2", "--modes", ","],
            small_csv,
            "--modes must name at least one mode",
        ),
        (SELECT_BASE + ["--k", "1", "--mode", "distributed", "--seed", "-1"], small_csv, "--seed must be >= 0"),
        (["bench", "--input", "-", "--labels", "2", "--k", "2", "--seed", "-1"], small_csv, "--seed must be >= 0"),
        (["oracle", "--input", "-", "--labels", "2", "--k", "2", "--seeds=0,-1"], small_csv, "--seeds must be >= 0"),
        (["gen-synth", "--seed", "-1"], "", "--seed must be >= 0"),
    ]
    for argv, text, message in named:
        code, out, err = run_cli(argv, stdin_text=text)
        assert (code, out) == (2, ""), argv
        assert message in err and "Traceback" not in err, argv


def test_data_errors(tmp_path, small_csv):
    code, _, err = run_cli(["select", "--input", str(tmp_path / "nope.csv"), "--labels", "2", "--k", "2"])
    assert code == 3 and "error:" in err
    code, _, err = run_cli(SELECT_BASE + ["--k", "2"], stdin_text="h1,h2,y\n1,2\n")
    assert code == 3 and "line 2" in err
    code, _, err = run_cli(["eval-metrics", "--truth", str(tmp_path / "nope.csv"), "--pred", str(tmp_path / "nope.csv")])
    assert code == 3
    # a path that exists but is not a readable file
    code, _, err = run_cli(["select", "--input", str(tmp_path), "--labels", "2", "--k", "2"])
    assert code == 3 and err.startswith("error:")
    code, _, err = run_cli(["eval-metrics", "--truth", str(tmp_path), "--pred", str(tmp_path)])
    assert code == 3 and err.startswith("error:")


NON_UTF8_CASES = {
    "select-dense": (b"a,y\n0,1\n\xff,1\n", ["select", "--labels", "1", "--k", "1", "--input"]),
    "select-sparse": (
        b"0 1:1\n\xff 1:2\n",
        ["select", "--format", "sparse-ml", "--n-features", "1", "--n-labels", "1", "--k", "1", "--input"],
    ),
    "eval-metrics": (b"0,1\n\xff,1\n", ["eval-metrics", "--truth", "TRUTH", "--pred"]),
}


@pytest.mark.parametrize("case", sorted(NON_UTF8_CASES))
def test_non_utf8_file_is_a_data_error(tmp_path, case):
    payload, argv = NON_UTF8_CASES[case]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(payload)
    truth = tmp_path / "truth.csv"
    truth.write_text("0,1\n1,1\n")
    argv = [str(truth) if a == "TRUTH" else a for a in argv] + [str(bad)]
    code, out, err = run_cli(argv)
    assert (code, out) == (3, "")
    assert err == f"error: {bad}: not valid UTF-8 text\n"


def test_non_utf8_stdin_is_a_data_error():
    # under a C or POSIX locale stdin decodes with surrogateescape and the
    # byte is a non-numeric cell; under a UTF-8 locale it does not decode
    env = dict(os.environ)
    pkg_parent = str(Path(divsel.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_parent, env.get("PYTHONPATH")]))
    launcher = "import sys; from divsel.cli import main; sys.exit(main())"
    done = subprocess.run(
        [sys.executable, "-c", launcher, "select", "--input", "-", "--labels", "1", "--k", "1"],
        input=b"a,y\n0,1\n\xff,1\n",
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert (done.returncode, done.stdout) == (3, b"")
    assert done.stderr.decode("utf-8", "replace") in (
        "error: <stream>: line 3: non-numeric cell '\\udcff'\n",
        "error: <stream>: not valid UTF-8 text\n",
    )


def test_budget_exit(small_csv):
    code, _, err = run_cli(
        ["oracle", "--input", "-", "--labels", "2", "--binning", "none", "--k", "3", "--budget", "10"],
        stdin_text=small_csv,
    )
    assert code == 4
    assert "budget" in err


def test_select_stdin_payload(small_csv):
    code, out, _ = run_cli(SELECT_BASE + ["--k", "3", "--p", "2"], stdin_text=small_csv)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("run_report.schema.json"))
    assert doc["mode"] == "centralized"
    assert len(doc["selected_ids"]) == 3
    assert len(set(doc["selected_ids"])) == 3
    assert doc["config"]["k"] == 3 and doc["config"]["bins"] == 5


def test_select_output_file(tmp_path, small_csv):
    dest = tmp_path / "report.json"
    code, out, _ = run_cli(SELECT_BASE + ["--k", "2", "--output", str(dest)], stdin_text=small_csv)
    assert code == 0 and out == ""
    doc = json.loads(dest.read_text())
    jsonschema.validate(doc, _schema("run_report.schema.json"))


def test_select_k1_matches_top_mi_feature(small_csv):
    code, out, _ = run_cli(SELECT_BASE + ["--k", "1", "--lambda", "0"], stdin_text=small_csv)
    assert code == 0
    _, cache = instance_with_cache(seed=40, d=10, n=30, t=2)
    expected = greedy_select(range(10), 1, GreedyVariant.GREEDY, plain_cfg(cache, k=1, p=10), cache)[0]
    assert json.loads(out)["selected_ids"] == [expected]


def test_no_header_round(small_csv):
    headerless = "\n".join(small_csv.split("\n")[1:])
    base = ["select", "--input", "-", "--labels", "2", "--binning", "none", "--k", "3"]
    with_h = run_cli(base, stdin_text=small_csv)
    without_h = run_cli(base + ["--no-header"], stdin_text=headerless)
    assert with_h[0] == 0 and without_h[0] == 0
    assert json.loads(with_h[1])["selected_ids"] == json.loads(without_h[1])["selected_ids"]


def test_sparse_input():
    text = "0 1:1\n 2:1\n0,1 1:1 2:1\n" * 4
    code, out, _ = run_cli(
        ["select", "--input", "-", "--format", "sparse-ml", "--n-features", "3", "--n-labels", "2", "--k", "2"],
        stdin_text=text,
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("run_report.schema.json"))
    assert len(doc["selected_ids"]) == 2


def test_empty_sparse_input_is_a_data_error():
    argv = ["select", "--input", "-", "--format", "sparse-ml", "--n-features", "3", "--n-labels", "2", "--k", "1"]
    assert run_cli(argv, stdin_text="") == (3, "", "error: <stream>: no data rows\n")
    # a blank line is a row: no labels, every feature 0
    code, out, _ = run_cli(argv, stdin_text="\n")
    assert code == 0
    assert len(json.loads(out)["selected_ids"]) == 1


def test_distributed_and_streaming_agree(small_csv):
    base = SELECT_BASE + ["--k", "3", "--machines", "2", "--seed", "5"]
    dist = run_cli(base + ["--mode", "distributed"], stdin_text=small_csv)
    stream = run_cli(base + ["--mode", "streaming"], stdin_text=small_csv)
    assert dist[0] == 0 and stream[0] == 0
    d_doc, s_doc = json.loads(dist[1]), json.loads(stream[1])
    jsonschema.validate(d_doc, _schema("run_report.schema.json"))
    jsonschema.validate(s_doc, _schema("run_report.schema.json"))
    assert d_doc["selected_ids"] == s_doc["selected_ids"]
    assert d_doc["objective"] == s_doc["objective"]


def test_repeat_runs_identical_minus_timings(small_csv):
    argv = SELECT_BASE + ["--k", "3", "--mode", "distributed", "--machines", "3", "--parallelism", "2"]
    docs = []
    for _ in range(2):
        code, out, _ = run_cli(argv, stdin_text=small_csv)
        assert code == 0
        doc = json.loads(out)
        doc.pop("timings_ms")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_gen_synth_deterministic_and_loadable():
    a = run_cli(["gen-synth", "--seed", "0"])
    b = run_cli(["gen-synth", "--seed", "0"])
    assert a[0] == 0 and a[1] == b[1]
    expected = io.StringIO()
    write_dense_csv(generate_synthesized(0), expected)
    assert a[1] == expected.getvalue()


def test_synth_pipe_select(tmp_path):
    gen = run_cli(["gen-synth", "--seed", "1"])
    assert gen[0] == 0
    code, out, _ = run_cli(
        ["select", "--input", "-", "--labels", "8", "--binning", "none", "--k", "5", "--mode", "distributed"],
        stdin_text=gen[1],
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("run_report.schema.json"))
    assert len(doc["selected_ids"]) == 5


def test_eval_metrics_cli(tmp_path):
    truth = tmp_path / "truth.csv"
    pred = tmp_path / "pred.csv"
    truth.write_text("1,0\n1,1\n")
    pred.write_text("1,1\n0,1\n")
    code, out, _ = run_cli(["eval-metrics", "--truth", str(truth), "--pred", str(pred)])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("metrics.schema.json"))
    assert doc["subset_accuracy"] == 0.0
    assert doc["example_accuracy"] == 0.5
    assert doc["pooled_f"] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_oracle_cli_payload(small_csv):
    code, out, _ = run_cli(
        ["oracle", "--input", "-", "--labels", "2", "--binning", "none", "--k", "2", "--machines", "2", "--seeds", "0,1"],
        stdin_text=small_csv,
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("oracle_report.schema.json"))
    assert doc["config"]["seeds"] == [0, 1]
    assert doc["altgreedy_ratio"] >= 0.5 - 1e-9
    assert len(doc["distributed"]) == 2


def test_bench_cli_payload(small_csv):
    code, out, _ = run_cli(
        ["bench", "--input", "-", "--labels", "2", "--binning", "none", "--k", "2,3", "--modes", "centralized,streaming"],
        stdin_text=small_csv,
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("bench.schema.json"))
    assert len(doc["runs"]) == 4
    assert doc["runs"][0]["machines"] is None
    assert doc["dataset"]["n_features"] == 10
    for run in doc["runs"]:
        # the phases come from the run report's timings and lie within it
        phases = [run["partition_ms"], run["map_ms"], run["reduce_ms"]]
        assert min(phases) >= 0.0
        assert sum(phases) <= run["runtime_ms"]
        if run["mode"] == "centralized":
            assert run["partition_ms"] == run["reduce_ms"] == 0.0


def test_gen_synth_into_closed_pipe_exits_quietly():
    env = dict(os.environ)
    pkg_parent = str(Path(divsel.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_parent, env.get("PYTHONPATH")]))
    launcher = "import sys; from divsel.cli import main; sys.exit(main())"
    proc = subprocess.Popen(
        [sys.executable, "-c", launcher, "gen-synth", "--seed", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 0, err
    assert "Traceback" not in err


def test_broken_pipe_off_stdout_is_not_success(monkeypatch, tmp_path):
    # only a reader closing stdout counts as a quiet exit
    def reader_gone(data, target):
        raise BrokenPipeError("reader gone")

    monkeypatch.setattr("divsel.cli.write_dense_csv", reader_gone)
    with pytest.raises(BrokenPipeError):
        run(["gen-synth", "--seed", "0", "--output", str(tmp_path / "synth.csv")])


def test_declared_console_script(tmp_path, small_csv):
    # runs the [project.scripts] target in a fresh interpreter the way a
    # generated console script does, so no install is needed
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["divsel"]
    assert target == "divsel.cli:main"
    src = tmp_path / "tiny.csv"
    src.write_text(small_csv)
    env = dict(os.environ)
    pkg_parent = str(Path(divsel.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_parent, env.get("PYTHONPATH")]))
    launcher = "import sys; from divsel.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "select", "--input", str(src), "--labels", "2", "--binning", "none", "--k", "2"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert len(doc["selected_ids"]) == 2
    in_proc = run_cli(SELECT_BASE + ["--k", "2"], stdin_text=small_csv)
    assert doc["selected_ids"] == json.loads(in_proc[1])["selected_ids"]


@pytest.mark.skipif(shutil.which("divsel") is None, reason="no installed divsel script on PATH")
def test_installed_entry_point(tmp_path, small_csv):
    src = tmp_path / "tiny.csv"
    src.write_text(small_csv)
    proc = subprocess.run(
        ["divsel", "select", "--input", str(src), "--labels", "2", "--binning", "none", "--k", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert len(doc["selected_ids"]) == 2
    in_proc = run_cli(SELECT_BASE + ["--k", "2"], stdin_text=small_csv)
    assert doc["selected_ids"] == json.loads(in_proc[1])["selected_ids"]
