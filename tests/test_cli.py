import argparse
import csv
import io
import json
import os
import re
from pathlib import Path
from unittest import mock

import pytest

from qubotree import Dataset, datasets, load_csv, load_model, parse_schema, predict, predict_many
from qubotree.cli import build_parser, main
from qubotree.tree import ROUTINGS, TreeNode

SCHEMA = "Brand:categorical,Color:categorical,Mileage_km:numeric,HasClaim:binary"


def _run(argv, capsys=None):
    code = main(argv)
    if capsys is not None:
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return code


@pytest.fixture
def small_csv(tmp_path):
    path = str(tmp_path / "data.csv")
    assert main(["generate", "--kind", "df", "--n", "300", "--seed", "3", "--out", path]) == 0
    return path


def test_generate_writes_deterministic_csv(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["generate", "--kind", "datagen", "--n", "50", "--seed", "5", "--out", a]) == 0
    assert main(["generate", "--kind", "datagen", "--n", "50", "--seed", "5", "--out", b]) == 0
    text = Path(a).read_text()
    assert text == Path(b).read_text()
    assert text.splitlines()[0] == "Brand,Color,Mileage_km,HasClaim,ClaimAmount"
    assert len(text.splitlines()) == 51


def test_generate_rejects_zero_rows(tmp_path, capsys):
    code, _, err = _run(
        ["generate", "--kind", "df", "--n", "0", "--seed", "1", "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code != 0
    assert "error" in err


def test_train_predict_eval_round_trip(tmp_path, small_csv, capsys):
    model = str(tmp_path / "model.json")
    code, out, _ = _run(
        [
            "train", "--data", small_csv, "--schema", SCHEMA, "--response", "ClaimAmount",
            "--max-depth", "3", "--cp", "0.0", "--out", model,
        ],
        capsys,
    )
    assert code == 0
    assert "leaves=" in out and "train_mse=" in out

    preds = str(tmp_path / "preds.csv")
    code, _, _ = _run(["predict", "--model", model, "--data", small_csv, "--out", preds], capsys)
    assert code == 0
    lines = Path(preds).read_text().splitlines()
    assert lines[0] == "prediction"
    assert len(lines) == 301

    report = str(tmp_path / "eval.json")
    code, out, _ = _run(
        [
            "eval", "--model", model, "--data", small_csv,
            "--baseline", model, "--out", report,
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(Path(report).read_text())
    assert doc["relative_mse_pct"] == 0.0
    assert "relative_mse=0.000%" in out


def test_train_method_variants_agree(tmp_path, small_csv, capsys):
    models = {}
    for method in ("qubo", "greedy", "exhaustive"):
        path = str(tmp_path / f"{method}.json")
        code, _, _ = _run(
            ["train", "--data", small_csv, "--schema", SCHEMA, "--response", "ClaimAmount",
             "--max-depth", "3", "--cp", "0.0", "--method", method, "--out", path],
            capsys,
        )
        assert code == 0
        models[method] = json.loads(Path(path).read_text())["nodes"]
    assert models["qubo"] == models["greedy"] == models["exhaustive"]


def test_train_auto_schema(tmp_path, small_csv, capsys):
    models = {}
    for schema in ("auto", SCHEMA):
        models[schema] = str(tmp_path / f"model-{len(models)}.json")
        # On a well-formed file the auto schema is sniffed in the one read, not by infer_schema.
        with mock.patch.object(datasets, "infer_schema", side_effect=AssertionError("second read")):
            code, _, _ = _run(
                ["train", "--data", small_csv, "--schema", schema, "--response", "ClaimAmount",
                 "--max-depth", "2", "--out", models[schema]],
                capsys,
            )
        assert code == 0
    assert Path(models["auto"]).read_bytes() == Path(models[SCHEMA]).read_bytes()


def test_train_malformed_schema(tmp_path, small_csv, capsys):
    code, _, err = _run(
        ["train", "--data", small_csv, "--schema", "Brand:wat", "--response", "ClaimAmount",
         "--out", str(tmp_path / "m.json")],
        capsys,
    )
    assert code != 0 and "error" in err


def test_predict_unknown_category_fails(tmp_path, small_csv, capsys):
    model = str(tmp_path / "model.json")
    assert main(["train", "--data", small_csv, "--schema", SCHEMA, "--response", "ClaimAmount",
                 "--max-depth", "2", "--out", model]) == 0
    alien = tmp_path / "alien.csv"
    alien.write_text(
        "Brand,Color,Mileage_km,HasClaim\nLada,Red,1000,1\n", encoding="utf-8"
    )
    code, _, err = _run(["predict", "--model", model, "--data", str(alien)], capsys)
    assert code != 0
    assert "Brand" in err


def test_eval_root_model_mse_is_variance(tmp_path, small_csv, capsys):
    model = str(tmp_path / "root.json")
    assert main(["train", "--data", small_csv, "--schema", SCHEMA, "--response", "ClaimAmount",
                 "--max-depth", "0", "--out", model]) == 0
    code, out, _ = _run(["eval", "--model", model, "--data", small_csv], capsys)
    assert code == 0
    import numpy as np

    from qubotree import load_csv, parse_schema

    data = load_csv(small_csv, parse_schema(SCHEMA), "ClaimAmount")
    assert abs(float(out.split("mse=")[1]) - float(np.var(data.response))) < 1e-6


def test_trace_command(tmp_path, small_csv, capsys):
    out_path = str(tmp_path / "trace.csv")
    code, out, _ = _run(
        ["trace", "--data", small_csv, "--schema", SCHEMA, "--response", "ClaimAmount",
         "--column", "Brand", "--out", out_path],
        capsys,
    )
    assert code == 0
    lines = Path(out_path).read_text().splitlines()
    assert lines[0] == "iteration,lambda_initial,binary_vector,score,lambda_final"
    assert "converged=True" in out
    code, stdout_table, _ = _run(
        ["trace", "--data", small_csv, "--schema", SCHEMA, "--response", "ClaimAmount", "--column", "Brand"],
        capsys,
    )
    assert code == 0 and stdout_table == Path(out_path).read_text() + out  # the file, then the summary
    # Zero-init trace starts from the all-zeros row.
    code, out, _ = _run(
        ["trace", "--data", small_csv, "--schema", SCHEMA, "--response", "ClaimAmount",
         "--column", "Brand", "--init", "zero"],
        capsys,
    )
    assert code == 0
    first = next(csv.DictReader(io.StringIO(out)))
    assert first["binary_vector"] == "(" + ",".join(["0"] * 10) + ")"


def test_trace_constant_response_not_converged(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("c,Y\na,5\nb,5\na,5\nb,5\n", encoding="utf-8")
    code, out, _ = _run(
        ["trace", "--data", str(path), "--schema", "c:categorical", "--response", "Y",
         "--column", "c"],
        capsys,
    )
    assert code == 0
    assert "converged=False" in out


def test_compare_on_worked_node(tmp_path, capsys):
    path = tmp_path / "worked.csv"
    path.write_text(
        "c,Y\nC1,0\nC1,2\nC2,10\nC3,12\nC3,14\nC4,1\n", encoding="utf-8"
    )
    out_path = str(tmp_path / "cmp.csv")
    code, _, err = _run(
        ["compare", "--data", str(path), "--schema", "c:categorical", "--response", "Y",
         "--column", "c", "--out", out_path],
        capsys,
    )
    assert code == 0
    lines = Path(out_path).read_text().splitlines()
    assert lines[0] == "method,left_partition,cost,iterations"
    rows = {line.split(",", 1)[0]: line for line in lines[1:]}
    assert set(rows) == {"qubo", "exhaustive", "greedy"}
    for line in rows.values():
        assert "10.0" in line
        assert '"{C1' in line or 'C4}"' in line
    code, out, _ = _run(
        ["compare", "--data", str(path), "--schema", "c:categorical", "--response", "Y", "--column", "c"],
        capsys,
    )
    assert code == 0 and out == Path(out_path).read_text()


def test_compare_exhaustive_row_ignores_the_solver_threshold(tmp_path, capsys):
    # The partition search reads no solver setting: a threshold below the
    # column's 4 categories anneals the qubo row and keeps the exhaustive one.
    path = tmp_path / "worked.csv"
    path.write_text("c,Y\nC1,0\nC1,2\nC2,10\nC3,12\nC3,14\nC4,1\n", encoding="utf-8")
    code, out, err = _run(
        ["compare", "--data", str(path), "--schema", "c:categorical", "--response", "Y",
         "--column", "c", "--exact-threshold", "2"],
        capsys,
    )
    assert code == 0
    assert "skipped" not in err
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["qubo", "exhaustive", "greedy"]


def test_compare_skips_exhaustive_above_threshold(tmp_path, capsys):
    rows = ["c,Y"] + [f"k{i},{i}.5" for i in range(26)] + [f"k{i},{i}.25" for i in range(26)]
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = _run(
        ["compare", "--data", str(path), "--schema", "c:categorical", "--response", "Y",
         "--column", "c"],
        capsys,
    )
    assert code == 0
    assert "skipped" in err
    assert "exhaustive," not in out


def test_compare_skips_exhaustive_above_its_cap(tmp_path, capsys):
    # 23 levels fit --exact-threshold 23 but not the exhaustive splitter's cap of 22.
    m = 23
    rows = ["c,Y"] + [f"k{i},{(i * 7) % m}" for i in range(m)] + [f"k{i},{(i * 7) % m}.5" for i in range(m)]
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = _run(
        ["compare", "--data", str(path), "--schema", "c:categorical", "--response", "Y",
         "--column", "c", "--exact-threshold", str(m)],
        capsys,
    )
    assert code == 0
    assert "exhaustive: skipped (23 categories exceeds limit 22)" in err
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["qubo", "greedy"]


@pytest.mark.parametrize("command", ["trace", "compare"])
def test_column_errors_name_the_column(tmp_path, capsys, command):
    path = tmp_path / "one.csv"
    path.write_text("A,x,Y\na,1.0,1\na,2.0,2\na,3.0,4\n", encoding="utf-8")
    base = [command, "--data", str(path), "--schema", "A:categorical,x:numeric", "--response", "Y"]
    code, _, err = _run(base + ["--column", "A"], capsys)
    assert code == 2
    assert "error: A: need at least two observed categories" in err
    code, _, err = _run(base + ["--column", "x"], capsys)
    assert code == 2
    assert "error: column 'x' is not categorical" in err


def test_protocol_command(tmp_path, capsys):
    data = str(tmp_path / "proto.csv")
    assert main(["generate", "--kind", "df", "--n", "400", "--seed", "21", "--out", data]) == 0
    out_path = str(tmp_path / "report.csv")
    code, _, err = _run(
        ["protocol", "--data", data, "--schema", SCHEMA, "--response", "ClaimAmount",
         "--seed", "21", "--out", out_path],
        capsys,
    )
    assert code == 0
    lines = Path(out_path).read_text().splitlines()
    assert lines[0].startswith("tree_type,method,leaves,depth,alpha,train_mse")
    assert [l.split(",")[0] for l in lines[1:]] == ["root", "validation_best", "test_best", "max"]
    assert "test_best" in err  # diagnostic notice


def test_protocol_rejects_bad_fractions(tmp_path, small_csv, capsys):
    code, _, err = _run(
        ["protocol", "--data", small_csv, "--schema", SCHEMA, "--response", "ClaimAmount",
         "--fractions", "0.5,0.4,0.4"],
        capsys,
    )
    assert code != 0 and "error" in err
    code, _, err = _run(
        ["protocol", "--data", small_csv, "--schema", SCHEMA, "--response", "ClaimAmount",
         "--fractions", "0.5,x,0.25"],
        capsys,
    )
    assert code == 2 and "error: --fractions must be comma-separated numbers" in err


@pytest.mark.parametrize(
    "command, flags",
    [("train", ["--cp", "nan", "--out", "model.json"]), ("protocol", ["--fractions", "nan,0.5,0.5"])],
    ids=("train-cp", "protocol-fractions"),
)
def test_nan_setting_exits_2_naming_it(tmp_path, small_csv, capsys, command, flags):
    flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
    argv = [command, "--data", small_csv, "--schema", SCHEMA, "--response", "ClaimAmount", *flags]
    code, _, err = _run(argv, capsys)
    last = err.splitlines()[-1]
    assert code == 2 and last.startswith("error: ") and "nan" in last
    assert not (tmp_path / "model.json").exists()


def test_config_file_defaults_and_unknown_key(tmp_path, small_csv, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max-depth = 2\nseed = 4\n", encoding="utf-8")
    model = str(tmp_path / "m.json")
    code, _, err = _run(
        ["train", "--config", str(cfg), "--data", small_csv, "--schema", SCHEMA,
         "--response", "ClaimAmount", "--out", model],
        capsys,
    )
    assert code == 0
    assert "max_depth=2" in err  # resolved config is logged
    doc = json.loads(Path(model).read_text())
    assert doc["config"]["max_depth"] == 2

    bad = tmp_path / "bad.cfg"
    bad.write_text("no-such-key = 1\n", encoding="utf-8")
    code, _, err = _run(
        ["train", "--config", str(bad), "--data", small_csv, "--schema", SCHEMA,
         "--response", "ClaimAmount", "--out", model],
        capsys,
    )
    assert code != 0 and "unknown config key" in err


def test_csv_and_config_file_with_a_byte_order_mark(tmp_path, capsys):
    data = tmp_path / "marked.csv"
    data.write_text("c,x,Y\na,1,2\nb,2,3\na,3,5\nb,4,4\n", encoding="utf-8-sig")
    cfg = tmp_path / "marked.cfg"
    cfg.write_text("max-depth = 1\n", encoding="utf-8-sig")
    model = tmp_path / "m.json"
    code, _, err = _run(["train", "--config", str(cfg), "--data", str(data), "--schema", "c:categorical,x:numeric",
                         "--response", "Y", "--out", str(model)], capsys)
    assert code == 0, err
    doc = json.loads(model.read_text(encoding="utf-8"))
    assert doc["schema"][0]["name"] == "c" and doc["config"]["max_depth"] == 1


def test_cli_flag_overrides_config(tmp_path, small_csv, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max-depth = 2\n", encoding="utf-8")
    model = str(tmp_path / "m.json")
    code, _, _ = _run(
        ["train", "--config", str(cfg), "--max-depth", "1", "--data", small_csv,
         "--schema", SCHEMA, "--response", "ClaimAmount", "--out", model],
        capsys,
    )
    assert code == 0
    assert json.loads(Path(model).read_text())["config"]["max_depth"] == 1


def test_config_equals_form(tmp_path, small_csv, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max-depth = 3\n", encoding="utf-8")
    model = str(tmp_path / "m.json")
    code, _, _ = _run(
        [
            "train", f"--config={cfg}", "--data", small_csv, "--schema", SCHEMA,
            "--response", "ClaimAmount", "--out", model,
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(Path(model).read_text())["config"]["max_depth"] == 3


def test_threads_validation(tmp_path, small_csv, capsys):
    code, _, err = _run(
        ["train", "--data", small_csv, "--schema", SCHEMA, "--response", "ClaimAmount",
         "--out", str(tmp_path / "m.json"), "--threads", "0"],
        capsys,
    )
    assert code != 0


@pytest.mark.parametrize("command", ["trace", "compare"])
def test_exact_threshold_above_cap_fails_before_loading(tmp_path, capsys, command):
    out = tmp_path / "out"
    for value in (31, -3):
        argv = [command, "--data", str(tmp_path / "absent.csv"), "--schema", SCHEMA, "--column", "Brand",
                "--exact-threshold", str(value), "--out", str(out)]
        code, _, err = _run(argv, capsys)
        # The data file does not exist: the threshold is checked before any loading.
        assert code == 2
        assert f"error: exact_threshold must be between 1 and 30, got {value}" in err
        assert not out.exists()


def test_exact_threshold_config_key_is_trace_only(tmp_path, small_csv, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("exact_threshold = 22\n", encoding="utf-8")
    train = ["train", "--data", small_csv, "--schema", SCHEMA, "--out", str(tmp_path / "m.json"),
             "--config", str(cfg)]
    code, out, err = _run(train, capsys)
    assert (code, out, err.splitlines()[-1]) == (2, "", "error: unknown config key 'exact_threshold'")
    trace = ["trace", "--data", small_csv, "--schema", SCHEMA, "--column", "Brand", "--config", str(cfg)]
    code, out, err = _run(trace, capsys)
    assert code == 0 and "exact_threshold=22" in err and out.startswith("iteration,")


def test_config_boolean_values(tmp_path, small_csv, capsys):
    model = str(tmp_path / "m.json")
    base = ["train", "--data", small_csv, "--schema", SCHEMA, "--max-depth", "1", "--out", model]
    cfg = tmp_path / "run.cfg"
    for value, described in (("TRUE", True), ("Yes", True), ("1", True), ("no", False), ("False", False)):
        cfg.write_text(f"describe = {value}\n", encoding="utf-8")
        code, out, err = _run(base + ["--config", str(cfg)], capsys)
        assert code == 0
        assert f"describe={described}" in err
        assert ("node 0:" in out) == described
    cfg.write_text("# typo below\ndescribe = ture\n", encoding="utf-8")
    code, out, err = _run(base + ["--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert f"error: {cfg}:2: describe takes 1/true/yes or 0/false/no, got 'ture'" in err


def test_non_finite_cells_exit_2(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("c,x,Y\na,1,nan\nb,2,1\na,3,2\nb,4,3\n", encoding="utf-8")
    for command in (["compare", "--column", "c"], ["train", "--out", str(tmp_path / "m.json")]):
        code, out, err = _run(command + ["--data", str(path), "--response", "Y"], capsys)
        assert code == 2, command
        assert out == ""
        assert err.splitlines()[-1] == f"error: {path}: row 0: non-finite value nan in 'Y'"


def test_overflowing_response_squares_exit_2(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("c,x,Y\na,1,1e200\nb,2,1\na,3,2\nb,4,3e200\n", encoding="utf-8")
    for command in (["compare", "--column", "c"], ["train", "--out", str(tmp_path / "m.json")]):
        code, out, err = _run(command + ["--data", str(path), "--response", "Y"], capsys)
        assert code == 2, command
        assert out == ""
        assert err.splitlines()[-1] == f"error: {path}: the sum of squares of 'Y' overflows float64"


def test_config_values_are_checked_like_flags(tmp_path, small_csv, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = foo\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(cfg), "--data", small_csv, "--out", str(tmp_path / "m.json")])
    assert exc.value.code == 2
    assert "invalid choice: 'foo'" in capsys.readouterr().err


def test_program_errors_are_not_reported_as_user_errors(tmp_path, small_csv, monkeypatch):
    def broken(data, cfg):
        raise ValueError("bug")

    monkeypatch.setattr("qubotree.cli.grow", broken)
    with pytest.raises(ValueError, match="bug"):
        main(["train", "--data", small_csv, "--schema", SCHEMA, "--out", str(tmp_path / "m.json")])


def test_unreadable_inputs_exit_2(tmp_path, small_csv, capsys):
    model = tmp_path / "model.json"
    assert main(["train", "--data", small_csv, "--schema", SCHEMA, "--max-depth", "1", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    del doc["config"]["max_depth"]
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps(doc), encoding="utf-8")
    truncated = tmp_path / "truncated.json"
    truncated.write_text(model.read_text()[:100], encoding="utf-8")
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("Brand,ClaimAmount\nCitro\u00ebn,1\nKia,2\n".encode("latin-1"))
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("response = Montant\u00e9\n".encode("latin-1"))
    cases = [
        (["predict", "--model", str(missing), "--data", small_csv], "model file is missing key 'max_depth'"),
        (["predict", "--model", str(truncated), "--data", small_csv], "malformed model file"),
        (["train", "--data", str(latin1), "--out", str(tmp_path / "m.json")], "not UTF-8 text"),
        (["train", "--data", str(latin1), "--schema", "Brand:categorical", "--out", str(tmp_path / "m.json")],
         "not UTF-8 text"),
        (["train", "--config", str(cfg), "--data", small_csv, "--out", str(tmp_path / "m.json")], "not UTF-8 text"),
    ]
    for argv, message in cases:
        code, _, err = _run(argv, capsys)
        assert code == 2, argv
        last = err.splitlines()[-1]
        assert last.startswith("error: ") and message in last, err


def test_eval_baseline_with_zero_mse_fails(tmp_path, small_csv, capsys):
    model = str(tmp_path / "max.json")
    assert main(["train", "--data", small_csv, "--schema", SCHEMA, "--max-depth", "64", "--min-split", "2",
                 "--min-bucket", "1", "--cp", "0", "--out", model]) == 0
    report = tmp_path / "eval.json"
    code, _, err = _run(["eval", "--model", model, "--data", small_csv, "--baseline", model,
                         "--out", str(report)], capsys)
    assert code == 2
    assert "error: baseline MSE is 0, relative MSE is undefined" in err
    assert not report.exists()


def _predict_with_edited_golden_model(tmp_path, capsys, edit, config=(), fields=()):
    """Run ``predict`` with the golden model after ``edit(nodes)``, with the
    ``config`` settings and the top-level ``fields``; exit code, stdout, last
    stderr line."""
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    with open(os.path.join(golden, "train_model.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc["nodes"])
    doc["config"].update(config)
    doc.update(fields)
    model = tmp_path / "edited.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _run(["predict", "--model", str(model), "--data", os.path.join(golden, "df100.csv")], capsys)
    return code, out, err.splitlines()[-1].replace(str(model), "<model>")


@pytest.mark.parametrize("node, side, target", [(2, "left", 0), (0, "right", 0)], ids=("earlier", "itself"))
def test_cyclic_model_file_exits_2(tmp_path, capsys, node, side, target):
    def edit(nodes):
        nodes[node][side] = target

    assert _predict_with_edited_golden_model(tmp_path, capsys, edit) == (
        2, "", f"error: <model>: malformed model file: node {node}: child ids must be greater than the node's own id"
    )


def _half_ids(nodes):
    # Ids that sort and link as before, but that save_model could only write as ints.
    for node in nodes:
        for key in ("id", "left", "right"):
            if node[key] is not None:
                node[key] += 0.5


def _half_id_and_zero_n(nodes):
    # Ids are checked over every node before n is: node 54's larger id does not come first.
    nodes[1]["id"] = 1.5
    nodes[54]["n"] = 0


def _string_and_half_id(nodes):
    # Ids of kinds that do not compare: the check still names a node, strings above numbers.
    nodes[1]["id"], nodes[54]["id"] = "x", 1.5


def _empty(nodes):
    nodes.clear()


def _duplicate_id(nodes):
    nodes.append(dict(nodes[54], prediction=0.0))


def _two_parents(nodes):
    # Node 2 keeps its children (3, 32); node 0 takes 32 too, and node 1 hangs loose.
    nodes[0]["left"], nodes[0]["right"] = 2, 32


def _dangling_child(nodes):
    nodes[0]["right"] = 99


def _two_dangling_children(nodes):
    # Parents claim left then right, larger ids first: node 5's right before node 2's left.
    nodes[5]["right"], nodes[2]["left"] = 99, 98


def _orphan(nodes):
    nodes.append(dict(nodes[1], id=55))


def _two_orphans(nodes):
    nodes.extend([dict(nodes[1], id=56), dict(nodes[1], id=55)])


@pytest.mark.parametrize(
    "edit, message",
    [
        (_empty, "the node list is empty"),
        (_half_ids, "node 54.5: ids must be ints"),
        (_half_id_and_zero_n, "node 1.5: ids must be ints"),
        (_string_and_half_id, "node 'x': ids must be ints"),
        (_duplicate_id, "node 54: id appears more than once"),
        (_two_parents, "node 32: child of more than one node"),
        (_dangling_child, "node 99: not in the node list"),
        (_two_dangling_children, "node 99: not in the node list"),
        (_orphan, "node 55: neither the root nor any node's child"),
        (_two_orphans, "node 55: neither the root nor any node's child"),
    ],
    ids=("empty", "half-ids", "half-id-and-zero-n", "string-and-half-id", "duplicate-id", "two-parents",
         "dangling-child", "two-dangling-children", "orphan", "two-orphans"),
)
def test_model_file_that_is_not_one_tree_exits_2(tmp_path, capsys, edit, message):
    assert _predict_with_edited_golden_model(tmp_path, capsys, edit) == (
        2, "", f"error: <model>: malformed model file: {message}"
    )


@pytest.mark.parametrize(
    "fields",
    [{"version": 2}, {"version": "1"}, {"n_train": "abc"}, {"n_train": 0}, {"n_train": 300.0},
     {"response": 7}, {"response": None}],
    ids=("version-2", "string-version", "string-n_train", "zero-n_train", "float-n_train",
         "int-response", "null-response"),
)
def test_model_file_with_bad_tree_fields_exits_2(tmp_path, capsys, fields):
    got = tuple(({"version": 1, "n_train": 300, "response": "ClaimAmount"} | fields).values())
    assert _predict_with_edited_golden_model(tmp_path, capsys, lambda nodes: None, fields=fields) == (
        2, "", "error: <model>: malformed model file: needs version 1, an int n_train >= 1 and a string as "
               f"response, got {got!r}"
    )


# Solver and ratio-iteration settings that model files once held, with the
# values they held. Growth does not read them, so loading ignores them.
DROPPED_SETTINGS = [
    ("exact_threshold", 22), ("anneal_seed", 0), ("anneal_restarts", 8), ("anneal_sweeps", 50),
    ("anneal_t_init", 5.0), ("anneal_t_final", 0.25), ("dinkelbach_mode", "upper_bound"),
    ("rel_tolerance", 1e-09), ("max_iterations", 50), ("dinkelbach_mode", "custom"),
]


@pytest.mark.parametrize("key, value", DROPPED_SETTINGS, ids=[f"{k}-{v}" for k, v in DROPPED_SETTINGS])
def test_model_file_with_a_dropped_setting_predicts_as_without(tmp_path, capsys, key, value):
    code, out, _ = _predict_with_edited_golden_model(tmp_path, capsys, lambda nodes: None, {key: value})
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "predict_complement.stdout")
    with open(golden, encoding="utf-8") as fh:
        assert (code, out) == (0, fh.read())


def test_model_file_with_a_stray_custom_value_key_predicts_as_without(tmp_path, capsys):
    config = {"dinkelbach_custom_value": 1.0}
    stray = _predict_with_edited_golden_model(tmp_path, capsys, lambda nodes: None, config)
    plain = _predict_with_edited_golden_model(tmp_path, capsys, lambda nodes: None)
    assert stray[:2] == plain[:2] and plain[0] == 0


def test_model_file_with_nan_cp_exits_2(tmp_path, capsys):
    code, out, err = _predict_with_edited_golden_model(tmp_path, capsys, lambda nodes: None, {"cp": float("nan")})
    assert (code, out) == (2, "") and err.startswith("error: <model>: malformed model file: ") and "nan" in err


def test_malformed_headers_fields_and_schemas_exit_2(tmp_path, capsys):
    ok = tmp_path / "ok.csv"
    ok.write_text("a,b,Y\n1,x,2\n2,y,3\n", encoding="utf-8")
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("a,a,Y\n1,2,3\n2,3,4\n", encoding="utf-8")
    wide = tmp_path / "wide.csv"
    wide.write_text("a,Y\n" + "x" * 131073 + ",1\n", encoding="utf-8")
    blank = tmp_path / "blank.csv"
    blank.write_text("a,b,Y\n1,x,2\n2,y,3\n\n3,z,4\n", encoding="utf-8")
    cases = [
        (repeated, "auto", f"error: {repeated}: header names column 'a' more than once"),
        (ok, "a:numeric,a:numeric", "error: the schema names column 'a' more than once"),
        (ok, "a:numeric,Y:numeric", "error: the schema lists the response column 'Y' as a feature"),
        (wide, "auto", f"error: {wide}: line 2: field larger than field limit (131072)"),
        (blank, "auto", f"error: {blank}: row 2: expected 3 cells, got 0"),
        (blank, "a:numeric,b:categorical", f"error: {blank}: row 2: expected 3 cells, got 0"),
    ]
    for data, schema, message in cases:
        code, out, err = _run(["train", "--data", str(data), "--schema", schema, "--response", "Y",
                               "--out", str(tmp_path / "m.json")], capsys)
        assert (code, out, err.splitlines()[-1]) == (2, "", message), (data, schema)
    assert not (tmp_path / "m.json").exists()


def test_response_only_csv_exits_2_before_writing(tmp_path, capsys):
    # An empty schema leaves no column to count rows by: such a model could
    # not be read back by predict.
    data = tmp_path / "y.csv"
    data.write_text("Y\n1\n2\n3\n4\n", encoding="utf-8")
    out = tmp_path / "out"
    for command in (["train"], ["protocol"], ["trace", "--column", "c"], ["compare", "--column", "c"]):
        code, stdout, err = _run(command + ["--data", str(data), "--schema", "auto", "--response", "Y",
                                            "--out", str(out)], capsys)
        assert (code, stdout, err.splitlines()[-1]) == (2, "", "error: empty schema"), command
        assert not out.exists()


def test_train_rejects_an_infinite_cp(tmp_path, small_csv, capsys):
    model = tmp_path / "m.json"
    code, out, err = _run(["train", "--data", small_csv, "--schema", SCHEMA, "--cp", "inf", "--out", str(model)], capsys)
    assert (code, out) == (2, "") and "finite cp" in err.splitlines()[-1]
    assert not model.exists()


def test_model_file_with_infinite_cp_exits_2(tmp_path, capsys):
    code, out, err = _predict_with_edited_golden_model(tmp_path, capsys, lambda nodes: None, {"cp": float("inf")})
    assert (code, out) == (2, "") and err.startswith("error: <model>: malformed model file: ") and "inf" in err


def _set_rule(node, **fields):
    def edit(nodes):
        nodes[node]["rule"].update(fields)

    return edit


def _set_node(node, **fields):
    def edit(nodes):
        nodes[node].update(fields)

    return edit


# Node 1 is a leaf, node 2 splits Brand by subsets and node 5 splits Mileage_km at a threshold.
@pytest.mark.parametrize(
    "edit, config, message",
    [
        (_set_rule(5, variable="Gearbox"), {}, "node 5: rule variable 'Gearbox' is not in the schema"),
        (_set_rule(2, variable="Mileage_km"), {}, "node 2: subset rule on numeric column 'Mileage_km'"),
        (_set_rule(5, kind="oblique"), {}, "node 5: unknown rule kind 'oblique'"),
        (_set_rule(5, threshold=None), {}, "node 5: a threshold rule takes a finite float threshold and no labels"),
        (_set_rule(5, threshold=float("inf")), {},
         "node 5: a threshold rule takes a finite float threshold and no labels"),
        (_set_rule(5, left_categories=["BMW"]), {},
         "node 5: a threshold rule takes a finite float threshold and no labels"),
        (_set_rule(2, kind="threshold", threshold=0.5, left_categories=[], right_categories=[]), {},
         "node 2: threshold rule on categorical column 'Brand'"),
        (_set_rule(2, left_categories=[]), {},
         "node 2: a subset rule takes two disjoint, non-empty lists of 'Brand' categories"),
        (_set_rule(2, left_categories=["Ford", "BMW"]), {},
         "node 2: a subset rule takes two disjoint, non-empty lists of 'Brand' categories"),
        (_set_rule(2, left_categories=["Ford", "Ford"]), {},
         "node 2: a subset rule takes two disjoint, non-empty lists of 'Brand' categories"),
        (_set_rule(2, left_categories=["Ford", "Tesla"]), {},
         "node 2: a subset rule takes two disjoint, non-empty lists of 'Brand' categories"),
        (_set_rule(2, threshold=0.5), {}, "node 2: a subset rule takes no threshold"),
        (_set_node(1, prediction="0.0"), {}, "node 1: needs an int n >= 1 and finite floats as prediction and sse"),
        (_set_node(1, sse=float("nan")), {}, "node 1: needs an int n >= 1 and finite floats as prediction and sse"),
        (_set_node(1, n="212"), {"routing": "majority"},
         "node 1: needs an int n >= 1 and finite floats as prediction and sse"),
        (_set_node(1, n=0), {}, "node 1: needs an int n >= 1 and finite floats as prediction and sse"),
        (_set_node(1, n=212.0), {}, "node 1: needs an int n >= 1 and finite floats as prediction and sse"),
        (_set_node(1, prediction=0), {}, "node 1: needs an int n >= 1 and finite floats as prediction and sse"),
        (_set_node(1, sse=True), {}, "node 1: needs an int n >= 1 and finite floats as prediction and sse"),
        (_set_rule(5, threshold=40000), {}, "node 5: a threshold rule takes a finite float threshold and no labels"),
        (_set_node(2, left=3.0), {}, "node 2: child ids must be ints, got 3.0 and 32"),
    ],
    ids=(
        "unknown-variable", "subset-on-numeric", "unknown-kind", "null-threshold", "infinite-threshold",
        "threshold-with-labels", "threshold-on-categorical", "empty-side", "overlapping-sides",
        "repeated-label", "unknown-label", "subset-with-threshold", "string-prediction", "nan-sse", "string-n",
        "zero-n", "float-n", "int-prediction", "bool-sse", "int-threshold", "float-child-id",
    ),
)
def test_model_file_that_does_not_fit_its_schema_exits_2(tmp_path, capsys, edit, config, message):
    assert _predict_with_edited_golden_model(tmp_path, capsys, edit, config) == (
        2, "", f"error: <model>: malformed model file: {message}"
    )


# Every option of every command. An option that changes no output has no place
# here: a new one must be added to this table on purpose.
CLI_OPTIONS = {
    "generate": "--kind --n --out --seed --config --threads",
    "train": "--data --schema --response --max-depth --min-split --min-bucket --cp --routing --method "
             "--seed --out --describe --config --threads",
    "predict": "--model --data --routing --out --config --threads",
    "eval": "--model --data --routing --response --baseline --out --config --threads",
    "protocol": "--data --schema --response --max-depth --min-split --min-bucket --cp --routing --method "
                "--seed --fractions --out --config --threads",
    "trace": "--data --schema --response --column --init --exact-threshold --seed --out --config --threads",
    "compare": "--data --schema --response --column --init --exact-threshold --seed --out --config --threads",
}


def test_each_command_takes_exactly_its_options():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: [opt for action in sub._actions for opt in action.option_strings if opt not in ("-h", "--help")]
        for name, sub in commands.choices.items()
    }
    assert got == {name: options.split() for name, options in CLI_OPTIONS.items()}


def test_readme_option_table_lists_each_commands_options():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|$", fh.read(), re.MULTILINE)
    assert dict(rows) == {
        name: options.replace(" --config --threads", "") for name, options in CLI_OPTIONS.items()
    }


# Options that changed no output of their command and were removed.
REMOVED = [("train", "init", "zero"), ("protocol", "init", "zero"), ("predict", "seed", "3"),
           ("eval", "seed", "3"), ("trace", "format", "json"), ("train", "exact_threshold", "5"),
           ("protocol", "exact_threshold", "5")]


@pytest.mark.parametrize("command, key, value", REMOVED, ids=[f"{c}-{k}" for c, k, _ in REMOVED])
def test_removed_option_exits_2_as_flag_and_as_config_key(tmp_path, capsys, command, key, value):
    data = str(tmp_path / "absent.csv")  # never read: the options are checked first
    required = {
        "train": ["--data", data, "--out", str(tmp_path / "m.json")],
        "protocol": ["--data", data],
        "predict": ["--model", str(tmp_path / "m.json"), "--data", data],
        "eval": ["--model", str(tmp_path / "m.json"), "--data", data],
        "trace": ["--data", data, "--column", "c"],
    }[command]
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main([command, *required, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    code, out, err = _run([command, *required, "--config", str(cfg)], capsys)
    assert (code, out, err.splitlines()[-1]) == (2, "", f"error: unknown config key {key!r}")


def _max_tree_model(tmp_path, small_csv, capsys) -> str:
    """The path of a max tree trained on ``small_csv``."""
    model = str(tmp_path / "model.json")
    train = ["train", "--data", small_csv, "--schema", SCHEMA, "--response", "ClaimAmount", "--max-depth", "64",
             "--min-split", "2", "--min-bucket", "1", "--cp", "0", "--out", model]
    assert _run(train, capsys)[0] == 0
    return model


def _refuse_tree_nodes(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a TreeNode was built")

    monkeypatch.setattr(TreeNode, "__init__", refuse)
    with pytest.raises(AssertionError, match="a TreeNode was built"):
        TreeNode(0, 1, 0.0, 0.0)


def test_predict_and_eval_build_no_tree_nodes(tmp_path, small_csv, capsys, monkeypatch):
    """predict and eval route rows through the node table: no TreeNode is built."""
    model = _max_tree_model(tmp_path, small_csv, capsys)
    commands = [
        ["predict", "--model", model, "--data", small_csv],
        ["predict", "--model", model, "--data", small_csv, "--routing", "majority"],
        ["eval", "--model", model, "--data", small_csv],
    ]
    before = [_run(argv, capsys)[:2] for argv in commands]
    _refuse_tree_nodes(monkeypatch)
    assert [_run(argv, capsys)[:2] for argv in commands] == before
    assert all(code == 0 for code, _ in before)


def test_row_predict_builds_no_tree_nodes(tmp_path, small_csv, capsys, monkeypatch):
    """qubotree.predict walks the node table under both routings: no TreeNode is built."""
    model = _max_tree_model(tmp_path, small_csv, capsys)
    data = load_csv(small_csv, parse_schema(SCHEMA), "ClaimAmount")
    # Each label moved to the next one, so rows reach subset rules that never saw their label.
    columns = {
        c.name: (data.column(c.name) + 1) % len(c.categories) if c.kind == "categorical" else data.column(c.name)
        for c in data.schema
    }
    moved = Dataset(data.schema, columns)
    _refuse_tree_nodes(monkeypatch)
    tree = load_model(model)
    expected = {routing: predict_many(tree, moved, routing).tolist() for routing in ROUTINGS}
    assert expected["complement"] != expected["majority"]
    for routing in ROUTINGS:
        assert [predict(tree, moved.row(i), routing) for i in range(moved.n_rows)] == expected[routing]
