import json

import pytest

from qubotree.cli import main

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
    text = open(a).read()
    assert text == open(b).read()
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
    lines = open(preds).read().splitlines()
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
    doc = json.loads(open(report).read())
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
        models[method] = json.loads(open(path).read())["nodes"]
    assert models["qubo"] == models["greedy"] == models["exhaustive"]


def test_train_auto_schema(tmp_path, small_csv, capsys):
    model = str(tmp_path / "model.json")
    code, _, _ = _run(
        ["train", "--data", small_csv, "--schema", "auto", "--response", "ClaimAmount",
         "--max-depth", "2", "--out", model],
        capsys,
    )
    assert code == 0


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
    lines = open(out_path).read().splitlines()
    assert lines[0] == "iteration,lambda_initial,binary_vector,score,lambda_final"
    assert "converged=True" in out
    # Zero-init trace starts from the all-zeros row.
    code, out, _ = _run(
        ["trace", "--data", small_csv, "--schema", SCHEMA, "--response", "ClaimAmount",
         "--column", "Brand", "--init", "zero", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out[: out.rindex("}") + 1])
    assert doc["rows"][0]["binary_vector"] == "(" + ",".join(["0"] * 10) + ")"


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
    lines = open(out_path).read().splitlines()
    assert lines[0] == "method,left_partition,cost,iterations"
    rows = {line.split(",", 1)[0]: line for line in lines[1:]}
    assert set(rows) == {"qubo", "exhaustive", "greedy"}
    for line in rows.values():
        assert "10.0" in line
        assert "{C1" in line or "C4}" in line


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
    lines = open(out_path).read().splitlines()
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
    doc = json.loads(open(model).read())
    assert doc["config"]["max_depth"] == 2

    bad = tmp_path / "bad.cfg"
    bad.write_text("no-such-key = 1\n", encoding="utf-8")
    code, _, err = _run(
        ["train", "--config", str(bad), "--data", small_csv, "--schema", SCHEMA,
         "--response", "ClaimAmount", "--out", model],
        capsys,
    )
    assert code != 0 and "unknown config key" in err


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
    assert json.loads(open(model).read())["config"]["max_depth"] == 1


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
    assert json.loads(open(model).read())["config"]["max_depth"] == 3


def test_threads_validation(tmp_path, small_csv, capsys):
    code, _, err = _run(
        ["train", "--data", small_csv, "--schema", SCHEMA, "--response", "ClaimAmount",
         "--out", str(tmp_path / "m.json"), "--threads", "0"],
        capsys,
    )
    assert code != 0


@pytest.mark.parametrize("command", ["train", "protocol", "trace", "compare"])
def test_exact_threshold_above_cap_fails_before_loading(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--data", str(tmp_path / "absent.csv"), "--schema", SCHEMA,
            "--exact-threshold", "31", "--out", str(out)]
    if command in ("trace", "compare"):
        argv += ["--column", "Brand"]
    code, _, err = _run(argv, capsys)
    # The data file does not exist: the threshold is checked before any loading.
    assert code == 2
    assert "error: exact_threshold must be <= 30, got 31" in err
    assert not out.exists()
