"""Byte-identity of the CLI outputs against checked-in goldens.

``tests/golden/df300.csv`` holds 300 ``generate --kind df --seed 7`` rows to
train on and ``df100.csv`` 100 fresh ``--seed 8`` rows to predict; the depth-6
model routes one of them differently under the two routings. Both files, and
a small ``datagen`` file, are goldens of ``generate`` cases too. Each case
runs one command in-process and compares its stdout and output file with
the goldens of the same names under ``tests/golden/``. After a change that is
meant to alter outputs, rewrite the goldens with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import os
import sys
import tempfile

import pytest

from qubotree.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
DATA = os.path.join(GOLDEN, "df300.csv")
FRESH = os.path.join(GOLDEN, "df100.csv")
MODEL = os.path.join(GOLDEN, "train_model.json")

# name -> (argv, golden files). A "*.stdout" golden holds the stdout; any
# other golden holds the file the command wrote to the "{out}" argument.
CASES = {
    "generate_df300": (["generate", "--kind", "df", "--n", "300", "--seed", "7", "--out", "{out}"], ("df300.csv",)),
    "generate_df100": (["generate", "--kind", "df", "--n", "100", "--seed", "8", "--out", "{out}"], ("df100.csv",)),
    "generate_datagen": (
        ["generate", "--kind", "datagen", "--n", "60", "--seed", "11", "--out", "{out}"],
        ("datagen60.csv",),
    ),
    "train": (
        [
            "train", "--data", DATA, "--max-depth", "6", "--cp", "0", "--min-split", "2",
            "--min-bucket", "1", "--describe", "--out", "{out}",
        ],
        ("train.stdout", "train_model.json"),
    ),
    "predict_complement": (
        ["predict", "--model", MODEL, "--data", FRESH, "--routing", "complement"],
        ("predict_complement.stdout",),
    ),
    "predict_majority": (
        ["predict", "--model", MODEL, "--data", FRESH, "--routing", "majority"],
        ("predict_majority.stdout",),
    ),
    "protocol": (["protocol", "--data", DATA, "--seed", "3"], ("protocol.stdout",)),
    "trace_upper_bound": (
        ["trace", "--data", DATA, "--column", "Brand", "--init", "upper_bound"],
        ("trace_upper_bound.stdout",),
    ),
    "trace_zero": (
        ["trace", "--data", DATA, "--column", "Brand", "--init", "zero"],
        ("trace_zero.stdout",),
    ),
    "compare": (["compare", "--data", DATA, "--column", "Brand"], ("compare.stdout",)),
}


def run_case(name: str, workdir: str) -> dict:
    """Run one case and return its outputs as ``{golden file name: bytes}``."""
    argv, files = CASES[name]
    out_path = os.path.join(workdir, name + ".out")
    argv = [out_path if a == "{out}" else a for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{name}: exit code {code}")
    outputs = {}
    for file_name in files:
        if file_name.endswith(".stdout"):
            outputs[file_name] = stdout.getvalue().encode("utf-8")
        else:
            with open(out_path, "rb") as fh:
                outputs[file_name] = fh.read()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    for file_name, got in run_case(name, str(tmp_path)).items():
        with open(os.path.join(GOLDEN, file_name), "rb") as fh:
            assert got == fh.read(), f"{name}: {file_name} differs from its golden"


def _rewrite_goldens() -> None:
    # generate first, since the rest read the data it writes, then train:
    # the predict cases read the model it writes.
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(CASES, key=lambda n: (not n.startswith("generate"), n != "train")):
            for file_name, data in run_case(name, workdir).items():
                with open(os.path.join(GOLDEN, file_name), "wb") as fh:
                    fh.write(data)
                print(f"wrote {file_name}", file=sys.stderr)


if __name__ == "__main__":
    _rewrite_goldens()
