"""The benchmark's workloads: their inputs, commands and checks.

Every workload drives the user-facing CLI in-process through
``qubotree.cli.main(argv)`` with one closed-loop client: commands run back to
back, one at a time, on files the benchmark generated from the seed. Each
workload runs the same six commands (generate in set-up; train, predict,
eval, protocol and trace), so every end-to-end metric exists on every
workload; the data and flags decide which layer dominates:

- ``df-pipeline``: the default user path on 20k ``generate_df`` rows with
  max-tree flags. Many small nodes, so per-node overhead in splitting, stats,
  qubo, the numeric scan and pruning dominates; the annealer never runs.
- ``highcard-split``: one categorical column of 16 levels (exact solver) and
  one of 40 (annealing) at depth 3. Solvers and the ratio iteration dominate;
  ``df-pipeline`` is its bypass control.
- ``datagen-score``: a max tree fitted in set-up, then scoring 200k fresh
  rows with both routings. Reads the tree and the CSV loader, grows little.
"""

from __future__ import annotations

import csv
import gc
import io
import os
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import qubotree.cli
from qubotree import ColumnSchema, best_categorical_split_greedy, best_categorical_split_qubo

import checks

SETUP_REPS = 5
MIN_PASSES = 2
DF_SCHEMA = "Brand:categorical,Color:categorical,Mileage_km:numeric,HasClaim:binary"
HIGHCARD_SCHEMA = "Model:categorical,Dealer:categorical,Mileage_km:numeric,HasClaim:binary"
MAX_TREE = ["--max-depth", "64", "--min-split", "2", "--min-bucket", "1", "--cp", "0"]
SWEEP_MS = (8, 12, 16, 32)

# The shared 2-core machines this runs on change speed by up to 2x for tens
# of seconds at a time, so end-to-end times are scaled to a reference speed:
# speed_probe() runs before every command, and a run's times are multiplied
# by REF_PROBE_S over its median probe time. The probe grows a small tree
# with numpy and parses CSV text, the two kinds of work the commands do, and
# shares no code with qubotree, so a faster program still reads faster.
REF_PROBE_S = 0.020
_PROBE_RNG = np.random.default_rng(12345)
_PROBE_X = _PROBE_RNG.normal(size=(1500, 3))
_PROBE_Y = _PROBE_X[:, 0] * 3.0 + _PROBE_RNG.normal(size=1500)
_PROBE_CSV = "\n".join(f"b{i % 10},{i * 37.123!r},{i % 2},{i * 1.2519!r}" for i in range(1500))


def _probe_tree() -> int:
    nodes, stack = 0, [np.arange(len(_PROBE_Y))]
    while stack:
        idx = stack.pop()
        nodes += 1
        if len(idx) < 40:
            continue
        y = _PROBE_Y[idx]
        best = (np.inf, 0, 0.0)
        for j in range(_PROBE_X.shape[1]):
            x = _PROBE_X[idx, j]
            order = np.argsort(x, kind="stable")
            s, q = np.cumsum(y[order]), np.cumsum(y[order] ** 2)
            k = np.arange(1, len(y))
            cost = (q[:-1] - s[:-1] ** 2 / k) + (q[-1] - q[:-1]) - (s[-1] - s[:-1]) ** 2 / (len(y) - k)
            i = int(np.argmin(cost))
            if cost[i] < best[0]:
                best = (cost[i], j, x[order][i])
        left = _PROBE_X[idx, best[1]] <= best[2]
        if left.any() and not left.all():
            stack += [idx[left], idx[~left]]
    return nodes


def _probe_csv() -> float:
    labels, values = {}, []
    for row in csv.reader(io.StringIO(_PROBE_CSV)):
        labels.setdefault(row[0], len(labels))
        values.append(float(row[1]) + float(row[2]) * float(row[3]))
    out = csv.writer(io.StringIO())
    for v in values[:500]:
        out.writerow([repr(v)])
    return sum(values)


def speed_probe() -> None:
    """A fixed amount of work, about REF_PROBE_S on a quiet machine."""
    _probe_tree()
    _probe_csv()


@dataclass
class Call:
    rc: int
    seconds: float
    stdout: str


@dataclass
class Run:
    """State of one benchmark run: its work directory, seed and tallies."""

    workdir: str
    seed: int
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    probes: list = field(default_factory=list)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cli(self, argv) -> Call:
        """One CLI command; a non-zero exit counts as a failed operation.

        The speed probe runs first, untimed, so every command has a reading
        of the machine's speed next to it.
        """
        start = time.perf_counter()
        speed_probe()
        self.probes.append(time.perf_counter() - start)
        out, err = io.StringIO(), io.StringIO()
        # Each command starts from a collected heap, as in a fresh process.
        gc.collect()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = qubotree.cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            seconds = time.perf_counter() - start
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.failures.append(f"{argv[0]} exited {rc}: {err.getvalue().strip()[-300:]}")
        return Call(rc, seconds, out.getvalue())

    def check(self, name: str, fn, *args) -> None:
        """One output check; an exception counts as a failed check."""
        self.attempted += 1
        try:
            ok = bool(fn(*args))
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        if not ok:
            self.failed += 1
            self.failures.append(f"check failed: {name}")

    def sample(self, key: str, seconds: float) -> None:
        self.samples.setdefault(key, []).append(seconds)

    def speed(self) -> float:
        """This run's machine speed relative to the reference: the probe's
        reference time over its median time in the run."""
        return REF_PROBE_S / statistics.median(self.probes)


@dataclass(frozen=True)
class Op:
    """One command of a timed pass and the files whose bytes must repeat."""

    kind: str
    argv: tuple
    outputs: tuple = ()


class Workload:
    """One workload: its inputs, the commands of a timed pass, its checks."""

    name = ""
    predict_rows = 0
    eval_rows = 0
    trace_column = "Brand"
    # A trace of Brand takes about 0.1 s, so three pairs run per pass.
    trace_reps = 3

    def setup(self, run: Run) -> list:
        """Write the inputs; return the files whose bytes must repeat."""
        raise NotImplementedError

    def ops(self, run: Run) -> list:
        raise NotImplementedError

    def check(self, run: Run, passes: list) -> None:
        raise NotImplementedError


def common_checks(run: Run, passes: list, greedy_argv, train_data, data, model, preds, column):
    """Checks every workload makes after its timed passes.

    ``passes`` maps op kind to Call for each pass. ``train_data`` is the CSV
    the model was fitted and traced on; ``data`` and ``preds`` are the rows
    scored by ``predict``/``eval`` with the default routing.
    """
    run.cli(greedy_argv)
    parity = {}
    run.check("qubo tree matches the greedy tree up to equal-cost ties", checks.greedy_parity,
              model, run.path("model-greedy.json"), train_data, "ClaimAmount", parity)
    run.extras.update({f"greedy_parity.{key}": (value, "") for key, value in parity.items()})
    run.check("eval MSE equals numpy recomputation", checks.eval_matches_numpy,
              run.path("eval.json"), data, preds, "ClaimAmount")
    run.check("predict rows equal qubotree.predict", checks.predictions_match_library,
              model, data, preds, "complement", 200, run.seed)
    run.check("protocol row invariants", checks.protocol_invariants, run.path("protocol.csv"))
    for init in ("upper_bound", "zero"):
        run.check(f"trace --init {init} reaches the sorted-scan optimum", checks.trace_matches_scan,
                  passes[0][f"trace-{init}-0"].stdout, train_data, column, "ClaimAmount")


def _trace_ops(run: Run, data: str, column: str, reps: int) -> list:
    """``reps`` back-to-back pairs of trace commands, one per init; a pair is
    one ``trace_s`` sample."""
    return [
        Op(f"trace-{init}-{rep}", ("trace", "--data", data, "--schema", "auto", "--response", "ClaimAmount",
                                   "--column", column, "--init", init, "--seed", str(run.seed),
                                   "--out", run.path(f"trace-{init}.csv")), (run.path(f"trace-{init}.csv"),))
        for rep in range(reps)
        for init in ("upper_bound", "zero")
    ]


class DfPipeline(Workload):
    """generate -> train (max tree, qubo) -> predict -> eval -> protocol -> trace."""

    name = "df-pipeline"

    def __init__(self, rows: int = 20_000):
        self.rows = self.predict_rows = self.eval_rows = rows

    def setup(self, run):
        out = run.path("data.csv")
        run.cli(["generate", "--kind", "df", "--n", str(self.rows), "--seed", str(run.seed), "--out", out])
        return [out]

    def train_argv(self, run, method):
        return ("train", "--data", run.path("data.csv"), "--schema", DF_SCHEMA, "--response", "ClaimAmount",
                *MAX_TREE, "--method", method, "--seed", str(run.seed), "--out", run.path(f"model-{method}.json"))

    def protocol_flags(self):
        return ()

    def ops(self, run):
        data, model, preds = run.path("data.csv"), run.path("model-qubo.json"), run.path("preds.csv")
        # predict and eval take a fraction of a second on 20k rows; three of
        # each per pass give their medians as many samples as the rest.
        return [
            Op("train", self.train_argv(run, "qubo"), (model,)),
            *(Op(f"predict-{i}", ("predict", "--model", model, "--data", data, "--out", preds), (preds,))
              for i in range(3)),
            *(Op(f"eval-{i}", ("eval", "--model", model, "--data", data, "--out", run.path("eval.json")),
                 (run.path("eval.json"),)) for i in range(3)),
            Op("protocol", ("protocol", "--data", data, "--schema", "auto", "--response", "ClaimAmount",
                            *self.protocol_flags(), "--seed", str(run.seed), "--out", run.path("protocol.csv")),
               (run.path("protocol.csv"),)),
            *_trace_ops(run, data, self.trace_column, self.trace_reps),
        ]

    def check(self, run, passes):
        data = run.path("data.csv")
        common_checks(run, passes, self.train_argv(run, "greedy"), data, data,
                      run.path("model-qubo.json"), run.path("preds.csv"), self.trace_column)


def write_highcard_csv(base_csv: str, out_csv: str, seed: int, m_exact: int = 16, m_anneal: int = 40) -> None:
    """Replace the categorical columns of a ``generate_df`` CSV.

    ``Model`` (``m_exact`` levels, a strong additive effect) is in the exact
    solver's upper range and wins the root split, so its children stay
    cheap. ``Dealer`` (``m_anneal`` levels) adds one of two effects, too weak
    to win a split, so it stays whole and is annealed at every node; its two
    clear groups make the ratio iteration take the same number of steps at
    every node and seed. Only the order of the effects is drawn from the
    seed, which keeps the amount of work alike across seeds.
    """
    cols = checks.read_columns(base_csv)
    n = len(cols["ClaimAmount"])
    rng = np.random.default_rng([seed, 0x41C4])
    model = rng.integers(m_exact, size=n)
    dealer = rng.integers(m_anneal, size=n)
    model_effect = rng.permutation(np.linspace(0.0, 24000.0, m_exact))
    dealer_effect = rng.permutation(np.arange(m_anneal) % 2 * 3000.0)
    amount = np.asarray(cols["ClaimAmount"], dtype=np.float64) + model_effect[model] + dealer_effect[dealer]
    with open(out_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["Model", "Dealer", "Mileage_km", "HasClaim", "ClaimAmount"])
        for i in range(n):
            writer.writerow([f"m{model[i]:02d}", f"d{dealer[i]:02d}", cols["Mileage_km"][i],
                             cols["HasClaim"][i], repr(float(amount[i]))])


class HighcardSplit(DfPipeline):
    """Same commands as df-pipeline on high-cardinality data, depth 3."""

    name = "highcard-split"
    trace_column = "Model"
    trace_reps = 1

    def __init__(self, rows: int = 20_000, m_exact: int = 16, m_anneal: int = 40):
        super().__init__(rows)
        self.m_exact, self.m_anneal = m_exact, m_anneal

    def setup(self, run):
        base, out = run.path("base.csv"), run.path("data.csv")
        run.cli(["generate", "--kind", "df", "--n", str(self.rows), "--seed", str(run.seed), "--out", base])
        write_highcard_csv(base, out, run.seed, self.m_exact, self.m_anneal)
        return [out]

    def train_argv(self, run, method):
        return ("train", "--data", run.path("data.csv"), "--schema", HIGHCARD_SCHEMA, "--response", "ClaimAmount",
                "--max-depth", "3", "--cp", "0", "--method", method, "--seed", str(run.seed),
                "--out", run.path(f"model-{method}.json"))

    def protocol_flags(self):
        return ("--max-depth", "1", "--cp", "0")


class DatagenScore(Workload):
    """Set-up fits a max tree on 10k rows; the pass scores 200k fresh rows."""

    name = "datagen-score"

    def __init__(self, train_rows: int = 10_000, score_rows: int = 200_000):
        self.train_rows = train_rows
        self.predict_rows = self.eval_rows = score_rows

    def train_argv(self, run, method):
        return ("train", "--data", run.path("train.csv"), "--schema", DF_SCHEMA, "--response", "ClaimAmount",
                *MAX_TREE, "--method", method, "--seed", str(run.seed), "--out", run.path(f"model-{method}.json"))

    def setup(self, run):
        train, score = run.path("train.csv"), run.path("score.csv")
        run.cli(["generate", "--kind", "datagen", "--n", str(self.train_rows), "--seed", str(run.seed),
                 "--out", train])
        run.sample("train", run.cli(self.train_argv(run, "qubo")).seconds)
        run.cli(["generate", "--kind", "datagen", "--n", str(self.predict_rows),
                 "--seed", str(run.seed + 1_000_003), "--out", score])
        return [train, score, run.path("model-qubo.json")]

    def ops(self, run):
        score, train, model = run.path("score.csv"), run.path("train.csv"), run.path("model-qubo.json")
        predicts = [
            Op(f"predict-{routing}", ("predict", "--model", model, "--data", score, "--routing", routing,
                           "--out", run.path(f"preds-{routing}.csv")), (run.path(f"preds-{routing}.csv"),))
            for routing in ("complement", "majority")
        ]
        return [
            *predicts,
            *(Op(f"eval-{i}", ("eval", "--model", model, "--data", score, "--out", run.path("eval.json")),
                 (run.path("eval.json"),)) for i in range(2)),
            Op("protocol", ("protocol", "--data", train, "--schema", "auto", "--response", "ClaimAmount",
                            "--seed", str(run.seed), "--out", run.path("protocol.csv")),
               (run.path("protocol.csv"),)),
            *_trace_ops(run, train, self.trace_column, self.trace_reps),
        ]

    def check(self, run, passes):
        score, model = run.path("score.csv"), run.path("model-qubo.json")
        common_checks(run, passes, self.train_argv(run, "greedy"), run.path("train.csv"), score, model,
                      run.path("preds-complement.csv"), self.trace_column)
        run.check("majority-routed rows equal qubotree.predict", checks.predictions_match_library,
                  model, score, run.path("preds-majority.csv"), "majority", 200, run.seed)


WORKLOADS = {w.name: w for w in (DfPipeline, HighcardSplit, DatagenScore)}


def sweep_node(m: int, seed: int, rows: int = 5000):
    """A fixed node of ``rows`` rows and ``m`` categories with spaced effects."""
    rng = np.random.default_rng([seed, m, 0x5EE9])
    codes = rng.integers(m, size=rows)
    effect = rng.permutation(np.linspace(0.0, 4000.0, m))
    y = effect[codes] + rng.normal(0.0, 2000.0, rows)
    column = ColumnSchema(f"C{m}", "categorical", tuple(f"c{i:02d}" for i in range(m)))
    return y, codes, column


def m_sweep(seed: int) -> dict:
    """Per-node split time against the category count M.

    M in 8/12/16 runs the exact solver, M=32 annealing; greedy is timed at
    M=16 as the median of 21 calls since one call takes about 1 ms.
    """
    out = {}
    for m in SWEEP_MS:
        y, codes, column = sweep_node(m, seed)
        start = time.perf_counter()
        best_categorical_split_qubo(y, codes, column)
        out[f"splitting.qubo_node.m{m}_s"] = (time.perf_counter() - start, "s")
    y, codes, column = sweep_node(16, seed)
    times = []
    for _ in range(21):
        start = time.perf_counter()
        best_categorical_split_greedy(y, codes, column)
        times.append(time.perf_counter() - start)
    out["splitting.greedy_node.m16_s"] = (statistics.median(times), "s")
    return out
