"""Span tracing for the traced benchmark run.

Wrappers are installed from the benchmark's side, around public functions in
the namespace of the module that calls them (``qubotree.tree.best_split`` is
the name ``grow`` looks up, so that is the one replaced). Each call records a
span: name, start, end and the index of its parent span. Spans stay in memory
and are written out once, at exit. Nothing under ``src/`` knows about this.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

import qubotree.cli
import qubotree.dinkelbach
import qubotree.pruning
import qubotree.solvers
import qubotree.splitting
import qubotree.tree

from checks import costs_agree, sorted_scan_cost

# (span name, module whose global is replaced, attribute). A module appears
# once per function it calls across a layer boundary.
WRAPPED = (
    ("cli", qubotree.cli, "main"),
    ("datasets.load_csv", qubotree.cli, "load_csv"),
    ("datasets.infer_schema", qubotree.cli, "infer_schema"),
    ("datasets.write_csv", qubotree.cli, "write_csv"),
    ("datasets.partition", qubotree.pruning, "partition"),
    ("generators.generate", qubotree.cli, "generate_df"),
    ("generators.generate", qubotree.cli, "generate_datagen"),
    ("stats.aggregate", qubotree.splitting, "aggregate_categories"),
    ("stats.aggregate", qubotree.cli, "aggregate_categories"),
    ("stats.v_matrix", qubotree.splitting, "build_v_matrix"),
    ("stats.v_matrix", qubotree.cli, "build_v_matrix"),
    ("qubo.build", qubotree.dinkelbach, "build_qubo"),
    ("qubo.eval_fractional", qubotree.dinkelbach, "eval_fractional"),
    ("dinkelbach", qubotree.splitting, "dinkelbach_split"),
    ("dinkelbach", qubotree.cli, "dinkelbach_split"),
    ("solvers.exhaustive", qubotree.solvers, "solve_exhaustive"),
    ("solvers.anneal", qubotree.solvers, "solve_anneal"),
    ("splitting.best_split", qubotree.tree, "best_split"),
    ("splitting.categorical", qubotree.splitting, "best_categorical_split_qubo"),
    ("splitting.categorical", qubotree.splitting, "best_categorical_split_greedy"),
    ("splitting.categorical", qubotree.splitting, "best_categorical_split_exhaustive"),
    ("splitting.numeric", qubotree.splitting, "best_numeric_split"),
    ("tree.grow", qubotree.cli, "grow"),
    ("tree.grow", qubotree.pruning, "grow"),
    ("tree.predict_many", qubotree.cli, "predict_many"),
    ("tree.predict_many", qubotree.tree, "predict_many"),
    ("tree.save_model", qubotree.cli, "save_model"),
    ("tree.load_model", qubotree.cli, "load_model"),
    ("pruning.evaluate_protocol", qubotree.cli, "evaluate_protocol"),
    ("pruning.prune_sequence", qubotree.pruning, "prune_sequence"),
    ("pruning.ladder_mse", qubotree.pruning, "ladder_mse"),
)


def _count_tree(tracer, args, kwargs, tree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        tracer.counts["tree.nodes"] += 1
        if node.is_leaf:
            tracer.counts["tree.leaves"] += 1
        else:
            stack.extend((node.left, node.right))


def _count_dinkelbach(tracer, args, kwargs, result):
    trace = result[2]
    steps = len(trace.steps)
    tracer.counts["dinkelbach.iterations"] += steps
    tracer.counts["dinkelbach.iterations_max"] = max(tracer.counts["dinkelbach.iterations_max"], steps)
    tracer.counts["dinkelbach.trivial_resets"] += sum(1 for s in trace.steps if not any(s.q))
    tracer.counts["dinkelbach.nonconverged"] += 0 if trace.converged else 1


def _certify(tracer, args, kwargs, cand):
    """Compare a QUBO split's cost with Fisher's sorted-means optimum."""
    y, codes = np.asarray(args[0], dtype=np.float64), args[1]
    node_sse = float(np.sum((y - y.mean()) ** 2))
    tracer.counts["splitting.certified.total"] += 1
    if costs_agree(cand.cost, sorted_scan_cost(y, codes), node_sse):
        tracer.counts["splitting.certified.ok"] += 1


def _counter(key, measure):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += measure(result)

    return hook


HOOKS = {
    ("tree.grow", "grow"): _count_tree,
    ("dinkelbach", "dinkelbach_split"): _count_dinkelbach,
    ("splitting.categorical", "best_categorical_split_qubo"): _certify,
    ("solvers.exhaustive", "solve_exhaustive"): _counter("solvers.exhaustive.evaluations", lambda r: r.evaluations),
    ("solvers.anneal", "solve_anneal"): _counter("solvers.anneal.evaluations", lambda r: r.evaluations),
    ("pruning.prune_sequence", "prune_sequence"): _counter("pruning.steps", len),
    ("tree.predict_many", "predict_many"): _counter("tree.predict_many.rows", len),
    ("datasets.load_csv", "load_csv"): _counter("datasets.load_csv.rows", lambda r: r.n_rows),
}


class Tracer:
    """In-memory span recorder; use as a context manager to install wrappers.

    Time spent in counting hooks (tree walks, the certification scan) is
    taken off the clock every span reads, so it inflates no span.
    """

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.child: list = []
        self.stack: list = []
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.paused = 0.0
        self._saved: list = []

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            idx = len(self.starts)
            parent = self.stack[-1] if self.stack else -1
            self.names.append(name)
            self.parents.append(parent)
            self.child.append(0.0)
            self.stack.append(idx)
            start = self.clock()
            self.starts.append(start)
            self.ends.append(start)
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                self.errors[name] += 1
                raise
            finally:
                end = self.clock()
                self.ends[idx] = end
                self.stack.pop()
                if parent >= 0:
                    self.child[parent] += end - start
            if hook is not None:
                paused_at = time.perf_counter()
                hook(self, args, kwargs, result)
                self.paused += time.perf_counter() - paused_at
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for name, module, attr in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, HOOKS.get((name, attr))))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def layer_totals(self):
        """Per span name: calls, total seconds and self seconds."""
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for name, start, end, child in zip(self.names, self.starts, self.ends, self.child):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child
        return calls, total, own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write("%s\t%.9f\t%.9f\t%d\n" % row)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics (name -> (value, unit)) from one traced run."""
    calls, total, own = tracer.layer_totals()
    c = tracer.counts
    out = {
        "cli.self_s": (own["cli"], "s"),
        "datasets.load_csv.s": (total["datasets.load_csv"], "s"),
        "datasets.load_csv.rows_per_s": (_ratio(c["datasets.load_csv.rows"], total["datasets.load_csv"]), "1/s"),
        "datasets.infer_schema.s": (total["datasets.infer_schema"], "s"),
        "datasets.write_csv.s": (total["datasets.write_csv"], "s"),
        "datasets.partition.s": (total["datasets.partition"], "s"),
        "generators.generate.s": (total["generators.generate"], "s"),
        "stats.aggregate.calls": (calls["stats.aggregate"], "count"),
        "stats.aggregate.s": (total["stats.aggregate"], "s"),
        "stats.v_matrix.calls": (calls["stats.v_matrix"], "count"),
        "stats.v_matrix.s": (total["stats.v_matrix"], "s"),
        "qubo.build.calls": (calls["qubo.build"], "count"),
        "qubo.build.s": (total["qubo.build"], "s"),
        "qubo.eval_fractional.calls": (calls["qubo.eval_fractional"], "count"),
        "qubo.eval_fractional.s": (total["qubo.eval_fractional"], "s"),
        "dinkelbach.calls": (calls["dinkelbach"], "count"),
        "dinkelbach.s": (total["dinkelbach"], "s"),
        "dinkelbach.self_s": (own["dinkelbach"], "s"),
        "dinkelbach.iterations": (c["dinkelbach.iterations"], "count"),
        "dinkelbach.iterations_max": (c["dinkelbach.iterations_max"], "count"),
        "dinkelbach.trivial_resets": (c["dinkelbach.trivial_resets"], "count"),
        "dinkelbach.nonconverged": (c["dinkelbach.nonconverged"], "count"),
    }
    for backend in ("exhaustive", "anneal"):
        key = f"solvers.{backend}"
        evaluations = c[f"{key}.evaluations"]
        out[f"{key}.calls"] = (calls[key], "count")
        out[f"{key}.s"] = (total[key], "s")
        out[f"{key}.evaluations"] = (evaluations, "count")
        out[f"{key}.evals_per_s"] = (_ratio(evaluations, total[key]), "1/s")
    rejected = tracer.errors["splitting.categorical"]
    out.update({
        "splitting.best_split.calls": (calls["splitting.best_split"], "count"),
        "splitting.best_split.s": (total["splitting.best_split"], "s"),
        "splitting.best_split.self_s": (own["splitting.best_split"], "s"),
        "splitting.categorical.calls": (calls["splitting.categorical"], "count"),
        "splitting.categorical.s": (total["splitting.categorical"], "s"),
        "splitting.categorical.rejected": (rejected, "count"),
        "splitting.categorical.yield": (
            _ratio(calls["splitting.categorical"] - rejected, calls["splitting.categorical"]), "ratio"),
        "splitting.numeric.calls": (calls["splitting.numeric"], "count"),
        "splitting.numeric.s": (total["splitting.numeric"], "s"),
        "splitting.certified_ratio": (
            _ratio(c["splitting.certified.ok"], c["splitting.certified.total"]), "ratio"),
        "tree.grow.s": (total["tree.grow"], "s"),
        "tree.grow.self_s": (own["tree.grow"], "s"),
        "tree.nodes": (c["tree.nodes"], "count"),
        "tree.leaves": (c["tree.leaves"], "count"),
        "tree.predict_many.s": (total["tree.predict_many"], "s"),
        "tree.predict_many.rows_per_s": (_ratio(c["tree.predict_many.rows"], total["tree.predict_many"]), "1/s"),
        "tree.save_model.s": (total["tree.save_model"], "s"),
        "tree.load_model.s": (total["tree.load_model"], "s"),
        "pruning.prune_sequence.s": (total["pruning.prune_sequence"], "s"),
        "pruning.steps": (c["pruning.steps"], "count"),
        "pruning.ladder_mse.calls": (calls["pruning.ladder_mse"], "count"),
        "pruning.ladder_mse.s": (total["pruning.ladder_mse"], "s"),
        "pruning.evaluate_protocol.self_s": (own["pruning.evaluate_protocol"], "s"),
        "tracing.spans": (len(tracer.names), "count"),
    })
    return out
