"""Output checks with independent oracles.

Nothing here calls the code path under test to judge its own output: split
costs are checked against Fisher's sorted-means scan written out below, the
``eval`` MSE against a numpy recomputation from the CSV files, ``predict``
rows against the library's row-at-a-time ``predict()``, and a QUBO-grown tree
against the ``--method greedy`` tree. No float digest is pinned: outputs are
compared with each other within a run, never with stored bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

REL_TOL = 1e-9


def digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def costs_agree(a: float, b: float, node_sse: float) -> bool:
    """Equal to 1e-9 relative to the node's SSE, the scale every split cost
    of the node lives on; a pure split's round-off (cost 1e-8 for 0) passes,
    a suboptimal partition does not."""
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), node_sse)


def _pooled_sse(n, means, within):
    total = n.sum()
    mean = (n * means).sum() / total
    return within.sum() + (n * (means - mean) ** 2).sum()


def sorted_scan_cost(y, labels):
    """Exact best two-way split cost of a categorical column under squared
    error (Fisher 1958): sort categories by mean response, scan prefixes.

    Uses centered per-category sums so it does not share the library's
    raw-moment arithmetic. Returns None with fewer than two categories.
    """
    y = np.asarray(y, dtype=np.float64)
    _, inv = np.unique(np.asarray(labels), return_inverse=True)
    n = np.bincount(inv).astype(np.float64)
    if len(n) < 2:
        return None
    means = np.bincount(inv, weights=y) / n
    within = np.bincount(inv, weights=(y - means[inv]) ** 2)
    order = np.argsort(means, kind="stable")
    n, means, within = n[order], means[order], within[order]
    return min(
        _pooled_sse(n[:k], means[:k], within[:k]) + _pooled_sse(n[k:], means[k:], within[k:])
        for k in range(1, len(n))
    )


def read_columns(path) -> dict:
    """A CSV as a mapping of header name to the list of its cells."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [[] for _ in header]
        for row in reader:
            for col, cell in zip(cols, row):
                col.append(cell)
    return dict(zip(header, cols))


def parse_fields(text: str) -> dict:
    """``key=value`` tokens of a CLI summary line."""
    out = {}
    for token in text.split():
        if "=" in token:
            key, value = token.split("=", 1)
            out[key] = value
    return out


def _split_sse(y, left) -> float:
    return sum(float(np.sum((part - part.mean()) ** 2)) for part in (y[left], y[~left]) if len(part))


def _rule_key(rule):
    return None if rule is None else (rule["variable"], rule["kind"], tuple(rule["left_categories"]),
                                       rule["threshold"])


def greedy_parity(qubo_model, greedy_model, data_path, response: str, report: dict) -> bool:
    """The QUBO tree is the ``--method greedy`` tree, except below nodes where
    the two pick different splits of equal cost.

    Both trees are walked together over the training rows. Where their rules
    differ, both splits are costed from the rows; they must agree to 1e-9 of
    the node's SSE, and the subtrees below are not compared. A node that one
    tree splits and the other does not fails. ``report`` receives both leaf
    counts, both train MSEs and the number of tie points.
    """
    with open(qubo_model, encoding="utf-8") as fh:
        qdoc = json.load(fh)
    with open(greedy_model, encoding="utf-8") as fh:
        gdoc = json.load(fh)
    cols = read_columns(data_path)
    y = np.asarray(cols[response], dtype=np.float64)
    kinds = {c["name"]: c["kind"] for c in qdoc["schema"]}
    values = {name: np.asarray(cols[name]) if kind == "categorical" else np.asarray(cols[name], dtype=np.float64)
              for name, kind in kinds.items()}
    qnodes = {n["id"]: n for n in qdoc["nodes"]}
    gnodes = {n["id"]: n for n in gdoc["nodes"]}

    def left_mask(rule, idx):
        x = values[rule["variable"]][idx]
        if rule["kind"] == "threshold":
            return x < rule["threshold"]
        return np.isin(x, rule["left_categories"])

    ties, ok = 0, True
    stack = [(qdoc["nodes"][0]["id"], gdoc["nodes"][0]["id"], np.arange(len(y)))]
    while stack:
        qid, gid, idx = stack.pop()
        qrule, grule = qnodes[qid]["rule"], gnodes[gid]["rule"]
        if _rule_key(qrule) == _rule_key(grule):
            if qrule is not None:
                mask = left_mask(qrule, idx)
                stack.append((qnodes[qid]["left"], gnodes[gid]["left"], idx[mask]))
                stack.append((qnodes[qid]["right"], gnodes[gid]["right"], idx[~mask]))
            continue
        if qrule is None or grule is None:
            ok = False
            continue
        ys = y[idx]
        node_sse = float(np.sum((ys - ys.mean()) ** 2))
        ties += 1
        if not costs_agree(_split_sse(ys, left_mask(qrule, idx)), _split_sse(ys, left_mask(grule, idx)), node_sse):
            ok = False

    def leaves_and_mse(doc):
        leaves = [n for n in doc["nodes"] if n["rule"] is None]
        return len(leaves), sum(n["sse"] for n in leaves) / len(y)

    report["qubo_leaves"], report["qubo_train_mse"] = leaves_and_mse(qdoc)
    report["greedy_leaves"], report["greedy_train_mse"] = leaves_and_mse(gdoc)
    report["tie_points"] = ties
    return ok


def predictions_match_library(model_path, data_path, preds_path, routing, sample: int, seed: int) -> bool:
    """Sampled rows of a predictions file equal ``qubotree.predict`` on them."""
    from qubotree import load_model, predict

    tree = load_model(model_path)
    data = read_columns(data_path)
    preds = read_columns(preds_path)["prediction"]
    n = len(next(iter(data.values())))
    if len(preds) != n:
        return False
    rows = np.random.default_rng([seed, 0x9E1]).choice(n, size=min(sample, n), replace=False)
    for i in rows:
        row = {
            col.name: data[col.name][i] if col.kind == "categorical" else float(data[col.name][i])
            for col in tree.schema
        }
        if predict(tree, row, routing) != float(preds[i]):
            return False
    return True


def eval_matches_numpy(eval_json, data_path, preds_path, response: str) -> bool:
    """The ``eval`` MSE equals mean((y - prediction)^2) from the files."""
    with open(eval_json, encoding="utf-8") as fh:
        reported = json.load(fh)["mse"]
    y = np.asarray(read_columns(data_path)[response], dtype=np.float64)
    p = np.asarray(read_columns(preds_path)["prediction"], dtype=np.float64)
    if len(y) != len(p):
        return False
    expected = float(np.mean((y - p) ** 2))
    return abs(reported - expected) <= REL_TOL * max(abs(reported), abs(expected))


def protocol_rows(path) -> dict:
    cols = read_columns(path)
    return {
        kind: {key: cols[key][i] for key in cols}
        for i, kind in enumerate(cols["tree_type"])
    }


def protocol_invariants(path) -> bool:
    """root leaves <= validation_best leaves <= max leaves; finite errors."""
    rows = protocol_rows(path)
    leaves = {kind: int(rows[kind]["leaves"]) for kind in ("root", "validation_best", "max")}
    mses = [float(rows[k][m]) for k in rows for m in ("train_mse", "validation_mse", "test_mse")]
    return (
        leaves["root"] == 1
        and leaves["root"] <= leaves["validation_best"] <= leaves["max"]
        and all(math.isfinite(v) and v >= 0.0 for v in mses)
    )


def trace_matches_scan(trace_stdout: str, data_path, column: str, response: str) -> bool:
    """``trace`` converged to Fisher's optimum for the whole column."""
    fields = parse_fields(trace_stdout)
    if fields.get("converged") != "True":
        return False
    cols = read_columns(data_path)
    y = np.asarray(cols[response], dtype=np.float64)
    node_sse = float(np.sum((y - y.mean()) ** 2))
    return costs_agree(float(fields["lambda_star"]), sorted_scan_cost(y, cols[column]), node_sse)
