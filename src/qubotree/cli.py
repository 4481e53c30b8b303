"""Command-line surface: generate, train, predict, eval, protocol, trace, compare.

Every command is deterministic given its flags, ``--seed`` included where the
command draws random numbers; wall-clock timings go to stderr so output
files are byte-identical across reruns. A config file of ``key = value``
lines supplies defaults, CLI flags override it, and the fully resolved
configuration is logged to stderr on every run.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from contextlib import nullcontext
from typing import Optional

from .datasets import (
    DataError,
    Dataset,
    SplitSpecification,
    format_floats,
    infer_schema,  # not called: load_csv sniffs kinds itself, but bench/tracing.py wraps this name
    load_csv,
    parse_schema,
    write_csv,
)
from .dinkelbach import DinkelbachConfig, dinkelbach_split
from .generators import generate_datagen, generate_df
from .pruning import evaluate_protocol
from .solvers import EXACT_MAX_CATEGORIES, EXACT_THRESHOLD_DEFAULT, AnnealConfig, SolverConfig
from .splitting import (
    EXHAUSTIVE_MAX_CATEGORIES,
    best_categorical_split_exhaustive,
    best_categorical_split_greedy,
    best_categorical_split_qubo,
)
from .stats import aggregate_categories, build_v_matrix
from .tree import (
    CATEGORICAL_METHODS,
    ROUTINGS,
    GrowConfig,
    describe,
    evaluate_mse,
    grow,
    load_model,
    predict_many,
    save_model,
)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _config_flags(args) -> list:
    """The ``--config`` file's entries as flags, checked against the command's options."""
    try:
        with open(args.config, encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{args.config}: not UTF-8 text: {exc}") from None
    flags = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{args.config}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key in ("command", "config", "func") or not hasattr(args, key):
            raise DataError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):
            if value.lower() in ("1", "true", "yes"):
                flags.append(flag)
            elif value.lower() not in ("0", "false", "no"):
                raise DataError(
                    f"{args.config}:{lineno}: {key} takes 1/true/yes or 0/false/no, got {value!r}"
                )
        else:
            flags.append(f"{flag}={value}")
    return flags


def _log_resolved(args) -> None:
    skip = {"func", "config"}
    pairs = sorted((k, v) for k, v in vars(args).items() if k not in skip)
    _log("config: " + " ".join(f"{k}={v}" for k, v in pairs))


def _load_data(args) -> Dataset:
    return load_csv(args.data, None if args.schema == "auto" else parse_schema(args.schema), args.response)


def _settings(build, **values):
    """``build(**values)``, with a bad value a user error: every command checks
    its settings this way before it loads any data."""
    try:
        return build(**values)
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _grow_config(args) -> GrowConfig:
    return _settings(
        GrowConfig, max_depth=args.max_depth, min_split=args.min_split, min_bucket=args.min_bucket,
        cp=args.cp, routing=args.routing, categorical_method=args.method,
    )


def _solver_config(args) -> SolverConfig:
    """The solvers of trace's and compare's cold ratio iteration."""
    return _settings(SolverConfig, exact_threshold=args.exact_threshold, anneal=AnnealConfig(seed=args.seed))


def _output(path: Optional[str]):
    """The file at ``path`` opened for writing, or stdout when there is none."""
    return open(path, "w", newline="", encoding="utf-8") if path else nullcontext(sys.stdout)


def _write_rows(path: Optional[str], header, rows) -> None:
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_generate(args) -> int:
    if args.n < 1:
        raise DataError("--n must be >= 1")
    maker = generate_df if args.kind == "df" else generate_datagen
    data = maker(args.n, args.seed)
    write_csv(data, args.out)
    print(f"wrote {data.n_rows} rows to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _grow_config(args)
    data = _load_data(args)
    started = time.monotonic()
    tree = grow(data, cfg)
    _log(f"trained in {time.monotonic() - started:.3f}s")
    save_model(tree, args.out)
    mse = evaluate_mse(tree, data)
    print(f"leaves={tree.leaf_count()} depth={tree.depth()} train_mse={mse!r}")
    if args.describe:
        print(describe(tree))
    return 0


def cmd_predict(args) -> int:
    tree = load_model(args.model)
    data = load_csv(args.data, tree.schema, None)
    preds = predict_many(tree, data, args.routing)
    # A float's repr never needs CSV quoting, so joined lines are the bytes csv.writer would write.
    with _output(args.out) as fh:
        fh.write("\n".join(["prediction", *format_floats(preds)]) + "\n")
    if args.out:
        print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


def cmd_eval(args) -> int:
    tree = load_model(args.model)
    data = load_csv(args.data, tree.schema, args.response or tree.response_name)
    mse = evaluate_mse(tree, data, args.routing)
    report = {"mse": mse}
    if args.baseline:
        base_mse = evaluate_mse(load_model(args.baseline), data, args.routing)
        if base_mse == 0:
            raise DataError("baseline MSE is 0, relative MSE is undefined")
        report["baseline_mse"] = base_mse
        report["relative_mse_pct"] = 100.0 * (mse - base_mse) / base_mse
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    line = f"mse={mse!r}"
    if args.baseline:
        line += f" relative_mse={report['relative_mse_pct']:.3f}%"
    print(line)
    return 0


def cmd_protocol(args) -> int:
    cfg = _grow_config(args)
    try:
        fractions = tuple(float(f) for f in args.fractions.split(","))
    except ValueError:
        raise DataError(f"--fractions must be comma-separated numbers, got {args.fractions!r}") from None
    spec = SplitSpecification(fractions, args.seed)
    data = _load_data(args)
    started = time.monotonic()
    report = evaluate_protocol(data, spec, cfg)
    _log(f"protocol in {time.monotonic() - started:.3f}s ({report.steps_count} ladder steps)")
    header = ["tree_type", "method", "leaves", "depth", "alpha", "train_mse", "validation_mse", "test_mse"]
    rows = [
        [r.tree_type, report.method, r.leaves, r.depth, r.alpha, r.train_mse, r.validation_mse, r.test_mse]
        for r in report.rows
    ]
    _write_rows(args.out, header, rows)
    _log("note: the test_best row is a diagnostic; selection uses the validation set only")
    return 0


def _column_stats(args):
    """Load the data and aggregate ``--column``, which needs two observed categories."""
    data = _load_data(args)
    column = data.schema_for(args.column)
    if column.kind != "categorical":
        raise DataError(f"column {args.column!r} is not categorical")
    aggs, node = aggregate_categories(data.column(args.column), data.response, len(column.categories))
    if len(aggs) < 2:
        raise DataError(f"{args.column}: need at least two observed categories")
    return data, column, aggs, node


def cmd_trace(args) -> int:
    solver_cfg, dk_cfg = _solver_config(args), DinkelbachConfig(mode=args.init)
    _, column, aggs, node = _column_stats(args)
    v = build_v_matrix(aggs)
    _, lam, trace = dinkelbach_split(v, aggs, node, solver_cfg, dk_cfg)
    header = ["iteration", "lambda_initial", "binary_vector", "score", "lambda_final"]
    _write_rows(args.out, header, [[r[k] for k in header] for r in trace.rows()])
    labels = ",".join(column.categories[i] for i in aggs.index)
    print(f"column={args.column} categories=({labels}) converged={trace.converged} lambda_star={lam!r}")
    return 0


def cmd_compare(args) -> int:
    solver_cfg, dk_cfg = _solver_config(args), DinkelbachConfig(mode=args.init)
    data, column, aggs, _ = _column_stats(args)
    y, codes = data.response, data.column(args.column)
    searches = (
        ("qubo", lambda: best_categorical_split_qubo(y, codes, column, solver_cfg, dk_cfg)),
        ("exhaustive", lambda: best_categorical_split_exhaustive(y, codes, column)),
        ("greedy", lambda: best_categorical_split_greedy(y, codes, column)),
    )
    rows = []
    for method, search in searches:
        if method == "exhaustive" and len(aggs) > EXHAUSTIVE_MAX_CATEGORIES:
            _log(f"exhaustive: skipped ({len(aggs)} categories exceeds limit {EXHAUSTIVE_MAX_CATEGORIES})")
            continue
        started = time.monotonic()
        cand = search()
        _log(f"{method}: {time.monotonic() - started:.4f}s")
        iterations = len(cand.trace.steps) if cand.trace else 1
        rows.append([method, "{" + ",".join(cand.rule.left_categories) + "}", cand.cost, iterations])
    _write_rows(args.out, ["method", "left_partition", "cost", "iterations"], rows)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value file of flag defaults")
    parser.add_argument("--threads", type=int, default=None,
                        help="reserved: execution is sequential, so results are identical for any value")


def _add_data(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="input CSV path")
    parser.add_argument("--schema", default="auto",
                        help='"name:kind,..." with kind numeric|categorical|binary, or "auto"')
    parser.add_argument("--response", default="ClaimAmount", help="response column name")


def _add_column(parser: argparse.ArgumentParser) -> None:
    """Trace's and compare's options: one column and the cold ratio iteration's start and solvers."""
    parser.add_argument("--column", required=True)
    parser.add_argument("--init", choices=("upper_bound", "zero"), default="upper_bound",
                        help="start of the ratio iteration: the parent bound n * Var, or zero")
    parser.add_argument("--exact-threshold", type=int, default=EXACT_THRESHOLD_DEFAULT,
                        help=f"most categories enumerated, 1 to {EXACT_MAX_CATEGORIES}; more are annealed")
    parser.add_argument("--seed", type=int, default=0, help="annealing seed")


def _add_grow(parser: argparse.ArgumentParser, preset: GrowConfig, seed_help: str) -> None:
    parser.add_argument("--max-depth", type=int, default=preset.max_depth)
    parser.add_argument("--min-split", type=int, default=preset.min_split)
    parser.add_argument("--min-bucket", type=int, default=preset.min_bucket)
    parser.add_argument("--cp", type=float, default=preset.cp)
    parser.add_argument("--routing", choices=ROUTINGS, default=preset.routing)
    parser.add_argument("--method", choices=CATEGORICAL_METHODS, default=preset.categorical_method,
                        help="categorical split searcher")
    parser.add_argument("--seed", type=int, default=0, help=seed_help)


def _add_model(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--routing", choices=ROUTINGS, default=None, help="default: the model's")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qubotree")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic claims dataset")
    p.add_argument("--kind", choices=("df", "datagen"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0, help="data seed")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit a regression tree and save the model")
    _add_data(p)
    _add_grow(p, GrowConfig(), "accepted and unused: growth draws no random numbers")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--describe", action="store_true", help="print the tree structure")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict a CSV with a saved model")
    _add_model(p)
    p.add_argument("--out", default=None, help="predictions CSV (stdout otherwise)")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="MSE of a saved model on a CSV")
    _add_model(p)
    p.add_argument("--response", default=None, help="response column (default: model's)")
    p.add_argument("--baseline", default=None, help="baseline model for relative MSE")
    p.add_argument("--out", default=None, help="JSON report path")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("protocol", help="partition, grow, prune, select, and score")
    _add_data(p)
    _add_grow(p, GrowConfig.max_tree(), "partition seed; growth draws no random numbers")
    p.add_argument("--fractions", default="0.5,0.25,0.25")
    p.add_argument("--out", default=None, help="report CSV (stdout otherwise)")
    _add_common(p)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("trace", help="ratio-iteration convergence table for one column")
    _add_data(p)
    _add_column(p)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("compare", help="qubo vs exhaustive vs greedy on one column")
    _add_data(p)
    _add_column(p)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # Config entries go right after the command name, so typed flags,
            # parsed later, win; argparse converts and checks both alike.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args) + argv[at:])
        if args.threads is not None and args.threads < 1:
            raise DataError("--threads must be >= 1")
        _log_resolved(args)
        return args.func(args)
    except (DataError, OSError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
