"""Command-line surface: generate, train, predict, eval, protocol, trace, compare.

Every command is deterministic given its flags and seed; wall-clock timings
go to stderr so output files are byte-identical across reruns. A config file
of ``key = value`` lines supplies defaults, CLI flags override it, and the
fully resolved configuration is logged to stderr on every run.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from typing import Optional

from .datasets import (
    DataError,
    Dataset,
    SplitSpecification,
    infer_schema,
    load_csv,
    parse_schema,
    write_csv,
)
from .dinkelbach import DinkelbachConfig, dinkelbach_split
from .generators import generate_datagen, generate_df
from .pruning import evaluate_protocol
from .solvers import AnnealConfig, SolverConfig
from .splitting import (
    EXHAUSTIVE_MAX_CATEGORIES,
    best_categorical_split_exhaustive,
    best_categorical_split_greedy,
    best_categorical_split_qubo,
)
from .stats import aggregate_categories, build_v_matrix
from .tree import GrowConfig, describe, evaluate_mse, grow, load_model, predict_many, save_model


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _resolve_threads(args) -> int:
    if args.threads is not None:
        n = args.threads
    else:
        n = int(os.environ.get("QUBOTREE_THREADS", "1"))
    if n < 1:
        raise DataError("--threads must be >= 1")
    return n


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _apply_config(parser: argparse.ArgumentParser, config: dict) -> None:
    known = {action.dest: action for action in parser._actions}
    defaults = {}
    for key, raw in config.items():
        if key not in known or key in ("help", "config"):
            raise DataError(f"unknown config key {key!r}")
        action = known[key]
        if action.type is not None:
            defaults[key] = action.type(raw)
        elif isinstance(action.default, bool) or isinstance(action.const, bool):
            defaults[key] = raw.lower() in ("1", "true", "yes")
        else:
            defaults[key] = raw
    parser.set_defaults(**defaults)


def _log_resolved(args) -> None:
    skip = {"func", "config"}
    pairs = sorted((k, v) for k, v in vars(args).items() if k not in skip)
    _log("config: " + " ".join(f"{k}={v}" for k, v in pairs))


def _schema_from_args(args, data_path: str):
    if args.schema == "auto":
        return infer_schema(data_path, args.response)
    return parse_schema(args.schema)


def _grow_config(args) -> GrowConfig:
    anneal = AnnealConfig(seed=args.seed)
    return GrowConfig(
        max_depth=args.max_depth,
        min_split=args.min_split,
        min_bucket=args.min_bucket,
        cp=args.cp,
        routing=args.routing,
        categorical_method=args.method,
        solver=SolverConfig(exact_threshold=args.exact_threshold, anneal=anneal),
        dinkelbach=DinkelbachConfig(mode=args.init),
    )


def _write_rows(path: Optional[str], header, rows) -> None:
    def fmt(v):
        if isinstance(v, float):
            return repr(v)
        return "" if v is None else str(v)

    if path:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([fmt(v) for v in row])
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(fmt(v) for v in row))


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
    schema = _schema_from_args(args, args.data)
    data = load_csv(args.data, schema, args.response)
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
    _write_rows(args.out, ["prediction"], [[float(p)] for p in preds])
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
    schema = _schema_from_args(args, args.data)
    data = load_csv(args.data, schema, args.response)
    fractions = tuple(float(f) for f in args.fractions.split(","))
    spec = SplitSpecification(fractions, args.seed)
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


def _column_stats(data: Dataset, name: str):
    column = data.schema_for(name)
    if column.kind != "categorical":
        raise DataError(f"column {name!r} is not categorical")
    aggs, node = aggregate_categories(data.column(name), data.response, len(column.categories))
    if len(aggs) < 2:
        raise DataError(f"{name}: need at least two observed categories")
    return column, aggs, node


def cmd_trace(args) -> int:
    solver_cfg = SolverConfig(exact_threshold=args.exact_threshold, anneal=AnnealConfig(seed=args.seed))
    schema = _schema_from_args(args, args.data)
    data = load_csv(args.data, schema, args.response)
    column, aggs, node = _column_stats(data, args.column)
    v = build_v_matrix(aggs)
    _, lam, trace = dinkelbach_split(v, aggs, node, solver_cfg, DinkelbachConfig(mode=args.init))
    rows = trace.rows()
    if args.format == "json":
        doc = {"column": args.column, "converged": trace.converged, "lambda_star": lam, "rows": rows}
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text, end="")
    else:
        header = ["iteration", "lambda_initial", "binary_vector", "score", "lambda_final"]
        _write_rows(args.out, header, [[r[k] for k in header] for r in rows])
    labels = ",".join(column.categories[i] for i in aggs.index)
    print(f"column={args.column} categories=({labels}) converged={trace.converged} lambda_star={lam!r}")
    return 0


def cmd_compare(args) -> int:
    solver_cfg = SolverConfig(exact_threshold=args.exact_threshold, anneal=AnnealConfig(seed=args.seed))
    schema = _schema_from_args(args, args.data)
    data = load_csv(args.data, schema, args.response)
    column, aggs, node = _column_stats(data, args.column)
    m = len(aggs)
    y = data.response
    codes = data.column(args.column)

    rows = []
    started = time.monotonic()
    cand = best_categorical_split_qubo(y, codes, column, solver_cfg, DinkelbachConfig(mode=args.init))
    _log(f"qubo: {time.monotonic() - started:.4f}s")
    iters = len(cand.trace.steps) if cand.trace else 0
    rows.append(["qubo", "{" + ",".join(cand.rule.left_categories) + "}", cand.cost, iters])

    limit = min(args.exact_threshold, EXHAUSTIVE_MAX_CATEGORIES)
    if m <= limit:
        started = time.monotonic()
        cand = best_categorical_split_exhaustive(y, codes, column)
        _log(f"exhaustive: {time.monotonic() - started:.4f}s")
        rows.append(["exhaustive", "{" + ",".join(cand.rule.left_categories) + "}", cand.cost, 1])
    else:
        _log(f"exhaustive: skipped ({m} categories exceeds limit {limit})")

    started = time.monotonic()
    cand = best_categorical_split_greedy(y, codes, column)
    _log(f"greedy: {time.monotonic() - started:.4f}s")
    rows.append(["greedy", "{" + ",".join(cand.rule.left_categories) + "}", cand.cost, 1])

    _write_rows(args.out, ["method", "left_partition", "cost", "iterations"], rows)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value file of flag defaults")
    parser.add_argument("--threads", type=int, default=None,
                        help="reserved: execution is sequential, so results are identical for any value")
    parser.add_argument("--seed", type=int, default=0, help="global seed")


def _add_data(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="input CSV path")
    parser.add_argument("--schema", default="auto",
                        help='"name:kind,..." with kind numeric|categorical|binary, or "auto"')
    parser.add_argument("--response", default="ClaimAmount", help="response column name")


def _add_grow(parser: argparse.ArgumentParser, max_tree: bool = False) -> None:
    preset = GrowConfig.max_tree() if max_tree else GrowConfig()
    parser.add_argument("--max-depth", type=int, default=preset.max_depth)
    parser.add_argument("--min-split", type=int, default=preset.min_split)
    parser.add_argument("--min-bucket", type=int, default=preset.min_bucket)
    parser.add_argument("--cp", type=float, default=preset.cp)
    parser.add_argument("--routing", choices=("complement", "majority"), default=preset.routing)
    parser.add_argument("--method", choices=("qubo", "greedy", "exhaustive"), default="qubo",
                        help="categorical split searcher")
    parser.add_argument("--exact-threshold", type=int, default=preset.solver.exact_threshold)
    parser.add_argument("--init", choices=("upper_bound", "zero"), default="upper_bound",
                        help="ratio-iteration initialization")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qubotree")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic claims dataset")
    p.add_argument("--kind", choices=("df", "datagen"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit a regression tree and save the model")
    _add_data(p)
    _add_grow(p)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--describe", action="store_true", help="print the tree structure")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict a CSV with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="predictions CSV (stdout otherwise)")
    p.add_argument("--routing", choices=("complement", "majority"), default=None)
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="MSE of a saved model on a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--response", default=None, help="response column (default: model's)")
    p.add_argument("--baseline", default=None, help="baseline model for relative MSE")
    p.add_argument("--routing", choices=("complement", "majority"), default=None)
    p.add_argument("--out", default=None, help="JSON report path")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("protocol", help="partition, grow, prune, select, and score")
    _add_data(p)
    _add_grow(p, max_tree=True)
    p.add_argument("--fractions", default="0.5,0.25,0.25")
    p.add_argument("--out", default=None, help="report CSV (stdout otherwise)")
    _add_common(p)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("trace", help="ratio-iteration convergence table for one column")
    _add_data(p)
    p.add_argument("--column", required=True)
    p.add_argument("--init", choices=("upper_bound", "zero"), default="upper_bound")
    p.add_argument("--exact-threshold", type=int, default=SolverConfig().exact_threshold)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("compare", help="qubo vs exhaustive vs greedy on one column")
    _add_data(p)
    p.add_argument("--column", required=True)
    p.add_argument("--init", choices=("upper_bound", "zero"), default="upper_bound")
    p.add_argument("--exact-threshold", type=int, default=SolverConfig().exact_threshold)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # Config-file defaults must be installed on the subparser before parsing.
    config_path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif token.startswith("--config="):
            config_path = token.split("=", 1)[1]
    if config_path is not None:
        try:
            command = next(a for a in argv if not a.startswith("-"))
        except StopIteration:
            parser.error("missing command")
        sub_actions = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        subparser = sub_actions.choices.get(command)
        if subparser is None:
            parser.error(f"unknown command {command!r}")
        try:
            _apply_config(subparser, _load_config_file(config_path))
        except (DataError, OSError, ValueError) as exc:
            _log(f"error: {exc}")
            return 2

    args = parser.parse_args(argv)
    try:
        _resolve_threads(args)
        _log_resolved(args)
        return args.func(args)
    except (DataError, ValueError, OSError, KeyError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
