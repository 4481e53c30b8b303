"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload df-pipeline --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` of that checkout. With ``--trace 0`` the run prints the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it installs span wrappers and
prints the per-layer metrics instead. The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable summary and the environment
stamp. Scratch files go to ``.bench_work/`` and are removed at exit, except
the span file of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "qubotree" / "__init__.py").is_file():
        _fail(f"no qubotree sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import qubotree

    if Path(qubotree.__file__).resolve().parent != (SRC / "qubotree").resolve():
        _fail(f"imported qubotree from {qubotree.__file__}, not from {SRC}")


def env_stamp(seed: int) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "qubotree").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": sources.hexdigest()[:16],
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from measure import measure, measure_traced
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    stamp = env_stamp(args.seed)

    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(str(workdir), args.seed)
    try:
        if args.trace:
            spans = work_root / "spans" / f"{args.workload}-seed{args.seed}.tsv"
            spans.parent.mkdir(exist_ok=True)
            metrics = measure_traced(workload, run, spans)
        else:
            metrics = measure(workload, run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# env " + json.dumps(stamp, sort_keys=True))
    for name, (value, unit, samples) in metrics.items():
        shown = f" (median of {len(samples)}; raw wall s: {' '.join(f'{v:.6g}' for v in samples)})" if samples else ""
        print(f"# {args.workload} {name} = {value!r} {unit}{shown}")
    for name, (value, unit) in run.extras.items():
        print(f"# {args.workload} {name} = {value!r} {unit}".rstrip() + " (not gated)")
    ratio = run.failed / run.attempted
    print(f"# {args.workload} failed_ratio = {ratio!r} ratio ({run.failed} of {run.attempted} operations)")
    for failure in run.failures:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
