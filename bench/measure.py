"""How one run is measured: set-up repetitions, timed passes, checks, and
the metrics they give. ``measure`` serves ``--trace 0`` and
``measure_traced`` serves ``--trace 1``."""

from __future__ import annotations

import os
import resource
import statistics
import time

import checks
from tracing import Tracer, layer_metrics
from workloads import MIN_PASSES, SETUP_REPS, m_sweep


def run_pass(run, workload, digests: dict) -> dict:
    """One pass: every op once, back to back. Returns op kind -> Call and
    appends the digests of each op's outputs to ``digests[kind]``."""
    calls = {}
    for op in workload.ops(run):
        calls[op.kind] = run.cli(op.argv)
        digests.setdefault(op.kind, []).append(tuple(_digest(p) for p in op.outputs))
    return calls


def op_times(passes, base: str) -> list:
    """Seconds of every op whose kind is ``base`` or ``base-<variant>``."""
    return [call.seconds for calls in passes for kind, call in calls.items() if kind.split("-")[0] == base]


def run_setup(run, workload, reps: int) -> list:
    """Set up ``reps`` times; the bytes written must repeat. Returns seconds."""
    times, digests = [], []
    for _ in range(reps):
        start = time.perf_counter()
        outputs = workload.setup(run)
        times.append(time.perf_counter() - start)
        digests.append(tuple(_digest(p) for p in outputs))
    run.check("set-up inputs repeat byte for byte", _repeats, digests)
    return times


def _digest(path):
    return checks.digest(path) if os.path.exists(path) else None


def _repeats(seen) -> bool:
    """Every repetition wrote the same bytes, and wrote every file."""
    return len(set(seen)) == 1 and None not in seen[0]


def check_repeats(run, digests: dict) -> None:
    for kind, seen in digests.items():
        run.check(f"{kind} outputs repeat byte for byte", _repeats, seen)


def e2e_metrics(workload, run, setup_times, passes) -> dict:
    """End-to-end metrics: name -> (value, unit, wall-time samples behind it).

    Every time is the median of its wall-time samples in this run, scaled to
    the reference speed (see REF_PROBE_S).
    """
    speed = run.speed()

    def median(samples):
        return statistics.median(samples) * speed

    train = op_times(passes, "train") or run.samples["train"]
    trace = []
    for calls in passes:
        singles = [c.seconds for k, c in calls.items() if k.startswith("trace")]
        trace += [a + b for a, b in zip(singles[::2], singles[1::2])]
    protocol, predict, evals = (op_times(passes, base) for base in ("protocol", "predict", "eval"))
    run.extras["test_mse"] = (float(checks.protocol_rows(run.path("protocol.csv"))["validation_best"]["test_mse"]),
                              "sq_amount")
    run.extras["speed_probe_s"] = (statistics.median(run.probes), "s")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (median(setup_times), "s", setup_times),
        "train_s": (median(train), "s", train),
        "protocol_s": (median(protocol), "s", protocol),
        "trace_s": (median(trace), "s", trace),
        "predict_rows_per_s": (workload.predict_rows / median(predict), "1/s", predict),
        "eval_rows_per_s": (workload.eval_rows / median(evals), "1/s", evals),
        "peak_rss_mb": (rss_mb, "MB", None),
    }


def measure(workload, run, seconds: float) -> dict:
    """Set up, run timed passes for about ``seconds``, check, report."""
    setup_times = run_setup(run, workload, SETUP_REPS)
    passes, digests, pass_times = [], {}, []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - started + statistics.median(pass_times) <= seconds
    ):
        begun = time.perf_counter()
        passes.append(run_pass(run, workload, digests))
        pass_times.append(time.perf_counter() - begun)
    check_repeats(run, digests)
    workload.check(run, passes)
    return e2e_metrics(workload, run, setup_times, passes)


def measure_traced(workload, run, spans_path) -> dict:
    """Traced run: set-up and one pass under the wrappers, one pass without
    them for the overhead, then the M sweep; layer metrics from the spans."""
    tracer = Tracer()
    with tracer:
        run_setup(run, workload, 1)
    digests = {}
    start = time.perf_counter()
    passes = [run_pass(run, workload, digests)]
    untraced = time.perf_counter() - start
    with tracer:
        start = time.perf_counter()
        passes.append(run_pass(run, workload, digests))
        traced = time.perf_counter() - start
        sweep = m_sweep(run.seed)
    tracer.write(spans_path)
    check_repeats(run, digests)
    workload.check(run, passes)
    metrics = layer_metrics(tracer)
    metrics.update(sweep)
    metrics["speed.probe_s"] = (statistics.median(run.probes), "s")
    metrics["tracing.untraced_pass_s"] = (untraced, "s")
    metrics["tracing.traced_pass_s"] = (traced, "s")
    metrics["tracing.overhead_s"] = (traced - untraced, "s")
    metrics["tracing.overhead_ratio"] = (traced / untraced - 1.0, "ratio")
    return {name: (value, unit, None) for name, (value, unit) in metrics.items()}
