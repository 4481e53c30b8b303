"""Iterative ratio search for the categorical split objective.

Dinkelbach's parametric scheme: minimizing the ratio n(q)/d(q) is solved as a
sequence of binary quadratic subproblems n(q) - lam_k * d(q), with lam
updated to the incumbent ratio. Trivial minimizers (empty child) reset lam to
the parent bound n * Var, and the loop stops only at a non-trivial
near-zero objective, so one-sided "splits" can never be reported as optima.
With an exact solver that stopping test, F(lam*) = 0, certifies lam* optimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .qubo import build_qubo, eval_fractional
from .solvers import SolverConfig, solve
from .stats import NodeStats, VMatrix, node_variance


def lambda_upper_bound(node: NodeStats) -> float:
    """Parent weighted variance; no split can cost more."""
    if node.n < 1:
        raise ValueError("empty node")
    return node.n * node_variance(node)


# The stopping tolerance, relative to lam * d(q) so it tracks the data scale,
# and the iteration cap.
REL_TOLERANCE = 1e-9
MAX_ITERATIONS = 50


@dataclass(frozen=True)
class DinkelbachConfig:
    """Initialization mode: "upper_bound" (start at the parent bound, so the
    lam sequence is monotone non-increasing) or "zero"."""

    mode: str = "upper_bound"

    def __post_init__(self):
        if self.mode not in ("upper_bound", "zero"):
            raise ValueError(f"unknown initialization mode {self.mode!r}")


@dataclass(frozen=True)
class TraceStep:
    index: int
    lambda_in: float
    q: tuple
    f_value: float
    ratio: float
    lambda_out: float


@dataclass
class IterationTrace:
    steps: list = field(default_factory=list)
    converged: bool = False

    def rows(self):
        """Rows keyed like the trace table: iteration, lambda_initial,
        binary_vector, score, lambda_final."""
        return [
            {
                "iteration": s.index,
                "lambda_initial": s.lambda_in,
                "binary_vector": "(" + ",".join(str(b) for b in s.q) + ")",
                "score": s.ratio,
                "lambda_final": s.lambda_out,
            }
            for s in self.steps
        ]


def dinkelbach_split(
    v: VMatrix,
    aggs,
    node: NodeStats,
    solver_cfg: Optional[SolverConfig] = None,
    dk_cfg: Optional[DinkelbachConfig] = None,
):
    """Run the ratio iteration on one categorical node.

    Returns (q, lam_star, trace) where lam_star is the cost of the returned
    assignment. The solver never yields a trivial vector, so when the true
    minimizer of the subproblem is trivial (solver optimum still positive,
    which happens below the optimal ratio) the step is recorded against the
    all-zeros vector and lam resets to the parent bound. Each step is solved
    by ``solve``, which dispatches on ``solver_cfg``.

    On a zero-variance node there is nothing to split; the best-so-far
    assignment is returned flagged non-converged with lam_star = 0.
    """
    solver_cfg = solver_cfg or SolverConfig()
    dk_cfg = dk_cfg or DinkelbachConfig()
    m = v.m
    if m < 2:
        raise ValueError("need at least two categories")
    if node.n < 2:
        raise ValueError("need at least two observations")

    trace = IterationTrace()
    upper = lambda_upper_bound(node)
    if upper == 0.0:
        q0 = tuple([1] + [0] * (m - 1))
        return q0, 0.0, trace

    best_q: Optional[tuple] = None
    best_ratio = np.inf
    lam = 0.0 if dk_cfg.mode == "zero" else upper

    for k in range(1, MAX_ITERATIONS + 1):
        problem = build_qubo(v, aggs, node, lam)
        outcome = solve(problem, solver_cfg)
        parts = eval_fractional(v, aggs, node, outcome.q)
        f_val = parts.numerator - lam * parts.denominator
        tol = REL_TOLERANCE * max(1.0, lam * parts.denominator)

        if f_val > tol:
            # The solver's best non-trivial value is still positive, so the
            # unconstrained minimizer is the trivial assignment: reset lam.
            trace.steps.append(TraceStep(k, lam, tuple([0] * m), 0.0, upper, upper))
            if abs(upper - lam) <= REL_TOLERANCE * max(1.0, lam):
                break
            lam = upper
            continue

        ratio = parts.ratio()
        trace.steps.append(TraceStep(k, lam, outcome.q, f_val, ratio, ratio))
        if ratio < best_ratio:
            best_ratio = ratio
            best_q = outcome.q
        if abs(f_val) <= tol or abs(ratio - lam) <= REL_TOLERANCE * max(1.0, lam):
            trace.converged = True
            return outcome.q, ratio, trace
        lam = ratio

    if best_q is None:
        best_q = tuple([1] + [0] * (m - 1))
        best_ratio = float(
            eval_fractional(v, aggs, node, best_q).ratio()
        )
    return best_q, float(best_ratio), trace
