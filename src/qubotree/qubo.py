"""Binary quadratic form of the categorical split objective.

A split assigns each category to the left child (bit 1) or the right child
(bit 0). For a fixed ratio parameter ``lam`` the split objective
``n(q) - lam * d(q)`` is a quadratic form q^T H q over those bits, where
``n(q) / d(q)`` equals the weighted child-variance sum of the split and
``d(q)`` is the product of the child sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import CategoryStats, NodeStats, VMatrix, node_variance


def as_bits(q) -> np.ndarray:
    bits = np.asarray(q, dtype=np.float64)
    if bits.ndim != 1:
        raise ValueError("assignment must be a flat bit vector")
    return bits


@dataclass(frozen=True, eq=False)
class QuboProblem:
    """Symmetric matrix H with linear terms folded onto the diagonal."""

    m: int
    h: np.ndarray
    lam: float

    def __post_init__(self):
        self.h.flags.writeable = False

    def evaluate(self, q) -> float:
        bits = as_bits(q)
        return float(bits @ self.h @ bits)


@dataclass(frozen=True)
class FractionalParts:
    """Numerator and denominator of the split cost."""

    numerator: float
    denominator: float

    def ratio(self) -> float:
        if self.denominator == 0:
            raise ZeroDivisionError("trivial assignment has no cost ratio")
        return self.numerator / self.denominator


def build_qubo(v: VMatrix, aggs: CategoryStats, node: NodeStats, lam: float) -> QuboProblem:
    """Assemble H so that q^T H q == n(q) - lam * d(q) for every bit vector.

    Quadratic coefficients couple category pairs through the pairwise matrix
    and its row sums; the linear part carries the parent scale and is folded
    onto the diagonal since bits are idempotent. Coefficient magnitudes reach
    n^3 * Var, which keeps double precision comfortable up to ~1e7 rows at
    typical claim-amount scales.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    m = v.m
    if m < 2:
        raise ValueError("need at least two categories")
    counts = aggs.n
    n_total = float(node.n)
    row = v.row_sums()
    quad = (
        n_total * v.values
        - np.outer(row, counts)
        - np.outer(counts, row)
        + lam * np.outer(counts, counts)
    )
    linear = (n_total * n_total * node_variance(node) - n_total * lam) * counts
    h = quad.copy()
    h[np.diag_indices(m)] += linear
    return QuboProblem(m, h, float(lam))


def eval_fractional(v: VMatrix, aggs: CategoryStats, node: NodeStats, q) -> FractionalParts:
    """Evaluate n(q) and d(q) from the pairwise matrix.

    For a non-trivial assignment n(q)/d(q) equals the weighted child-variance
    sum; both vanish on the trivial all-zeros/all-ones assignments.
    """
    bits = as_bits(q)
    if len(bits) != v.m:
        raise ValueError("assignment length does not match category count")
    counts = aggs.n
    n_total = float(node.n)
    n_left = float(bits @ counts)
    n_right = n_total - n_left
    row = v.row_sums()
    numerator = (
        n_total * float(bits @ v.values @ bits)
        - 2.0 * float(bits @ row) * n_left
        + n_total * n_total * node_variance(node) * n_left
    )
    # Cancellation on near-constant responses can leave a tiny negative.
    numerator = max(0.0, numerator)
    return FractionalParts(numerator, n_left * n_right)

