"""Minimize a binary quadratic form over non-trivial bit vectors.

Two backends: exact enumeration, scored in vectorized chunks, for small
instances and seeded simulated annealing for larger ones. Both refuse to
return the all-zeros or all-ones assignment, which never encodes an effective
split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .qubo import QuboProblem
from .rng import Rng, derive_seed

EXACT_THRESHOLD_DEFAULT = 22
# Small enough that OpenBLAS runs ``bits @ h`` single-threaded for M <= 30; its
# threaded calls (from ~4096 rows) took up to 8 ms each on a 2-vCPU VM.
CHUNK_ROWS = 1 << 10


@dataclass(frozen=True)
class SolveOutcome:
    q: tuple
    objective: float
    method: str
    evaluations: int


@dataclass(frozen=True)
class AnnealConfig:
    """Annealing schedule knobs.

    ``sweeps`` counts single-bit proposal steps per restart (None picks
    200 * M). ``t_init``/``t_final`` default to the largest coefficient
    magnitude and 1e-3 times that, a scale-free geometric schedule.
    """

    seed: int = 0
    sweeps: Optional[int] = None
    restarts: int = 8
    t_init: Optional[float] = None
    t_final: Optional[float] = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.sweeps is not None and self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if self.t_init is not None and self.t_final is not None:
            if not (self.t_init > self.t_final > 0):
                raise ValueError("need t_init > t_final > 0")


@dataclass(frozen=True)
class SolverConfig:
    """Backend dispatch: exact below the threshold, annealing above."""

    exact_threshold: int = EXACT_THRESHOLD_DEFAULT
    anneal: AnnealConfig = field(default_factory=AnnealConfig)


def _flip_delta(h: np.ndarray, g: np.ndarray, q: np.ndarray, j: int) -> float:
    sign = 1.0 - 2.0 * q[j]
    return sign * 2.0 * g[j] + h[j, j]


def _apply_flip(h: np.ndarray, g: np.ndarray, q: np.ndarray, j: int) -> None:
    if q[j] == 0:
        g += h[:, j]
        q[j] = 1
    else:
        g -= h[:, j]
        q[j] = 0


def assignment_chunks(m: int):
    """The 2^(M-1) - 1 non-trivial assignments with the first bit set, as float rows.

    Rows come in lexicographic order, in chunks of at most ``CHUNK_ROWS``
    rows, so the first minimum found is the lexicographic tie-break.
    """
    shifts = np.arange(m - 1, -1, -1)
    stop = (1 << m) - 1  # the all-ones row, left out
    for start in range(1 << (m - 1), stop, CHUNK_ROWS):
        patterns = np.arange(start, min(start + CHUNK_ROWS, stop))
        yield ((patterns[:, None] >> shifts) & 1).astype(np.float64)


def solve_exhaustive(p: QuboProblem) -> SolveOutcome:
    """Global minimum over ``assignment_chunks``, relying on a split's flip symmetry.

    Chunks are scored vectorized; rows within a round-off margin of the best
    score are recomputed exactly, and ties go to the lex-smallest vector.
    """
    m = p.m
    if m < 2:
        raise ValueError("need at least two categories")
    if m > 30:
        raise ValueError(f"instance too large for exhaustive enumeration (M={m})")
    h = p.h
    best_q = None
    best_f = np.inf
    margin = 1e-8 * max(1.0, float(np.abs(h).max()))
    for bits in assignment_chunks(m):
        scores = np.einsum("ij,ij->i", bits @ h, bits)
        cut = min(float(scores.min()), best_f) + margin
        for i in (scores <= cut).nonzero()[0]:
            q = bits[i].astype(np.int8)
            exact = float(q @ h @ q)
            if exact < best_f:  # rows arrive in lex order: first wins ties
                best_f = exact
                best_q = q
    return SolveOutcome(tuple(best_q.tolist()), best_f, "exhaustive", (1 << (m - 1)) - 1)


def _repair_trivial(h: np.ndarray, g: np.ndarray, q: np.ndarray) -> None:
    deltas = [_flip_delta(h, g, q, j) for j in range(len(q))]
    _apply_flip(h, g, q, int(np.argmin(deltas)))


def _polish(h: np.ndarray, g: np.ndarray, q: np.ndarray, f: float):
    """Steepest single-bit descent to a non-trivial local minimum."""
    m = len(q)
    evaluations = 0
    while True:
        best_j, best_delta = -1, 0.0
        for j in range(m):
            target = q.copy()
            target[j] ^= 1
            if target.min() == target.max():
                continue
            delta = _flip_delta(h, g, q, j)
            if delta < best_delta:
                best_j, best_delta = j, delta
        evaluations += m
        if best_j < 0:
            return f, evaluations
        f += best_delta
        _apply_flip(h, g, q, best_j)


def solve_anneal(p: QuboProblem, cfg: AnnealConfig) -> SolveOutcome:
    """Metropolis single-bit-flip annealing with restarts.

    Each restart cools geometrically, tracks the best non-trivial state seen,
    repairs a trivial incumbent by flipping its best neighbor bit, and ends
    with a deterministic steepest-descent polish. Restarts reduce by
    (objective, lexicographic vector), so the result does not depend on how
    they are scheduled.
    """
    m = p.m
    if m < 2:
        raise ValueError("need at least two categories")
    h = p.h
    sweeps = cfg.sweeps if cfg.sweeps is not None else 200 * m
    scale = float(np.max(np.abs(h)))
    t0 = cfg.t_init if cfg.t_init is not None else max(scale, 1e-12)
    t1 = cfg.t_final if cfg.t_final is not None else 1e-3 * t0
    temps = t0 * (t1 / t0) ** (np.arange(sweeps) / max(sweeps - 1, 1))

    best_q: Optional[np.ndarray] = None
    best_f = np.inf
    evaluations = 0

    for restart in range(cfg.restarts):
        rng = Rng(derive_seed(cfg.seed, 0xA11E, restart))
        q = (rng.uniform01(m) < 0.5).astype(np.int8)
        if q.min() == q.max():
            q[int(rng.integers(m, 1)[0])] ^= 1
        g = h @ q.astype(np.float64)
        f = float(q @ h @ q)

        seen_q = q.copy() if q.min() != q.max() else None
        seen_f = f if seen_q is not None else np.inf

        flips = rng.integers(m, sweeps)
        accepts = rng.uniform01(sweeps)
        for k in range(sweeps):
            j = int(flips[k])
            delta = _flip_delta(h, g, q, j)
            if delta <= 0.0 or accepts[k] < np.exp(-delta / temps[k]):
                f += delta
                _apply_flip(h, g, q, j)
                if q.min() != q.max() and f < seen_f:
                    seen_f = f
                    seen_q = q.copy()
        evaluations += sweeps

        if q.min() == q.max():
            _repair_trivial(h, g, q)
            evaluations += m
            f = float(q @ h @ q)
        f, polish_evals = _polish(h, g, q, f)
        evaluations += polish_evals

        for cand in (q, seen_q):
            if cand is None:
                continue
            exact = float(cand @ h @ cand)
            if exact < best_f or (exact == best_f and (best_q is None or tuple(cand) < tuple(best_q))):
                best_f = exact
                best_q = cand.copy()

    assert best_q is not None
    return SolveOutcome(tuple(int(b) for b in best_q), best_f, "annealing", evaluations)


def solve(p: QuboProblem, cfg: Optional[SolverConfig] = None) -> SolveOutcome:
    cfg = cfg or SolverConfig()
    if p.m <= cfg.exact_threshold:
        return solve_exhaustive(p)
    return solve_anneal(p, cfg.anneal)
