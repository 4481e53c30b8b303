"""Minimize a binary quadratic form over non-trivial bit vectors.

Two backends: exact enumeration, scored in vectorized chunks, for small
instances and seeded simulated annealing for larger ones. Both refuse to
return the all-zeros or all-ones assignment, which never encodes an
effective split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .qubo import QuboProblem
from .rng import Rng, derive_seed

EXACT_THRESHOLD_DEFAULT = 22
# The largest M solve_exhaustive enumerates (2^29 - 1 assignments).
EXACT_MAX_CATEGORIES = 30
# Small enough that OpenBLAS runs ``bits @ h`` single-threaded for M <= 30; its
# threaded calls (from ~4096 rows) took up to 8 ms each on a 2-vCPU VM.
CHUNK_ROWS = 1 << 10
# Proposals each annealing chain tests per round. The rounds number about the
# most flips a chain accepts plus sweeps / WINDOW; on 40-category nodes, where
# 0.2% to 12% of proposals are accepted, 64 timed fastest of 8 to 256.
WINDOW = 64


@dataclass(frozen=True)
class SolveOutcome:
    q: tuple
    objective: float
    method: str
    evaluations: int


@dataclass(frozen=True)
class AnnealConfig:
    """Annealing seed, proposals per restart (None picks 200 * M) and restarts."""

    seed: int = 0
    sweeps: Optional[int] = None
    restarts: int = 8

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.sweeps is not None and self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")


@dataclass(frozen=True)
class SolverConfig:
    """Backend dispatch: exact up to the threshold, annealing above.

    The threshold runs from 1, which anneals every instance, to
    ``EXACT_MAX_CATEGORIES``, the largest instance the exact backend takes.
    """

    exact_threshold: int = EXACT_THRESHOLD_DEFAULT
    anneal: AnnealConfig = field(default_factory=AnnealConfig)

    def __post_init__(self):
        if not 1 <= self.exact_threshold <= EXACT_MAX_CATEGORIES:
            raise ValueError(
                f"exact_threshold must be between 1 and {EXACT_MAX_CATEGORIES}, got {self.exact_threshold}"
            )


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

    Rows within round-off of a chunk's best vectorized score are rescored
    exactly; the first strict minimum wins, so ties go to the lex-smallest vector.
    """
    m = p.m
    if m < 2:
        raise ValueError("need at least two categories")
    if m > EXACT_MAX_CATEGORIES:
        raise ValueError(f"instance too large for exhaustive enumeration (M={m})")
    h = p.h
    best_q, best_f = None, np.inf
    # Round-off allowance between a vectorized score and ``q @ h @ q``.
    margin = 1e-8 * max(1.0, float(np.abs(h).max()))
    for bits in assignment_chunks(m):
        scores = (bits @ h * bits).sum(axis=1)
        cut = min(float(scores.min()), best_f) + margin
        for i in (scores <= cut).nonzero()[0]:
            exact = float(bits[i] @ h @ bits[i])
            if exact < best_f:
                best_q, best_f = bits[i], exact
    return SolveOutcome(tuple(best_q.astype(int).tolist()), best_f, "exhaustive", (1 << (m - 1)) - 1)


def _flip_deltas(h: np.ndarray, g: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Objective change of flipping each bit of ``q``: ``(±2)·g[j] + h[j, j]``, where ``g = h @ q``."""
    return (1.0 - 2.0 * q) * 2.0 * g + np.diagonal(h)


def _repair_trivial(h: np.ndarray, g: np.ndarray, q: np.ndarray) -> None:
    _apply_flip(h, g, q, int(np.argmin(_flip_deltas(h, g, q))))


def _polish(h: np.ndarray, g: np.ndarray, q: np.ndarray) -> int:
    """Steepest single-bit descent to a non-trivial local minimum.

    Takes the first bit with the most negative delta among the flips that
    keep ``q`` non-trivial; returns the number of deltas evaluated.
    """
    m = len(q)
    evaluations = 0
    while True:
        deltas = _flip_deltas(h, g, q)
        ones = int(q.sum())
        if ones == 1:
            deltas[q == 1] = 0.0
        if ones == m - 1:
            deltas[q == 0] = 0.0
        evaluations += m
        j = int(np.argmin(deltas))
        if not deltas[j] < 0.0:
            return evaluations
        _apply_flip(h, g, q, j)


def _metropolis(h, g, q, flips, accepts, temps):
    """Advance every chain (row ``r`` of ``q`` and of ``g = h @ q[r]``) through its proposals.

    Sweep ``k`` proposes flipping bit ``flips[r, k]`` of chain ``r`` with
    delta ``(±2)·g[j] + h[j, j]`` and accepts it when ``delta <= 0`` or
    ``accepts[r, k] < exp(-delta / temps[k])``; an accepted flip adds
    ``±h[:, j]`` to ``g``. A chain's state changes only at an accepted flip,
    so each round tests the next ``WINDOW`` proposals of every chain against
    its current state and applies each chain's first accepted one: every
    chain does the same float operations, in the same order, as it would
    proposal by proposal. Updates ``q`` and ``g`` in place and returns each
    chain's best non-trivial state seen, starting from its initial state.
    """
    restarts, m = q.shape
    sweeps = len(temps)
    # Each chain's proposals are followed by WINDOW dummy ones, of a bit m
    # whose delta is +inf, so they are never accepted.
    pad = ((0, 0), (0, WINDOW))
    flips = np.pad(flips, pad, constant_values=m).reshape(-1)
    accepts = np.pad(accepts, pad).reshape(-1)
    # delta / -t is exactly -delta / t.
    neg_temps = np.tile(np.pad(-temps, (0, WINDOW), constant_values=-1.0), restarts)
    deltas = np.full((restarts, m + 1), np.inf)
    bit_deltas = deltas[:, :m]
    sign2 = (1.0 - 2.0 * q) * 2.0  # the ±2 factor of each bit's delta
    diag = np.diagonal(h)
    lanes = np.arange(restarts)
    window = lanes[:, None] * (sweeps + WINDOW) + np.arange(WINDOW)
    bit_of = lanes[:, None] * (m + 1)
    pos = np.zeros(restarts, dtype=np.int64)  # each chain's next proposal
    f = np.array([float(row @ h @ row) for row in q])
    ones = q.sum(axis=1, dtype=np.float64)
    seen, seen_f = sign2.copy(), f.copy()
    # exp overflows to inf where delta < 0; those flips are accepted anyway.
    with np.errstate(over="ignore"):
        while pos.min() < sweeps:
            idx = window + pos[:, None]
            j = flips.take(idx)
            np.multiply(sign2, g, out=bit_deltas)
            bit_deltas += diag
            delta = deltas.take(j + bit_of)
            ok = accepts.take(idx) < np.exp(delta / neg_temps.take(idx))
            ok |= delta <= 0.0
            first = ok.argmax(axis=1)
            hit = ok[lanes, first].nonzero()[0]
            pos += WINDOW
            if hit.size:
                step = first[hit]
                jj = j[hit, step]
                unit = 0.5 * sign2[hit, jj]  # +1 where the bit was 0
                g[hit] += unit[:, None] * h.T[jj]
                sign2[hit, jj] = -2.0 * unit
                ones[hit] += unit
                f[hit] += delta[hit, step]
                pos[hit] += step + 1 - WINDOW
                # A chain that did not move is trivial or no better than its
                # incumbent, so only moved chains pass this test.
                better = (ones > 0) & (ones < m) & (f < seen_f)
                np.copyto(seen, sign2, where=better[:, None])
                np.copyto(seen_f, f, where=better)
            np.minimum(pos, sweeps, out=pos)
    q[:] = sign2 < 0
    return (seen < 0).astype(np.int8)


def solve_anneal(p: QuboProblem, cfg: AnnealConfig) -> SolveOutcome:
    """Metropolis single-bit-flip annealing with restarts.

    The restarts run as one batch of chains, each on its own SplitMix64
    stream (``derive_seed(seed, 0xA11E, restart)``), and each taking exactly
    the steps it would take run alone, so the result equals running them in
    turn. Each chain cools geometrically from the largest coefficient
    magnitude to 1e-3 times that, a scale-free schedule, and tracks the best
    non-trivial state seen; its final state is repaired if trivial, by
    flipping its best neighbor bit, and polished by deterministic steepest
    descent. Restarts reduce by (objective, lexicographic vector), so the
    result does not depend on how they are scheduled.
    """
    m = p.m
    if m < 2:
        raise ValueError("need at least two categories")
    h = p.h
    sweeps = cfg.sweeps if cfg.sweeps is not None else 200 * m
    t0 = max(float(np.max(np.abs(h))), 1e-12)
    t1 = 1e-3 * t0
    temps = t0 * (t1 / t0) ** (np.arange(sweeps) / max(sweeps - 1, 1))

    q = np.empty((cfg.restarts, m), dtype=np.int8)
    flips = np.empty((cfg.restarts, sweeps), dtype=np.int64)
    accepts = np.empty((cfg.restarts, sweeps))
    for r in range(cfg.restarts):
        rng = Rng(derive_seed(cfg.seed, 0xA11E, r))
        q[r] = rng.uniform01(m) < 0.5
        if q[r].min() == q[r].max():
            q[r, int(rng.integers(m, 1)[0])] ^= 1
        flips[r] = rng.integers(m, sweeps)
        accepts[r] = rng.uniform01(sweeps)
    g = np.stack([h @ row.astype(np.float64) for row in q])
    seen = _metropolis(h, g, q, flips, accepts, temps)

    best_q: Optional[np.ndarray] = None
    best_f = np.inf
    evaluations = cfg.restarts * sweeps
    for r in range(cfg.restarts):
        if q[r].min() == q[r].max():
            _repair_trivial(h, g[r], q[r])
            evaluations += m
        evaluations += _polish(h, g[r], q[r])
        for cand in (q[r], seen[r]):
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
