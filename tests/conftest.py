import numpy as np
import pytest
from hypothesis import settings

from qubotree import ColumnSchema, Dataset, GrowConfig, generate_datagen, generate_df
from qubotree.splitting import SplitRule
from qubotree.tree import RegressionTree, TreeNode

# Property tests draw the same examples on every run, with a bounded count
# and no per-example deadline, so tier-1 stays deterministic and its wall
# time stays bounded.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=200)
settings.load_profile("tier1")

# Hand-checkable node used across modules: four categories holding the
# responses {0,2}, {10}, {12,14}, {1}. Parent variance 1149/36, best split
# groups the first and last categories (cost 10).
WORKED_CODES = np.array([0, 0, 1, 2, 2, 3])
WORKED_Y = np.array([0.0, 2.0, 10.0, 12.0, 14.0, 1.0])
WORKED_COLUMN = ColumnSchema("Color", "categorical", ("C1", "C2", "C3", "C4"))


@pytest.fixture
def worked_node():
    return WORKED_CODES.copy(), WORKED_Y.copy(), WORKED_COLUMN


@pytest.fixture
def worked_dataset():
    return Dataset(
        (WORKED_COLUMN,),
        {"Color": WORKED_CODES.copy()},
        WORKED_Y.copy(),
        "y",
    )


@pytest.fixture(scope="session")
def df_20k():
    return generate_df(20000, 123)


@pytest.fixture(scope="session")
def datagen_10k():
    return generate_datagen(10000, 123)


def chain_tree(inner: int) -> RegressionTree:
    """A tree of ``inner`` inner nodes in one chain: node 2k splits into leaf 2k+1 and node 2k+2."""
    node = TreeNode(2 * inner, 1, 0.0, 0.0)
    for k in reversed(range(inner)):
        rule = SplitRule("x", "threshold", threshold=float(k))
        node = TreeNode(2 * k, inner - k + 1, 1.0, 1.0, rule, TreeNode(2 * k + 1, 1, 2.0, 0.0), node)
    return RegressionTree.from_root(node, (ColumnSchema("x", "numeric"),), GrowConfig.max_tree(), inner + 1)


def random_category_instance(rng, max_m=12, max_n=200):
    """Random categorical node: per-category means plus noise."""
    m = int(rng.integers(2, max_m + 1))
    counts = rng.integers(1, 2 * max(2, max_n // m), size=m)
    while counts.sum() > max_n:
        counts = np.maximum(1, counts // 2)
    means = rng.normal(0.0, 50.0, size=m)
    codes = np.repeat(np.arange(m), counts)
    y = means[codes] + rng.normal(0.0, 10.0, size=len(codes))
    return codes, y, m


def naive_v_entry(y_a, y_b):
    """Half the pairwise squared-difference sum between two groups."""
    diffs = y_a[:, None] - y_b[None, :]
    return 0.5 * float(np.sum(diffs * diffs))


def naive_v_matrix(codes, y, m):
    v = np.zeros((m, m))
    groups = [y[codes == a] for a in range(m)]
    for a in range(m):
        for b in range(m):
            v[a, b] = naive_v_entry(groups[a], groups[b])
    return v


def direct_split_cost(y_left, y_right):
    """Child SSE sum computed straight from the definition."""
    out = 0.0
    for part in (y_left, y_right):
        if len(part):
            out += float(np.sum((part - part.mean()) ** 2))
    return out


def brute_force_partitions_loop(codes, y, m):
    """Reference for ``brute_force_partitions``: one partition at a time."""
    results = {}
    for bits in range(1, (1 << m) - 1):
        left = frozenset(a for a in range(m) if bits >> a & 1)
        mask = np.isin(codes, list(left))
        results[left] = direct_split_cost(y[mask], y[~mask])
    return results


def _centred_sse(rows, y):
    """Per row of the (K, N) boolean ``rows``: SSE of the selected ``y`` about their mean."""
    count = rows.sum(axis=1)
    mean = (rows @ y) / np.maximum(count, 1)
    dev = np.where(rows, y[None, :] - mean[:, None], 0.0)
    return np.einsum("ij,ij->i", dev, dev)


def brute_force_partitions(codes, y, m):
    """Cost of every non-trivial assignment, keyed by the left-category set.

    All 2^m - 2 assignments at once: row k of the bit matrix is the binary
    expansion of k + 1 (bit a = category a), and each child's SSE is taken
    about its own mean straight from the raw rows.
    """
    bits = (np.arange(1, (1 << m) - 1)[:, None] >> np.arange(m)) & 1
    left_rows = bits.astype(bool)[:, codes]
    costs = _centred_sse(left_rows, y) + _centred_sse(~left_rows, y)
    return {frozenset(np.flatnonzero(row).tolist()): float(c) for row, c in zip(bits, costs)}


def brute_force_best(codes, y, m):
    results = brute_force_partitions(codes, y, m)
    best_set = min(results, key=lambda k: (results[k], tuple(sorted(k))))
    return results[best_set], best_set, results
