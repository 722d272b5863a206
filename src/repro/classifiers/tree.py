"""CART trees on flat node arrays, grown by one vectorized split kernel.

Shared by :mod:`repro.classifiers.forest` and
:mod:`repro.classifiers.boosting`: the classification trees (gini/entropy
over class counts) and the gradient-boosting regression trees (``"mse"``
over residual sums) are grown by the same :func:`grow_tree`, searched by
the same :func:`best_split` and stored as the same :class:`FlatTree`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.classifiers.base import BaseClassifier, register_classifier
from repro.exceptions import ValidationError
from repro.timeseries.batch import DEFAULT_BLOCK_BYTES

#: A split must improve the criterion by more than this to be taken.
_MIN_GAIN = 1e-12
#: Upper bound on the ``(n, features, stats)``-sized arrays alive at once in
#: best_split; feature blocks are sized so they all fit in DEFAULT_BLOCK_BYTES.
_KERNEL_TEMPORARIES = 10


class FlatTree(NamedTuple):
    """A tree (or a stack of trees) as parallel node arrays.

    Node ``i`` sends a row left when ``x[feature[i]] <= threshold[i]``;
    leaves have ``feature == left == right == -1``.  ``value`` holds one
    statistic row per node: class probabilities for classification trees,
    the mean residual for regression trees.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _impurity(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity per row of class counts; supports gini and entropy."""
    totals = counts.sum(axis=-1, keepdims=True)
    p = counts / np.maximum(totals, 1e-12)
    if criterion == "gini":
        return 1.0 - (p**2).sum(axis=-1)
    return -(p * np.log2(p + 1e-12)).sum(axis=-1)


def best_split(
    X: np.ndarray,
    target: np.ndarray,
    criterion: str,
    features: np.ndarray,
    min_leaf: int,
    n_classes: int = 0,
    rng: np.random.Generator | None = None,
    extra_random: bool = False,
) -> tuple[int, float] | None:
    """Best ``(feature, threshold)`` over ``features``, or None.

    ``target`` holds class labels (gini/entropy) or residuals (mse).  One
    stable argsort ranks every column of the node; prefix statistics along
    it give the left child's class counts or residual sum for every
    (split position, feature) pair at once.  The exhaustive search scores
    every position between distinct values; ``extra_random`` (Extra-Trees)
    scores one uniform threshold per non-constant feature, drawn in
    feature order.  Ties keep the first best position and then the first
    best feature, and a split must gain more than ``_MIN_GAIN``.
    """
    n = X.shape[0]
    if criterion == "mse":
        stats = target
        total = target.sum()
        parent = total**2 / n
    else:
        stats = np.eye(n_classes)[target]
        counts = np.bincount(target, minlength=n_classes).astype(float)
        parent = float(_impurity(counts[None, :], criterion)[0])
    if extra_random:
        cols = X[:, features]
        lo, hi = cols.min(axis=0), cols.max(axis=0)
        ok = hi > lo
        features, cols = features[ok], cols[:, ok]
        thresholds = rng.uniform(lo[ok], hi[ok])
    n_left = np.arange(1, n, dtype=float)[:, None]
    column_bytes = n * max(n_classes, 1) * 8 * _KERNEL_TEMPORARIES
    step = max(1, DEFAULT_BLOCK_BYTES // column_bytes)
    best, best_gain = None, _MIN_GAIN
    for start in range(0, features.size, step):
        block = features[start:start + step]
        block_cols = cols[:, start:start + step] if extra_random else X[:, block]
        order = np.argsort(block_cols, axis=0, kind="stable")
        prefix = np.cumsum(stats[order], axis=0)
        if extra_random:
            # Thresholds lie in [min, max), so 1 <= size <= n rows go left.
            thr = thresholds[start:start + step]
            size = (block_cols <= thr).sum(axis=0)
            left = prefix[size - 1, np.arange(block.size)]
            impurity = _impurity(np.stack([left, counts - left]), criterion)
            gains = parent - (
                size / n * impurity[0] + (n - size) / n * impurity[1]
            )
            gains[(size < min_leaf) | (n - size < min_leaf)] = -np.inf
            f = int(np.argmax(gains))
            if gains[f] > best_gain:
                best_gain = gains[f]
                best = (int(block[f]), float(thr[f]))
            continue
        prefix = prefix[:-1]
        sorted_cols = np.take_along_axis(block_cols, order, axis=0)
        if criterion == "mse":
            gains = (
                prefix**2 / n_left + (total - prefix) ** 2 / (n - n_left) - parent
            )
        else:
            impurity = _impurity(np.stack([prefix, counts - prefix]), criterion)
            gains = parent - (n_left * impurity[0] + (n - n_left) * impurity[1]) / n
        valid = (np.diff(sorted_cols, axis=0) > 0) & (n_left >= min_leaf)
        valid &= n - n_left >= min_leaf
        gains[~valid] = -np.inf
        pos = np.argmax(gains, axis=0)
        per_feature = gains[pos, np.arange(block.size)]
        f = int(np.argmax(per_feature))
        if per_feature[f] > best_gain:
            best_gain = per_feature[f]
            p = pos[f]
            best = (int(block[f]), float(0.5 * (sorted_cols[p, f] + sorted_cols[p + 1, f])))
    return best


def grow_tree(
    X: np.ndarray,
    target: np.ndarray,
    criterion: str,
    max_depth: int,
    min_split: int,
    min_leaf: int,
    n_classes: int = 0,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
    extra_random: bool = False,
) -> FlatTree:
    """Grow a tree depth-first, left child first, into flat node arrays.

    Classification trees (gini/entropy) stop at pure nodes and store class
    probabilities; regression trees (mse) store the node's mean residual.
    Nodes are numbered in the order they are grown, so random feature
    subsets and thresholds are drawn in the same order as a recursive
    grower would.
    """
    n_features = X.shape[1]
    feature, threshold, left, right, value = [], [], [], [], []
    stack = [(np.arange(X.shape[0]), 0, -1, left)]
    while stack:
        rows, depth, parent, side = stack.pop()
        node = len(feature)
        if parent >= 0:
            side[parent] = node
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        t = target[rows]
        if criterion == "mse":
            value.append([float(t.mean())])
            pure = False
        else:
            counts = np.bincount(t, minlength=n_classes).astype(float)
            value.append(counts / max(counts.sum(), 1e-12))
            pure = np.count_nonzero(counts) == 1
        if depth >= max_depth or rows.size < min_split or pure:
            continue
        if max_features is not None and max_features < n_features:
            features = rng.choice(n_features, size=max_features, replace=False)
        else:
            features = np.arange(n_features)
        split = best_split(
            X[rows], t, criterion, features, min_leaf, n_classes, rng, extra_random
        )
        if split is None:
            continue
        feature[node], threshold[node] = split
        mask = X[rows, feature[node]] <= threshold[node]
        stack.append((rows[~mask], depth + 1, node, right))
        stack.append((rows[mask], depth + 1, node, left))
    return FlatTree(
        np.array(feature, dtype=np.intp),
        np.array(threshold, dtype=float),
        np.array(left, dtype=np.intp),
        np.array(right, dtype=np.intp),
        np.array(value, dtype=float),
    )


def stack_trees(trees: list[FlatTree]) -> tuple[FlatTree, np.ndarray]:
    """One node table holding every tree, plus each tree's root index."""
    sizes = [tree.feature.size for tree in trees]
    roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)

    def children(side: str) -> np.ndarray:
        return np.concatenate([
            np.where(getattr(tree, side) >= 0, getattr(tree, side) + root, -1)
            for tree, root in zip(trees, roots)
        ])

    table = FlatTree(
        np.concatenate([tree.feature for tree in trees]),
        np.concatenate([tree.threshold for tree in trees]),
        children("left"),
        children("right"),
        np.concatenate([tree.value for tree in trees]),
    )
    return table, roots


def tree_values(
    tree: FlatTree, X: np.ndarray, roots: np.ndarray | None = None
) -> np.ndarray:
    """Leaf values ``(trees, rows, stats)`` of every (tree, row) pair.

    All pairs descend together, one level per step, so a stacked ensemble
    costs a handful of array operations per level instead of a Python loop
    per tree and row.
    """
    roots = np.zeros(1, dtype=np.intp) if roots is None else roots
    n = X.shape[0]
    node = np.repeat(roots, n)
    row = np.tile(np.arange(n), roots.size)
    live = np.flatnonzero(tree.left[node] >= 0)
    while live.size:
        at = node[live]
        go_left = X[row[live], tree.feature[at]] <= tree.threshold[at]
        node[live] = np.where(go_left, tree.left[at], tree.right[at])
        live = live[tree.left[node[live]] >= 0]
    return tree.value[node].reshape(roots.size, n, tree.value.shape[1])


@register_classifier
class DecisionTreeClassifier(BaseClassifier):
    """CART decision tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth.
    min_samples_split:
        Minimum samples required to attempt a split.
    min_samples_leaf:
        Minimum samples in each child.
    criterion:
        ``"gini"`` or ``"entropy"``.
    """

    name = "decision_tree"

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        criterion: str = "gini",
    ):
        super().__init__()
        if max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        if criterion not in ("gini", "entropy"):
            raise ValidationError(f"criterion must be gini/entropy, got {criterion!r}")
        self.max_depth = int(max_depth)
        self.min_samples_split = max(2, int(min_samples_split))
        self.min_samples_leaf = max(1, int(min_samples_leaf))
        self.criterion = criterion

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._tree = grow_tree(
            X, y, self.criterion, self.max_depth, self.min_samples_split,
            self.min_samples_leaf, self.n_classes_,
        )

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        return tree_values(self._tree, X)[0]
