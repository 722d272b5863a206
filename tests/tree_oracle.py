"""Parity oracle for the tree families: the per-feature split searches.

This is the reference implementation the vectorized split kernel and the
flat-array trees of :mod:`repro.classifiers.tree` must reproduce bit for
bit: a per-feature ``best_split`` loop for CART/RF/ET/AdaBoost, the
dict-based regression tree of gradient boosting, and node-by-node,
row-by-row prediction.  The oracle classes subclass the production
classifiers, so they share constructors, validation and
``predict_proba`` post-processing, and override only fit and predict.
It lives in ``tests/`` because nothing in the library may select it.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
)
from repro.utils.rng import ensure_rng, spawn_rng


def _impurity(counts, criterion):
    totals = counts.sum(axis=-1, keepdims=True)
    p = counts / np.maximum(totals, 1e-12)
    if criterion == "gini":
        return 1.0 - (p**2).sum(axis=-1)
    return -(p * np.log2(p + 1e-12)).sum(axis=-1)


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "proba")

    def __init__(self, proba):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.proba = proba


def best_split(X, y, n_classes, criterion, feature_indices, min_leaf,
               rng=None, extra_random=False):
    """Best (feature, threshold, gain), one feature at a time."""
    n = X.shape[0]
    parent_counts = np.bincount(y, minlength=n_classes).astype(float)
    parent_imp = float(_impurity(parent_counts[None, :], criterion)[0])
    best = None
    best_gain = 1e-12
    for feat in feature_indices:
        col = X[:, feat]
        if extra_random:
            lo, hi = col.min(), col.max()
            if hi <= lo:
                continue
            thr = rng.uniform(lo, hi)
            left_mask = col <= thr
            n_left = int(left_mask.sum())
            if n_left < min_leaf or n - n_left < min_leaf:
                continue
            left_counts = np.bincount(y[left_mask], minlength=n_classes).astype(float)
            right_counts = parent_counts - left_counts
            gain = parent_imp - (
                n_left / n * float(_impurity(left_counts[None, :], criterion)[0])
                + (n - n_left) / n
                * float(_impurity(right_counts[None, :], criterion)[0])
            )
            if gain > best_gain:
                best_gain = gain
                best = (int(feat), float(thr), gain)
            continue
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        distinct = np.flatnonzero(np.diff(sorted_col) > 0)
        if distinct.size == 0:
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y[order]] = 1.0
        prefix = onehot.cumsum(axis=0)
        sizes_left = distinct + 1
        valid = (sizes_left >= min_leaf) & (n - sizes_left >= min_leaf)
        if not valid.any():
            continue
        cand = distinct[valid]
        left_counts = prefix[cand]
        right_counts = parent_counts[None, :] - left_counts
        n_left = (cand + 1).astype(float)
        n_right = n - n_left
        child_imp = (
            n_left * _impurity(left_counts, criterion)
            + n_right * _impurity(right_counts, criterion)
        ) / n
        gains = parent_imp - child_imp
        j = int(np.argmax(gains))
        if gains[j] > best_gain:
            pos = cand[j]
            thr = 0.5 * (sorted_col[pos] + sorted_col[pos + 1])
            best_gain = float(gains[j])
            best = (int(feat), float(thr), best_gain)
    return best


def build_tree(X, y, n_classes, max_depth, min_split, min_leaf, criterion,
               max_features=None, rng=None, extra_random=False, depth=0):
    """Recursively grown CART tree; returns the root node."""
    counts = np.bincount(y, minlength=n_classes).astype(float)
    node = _Node(counts / max(counts.sum(), 1e-12))
    if depth >= max_depth or X.shape[0] < min_split or np.unique(y).size == 1:
        return node
    n_features = X.shape[1]
    if max_features is not None and max_features < n_features:
        feature_indices = rng.choice(n_features, size=max_features, replace=False)
    else:
        feature_indices = np.arange(n_features)
    split = best_split(X, y, n_classes, criterion, feature_indices, min_leaf,
                       rng=rng, extra_random=extra_random)
    if split is None:
        return node
    feat, thr, _ = split
    mask = X[:, feat] <= thr
    node.feature = feat
    node.threshold = thr
    args = (n_classes, max_depth, min_split, min_leaf, criterion, max_features,
            rng, extra_random, depth + 1)
    node.left = build_tree(X[mask], y[mask], *args)
    node.right = build_tree(X[~mask], y[~mask], *args)
    return node


def tree_predict_proba(node, X, n_classes):
    """Row-by-row walk of a node tree."""
    out = np.empty((X.shape[0], n_classes))
    for i, row in enumerate(X):
        cur = node
        while cur.left is not None:
            cur = cur.left if row[cur.feature] <= cur.threshold else cur.right
        out[i] = cur.proba
    return out


class RegressionStump:
    """Dict-based regression tree on residuals, one feature at a time."""

    def __init__(self, max_depth, min_leaf):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self._root = None

    def fit(self, X, residual):
        self._root = self._grow(X, residual, 0)
        return self

    def _grow(self, X, r, depth):
        node = {"value": float(r.mean()) if r.size else 0.0}
        if depth >= self.max_depth or X.shape[0] < 2 * self.min_leaf:
            return node
        best_gain, best = 1e-12, None
        total_sum, total_n = r.sum(), r.shape[0]
        parent_sse_gain = (total_sum**2) / total_n
        for feat in range(X.shape[1]):
            order = np.argsort(X[:, feat], kind="stable")
            sorted_x = X[order, feat]
            prefix = np.cumsum(r[order])
            distinct = np.flatnonzero(np.diff(sorted_x) > 0)
            if distinct.size == 0:
                continue
            n_left = distinct + 1
            valid = (n_left >= self.min_leaf) & (total_n - n_left >= self.min_leaf)
            if not valid.any():
                continue
            cand = distinct[valid]
            left_sum = prefix[cand]
            n_l = (cand + 1).astype(float)
            n_r = total_n - n_l
            gain = left_sum**2 / n_l + (total_sum - left_sum) ** 2 / n_r - parent_sse_gain
            j = int(np.argmax(gain))
            if gain[j] > best_gain:
                best_gain = float(gain[j])
                pos = cand[j]
                best = (feat, 0.5 * (sorted_x[pos] + sorted_x[pos + 1]))
        if best is None:
            return node
        feat, thr = best
        mask = X[:, feat] <= thr
        node.update(
            feature=feat,
            threshold=thr,
            left=self._grow(X[mask], r[mask], depth + 1),
            right=self._grow(X[~mask], r[~mask], depth + 1),
        )
        return node

    def predict(self, X):
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = self._root
            while "feature" in node:
                node = (
                    node["left"] if row[node["feature"]] <= node["threshold"]
                    else node["right"]
                )
            out[i] = node["value"]
        return out


class OracleDecisionTree(DecisionTreeClassifier):
    def _fit(self, X, y):
        self._root = build_tree(
            X, y, self.n_classes_, self.max_depth, self.min_samples_split,
            self.min_samples_leaf, self.criterion,
        )

    def _predict_proba(self, X):
        return tree_predict_proba(self._root, X, self.n_classes_)


class _OracleForest:
    def _fit(self, X, y):
        rng = ensure_rng(self.random_state)
        rngs = spawn_rng(rng, self.n_estimators)
        k = self._resolve_max_features(X.shape[1])
        n = X.shape[0]
        self._roots = []
        for tree_rng in rngs:
            if self._bootstrap:
                idx = tree_rng.integers(0, n, size=n)
                Xb, yb = X[idx], y[idx]
            else:
                Xb, yb = X, y
            self._roots.append(build_tree(
                Xb, yb, self.n_classes_, self.max_depth, 2, self.min_samples_leaf,
                self.criterion, max_features=k, rng=tree_rng,
                extra_random=self._extra_random,
            ))

    def _predict_proba(self, X):
        acc = np.zeros((X.shape[0], self.n_classes_))
        for root in self._roots:
            acc += tree_predict_proba(root, X, self.n_classes_)
        return acc / len(self._roots)


class OracleRandomForest(_OracleForest, RandomForestClassifier):
    pass


class OracleExtraTrees(_OracleForest, ExtraTreesClassifier):
    pass


class OracleGradientBoosting(GradientBoostingClassifier):
    """Stage loop with the subsample size clamped to n, as in production."""

    def _fit(self, X, y):
        n, k = X.shape[0], self.n_classes_
        rng = ensure_rng(self.random_state)
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y] = 1.0
        scores = np.zeros((n, k))
        self._stages = []
        for _ in range(self.n_estimators):
            exp = np.exp(scores - scores.max(axis=1, keepdims=True))
            proba = exp / exp.sum(axis=1, keepdims=True)
            gradient = onehot - proba
            if self.subsample < 1.0:
                size = min(n, max(2, int(self.subsample * n)))
                idx = rng.choice(n, size=size, replace=False)
            else:
                idx = np.arange(n)
            stage = []
            for c in range(k):
                stump = RegressionStump(self.max_depth, min_leaf=1)
                stump.fit(X[idx], gradient[idx, c])
                scores[:, c] += self.learning_rate * stump.predict(X)
                stage.append(stump)
            self._stages.append(stage)

    def _predict_proba(self, X):
        scores = np.zeros((X.shape[0], self.n_classes_))
        for stage in self._stages:
            for c, stump in enumerate(stage):
                scores[:, c] += self.learning_rate * stump.predict(X)
        exp = np.exp(scores - scores.max(axis=1, keepdims=True))
        return exp / exp.sum(axis=1, keepdims=True)


class OracleAdaBoost(AdaBoostClassifier):
    def _fit(self, X, y):
        n, k = X.shape[0], self.n_classes_
        rng = ensure_rng(self.random_state)
        weights = np.full(n, 1.0 / n)
        self._roots, self._alphas = [], []
        for _ in range(self.n_estimators):
            idx = rng.choice(n, size=n, replace=True, p=weights)
            tree = build_tree(X[idx], y[idx], k, self.max_depth, 2, 1, "gini")
            pred = np.argmax(tree_predict_proba(tree, X, k), axis=1)
            err = float(weights[pred != y].sum())
            if err >= 1.0 - 1.0 / k:
                continue
            err = max(err, 1e-10)
            alpha = self.learning_rate * (np.log((1 - err) / err) + np.log(k - 1))
            weights *= np.exp(alpha * (pred != y))
            weights /= weights.sum()
            self._roots.append(tree)
            self._alphas.append(alpha)
        if not self._roots:
            self._roots.append(build_tree(X, y, k, self.max_depth, 2, 1, "gini"))
            self._alphas.append(1.0)

    def _predict_proba(self, X):
        scores = np.zeros((X.shape[0], self.n_classes_))
        for alpha, tree in zip(self._alphas, self._roots):
            pred = np.argmax(tree_predict_proba(tree, X, self.n_classes_), axis=1)
            scores[np.arange(X.shape[0]), pred] += alpha
        exp = np.exp(scores - scores.max(axis=1, keepdims=True))
        return exp / exp.sum(axis=1, keepdims=True)


#: Oracle class per registered tree family name.
ORACLES = {
    "decision_tree": OracleDecisionTree,
    "random_forest": OracleRandomForest,
    "extra_trees": OracleExtraTrees,
    "gradient_boosting": OracleGradientBoosting,
    "adaboost": OracleAdaBoost,
}
