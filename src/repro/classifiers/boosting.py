"""Boosted ensembles: gradient boosting (the CatBoost stand-in) and AdaBoost."""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import BaseClassifier, register_classifier
from repro.classifiers.tree import grow_tree, stack_trees, tree_values
from repro.exceptions import ValidationError
from repro.utils.rng import ensure_rng


@register_classifier
class GradientBoostingClassifier(BaseClassifier):
    """Multi-class gradient boosting with softmax loss (CatBoost stand-in).

    One regression tree per class per round fits the softmax gradient.

    Parameters
    ----------
    n_estimators:
        Boosting rounds.
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth:
        Depth of the per-round regression trees.
    subsample:
        Row-sampling fraction per round (stochastic gradient boosting).
    random_state:
        Seed for subsampling.
    """

    name = "gradient_boosting"

    def __init__(
        self,
        n_estimators: int = 40,
        learning_rate: float = 0.2,
        max_depth: int = 3,
        subsample: float = 1.0,
        random_state: int | None = 0,
    ):
        super().__init__()
        if n_estimators < 1:
            raise ValidationError(f"n_estimators must be >= 1, got {n_estimators}")
        if not 0 < learning_rate <= 1:
            raise ValidationError(f"learning_rate must be in (0,1], got {learning_rate}")
        if not 0 < subsample <= 1:
            raise ValidationError(f"subsample must be in (0,1], got {subsample}")
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.subsample = float(subsample)
        self.random_state = random_state

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n, k = X.shape[0], self.n_classes_
        rng = ensure_rng(self.random_state)
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y] = 1.0
        scores = np.zeros((n, k))
        trees = []
        for _ in range(self.n_estimators):
            exp = np.exp(scores - scores.max(axis=1, keepdims=True))
            proba = exp / exp.sum(axis=1, keepdims=True)
            gradient = onehot - proba
            if self.subsample < 1.0:
                size = min(n, max(2, int(self.subsample * n)))
                idx = rng.choice(n, size=size, replace=False)
            else:
                idx = np.arange(n)
            for c in range(k):
                tree = grow_tree(X[idx], gradient[idx, c], "mse", self.max_depth, 2, 1)
                scores[:, c] += self.learning_rate * tree_values(tree, X)[0, :, 0]
                trees.append(tree)
        self._trees, self._roots = stack_trees(trees)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        k = self.n_classes_
        scores = np.zeros((X.shape[0], k))
        values = tree_values(self._trees, X, self._roots)
        for stage in values.reshape(self.n_estimators, k, X.shape[0]):
            scores += self.learning_rate * stage.T
        exp = np.exp(scores - scores.max(axis=1, keepdims=True))
        return exp / exp.sum(axis=1, keepdims=True)


@register_classifier
class AdaBoostClassifier(BaseClassifier):
    """SAMME AdaBoost over shallow CART trees.

    Parameters
    ----------
    n_estimators:
        Boosting rounds.
    max_depth:
        Depth of the weak learners.
    learning_rate:
        Shrinkage on the stage weights.
    random_state:
        Seed for weighted resampling.
    """

    name = "adaboost"

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int = 2,
        learning_rate: float = 1.0,
        random_state: int | None = 0,
    ):
        super().__init__()
        if n_estimators < 1:
            raise ValidationError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = int(n_estimators)
        self.max_depth = int(max_depth)
        self.learning_rate = float(learning_rate)
        self.random_state = random_state

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n, k = X.shape[0], self.n_classes_
        rng = ensure_rng(self.random_state)
        weights = np.full(n, 1.0 / n)
        trees, self._alphas = [], []
        for _ in range(self.n_estimators):
            # Weighted resampling approximates weighted impurity fitting.
            idx = rng.choice(n, size=n, replace=True, p=weights)
            tree = grow_tree(X[idx], y[idx], "gini", self.max_depth, 2, 1, k)
            pred = np.argmax(tree_values(tree, X)[0], axis=1)
            err = float(weights[pred != y].sum())
            if err >= 1.0 - 1.0 / k:
                continue  # worse than chance; skip stage
            err = max(err, 1e-10)
            alpha = self.learning_rate * (np.log((1 - err) / err) + np.log(k - 1))
            weights *= np.exp(alpha * (pred != y))
            weights /= weights.sum()
            trees.append(tree)
            self._alphas.append(alpha)
        if not trees:
            # Degenerate input: keep one unweighted tree as fallback.
            trees.append(grow_tree(X, y, "gini", self.max_depth, 2, 1, k))
            self._alphas.append(1.0)
        self._trees, self._roots = stack_trees(trees)

    def _predict_proba(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        scores = np.zeros((n, self.n_classes_))
        preds = np.argmax(tree_values(self._trees, X, self._roots), axis=2)
        for alpha, pred in zip(self._alphas, preds):
            scores[np.arange(n), pred] += alpha
        exp = np.exp(scores - scores.max(axis=1, keepdims=True))
        return exp / exp.sum(axis=1, keepdims=True)
