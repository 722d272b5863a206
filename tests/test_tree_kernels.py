"""Parity of the vectorized split kernel and flat-array trees.

Every tree family must give bit-identical ``predict_proba`` to the
per-feature oracle in :mod:`tests.tree_oracle`, including the tie rules
(first best position, then first best feature) and, for Extra-Trees, the
exact stream of random draws.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.classifiers.tree as tree_module
from repro.classifiers import get_classifier, sample_params
from repro.classifiers.tree import best_split, grow_tree, stack_trees, tree_values
from tests import tree_oracle
from tests.tree_oracle import ORACLES

FAMILIES = sorted(ORACLES)
SEEDS = (0, 1, 2)
GRID_POINTS = 3


def _problem(seed: int, n: int = 36, n_features: int = 9, n_classes: int = 4):
    """Small matrix with tied, constant and duplicated columns."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    X[:, 0] = np.round(X[:, 0])  # many ties inside one column
    X[:, 1] = 2.5  # constant column
    X[:, 3] = X[:, 2]  # identical columns: ties across features
    X[:, 4] = np.round(2 * X[:, 4]) / 2
    y = rng.integers(0, n_classes, size=n)
    X_test = np.vstack([X[:5], rng.normal(size=(11, n_features))])
    return X, y, X_test


def _params(family: str, point: int, seed: int) -> dict:
    params = sample_params(family, random_state=100 * point + seed)
    if family != "decision_tree":
        params["random_state"] = seed
    return params


def _assert_parity(family, params, X, y, X_test):
    new = get_classifier(family, **params).fit(X, y)
    old = ORACLES[family](**params).fit(X, y)
    for rows in (X, X_test):
        np.testing.assert_array_equal(new.predict_proba(rows), old.predict_proba(rows))
    return new, old


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("point", range(GRID_POINTS))
@pytest.mark.parametrize("family", FAMILIES)
def test_grid_point_parity(family, point, seed):
    X, y, X_test = _problem(seed, n_classes=2 + (point + seed) % 3)
    _assert_parity(family, _params(family, point, seed), X, y, X_test)


@pytest.mark.parametrize("family", ["decision_tree", "random_forest", "extra_trees"])
@pytest.mark.parametrize("min_leaf", [1, 4, 9, 30])
def test_min_samples_leaf_edges(family, min_leaf):
    """Leaves of 9 in 18 rows allow one split position; 30 allow none."""
    X, y, X_test = _problem(5, n=18)
    params = {**_params(family, 0, 5), "min_samples_leaf": min_leaf}
    _assert_parity(family, params, X, y, X_test)


@pytest.mark.parametrize("family", FAMILIES)
def test_single_class_input(family):
    X, _, X_test = _problem(6, n=12)
    y = np.full(12, "knn")
    new, _ = _assert_parity(family, _params(family, 1, 6), X, y, X_test)
    assert list(new.predict(X_test)) == ["knn"] * len(X_test)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2])
def test_one_and_two_rows(family, n):
    X, y, X_test = _problem(7, n=n)
    y = np.arange(n)
    params = _params(family, 2, 7)
    if family == "gradient_boosting":
        params["subsample"] = 1.0
    _assert_parity(family, params, X, y, X_test)


@pytest.mark.parametrize("family", FAMILIES)
def test_all_tied_columns(family):
    rng = np.random.default_rng(8)
    X = np.repeat(np.round(rng.normal(size=(20, 1))), 6, axis=1)
    y = rng.integers(0, 3, size=20)
    _assert_parity(family, _params(family, 0, 8), X, y, X[:7])


@pytest.mark.parametrize("family", FAMILIES)
def test_feature_blocks_do_not_change_the_split(family, monkeypatch):
    """A scratch cap of one feature per block keeps the tie rules intact."""
    monkeypatch.setattr(tree_module, "DEFAULT_BLOCK_BYTES", 1)
    X, y, X_test = _problem(9)
    _assert_parity(family, _params(family, 1, 9), X, y, X_test)


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
@pytest.mark.parametrize("max_features", [None, 3])
def test_extra_trees_draws_match_the_oracle(criterion, max_features):
    X, y, X_test = _problem(10)
    new_rng, old_rng = np.random.default_rng(4), np.random.default_rng(4)
    tree = grow_tree(
        X, y, criterion, 6, 2, 1, 4, max_features=max_features, rng=new_rng,
        extra_random=True,
    )
    root = tree_oracle.build_tree(
        X, y, 4, 6, 2, 1, criterion, max_features=max_features, rng=old_rng,
        extra_random=True,
    )
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    np.testing.assert_array_equal(
        tree_values(tree, X_test)[0], tree_oracle.tree_predict_proba(root, X_test, 4)
    )


def test_regression_tree_matches_the_oracle_stump():
    X, _, X_test = _problem(11)
    residual = np.random.default_rng(11).normal(size=X.shape[0])
    tree = grow_tree(X, residual, "mse", 4, 2, 1)
    stump = tree_oracle.RegressionStump(4, min_leaf=1).fit(X, residual)
    np.testing.assert_array_equal(tree_values(tree, X_test)[0, :, 0], stump.predict(X_test))


def test_best_split_returns_none_without_a_gain():
    X = np.ones((6, 3))
    y = np.array([0, 1, 0, 1, 0, 1])
    assert best_split(X, y, "gini", np.arange(3), 1, n_classes=2) is None
    assert best_split(X, y.astype(float), "mse", np.arange(3), 1) is None


def test_stacked_table_keeps_each_tree():
    X, y, X_test = _problem(12)
    trees = [grow_tree(X, y, "gini", depth, 2, 1, 4) for depth in (1, 3, 5)]
    table, roots = stack_trees(trees)
    stacked = tree_values(table, X_test, roots)
    for i, tree in enumerate(trees):
        np.testing.assert_array_equal(stacked[i], tree_values(tree, X_test)[0])


@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_predict_matches_oracle_at_serving_batch_sizes(family):
    X, y, _ = _problem(13, n=40)
    params = _params(family, 1, 13)
    new = get_classifier(family, **params).fit(X, y)
    old = ORACLES[family](**params).fit(X, y)
    rows = np.random.default_rng(13).normal(size=(64, X.shape[1]))
    for batch in (1, 6, 16, 64):
        np.testing.assert_array_equal(
            new.predict_proba(rows[:batch]), old.predict_proba(rows[:batch])
        )


@pytest.mark.parametrize("family", FAMILIES)
def test_fitted_trees_survive_pickle(family):
    X, y, X_test = _problem(14)
    clf = get_classifier(family, **_params(family, 0, 14)).fit(X, y)
    clone = pickle.loads(pickle.dumps(clf))
    np.testing.assert_array_equal(clone.predict_proba(X_test), clf.predict_proba(X_test))


def test_gradient_boosting_subsample_fits_one_row():
    X = np.array([[0.5, 1.0]])
    clf = get_classifier("gradient_boosting", subsample=0.7).fit(X, ["a"])
    assert list(clf.predict(X)) == ["a"]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_gradient_boosting_subsample_parity_on_few_rows(n):
    X, _, X_test = _problem(15, n=n)
    params = {"subsample": 0.7, "n_estimators": 5}
    _assert_parity("gradient_boosting", params, X, np.arange(n) % 2, X_test)
