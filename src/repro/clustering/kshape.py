"""K-Shape clustering (Paparrizos & Gravano, SIGMOD'15) and its variants.

K-Shape alternates:

* **assignment** — each series joins the centroid with the smallest
  shape-based distance (SBD = 1 - max normalized cross-correlation);
* **refinement** — each centroid becomes the leading eigenvector of the
  alignment-corrected scatter matrix of its members (shape extraction),
  with members first SBD-aligned to the current centroid.

The ablation (Fig. 11) compares incremental clustering against K-Shape
``default`` (k=8), ``grid`` (sweep k, keep the best correlation), and
``iterative`` (grow k until the intra-cluster correlation target is met).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ClusteringError, ValidationError
from repro.timeseries.batch import ncc_cross, ncc_rowwise
from repro.timeseries.correlation import average_pairwise_correlation, znorm
from repro.timeseries.series import TimeSeries
from repro.utils.rng import ensure_rng


def _ncc_shift(x: np.ndarray, y: np.ndarray) -> tuple[float, int]:
    """Max normalized cross-correlation between x and y, and its shift.

    Scalar reference implementation — the hot loops below go through the
    batched :func:`~repro.timeseries.batch.ncc_cross` /
    :func:`~repro.timeseries.batch.ncc_rowwise` kernels, which are
    parity-tested (values ≤ 1e-9, shifts exact) against this function.
    """
    n = x.shape[0]
    denom = np.linalg.norm(x) * np.linalg.norm(y)
    if denom == 0:
        return 0.0, 0
    size = 1 << (2 * n - 1).bit_length()
    cc = np.fft.irfft(np.fft.rfft(x, size) * np.conj(np.fft.rfft(y, size)), size)
    cc = np.concatenate((cc[-(n - 1):], cc[:n]))
    idx = int(np.argmax(cc))
    return float(cc[idx] / denom), idx - (n - 1)


def _shift_series(x: np.ndarray, shift: int) -> np.ndarray:
    """Shift with zero padding (positive shift moves the series right)."""
    out = np.zeros_like(x)
    if shift > 0:
        out[shift:] = x[: x.shape[0] - shift]
    elif shift < 0:
        out[:shift] = x[-shift:]
    else:
        out[:] = x
    return out


class KShape:
    """K-Shape clustering with a fixed cluster count.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    max_iter:
        Assignment/refinement rounds.
    random_state:
        Seed for the initial random assignment.
    """

    def __init__(
        self, n_clusters: int = 8, max_iter: int = 15, random_state: int | None = 0
    ):
        if n_clusters < 1:
            raise ValidationError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = int(n_clusters)
        self.max_iter = int(max_iter)
        self.random_state = random_state
        self.labels_: np.ndarray | None = None

    def _extract_shape(
        self, members: np.ndarray, centroid: np.ndarray
    ) -> np.ndarray:
        """Shape extraction: leading eigenvector of the aligned scatter."""
        if members.shape[0] == 0:
            return centroid
        aligned = np.empty_like(members)
        if centroid.any():
            # One batched NCC pass aligns every member to the centroid.
            _, shifts = ncc_cross(members, centroid[None, :])
            for i, row in enumerate(members):
                aligned[i] = _shift_series(row, -int(shifts[i, 0]))
        else:
            aligned[:] = members
        n = aligned.shape[1]
        S = aligned.T @ aligned
        Q = np.eye(n) - np.ones((n, n)) / n
        M = Q @ S @ Q
        # Power iteration for the leading eigenvector (fast, deterministic).
        v = centroid if centroid.any() else np.ones(n)
        v = v / (np.linalg.norm(v) + 1e-12)
        for _ in range(50):
            v_new = M @ v
            norm = np.linalg.norm(v_new)
            if norm < 1e-12:
                break
            v_new /= norm
            if np.abs(v_new - v).max() < 1e-8:
                v = v_new
                break
            v = v_new
        # Sign: orient toward the member average.
        if aligned.mean(axis=0) @ v < 0:
            v = -v
        return znorm(v)

    def fit(self, series_list: list[TimeSeries]) -> "KShape":
        """Cluster the series; sets ``labels_`` and ``centroids_``.

        Series of different lengths are truncated to the common minimum
        (shape extraction needs aligned matrices).
        """
        if not series_list:
            raise ClusteringError("cannot cluster an empty series list")
        arrays = [
            (s.interpolated() if s.has_missing else s).values
            if isinstance(s, TimeSeries)
            else np.asarray(s, dtype=float)
            for s in series_list
        ]
        min_len = min(a.shape[0] for a in arrays)
        data = np.vstack([znorm(a[:min_len]) for a in arrays])
        n = data.shape[0]
        k = min(self.n_clusters, n)
        rng = ensure_rng(self.random_state)
        labels = rng.integers(0, k, size=n)
        centroids = np.zeros((k, data.shape[1]))
        for _ in range(self.max_iter):
            for c in range(k):
                centroids[c] = self._extract_shape(data[labels == c], centroids[c])
            # Assignment: one batched (n, k) NCC matrix instead of n*k
            # scalar FFTs; argmin semantics identical to the scalar loop.
            ncc_vals, _ = ncc_cross(data, centroids)
            new_labels = labels.copy()
            new_labels[:] = np.argmin(1.0 - ncc_vals, axis=1)
            # Reseed empty clusters with the worst-fitting series so k is
            # actually used (standard k-shape practice).  The fit vector
            # is recomputed per empty cluster because earlier reseeds
            # mutate both centroids and assignments.
            for c in range(k):
                if (new_labels == c).any():
                    continue
                fit = 1.0 - ncc_rowwise(data, centroids[new_labels])
                donor_ok = np.array(
                    [np.sum(new_labels == new_labels[i]) > 1 for i in range(n)]
                )
                candidates = np.flatnonzero(donor_ok)
                if candidates.size == 0:
                    break
                worst = candidates[int(np.argmax(fit[candidates]))]
                new_labels[worst] = c
                centroids[c] = data[worst]
            if (new_labels == labels).all():
                break
            labels = new_labels
        self.labels_ = labels
        self.centroids_ = centroids
        self._series = list(series_list)
        return self

    @property
    def n_clusters_(self) -> int:
        """Number of non-empty clusters found."""
        if self.labels_ is None:
            raise ClusteringError("clustering is not fitted")
        return int(np.unique(self.labels_).size)

    def average_correlation(self) -> float:
        """Mean intra-cluster pairwise correlation."""
        if self.labels_ is None:
            raise ClusteringError("clustering is not fitted")
        values = []
        for c in np.unique(self.labels_):
            members = [self._series[i] for i in np.flatnonzero(self.labels_ == c)]
            values.append(average_pairwise_correlation(members))
        return float(np.mean(values))


def kshape_grid_search(
    series_list: list[TimeSeries],
    k_values=range(2, 16),
    random_state: int | None = 0,
) -> KShape:
    """Sweep k and return the fitted K-Shape with the best avg correlation."""
    best: KShape | None = None
    best_corr = -np.inf
    for k in k_values:
        if k > len(series_list):
            break
        model = KShape(n_clusters=k, random_state=random_state).fit(series_list)
        corr = model.average_correlation()
        if corr > best_corr:
            best_corr, best = corr, model
    if best is None:
        raise ClusteringError("grid search produced no clustering")
    return best


def kshape_iterative(
    series_list: list[TimeSeries],
    target_correlation: float = 0.85,
    max_k: int | None = None,
    random_state: int | None = 0,
) -> KShape:
    """Grow k until the average intra-cluster correlation reaches the target.

    Mirrors the "iterative" variant of Fig. 11: high correlation, but at the
    cost of many clusters.
    """
    max_k = max_k or len(series_list)
    model = None
    for k in range(2, max_k + 1):
        model = KShape(n_clusters=k, random_state=random_state).fit(series_list)
        if model.average_correlation() >= target_correlation:
            return model
    if model is None:
        raise ClusteringError("iterative search produced no clustering")
    return model
