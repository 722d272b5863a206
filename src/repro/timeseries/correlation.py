"""Similarity measures between time series.

The clustering stage (Section VI) measures similarity by *cross-correlation*;
the K-Shape baseline uses the *shape-based distance* (SBD), i.e. one minus
the maximum normalized cross-correlation over all alignments.  Both are
implemented here on top of FFT-based correlation so matrices over hundreds of
series stay fast.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.timeseries.series import TimeSeries


def _as_clean_array(series) -> np.ndarray:
    """Accept a TimeSeries or array; interpolate away NaNs; return 1-D floats."""
    if isinstance(series, TimeSeries):
        if series.has_missing:
            series = series.interpolated()
        return series.values
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"expected a 1-D series, got shape {arr.shape}")
    if np.isnan(arr).any():
        ts = TimeSeries(arr)
        arr = ts.interpolated().values
    return arr


def znorm(arr: np.ndarray) -> np.ndarray:
    """Z-normalize one series; a constant series maps to zeros."""
    std = arr.std()
    if std == 0.0:
        return np.zeros_like(arr)
    return (arr - arr.mean()) / std


def cross_correlation(a, b) -> float:
    """Zero-lag Pearson correlation between two series.

    Series of different lengths are truncated to the shorter one.  Missing
    values are linearly interpolated first.  Constant series correlate 0 with
    everything (1 with an identical constant series would be undefined).
    """
    x = _as_clean_array(a)
    y = _as_clean_array(b)
    n = min(x.shape[0], y.shape[0])
    x, y = znorm(x[:n]), znorm(y[:n])
    if not x.any() or not y.any():
        return 0.0
    return float(np.dot(x, y) / n)


def max_cross_correlation(a, b, max_shift: int | None = None) -> float:
    """Maximum normalized cross-correlation over time shifts (NCCc).

    This is the similarity underlying the shape-based distance of K-Shape:
    ``NCC_c(x, y) = max_w CC_w(x, y) / (||x|| * ||y||)`` computed over all
    circularly padded shifts ``w``.  ``max_shift`` optionally restricts the
    shift range (both directions).

    Series of different lengths are truncated to the shorter one *before*
    z-normalization — the same order as :func:`cross_correlation`.
    (Historically this function z-normed first, so the discarded tail
    leaked into the mean/std of the compared window.)
    """
    x = _as_clean_array(a)
    y = _as_clean_array(b)
    n = min(x.shape[0], y.shape[0])
    x, y = znorm(x[:n]), znorm(y[:n])
    denom = np.linalg.norm(x) * np.linalg.norm(y)
    if denom == 0.0:
        return 0.0
    size = 1 << (2 * n - 1).bit_length()
    cc = np.fft.irfft(np.fft.rfft(x, size) * np.conj(np.fft.rfft(y, size)), size)
    # Reorder to shifts -(n-1) .. (n-1).
    cc = np.concatenate((cc[-(n - 1):], cc[:n])) if n > 1 else cc[:1]
    if max_shift is not None:
        center = n - 1
        lo = max(0, center - max_shift)
        hi = min(cc.shape[0], center + max_shift + 1)
        cc = cc[lo:hi]
    return float(cc.max() / denom)


def shape_based_distance(a, b) -> float:
    """Shape-based distance SBD(x, y) = 1 - NCCc(x, y), in [0, 2]."""
    return 1.0 - max_cross_correlation(a, b)


def pairwise_correlation_matrix_reference(
    series_list, shifted: bool = False
) -> np.ndarray:
    """Per-pair reference implementation of the correlation matrix.

    O(n²) scalar loop kept as the semantics-defining path: the batched
    kernels in :mod:`repro.timeseries.batch` are parity-tested (≤ 1e-9)
    against this function.
    """
    arrays = [_as_clean_array(s) for s in series_list]
    n = len(arrays)
    corr = np.eye(n)
    fn = max_cross_correlation if shifted else cross_correlation
    for i in range(n):
        for j in range(i + 1, n):
            corr[i, j] = corr[j, i] = fn(arrays[i], arrays[j])
    return corr


def _equal_length_arrays(series_list) -> list[np.ndarray] | None:
    """Cleaned arrays when all series share one length, else ``None``.

    The batched kernels truncate the whole corpus to the common minimum
    length, whereas the per-pair reference truncates *per pair* — the two
    agree exactly only on equal-length corpora, so mixed-length input
    falls back to the reference loop.
    """
    arrays = [_as_clean_array(s) for s in series_list]
    if not arrays:
        return None
    length = arrays[0].shape[0]
    if length == 0 or any(a.shape[0] != length for a in arrays):
        return None
    return arrays


def pairwise_correlation_matrix(series_list, shifted: bool = False) -> np.ndarray:
    """Symmetric matrix of pairwise correlations.

    Equal-length corpora (the common case — every clustering call site
    truncates first) run through the batched kernels of
    :mod:`repro.timeseries.batch`: one z-norm pass plus a blockwise GEMM
    (zero-lag) or one rFFT per series (shifted), instead of an O(n²)
    Python pair loop.  Mixed-length corpora fall back to the per-pair
    reference path, whose pairwise truncation cannot be batched.

    Parameters
    ----------
    series_list:
        Sequence of :class:`TimeSeries` or arrays.
    shifted:
        When True use :func:`max_cross_correlation` (alignment-invariant);
        otherwise zero-lag :func:`cross_correlation`.
    """
    arrays = _equal_length_arrays(series_list)
    if arrays is None or len(arrays) <= 2:
        return pairwise_correlation_matrix_reference(series_list, shifted=shifted)
    from repro.timeseries.batch import SeriesBank

    bank = SeriesBank(np.vstack(arrays))
    if shifted:
        return bank.ncc_matrix()
    return bank.corr_matrix()


def average_pairwise_correlation(series_list, shifted: bool = False) -> float:
    """Mean of the upper-triangle pairwise correlations.

    Used as :math:`\\bar{\\rho}(C)` in Algorithm 2.  A singleton cluster has
    average correlation 1.0 by convention (perfectly self-similar).
    """
    n = len(series_list)
    if n == 0:
        raise ValidationError("cannot compute correlation of an empty cluster")
    if n == 1:
        return 1.0
    corr = pairwise_correlation_matrix(series_list, shifted=shifted)
    iu = np.triu_indices(n, k=1)
    return float(corr[iu].mean())


def sbd_distance_matrix_reference(series_list) -> np.ndarray:
    """Per-pair reference SBD matrix (parity target for the batched path)."""
    arrays = [_as_clean_array(s) for s in series_list]
    n = len(arrays)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = shape_based_distance(arrays[i], arrays[j])
            dist[i, j] = dist[j, i] = d
    return dist


def sbd_distance_matrix(series_list) -> np.ndarray:
    """Symmetric matrix of shape-based distances (used by K-Shape).

    Equal-length corpora use the batched NCC kernel (one rFFT per series,
    blockwise spectral products); mixed lengths fall back to the per-pair
    reference loop.
    """
    arrays = _equal_length_arrays(series_list)
    if arrays is None or len(arrays) <= 2:
        return sbd_distance_matrix_reference(series_list)
    from repro.timeseries.batch import SeriesBank

    return SeriesBank(np.vstack(arrays)).sbd_matrix()
