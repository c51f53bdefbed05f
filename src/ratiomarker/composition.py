"""Core types and transforms for compositional abundance data.

Counts from sequencing-style instruments only carry relative information:
each row of a matrix lives on a simplex once sequencing depth is divided
out. Every transform here is a function of within-sample ratios, so the
results are invariant to positive per-sample rescaling. Natural logarithms
are used throughout.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllFeaturesRemoved,
    DimensionMismatch,
    UnknownFeature,
    ValidationError,
    ZeroRemains,
)

# Largest block (rows x columns) that column-wise work over a wide table
# builds at once; small blocks keep memory flat at no cost in speed.
_BLOCK_ELEMENTS = 1 << 15


def _as_float_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"expected a 2-d matrix, got ndim={arr.ndim}")
    return arr


def _check_unique(labels, what):
    seen = set()
    for lab in labels:
        if lab in seen:
            raise ValidationError(f"duplicate {what} id {lab!r}")
        seen.add(lab)


@dataclass
class CompositionMatrix:
    """An N x G matrix of nonnegative abundances with row and column ids."""

    values: np.ndarray
    sample_ids: list[str]
    feature_ids: list[str]

    _min_allowed = 0.0
    _bound_message = "matrix entries must be nonnegative"

    def __post_init__(self):
        self.values = _as_float_matrix(self.values)
        n, g = self.values.shape
        if n < 1:
            raise ValidationError("matrix needs at least one sample")
        if g < 2:
            raise ValidationError("matrix needs at least two features")
        self.sample_ids = [str(s) for s in self.sample_ids]
        self.feature_ids = [str(f) for f in self.feature_ids]
        if len(self.sample_ids) != n:
            raise DimensionMismatch(
                f"{len(self.sample_ids)} sample ids for {n} rows"
            )
        if len(self.feature_ids) != g:
            raise DimensionMismatch(
                f"{len(self.feature_ids)} feature ids for {g} columns"
            )
        _check_unique(self.sample_ids, "sample")
        _check_unique(self.feature_ids, "feature")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("matrix entries must be finite")
        if np.any(self.values < self._min_allowed):
            raise ValidationError(self._bound_message)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def feature_index(self, label: str) -> int:
        try:
            return self.feature_ids.index(label)
        except ValueError:
            raise UnknownFeature(f"feature {label!r} not in matrix") from None


class StrictlyPositiveMatrix(CompositionMatrix):
    """A composition matrix with every entry strictly positive.

    Log-ratio transforms require positivity; use `apply_zero_policy` to get
    here from raw counts that contain zeros.
    """

    _min_allowed = np.nextafter(0.0, 1.0)
    _bound_message = "matrix entries must be strictly positive"


@dataclass
class Outcome:
    """A per-sample outcome, binary (0/1) or continuous."""

    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in ("binary", "continuous"):
            raise ValidationError(f"unknown outcome kind {self.kind!r}")
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.size < 1:
            raise ValidationError("outcome is empty")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("outcome values must be finite")
        if self.kind == "binary" and not np.all(
            (self.values == 0.0) | (self.values == 1.0)
        ):
            raise ValidationError("binary outcome values must be 0 or 1")

    @classmethod
    def binary(cls, values) -> "Outcome":
        return cls("binary", values)

    @classmethod
    def continuous(cls, values) -> "Outcome":
        return cls("continuous", values)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def link(self) -> str:
        """The GLM link: logistic for a binary outcome, identity otherwise."""
        return "logistic" if self.kind == "binary" else "identity"

    def both_classes_present(self) -> bool:
        return self.kind == "binary" and 0.0 < self.values.mean() < 1.0

    def subset(self, idx) -> "Outcome":
        return Outcome(self.kind, self.values[np.asarray(idx, dtype=int)])


@dataclass
class ZeroPolicy:
    """How zeros are handled before log-ratio work.

    Features whose zero fraction exceeds `max_zero_fraction` (strictly) are
    removed. Each remaining zero is replaced by half the smallest positive
    kept entry of its own sample, which scales with the sample and so keeps
    every log-ratio invariant to per-sample rescaling, or left in place
    (and reported as an error) when `replacement` is "none".
    """

    max_zero_fraction: float = 0.5
    replacement: str = "half_detection_limit"

    def __post_init__(self):
        if not 0.0 <= self.max_zero_fraction <= 1.0:
            raise ValidationError("max_zero_fraction must be in [0, 1]")
        if self.replacement not in ("half_detection_limit", "none"):
            raise ValidationError(
                f"unknown zero replacement {self.replacement!r}"
            )


def apply_zero_policy(
    matrix: CompositionMatrix, policy: ZeroPolicy | None = None
) -> tuple[StrictlyPositiveMatrix, list[str]]:
    """Remove zero-heavy features and impute the rest.

    Returns the strictly positive matrix and the list of removed feature
    ids. Applying the policy to an already positive matrix is the identity,
    so the operation is idempotent.
    """
    if policy is None:
        policy = ZeroPolicy()
    vals = matrix.values
    zero_frac = np.mean(vals == 0.0, axis=0)
    keep = zero_frac <= policy.max_zero_fraction
    if int(keep.sum()) < 2:
        raise AllFeaturesRemoved(
            "fewer than two features survive the zero-fraction filter"
        )
    removed = [f for f, k in zip(matrix.feature_ids, keep) if not k]
    kept_ids = [f for f, k in zip(matrix.feature_ids, keep) if k]
    # C order: a column selection is Fortran-ordered, and row sums round by layout.
    sub = np.ascontiguousarray(vals[:, keep])
    zero = sub == 0.0
    if np.any(zero):
        if policy.replacement == "none":
            raise ZeroRemains(
                "zeros remain after feature removal and replacement is disabled"
            )
        # Each sample's detection limit: its smallest positive kept entry.
        limit = np.where(zero, np.inf, sub).min(axis=1, keepdims=True)
        empty = np.flatnonzero(np.isinf(limit))
        if empty.size:
            sample = matrix.sample_ids[empty[0]]
            raise ZeroRemains(f"sample {sample!r} has no positive entry")
        sub = np.where(zero, 0.5 * limit, sub)
    return (
        StrictlyPositiveMatrix(sub, list(matrix.sample_ids), kept_ids),
        removed,
    )


def close_to_proportions(matrix: StrictlyPositiveMatrix) -> StrictlyPositiveMatrix:
    """Divide each row by its sum so rows sum to 1 (the closure operation)."""
    vals = matrix.values
    closed = vals / vals.sum(axis=1, keepdims=True)
    return StrictlyPositiveMatrix(
        closed, list(matrix.sample_ids), list(matrix.feature_ids)
    )


def clr_transform(matrix: StrictlyPositiveMatrix) -> np.ndarray:
    """Centered log-ratio transform.

    Each entry becomes log(x_ij / g(x_i)) with g the row geometric mean,
    computed as log x_ij minus the row mean of logs. Rows of the result sum
    to zero and the transform is invariant to per-sample rescaling.
    """
    logs = np.log(matrix.values)
    return logs - logs.mean(axis=1, keepdims=True)


def ratio_pairs(n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """The all-pairs layout: index arrays (jj, kk), jj < kk, in
    lexicographic order. Ratio i is log x_j - log x_k for j = jj[i] and
    k = kk[i]; `ratio_labels` names it."""
    return np.triu_indices(n_features, k=1)


def ratio_labels(feature_ids, jj, kk):
    """Yield the "a/b" label of each pair (jj[i], kk[i])."""
    for j, k in zip(jj, kk):
        yield f"{feature_ids[j]}/{feature_ids[k]}"


def pairwise_logratios(
    matrix: StrictlyPositiveMatrix,
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """All G(G-1)/2 pairwise log-ratios.

    Returns an N x G(G-1)/2 array whose columns are log(x_j / x_k) for
    the pairs of `ratio_pairs`, together with those pairs as tuples. Each
    column is computed as log x_j - log x_k, so swapping j and k negates
    the column exactly.
    """
    logs = np.log(matrix.values)
    jj, kk = ratio_pairs(matrix.n_features)
    return logs[:, jj] - logs[:, kk], list(zip(jj.tolist(), kk.tolist()))


def _column_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive column slices of an n_rows-row table, each holding at
    most `_BLOCK_ELEMENTS` values (and at least one column)."""
    width = max(1, _BLOCK_ELEMENTS // n_rows)
    return [slice(s, s + width) for s in range(0, n_cols, width)]


def _pairwise_logratio_blocks(logs: np.ndarray, jj: np.ndarray, kk: np.ndarray):
    """Yield (pair slice, block) over the columns of `pairwise_logratios`.

    `logs` is the N x G matrix of log abundances and (jj, kk) its
    `ratio_pairs`. Each block is computed as log x_j - log x_k for its
    pairs, so it holds the same bits as the matching columns of the full
    table, which is never built.
    """
    for pairs in _column_blocks(logs.shape[0], jj.size):
        yield pairs, logs[:, jj[pairs]] - logs[:, kk[pairs]]
