"""Sample statistics from raw observations; every partial correlation is
indexed from the one matrix of r that ``_partial_correlations`` reads."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotPositiveDefinite
from .matrices import SymmetricMatrix, _check_offdiagonal

__all__ = ["Dataset", "sample_covariance", "sample_partial_correlation"]


@dataclass(frozen=True)
class Dataset:
    """n observations of N named variables, stored as an n x N array.

    Requires n >= 2, finite values and unique names.  The array is copied
    and write-locked at construction.
    """

    values: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2:
            raise DomainError("observations must form a 2-d array")
        if arr.shape[0] < 2:
            raise DomainError("need at least two observations")
        if arr.shape[1] < 1:
            raise DomainError("need at least one variable")
        if not np.all(np.isfinite(arr)):
            raise DomainError("observations must be finite")
        names = tuple(str(name) for name in self.names)
        if len(names) != arr.shape[1]:
            raise DomainError(
                f"{len(names)} names for {arr.shape[1]} variables"
            )
        if len(set(names)) != len(names):
            raise DomainError("variable names must be unique")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def sample_covariance(data: Dataset) -> SymmetricMatrix:
    """Sample covariance matrix with the 1/n normalization:

        s_ij = (1/n) * sum_t (x_i(t) - mean_i)(x_j(t) - mean_j)

    The result may be singular or indefinite (e.g. constant columns or
    n <= N); downstream consumers validate positive definiteness.  All
    derived partial correlations are invariant to the 1/n versus 1/(n-1)
    choice, since they are invariant to the scale of each variable.
    """
    return SymmetricMatrix(_covariances(np.array(data.values)))


def _covariances(x: np.ndarray) -> np.ndarray:
    """1/n sample covariances of a (..., n, N) stack of observations: one
    exactly symmetric N x N array per n x N slice, each bit for bit what
    the slice alone gives.  x is centered in place, so a caller passes an
    array it no longer needs."""
    x -= x.mean(axis=-2, keepdims=True)
    s = np.swapaxes(x, -1, -2) @ x / x.shape[-2]
    return (s + np.swapaxes(s, -1, -2)) / 2.0


def _partial_correlations(
    s: SymmetricMatrix, subject: str = "covariance matrix", names=None
) -> np.ndarray:
    """The write-locked N x N partial correlations of s, which must be
    positive definite; else NotPositiveDefinite names the subject, the
    failing pivot and, given the variables' names, its variable."""
    pivot, partial = s._factored()
    if pivot is not None:
        where = f"pivot {pivot}" if names is None else f"pivot {pivot}, variable {names[pivot]!r},"
        raise NotPositiveDefinite(f"{subject} is not positive definite ({where} fails)")
    return partial


def sample_partial_correlation(s: SymmetricMatrix, i: int, j: int) -> float:
    """Sample partial correlation of variables i and j given all others:

        r_ij = -K_ij / sqrt(K_ii * K_jj)

    with K the inverse of the correlation-scaled covariance matrix, read
    from the matrix's one factorization.  This equals -C_ij / sqrt(C_ii
    C_jj) with C_kl the cofactors of S; cofactors remain only to verify
    that identity.  Requires a positive definite covariance matrix;
    |r| < 1 then holds automatically.
    """
    _check_offdiagonal(s.dim, i, j)
    return float(_partial_correlations(s)[i, j])
