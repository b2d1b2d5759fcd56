"""Symmetric-matrix algebra.

Every matrix keeps one correlation-scaled factorization, a (pivot,
partial correlations) pair computed on first use: S is standardized to
R = D^-1/2 S D^-1/2 with D = diag S, and one LAPACK Cholesky call
factors R = L L^T, checks its pivots diag(L)**2 against a floor and
yields K = R^-1 = L^-T L^-1, from which every partial correlation
follows as r_ij = -K_ij / sqrt(K_ii K_jj).  Partial
correlations are invariant to the scale of each variable, and so is the
factorization.  One routine factors every matrix: a single matrix is a
stack of one, and a stack, such as the covariances of a chunk of Monte
Carlo replications, is checked once and factored by one call, which
builds nothing that depends on N alone and hands back its stack of
partial correlations, so one slice reads an entry of every matrix.

Determinant quadratics serve only the verification route, which
``verify`` runs on R to check the partial correlations that the tests
read.  Writing ``M(x)`` for the matrix with entries (i, j) and (j, i)
replaced by x,

    det M(x) = -a x**2 + b x + c

and M(x) is positive definite on the open interval between its roots.
The (i, j) cofactor of M(x) is -a x + b / 2, which ties the raw
covariance entry to the standardized edge statistic that verify compares
with the partial correlation.  M(x) is a rank-2 change of M, so the
matrix determinant lemma gives every pair's quadratic from G = M^-1
alone: with d = x - m_ij,

    det M(x) / det M = (1 + d G_ij)**2 - d**2 G_ii G_jj.

The roots and the statistic do not change under a positive scale of a, b
and c, so verify reads this quadratic of R from one LAPACK LU inverse of
R as numpy expressions over index arrays of pairs; the matrix keeps this
R and G = R^-1 for the route, apart from its factorization, from the
route's first use.  ``pd_interval`` and ``edge_statistic`` are the same
formulas on one quadratic.  The route never reads L or K, so it stays
independent of what it checks.  ``quadratic_decomposition``, which extracts the
coefficients from three determinants of probe matrices, is the route's
oracle and serves the lemma check of the acceptance suite; cofactors
serve that check alone.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DegenerateEdge, DomainError, NotPositiveDefinite

__all__ = [
    "SymmetricMatrix",
    "QuadCoeffs",
    "PdInterval",
    "determinant",
    "cofactor",
    "first_nonpositive_pivot",
    "quadratic_decomposition",
    "pd_interval",
    "edge_statistic",
    "lemma_residual",
    "sylvester_residual",
]

# Pivots of the correlation-scaled matrix at or below PIVOT_FLOOR are
# treated as failures, so behaviour near singularity is deterministic.  The
# scaled matrix has a unit diagonal, so the floor is relative to it and does
# not depend on the units of the variables.
PIVOT_FLOOR = 1e-12


# c of the augmented matrix [[R, I], [I, cI]], whose Cholesky factor is
# [[L, 0], [L^-T, *]].  The trailing block's Schur complement is
# cI - R^-1, which LAPACK accepts only when c exceeds R^-1's largest
# eigenvalue: 1e200 is far beyond it for any R whose pivots clear
# PIVOT_FLOOR, and its square root squares back to a finite number.
_AUGMENT = 1e200


def _inverse_factor(r: np.ndarray) -> np.ndarray | None:
    """X = L^-T, so that R^-1 = X X^T, for every R = L L^T of a
    (count, N, N) stack, from one LAPACK Cholesky call; None when LAPACK
    refuses a matrix or a pivot diag(L)**2 is at or below PIVOT_FLOOR.
    LAPACK factors each matrix of the stack on its own, so each X has the
    bits that a stack of that matrix alone gives.

    LAPACK reads only the lower triangle of the augmented matrix, so its
    upper-right block is left zero, and the two diagonals below R, at
    flat offsets 2N**2 and (2N + 1) N of each 2N x 2N matrix, are written
    with a stride of 2N + 1: no template of N is built."""
    count, dim = len(r), r.shape[-1]
    augmented = np.zeros((count, 2 * dim, 2 * dim))
    augmented[:, :dim, :dim] = r
    flat = augmented.reshape(count, -1)
    flat[:, 2 * dim * dim :: 2 * dim + 1] = 1.0
    flat[:, (2 * dim + 1) * dim :: 2 * dim + 1] = _AUGMENT
    try:
        factor = np.linalg.cholesky(augmented)
    except np.linalg.LinAlgError:
        return None
    pivots = np.diagonal(factor, axis1=-2, axis2=-1)[..., :dim] ** 2
    return factor[..., dim:, :dim] if np.all(pivots > PIVOT_FLOOR) else None


def _first_failing_pivot(r: np.ndarray) -> int:
    """The first failing pivot of one N x N matrix R that fails, by
    bisection on its leading blocks in about log2 N Cholesky calls: the
    block of k rows has R's first k pivots, and its inverse's largest
    eigenvalue grows with k, so a block fails when a smaller one does."""
    good, bad = 0, r.shape[-1]
    while bad - good > 1:
        mid = (good + bad) // 2
        if _inverse_factor(r[np.newaxis, :mid, :mid]) is None:
            bad = mid
        else:
            good = mid
    return bad - 1


def _correlation_matrix(entries: np.ndarray) -> np.ndarray:
    """R = D^-1/2 S D^-1/2 of a matrix, or elementwise of a stack.  A
    nonpositive diagonal entry is left unscaled: R's pivot there cannot
    exceed it, so the factorization fails there or earlier."""
    diag = np.diagonal(entries, axis1=-2, axis2=-1)
    scale = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    # Dividing by the product sqrt(s_ii) sqrt(s_jj), which commutes,
    # keeps R exactly symmetric.
    return entries / (scale[..., :, None] * scale[..., None, :])


def _factor_stack(entries: np.ndarray) -> tuple[Iterable[tuple], np.ndarray | None]:
    """Factor R = D^-1/2 S D^-1/2 for every matrix of a (count, N, N)
    stack with one Cholesky call; a single matrix is a stack of one.
    Returns each matrix's (pivot, partial_correlations) pair, made as it
    is read, and the write-locked (count, N, N) stack of their partial
    correlations, or None when any matrix fails.  Then each matrix is
    factored again alone, so each pair is bit for bit the one a stack of
    that matrix alone gives; one that fails alone finds its first failing
    pivot by bisection.
    """
    r = _correlation_matrix(entries)
    x = _inverse_factor(r)
    if x is None:
        if len(r) > 1:
            return (f for m in range(len(r)) for f in _factor_stack(entries[m : m + 1])[0]), None
        return ((_first_failing_pivot(r[0]), None),), None
    k = x @ np.swapaxes(x, -1, -2)
    # Mirroring K's upper triangle keeps r_ij == r_ji bit for bit.
    lower = np.arange(r.shape[-1])[:, None] > np.arange(r.shape[-1])
    k[:, lower] = np.swapaxes(k, -1, -2)[:, lower]
    root = np.sqrt(np.diagonal(k, axis1=-2, axis2=-1))
    partial = -k / (root[..., :, None] * root[..., None, :])
    partial.setflags(write=False)
    return zip(repeat(None), partial), partial


def _check_entries(arr: np.ndarray) -> None:
    """The value checks of SymmetricMatrix, on one matrix or on a
    (count, N, N) stack at once: every entry finite, every matrix exactly
    symmetric."""
    if not np.all(np.isfinite(arr)):
        raise DomainError("matrix entries must be finite")
    if not np.array_equal(arr, np.swapaxes(arr, -1, -2)):
        raise DomainError("matrix must be exactly symmetric")


def _matrix_stack(entries: np.ndarray) -> tuple[list[SymmetricMatrix], np.ndarray | None]:
    """One SymmetricMatrix per matrix of a (count, N, N) stack, and the
    stack's (count, N, N) partial correlations, or None when a matrix is
    not positive definite.  The stack is copied and checked once, as
    SymmetricMatrix checks one matrix, and factored by
    :func:`_factor_stack`; each matrix gets its pair as it is made."""
    stack = np.array(entries, dtype=float)
    _check_entries(stack)
    stack.setflags(write=False)
    pairs, partial = _factor_stack(stack)
    matrices = []
    for arr, pair in zip(stack, pairs):
        m = SymmetricMatrix._checked(arr)
        m._factorization = pair
        matrices.append(m)
    return matrices, partial


class SymmetricMatrix:
    """Immutable N x N real symmetric matrix.

    Symmetry is exact (entry for entry) and enforced at construction, as is
    finiteness of every entry.  The wrapped array is write-locked, so values
    are safe to share between threads.  The correlation-scaled
    factorization, a (pivot, partial_correlations) pair, is computed on
    first use and kept, as are the conditional route's R and G = R^-1;
    each is a pure function of the entries, published by one assignment,
    so two threads that race to compute it store equal values.
    """

    __slots__ = ("_entries", "_factorization", "_route")

    def __init__(self, entries) -> None:
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError("expected a square matrix")
        if arr.shape[0] == 0:
            raise DomainError("matrix must have at least one row")
        _check_entries(arr)
        arr.setflags(write=False)
        self._entries = arr
        self._factorization = self._route = None

    @classmethod
    def _checked(cls, entries: np.ndarray) -> "SymmetricMatrix":
        """Wrap a write-locked N x N array that has passed the checks of
        ``__init__``, such as one matrix of a checked stack, without
        copying or checking it again."""
        m = cls.__new__(cls)
        m._entries = entries
        m._factorization = m._route = None
        return m

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Read-only view of the underlying array."""
        return self._entries

    def _factored(self) -> tuple[int | None, np.ndarray | None]:
        """(pivot, partial_correlations), computed once by
        :func:`_factor_stack`: the first pivot of R at or below
        PIVOT_FLOOR, or else None and the write-locked N x N array of
        r_ij = -K_ij / sqrt(K_ii K_jj), K = R^-1."""
        if self._factorization is None:
            (self._factorization,), _ = _factor_stack(self._entries[np.newaxis])
        return self._factorization

    def _route_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(R, G) for :func:`_lemma_coefficients`, computed once and
        write-locked: R as :func:`_factor_stack` forms it, and G = R^-1
        from LAPACK's LU factorization, never L or K."""
        if self._route is None:
            r = _correlation_matrix(self._entries)
            try:
                g = np.linalg.inv(r)
                if not np.all(np.isfinite(g)):
                    raise np.linalg.LinAlgError
            except np.linalg.LinAlgError:
                raise NotPositiveDefinite(
                    "the correlation matrix is numerically singular: LAPACK cannot invert it"
                ) from None
            r.setflags(write=False)
            g.setflags(write=False)
            self._route = r, g
        return self._route

    def with_edge(self, i: int, j: int, x: float) -> "SymmetricMatrix":
        """Copy of the matrix with entries (i, j) and (j, i) replaced by x."""
        _check_offdiagonal(self.dim, i, j)
        arr = np.array(self._entries)
        arr[i, j] = x
        arr[j, i] = x
        return SymmetricMatrix(arr)

    def __repr__(self) -> str:
        return f"SymmetricMatrix({self._entries.tolist()!r})"


@dataclass(frozen=True)
class QuadCoeffs:
    """Coefficients of det M(x) = -a x**2 + b x + c, x the entry of one edge;
    on the lemma route, of det M(x) up to the positive factor 1 / det R."""

    a: float
    b: float
    c: float


@dataclass(frozen=True)
class PdInterval:
    """Open interval (x1, x2) on which M(x) is positive definite."""

    x1: float
    x2: float


def _check_index(dim: int, k: int) -> None:
    """An index must be an integer (a numpy integer, never a bool) in
    [0, dim).  Every edge test checks two, so an exact ``int`` in range,
    the common case, returns after one type test and one comparison; any
    other value takes the full checks, in their order and with their
    messages."""
    if type(k) is int and 0 <= k < dim:
        return
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise DomainError(f"index must be an integer, got {k!r}")
    if not 0 <= k < dim:
        raise DomainError(f"index {k} out of range for dimension {dim}")


def _check_offdiagonal(dim: int, i: int, j: int) -> None:
    _check_index(dim, i)
    _check_index(dim, j)
    if i == j:
        raise DomainError("edge indices must name an off-diagonal entry")


def _det(arr: np.ndarray):
    """Determinant of a square array by LAPACK's LU factorization with
    partial pivoting, as a float; of a (count, N, N) stack, as an array
    with one determinant per matrix, each bit for bit what that matrix
    alone gives.  O(N^3) per matrix; accepts the empty 0 x 0 matrix
    (determinant 1) and gives exactly 0 when a pivot vanishes.  numpy
    multiplies the pivots as sign * exp(sum log|u_kk|), so the result is
    accurate relative to its size but not always the exact product: the
    determinant of [[3.0]] is 3.0000000000000004."""
    det = np.linalg.det(arr)
    return float(det) if det.ndim == 0 else det


def determinant(m: SymmetricMatrix) -> float:
    """Determinant of a symmetric matrix."""
    return _det(m.entries)


def _minor_det(arr: np.ndarray, row: int, col: int) -> float:
    sub = np.delete(np.delete(arr, row, axis=0), col, axis=1)
    return _det(sub)


def cofactor(m: SymmetricMatrix, k: int, l: int) -> float:
    """Signed cofactor of entry (k, l): (-1)**(k+l) times the minor that
    deletes row k and column l."""
    _check_index(m.dim, k)
    _check_index(m.dim, l)
    sign = -1.0 if (k + l) % 2 else 1.0
    return sign * _minor_det(m.entries, k, l)


def first_nonpositive_pivot(m: SymmetricMatrix) -> int | None:
    """Index of the first failing pivot of the correlation-scaled matrix
    R = D^-1/2 M D^-1/2, or None when the matrix is positive definite.

    Read from the matrix's one factorization.  A pivot of R at or below
    PIVOT_FLOOR counts as a failure, which keeps decisions deterministic
    for matrices that are numerically on the boundary; since R has a unit
    diagonal, rescaling a variable cannot move the decision.
    """
    return m._factored()[0]


def quadratic_decomposition(m: SymmetricMatrix, i: int, j: int) -> QuadCoeffs:
    """Coefficients (a, b, c) with det M(x) = -a x**2 + b x + c.

    Extracted by evaluating the determinant at x = 0 and x = +/- xbar with
    xbar = 1 + max |entry| of M, which is exact for a quadratic and needs
    no symbolic algebra.  The three probe matrices go to LAPACK as one
    stack.  O(N^3) per pair: verify reads the lemma route instead, and
    this one is its oracle and the quadratic of :func:`lemma_residual`.
    """
    _check_offdiagonal(m.dim, i, j)
    xbar = 1.0 + float(np.abs(m.entries).max())
    probes = m.entries[np.newaxis].repeat(3, axis=0)
    probes[:, i, j] = probes[:, j, i] = (0.0, xbar, -xbar)
    d0, dplus, dminus = _det(probes).tolist()
    a = (2.0 * d0 - dplus - dminus) / (2.0 * xbar * xbar)
    return QuadCoeffs(a, (dplus - dminus) / (2.0 * xbar), d0)


def _lemma_coefficients(scaled: np.ndarray, table: np.ndarray, i, j):
    """Coefficients a, b and c of det M(x) / det R = -a x**2 + b x + c at
    the pairs (i, j), two ints or two index arrays, of a positive definite
    correlation matrix R (``scaled``), by the matrix determinant lemma
    (see the module docstring).  With G = R^-1 (``table``), g = G_ij,
    k = G_ii G_jj - g**2 and r = R_ij:

        a = k,   b = 2 (g + k r),   c = 1 - 2 g r - k r**2.

    O(1) per pair after the one inverse of R.  The indices are not
    checked.
    """
    r = scaled[i, j]
    g = table[i, j]
    k = table[i, i] * table[j, j] - g * g
    return k, 2.0 * (g + k * r), 1.0 - 2.0 * g * r - k * r * r


def _roots_and_statistic(a, b, c, x):
    """Roots x1 < x2 of each quadratic -a x**2 + b x + c, elementwise over
    floats or arrays, and the edge statistic of :func:`edge_statistic` at
    x.  Raises the DegenerateEdge of :func:`pd_interval` for the first
    quadratic, in order, with a <= 0 or a discriminant that is not positive.

    a, b and c are first divided by the power of two that brings the
    largest of them into [0.5, 1).  That changes no bit of the roots or
    the statistic, but b**2 and a c no longer underflow when det M is
    tiny, as on the probe route of a large matrix: det R is about 1e-185
    for a correlation matrix of 1000 variables.
    """
    lead = a
    e = -np.frexp(np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c)))[1]
    a, b, c = np.ldexp(a, e), np.ldexp(b, e), np.ldexp(c, e)
    disc = b * b + 4.0 * a * c
    bad = (lead <= 0.0) | (disc <= 0.0)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        lead, disc = np.ravel(lead)[k], np.ravel(disc)[k]
        if lead <= 0.0:
            raise DegenerateEdge(f"leading coefficient a = {float(lead)} is not positive")
        raise DegenerateEdge(f"discriminant {float(disc)} is not positive")
    root = np.sqrt(disc)
    x1, x2 = (b - root) / (2.0 * a), (b + root) / (2.0 * a)
    return x1, x2, (a * x - b / 2.0) / np.sqrt(b * b / 4.0 + a * c)


def pd_interval(q: QuadCoeffs) -> PdInterval:
    """Roots x1 < x2 of -a x**2 + b x + c = 0.

    Raises DegenerateEdge when a <= 0 or the discriminant b**2 + 4ac is not
    positive, which signals that the fixed off-edge entries admit no
    positive-definite completion.
    """
    x1, x2, _ = _roots_and_statistic(q.a, q.b, q.c, 0.0)
    return PdInterval(x1=float(x1), x2=float(x2))


def edge_statistic(q: QuadCoeffs, x: float) -> float:
    """Standardized edge statistic (a x - b/2) / sqrt(b**2/4 + a c).

    Equals -1 at x1, +1 at x2 and increases strictly in between; for
    x = s_ij it coincides with the sample partial correlation.
    """
    return float(_roots_and_statistic(q.a, q.b, q.c, x)[2])


_PROBE_FRACTIONS = (-1.0, -0.5, 0.0, 0.5, 1.0)


def lemma_residual(m: SymmetricMatrix, i: int, j: int) -> float:
    """Largest deviation, over five probe values of x, between the (i, j)
    cofactor of M(x) and the affine law -a x + b/2.

    Contract: at most 1e-9 * max(1, |a|, |b|).
    """
    q = quadratic_decomposition(m, i, j)
    xbar = 1.0 + float(np.max(np.abs(m.entries)))
    worst = 0.0
    for frac in _PROBE_FRACTIONS:
        x = frac * xbar
        cof = cofactor(m.with_edge(i, j, x), i, j)
        worst = max(worst, abs(cof - (-q.a * x + q.b / 2.0)))
    return worst


def sylvester_residual(m: SymmetricMatrix, i: int, j: int) -> float:
    """Deviation from the two-row determinant identity

        C_pair * det M = C_ii * C_jj - C_ij**2

    where C_pair is the cofactor of the 2 x 2 block on rows and columns
    {i, j} (the determinant after deleting both rows and both columns) and
    C_kl are single-entry cofactors.  Contract: at most 1e-9 relative to
    the magnitude of the largest term.
    """
    _check_offdiagonal(m.dim, i, j)
    keep = [k for k in range(m.dim) if k not in (i, j)]
    c_pair = _det(m.entries[np.ix_(keep, keep)])
    det = determinant(m)
    c_ii = cofactor(m, i, i)
    c_jj = cofactor(m, j, j)
    c_ij = cofactor(m, i, j)
    return abs(c_pair * det - (c_ii * c_jj - c_ij * c_ij))
