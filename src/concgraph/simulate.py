"""Synthetic Gaussian data and Monte Carlo checks of test size and power.

Substream contract: replication k of a run with master seed s draws its
n x N standard normals from an RNG seeded by the pair (s, k), so reports
are reproducible regardless of how replications are scheduled, and
rejection counts reduce by integer summation.

Replications run in chunks.  A spec computes its covariance Cholesky
factor once.  Each chunk stacks its replications' draws into one
(chunk, n, N) array, colors them with one matrix product, forms every
sample covariance at once, checks them once as a stack and factors them
all with one correlation-scaled sweep; each replication then runs its
edge tests one by one.  Every stacked step acts on each replication
separately, so a replication's covariance, statistics and decisions are
bit for bit those of ``sample_gaussian`` -> ``sample_covariance`` ->
``run_edge_test`` on its substream, and the chunk length changes no
result.

A replication pays only for what its report reads: its decisions'
p-values are never computed, and the correlation-scaled matrix R is
built only for the umpu test.  A size run evaluates the null CDF for its
Kolmogorov-Smirnov statistic once, over the whole sorted sample.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DomainError, NotPositiveDefinite
from .estimators import (
    Dataset,
    _covariances,
    sample_covariance,
    sample_partial_correlation,
)
from .distributions import _reg_inc_beta_array
from .independence import METHODS, run_edge_test
from .matrices import (
    SymmetricMatrix,
    _check_offdiagonal,
    _matrix_stack,
    first_nonpositive_pivot,
)

__all__ = [
    "PrecisionSpec",
    "MethodOutcome",
    "MonteCarloReport",
    "random_precision_matrix",
    "sample_gaussian",
    "estimate_size",
    "estimate_power",
    "ks_statistic",
    "random_covariance_instances",
]

# Replications per chunk: a chunk's stacked draws hold at most this many
# doubles (32 KiB), and at least one replication, so memory stays flat
# however many replications a run has.  At N = 5, n = 25 a budget of
# 16,384 ran a 1000-replication size study about 8% faster but raised
# the peak resident memory of the process by about 0.6 MB; this one
# keeps the peak where one replication at a time left it.
_CHUNK_ELEMENTS = 4096


def _chunk_length(n: int, dim: int) -> int:
    return max(1, _CHUNK_ELEMENTS // (n * dim))


def _check_dim(dim) -> None:
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {dim!r}")


@dataclass(frozen=True)
class PrecisionSpec:
    """A positive definite precision (inverse covariance) matrix, the
    ground truth of a simulated Gaussian model.

    The true partial correlation of variables i, j given the rest is
    -k_ij / sqrt(k_ii * k_jj) in terms of the precision entries.
    """

    matrix: SymmetricMatrix

    def __post_init__(self) -> None:
        pivot = first_nonpositive_pivot(self.matrix)
        if pivot is not None:
            raise NotPositiveDefinite(
                f"precision matrix is not positive definite (pivot {pivot} fails)"
            )

    @property
    def dim(self) -> int:
        return self.matrix.dim

    def partial_correlation(self, i: int, j: int) -> float:
        _check_offdiagonal(self.dim, i, j)
        k = self.matrix.entries
        return -float(k[i, j]) / math.sqrt(float(k[i, i]) * float(k[j, j]))

    def covariance(self) -> np.ndarray:
        """Model covariance, obtained by linear solves (never adjugates)."""
        cov = np.linalg.solve(self.matrix.entries, np.eye(self.dim))
        return (cov + cov.T) / 2.0

    @cached_property
    def _cholesky(self) -> np.ndarray:
        """Lower Cholesky factor L of the model covariance, computed once
        and write-locked; n draws are z @ L.T with z standard normal."""
        try:
            chol = np.linalg.cholesky(self.covariance())
        except np.linalg.LinAlgError as exc:  # pragma: no cover - spec is p.d.
            raise NotPositiveDefinite(str(exc)) from exc
        chol.setflags(write=False)
        return chol

    def with_edge(self, i: int, j: int, value: float) -> "PrecisionSpec":
        """Spec with the (i, j) precision entry replaced (e.g. zeroed for a
        matched null)."""
        return PrecisionSpec(self.matrix.with_edge(i, j, value))

    @classmethod
    def identity(cls, dim: int) -> "PrecisionSpec":
        _check_dim(dim)
        return cls(SymmetricMatrix(np.eye(dim)))

    @classmethod
    def single_edge(cls, dim: int, i: int, j: int, rho: float) -> "PrecisionSpec":
        """Unit-diagonal spec whose only nonzero partial correlation is
        exactly rho on edge (i, j)."""
        _check_dim(dim)
        if not (isinstance(rho, (int, float)) and -1.0 < rho < 1.0):
            raise DomainError(f"partial correlation must lie in (-1, 1), got {rho!r}")
        arr = np.eye(dim)
        _check_offdiagonal(dim, i, j)
        arr[i, j] = arr[j, i] = -float(rho)
        return cls(SymmetricMatrix(arr))


def random_precision_matrix(dim: int, level: float, seed) -> PrecisionSpec:
    """Random diagonally dominant precision matrix with unit diagonal and
    max |partial correlation| of roughly ``level``.

    Off-diagonal entries are a scaled symmetric uniform pattern; the scale
    is capped so every row stays strictly diagonally dominant, which
    guarantees positive definiteness.  Derived partial correlations never
    exceed ``level`` in magnitude.
    """
    _check_dim(dim)
    if not (isinstance(level, (int, float)) and 0.0 <= level < 1.0):
        raise DomainError(f"level must lie in [0, 1), got {level!r}")
    if level == 0.0:
        return PrecisionSpec.identity(dim)
    rng = np.random.default_rng(seed)
    pattern = rng.uniform(-1.0, 1.0, size=(dim, dim))
    pattern = (pattern + pattern.T) / 2.0
    np.fill_diagonal(pattern, 0.0)
    largest = float(np.max(np.abs(pattern)))
    rowsum = float(np.max(np.abs(pattern).sum(axis=1)))
    scale = min(level / largest, 0.95 / rowsum)
    return PrecisionSpec(SymmetricMatrix(np.eye(dim) + scale * pattern))


def sample_gaussian(spec: PrecisionSpec, n: int, seed) -> Dataset:
    """n independent draws from the zero-mean Gaussian whose covariance is
    the inverse of ``spec``.  Deterministic for a given seed; the seed may
    be an integer or a tuple of integers (substream key)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise DomainError(f"sample size must be an integer >= 2, got {n!r}")
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, spec.dim)) @ spec._cholesky.T
    names = tuple(f"x{k + 1}" for k in range(spec.dim))
    return Dataset(values=values, names=names)


def ks_statistic(sample: Sequence[float], cdf: Callable[[float], float]) -> float:
    """One-sample Kolmogorov-Smirnov statistic against an exact CDF."""
    x = np.sort(np.asarray(sample, dtype=float))
    if x.size == 0:
        raise DomainError("KS statistic needs a non-empty sample")
    return _ks_distance(np.array([cdf(float(v)) for v in x]))


def _ks_distance(f: np.ndarray) -> float:
    """KS statistic from the CDF values f at the sorted sample."""
    count = f.size
    grid = np.arange(1, count + 1) / count
    d_plus = float(np.max(grid - f))
    d_minus = float(np.max(f - (grid - 1.0 / count)))
    return max(d_plus, d_minus)


@dataclass(frozen=True)
class MethodOutcome:
    """Rejection count, rate and binomial standard error for one method."""

    rejections: int
    rate: float
    std_error: float


@dataclass(frozen=True)
class MonteCarloReport:
    """Outcome of a Monte Carlo size or power run.

    ``per_method`` holds the breakdown for every requested method;
    ``rejection_rate``/``std_error`` refer to the first one.  For size
    runs ``ks_statistic`` compares the transformed null sample (1 + r)/2
    against its exact Beta law; for power runs ``null_rate`` carries the
    size measured at the matched null (probed precision entry zeroed).
    """

    replications: int
    seed: int
    dim: int
    n: int
    alpha: float
    edge: tuple[int, int]
    rho: float
    methods: tuple[str, ...]
    per_method: Mapping[str, MethodOutcome]
    agreement: Mapping[str, float] = field(default_factory=dict)
    ks_statistic: float | None = None
    null_rate: float | None = None
    null_std_error: float | None = None

    @property
    def rejection_rate(self) -> float:
        return self.per_method[self.methods[0]].rate

    @property
    def std_error(self) -> float:
        return self.per_method[self.methods[0]].std_error


def _normalize_methods(method) -> tuple[str, ...]:
    methods = (method,) if isinstance(method, str) else tuple(method)
    if not methods:
        raise DomainError("need at least one method")
    for name in methods:
        if name not in METHODS:
            raise DomainError(f"unknown method {name!r}; expected one of {METHODS}")
    if len(set(methods)) != len(methods):
        raise DomainError("methods must be distinct")
    return methods


def _validate_run(spec, n, alpha, reps, seed, edge) -> None:
    _check_offdiagonal(spec.dim, edge[0], edge[1])
    if not (isinstance(alpha, (int, float)) and 0.0 < alpha < 1.0):
        raise DomainError(f"significance level must lie in (0, 1), got {alpha!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n <= spec.dim:
        raise DomainError(
            f"sample size must be an integer > dim, got n = {n!r}, dim = {spec.dim}"
        )
    if not isinstance(reps, int) or isinstance(reps, bool) or reps < 1000:
        raise DomainError(f"need at least 1000 replications, got {reps!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")


def _replication_covariances(spec, n, seed, start, stop) -> list[SymmetricMatrix]:
    """Sample covariances of replications start, ..., stop - 1, each with
    its factorization attached, from one stack of draws."""
    z = np.empty((stop - start, n, spec.dim))
    for row, k in enumerate(range(start, stop)):
        np.random.default_rng((seed, k)).standard_normal(out=z[row])
    return _matrix_stack(_covariances(z @ spec._cholesky.T))


def _run_replications(spec, n, alpha, methods, reps, seed, edge):
    i, j = edge
    counts = dict.fromkeys(methods, 0)
    pairs = list(itertools.combinations(methods, 2))
    agree_counts = dict.fromkeys(pairs, 0)
    r_values = np.empty(reps)
    chunk = _chunk_length(n, spec.dim)
    for start in range(0, reps, chunk):
        stop = min(start + chunk, reps)
        covariances = _replication_covariances(spec, n, seed, start, stop)
        for k, s in enumerate(covariances, start):
            decisions = {
                name: run_edge_test(name, s, i, j, n, alpha) for name in methods
            }
            if "partial_corr" in decisions:
                r_values[k] = decisions["partial_corr"].statistic
            else:
                r_values[k] = sample_partial_correlation(s, i, j)
            for name, decision in decisions.items():
                counts[name] += decision.reject
            for pair in pairs:
                agree_counts[pair] += (
                    decisions[pair[0]].reject == decisions[pair[1]].reject
                )
    return counts, agree_counts, r_values


def _outcomes(counts, reps) -> dict[str, MethodOutcome]:
    out = {}
    for name, hits in counts.items():
        rate = hits / reps
        out[name] = MethodOutcome(
            rejections=hits,
            rate=rate,
            std_error=math.sqrt(rate * (1.0 - rate) / reps),
        )
    return out


def _agreement_rates(agree_counts, reps) -> dict[str, float]:
    return {f"{a}~{b}": hits / reps for (a, b), hits in agree_counts.items()}


def estimate_size(
    spec: PrecisionSpec,
    n: int,
    alpha: float,
    method="partial_corr",
    reps: int = 10000,
    seed: int = 0,
    edge: tuple[int, int] = (0, 1),
) -> MonteCarloReport:
    """Rejection frequency under the null over independent replications.

    The probed edge must have true partial correlation zero.  Also reports
    the KS statistic of the transformed null sample (1 + r) / 2 against
    Beta(m, m) with m = (n - N) / 2, an exact check of the null law.
    """
    methods = _normalize_methods(method)
    _validate_run(spec, n, alpha, reps, seed, edge)
    rho = spec.partial_correlation(*edge)
    if abs(rho) > 1e-12:
        raise DomainError(
            f"size estimation needs a null probed edge, got rho = {rho}"
        )
    counts, agree_counts, r_values = _run_replications(
        spec, n, alpha, methods, reps, seed, edge
    )
    m = (n - spec.dim) / 2.0
    ks = _ks_distance(_reg_inc_beta_array(np.sort((1.0 + r_values) / 2.0), m, m))
    return MonteCarloReport(
        replications=reps,
        seed=seed,
        dim=spec.dim,
        n=n,
        alpha=alpha,
        edge=edge,
        rho=rho,
        methods=methods,
        per_method=_outcomes(counts, reps),
        agreement=_agreement_rates(agree_counts, reps),
        ks_statistic=ks,
    )


def estimate_power(
    spec: PrecisionSpec,
    n: int,
    alpha: float,
    method="partial_corr",
    reps: int = 10000,
    seed: int = 0,
    edge: tuple[int, int] = (0, 1),
) -> MonteCarloReport:
    """Rejection frequency at the alternative held by ``spec``.

    The report carries the size measured at the matched null (same spec
    with the probed precision entry zeroed, same substreams) so power and
    size can be compared directly.
    """
    methods = _normalize_methods(method)
    _validate_run(spec, n, alpha, reps, seed, edge)
    rho = spec.partial_correlation(*edge)
    counts, agree_counts, _ = _run_replications(
        spec, n, alpha, methods, reps, seed, edge
    )
    null_spec = spec.with_edge(edge[0], edge[1], 0.0)
    null_counts, _, _ = _run_replications(
        null_spec, n, alpha, methods[:1], reps, seed, edge
    )
    null_rate = null_counts[methods[0]] / reps
    return MonteCarloReport(
        replications=reps,
        seed=seed,
        dim=spec.dim,
        n=n,
        alpha=alpha,
        edge=edge,
        rho=rho,
        methods=methods,
        per_method=_outcomes(counts, reps),
        agreement=_agreement_rates(agree_counts, reps),
        ks_statistic=None,
        null_rate=null_rate,
        null_std_error=math.sqrt(null_rate * (1.0 - null_rate) / reps),
    )


def random_covariance_instances(
    count: int,
    seed: int,
    dims: Sequence[int] = (3, 4, 5, 6),
    max_n: int = 50,
    alphas: Sequence[float] = (0.1, 0.05, 0.01),
) -> Iterator[tuple[SymmetricMatrix, int, int, int, float]]:
    """Random positive definite sample covariances with admissible test
    settings: yields (S, i, j, n, alpha).

    Each instance draws a random diagonally dominant precision model, a
    sample size n in [dim + 2, max_n] and a probed edge; alphas cycle.
    Deterministic in (count, seed).
    """
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise DomainError(f"instance count must be a positive integer, got {count!r}")
    rng = np.random.default_rng((seed, 0xC0))
    for k in range(count):
        dim = int(rng.choice(dims))
        n = int(rng.integers(dim + 2, max_n + 1))
        level = float(rng.uniform(0.0, 0.7))
        spec = random_precision_matrix(dim, level, seed=(seed, k, 1))
        data = sample_gaussian(spec, n, seed=(seed, k, 2))
        s = sample_covariance(data)
        i, j = sorted(int(v) for v in rng.choice(dim, size=2, replace=False))
        yield s, i, j, n, float(alphas[k % len(alphas)])
