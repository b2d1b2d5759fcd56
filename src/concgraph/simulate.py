"""Synthetic Gaussian data and Monte Carlo checks of test size and power.

Substream contract: replication k of a run with master seed s draws its
n x N standard normals from an RNG seeded by the pair (s, k), so reports
are reproducible regardless of how replications are scheduled, and
rejection counts reduce by integer summation.

The RNG of (s, k) is the one ``numpy.random.default_rng((s, k))``
builds: a PCG64 generator seeded from ``SeedSequence((s, k))``.  The
engine computes that SeedSequence's four 64-bit seed words for a whole
block of k at once, with the same uint32 hash in numpy array arithmetic,
and hands each row to numpy's own PCG64 seeding, so the draws are bit for
bit those of ``default_rng((s, k))`` without hashing one key at a time.

Replications run in chunks, one loop per chunk.  A spec computes its
covariance Cholesky factor once.  The loop stacks the chunk's draws into
one (chunk, n, N) array; then, for each spec, it colors them with one
matrix product, forms every sample covariance at once, checks them once
as a stack, factors them all with one correlation-scaled Cholesky call,
which hands each covariance its (pivot, partial correlations) pair with
no record around it, and runs each method's public edge test on every
replication, writing that method's column of decisions.  The chunk's r, which a size run
reports, is one slice of the factored stack of partial correlations.  A
power run colors the same draws once for the alternative and once for
the matched null, so each substream is drawn once.  Every test reads r
from the factorization, so no replication computes a determinant.  A
run's rejections are one boolean array, a row per replication and a
column per method, so its rejection counts, the agreements of each pair
of methods and the matched null's count are column sums.  Every stacked
step acts on each replication separately, so a replication's covariance,
statistics and decisions are bit for bit those of ``sample_gaussian`` ->
``sample_covariance`` -> ``run_edge_test`` on its substream, and the
chunk length changes no result.

A replication pays only for what its report reads: its decisions'
p-values are never computed.  A size run evaluates the null CDF for its
Kolmogorov-Smirnov statistic once, over the whole sorted sample, in one
continued-fraction pass for both tails of the symmetric law.

``estimate_size`` and ``estimate_power`` share one driver, ``_estimate``,
which checks the methods and the level through ``independence``'s
checks, and the sample size with this module's own message.  Both probe
the edge (0, 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DomainError, NotPositiveDefinite
from .estimators import Dataset, _covariances, _partial_correlations, sample_covariance
from .distributions import _reg_inc_beta_array
from .independence import _TESTS, _check_level, _check_method
from .matrices import SymmetricMatrix, _check_offdiagonal, _matrix_stack

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
# doubles (128 KiB), and at least one replication, so memory stays flat
# however many replications a run has.  At N = 5 (n = 25 and 50), twice
# this budget was faster in only 6 of 10 alternating pairs of the
# benchmark's montecarlo workload (median op_p50_ref 1.166 -> 1.152) and
# raised its peak resident memory by 0.5-0.8 MB (38.9 -> 39.6 MB).
_CHUNK_ELEMENTS = 16384

_EDGE = (0, 1)  # the edge that every Monte Carlo run probes

# A substream key k is one 32-bit word of its SeedSequence entropy.
_MAX_REPS = 2**32
# Substream seeds are computed this many at a time (32 KiB of seed words).
_SEED_BLOCK = 1024

# The constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx,
# after O'Neill's seed_seq_fe).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


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
        _partial_correlations(self.matrix, "precision matrix")

    @property
    def dim(self) -> int:
        return self.matrix.dim

    def partial_correlation(self, i: int, j: int) -> float:
        _check_offdiagonal(self.dim, i, j)
        k = self.matrix.entries
        # 0.0 - x, not -x, so that a zero entry gives +0.0, never -0.0
        return 0.0 - float(k[i, j]) / math.sqrt(float(k[i, i]) * float(k[j, j]))

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
        _check_method(name)
    if len(set(methods)) != len(methods):
        raise DomainError("methods must be distinct")
    return methods


def _validate_run(spec, n, alpha, reps, seed) -> None:
    _check_offdiagonal(spec.dim, *_EDGE)
    _check_level(alpha)
    if not isinstance(n, int) or isinstance(n, bool) or n <= spec.dim:
        raise DomainError(f"sample size must be an integer > dim, got n = {n!r}, dim = {spec.dim}")
    if not isinstance(reps, int) or isinstance(reps, bool) or reps < 1000:
        raise DomainError(f"need at least 1000 replications, got {reps!r}")
    if reps > _MAX_REPS:
        raise DomainError(f"need at most 2**32 replications, got {reps!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")


def _words(value: int) -> list[int]:
    """32-bit words of a non-negative integer, least significant first, as
    SeedSequence splits its entropy (0 is one word)."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hash step on uint32 word arrays: xor the words with
    the current constant, advance the constant by one multiplication,
    multiply by it and fold the high half into the low half."""

    def hash_words(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)

    return hash_words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _substream_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """PCG64 seed words of substreams (seed, start), ..., (seed, stop - 1):
    row k - start is ``SeedSequence((seed, k)).generate_state(4, np.uint64)``.

    The key (seed, k) is a pure function of k for a fixed seed, so the
    whole block is hashed at once in uint32 arithmetic, which wraps as the
    C code does.  The entropy is the words of seed followed by the one
    word of k (stop <= 2**32).  Its first four words, padded with zeros,
    are hashed into a pool of four; every pool word is mixed with every
    other; words beyond the fourth are then mixed into each pool word; and
    the pool, cycled, is hashed out into eight words read as four
    little-endian 64-bit words.
    """
    entropy = [np.array([word], dtype=np.uint32) for word in _words(seed)]
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[t] if t < len(entropy) else zero) for t in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hash_out = _hasher(_INIT_B, _MULT_B)
    state = [hash_out(pool[t % _POOL_SIZE]).astype(np.uint64) for t in range(8)]
    return np.stack([state[t] | (state[t + 1] << 32) for t in range(0, 8, 2)], axis=1)


@cache
def _row_seed_type():
    """An ISeedSequence that hands PCG64 one precomputed row of
    ``_substream_seeds``.  Built on first use, so that importing the
    package does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class RowSeed(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("a substream seed holds four uint64 words")
            return self._state

    return RowSeed


def _substream_states(seed: int, reps: int) -> Iterator[np.ndarray]:
    """Row k is the PCG64 seed of substream (seed, k), for k < reps; the
    rows are computed a block at a time."""
    for start in range(0, reps, _SEED_BLOCK):
        yield from _substream_seeds(seed, start, min(start + _SEED_BLOCK, reps))


def _run_replications(runs, n, alpha, reps, seed):
    """Replications 0..reps-1 of every (spec, methods) run on the same
    substreams, in one loop per chunk: the chunk's replications draw into
    one (count, n, N) stack, each from the PCG64 generator that
    ``default_rng((seed, k))`` builds, and each spec colors all count * n
    rows with one 2-d product by L^T (``sample_gaussian``'s product on one
    replication's n rows), forms and factors their covariances as one
    stack and runs one public test per method on each, a method's column
    at a time.  Returns each run's rejections as one (reps, len(methods))
    boolean array, whose row k holds replication k's decision of each
    method, and the first run's r of every replication, read from each
    chunk's stack of partial correlations as one slice."""
    i, j = _EDGE
    rejects = [np.empty((reps, len(methods)), dtype=bool) for _, methods in runs]
    r = np.empty(reps)
    dim = runs[0][0].dim
    chunk = _chunk_length(n, dim)
    states = _substream_states(seed, reps)
    row_seed = _row_seed_type()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    for start in range(0, reps, chunk):
        z = np.empty((min(chunk, reps - start), n, dim))
        for row, state in zip(z, states):
            generator(pcg64(row_seed(state))).standard_normal(out=row)
        rows = z.reshape(-1, dim)
        stop = start + len(z)
        for k, ((spec, methods), hits) in enumerate(zip(runs, rejects)):
            # the colored draws stay unnamed, so they are freed before the stack is factored
            covariances, partial = _matrix_stack(
                _covariances((rows @ spec._cholesky.T).reshape(z.shape))
            )
            # _normalize_methods has checked every name; each test is read from _TESTS
            # once per chunk, never bound at import, so a test patched in counts every call.
            for column, name in enumerate(methods):
                test = _TESTS[name]
                hits[start:stop, column] = [test(s, i, j, n, alpha).reject for s in covariances]
            if k == 0:  # each test above has checked its s, so the chunk factored as one stack
                r[start:stop] = partial[:, i, j]
    return rejects, r


def _outcomes(methods, rejects) -> dict[str, MethodOutcome]:
    """Each method's outcome from its column of a rejection array."""
    reps = len(rejects)
    out = {}
    for name, hits in zip(methods, rejects.sum(axis=0).tolist()):
        rate = hits / reps
        out[name] = MethodOutcome(hits, rate, math.sqrt(rate * (1.0 - rate) / reps))
    return out


def _estimate(spec, n, alpha, method, reps, seed, power: bool) -> MonteCarloReport:
    """The one Monte Carlo driver: :func:`estimate_power` with ``power``,
    :func:`estimate_size` without.  A power run adds the matched null to
    the same substreams; a size run requires a null probed edge and
    reports the KS statistic of its r sample."""
    methods = _normalize_methods(method)
    _validate_run(spec, n, alpha, reps, seed)
    rho = spec.partial_correlation(*_EDGE)
    runs = [(spec, methods)]
    if power:
        runs.append((spec.with_edge(*_EDGE, 0.0), methods[:1]))
    elif abs(rho) > 1e-12:
        raise DomainError(f"size estimation needs a null probed edge, got rho = {rho}")
    rejects, r_values = _run_replications(runs, n, alpha, reps, seed)
    if power:
        null = _outcomes(methods[:1], rejects[1])[methods[0]]
        extra = {"null_rate": null.rate, "null_std_error": null.std_error}
    else:
        m = (n - spec.dim) / 2.0
        f = _reg_inc_beta_array(np.sort((1.0 + r_values) / 2.0), m)
        extra = {"ks_statistic": _ks_distance(f)}
    rows = rejects[0]
    return MonteCarloReport(
        replications=reps,
        seed=seed,
        dim=spec.dim,
        n=n,
        alpha=alpha,
        edge=_EDGE,
        rho=rho,
        methods=methods,
        per_method=_outcomes(methods, rows),
        agreement={
            f"{methods[a]}~{methods[b]}": int((rows[:, a] == rows[:, b]).sum()) / reps
            for a, b in itertools.combinations(range(len(methods)), 2)
        },
        **extra,
    )


def estimate_size(
    spec: PrecisionSpec,
    n: int,
    alpha: float,
    method="partial_corr",
    reps: int = 10000,
    seed: int = 0,
) -> MonteCarloReport:
    """Rejection frequency under the null over independent replications.

    Edge (0, 1) must have true partial correlation zero.  Also reports
    the KS statistic of the transformed null sample (1 + r) / 2 against
    Beta(m, m) with m = (n - N) / 2, an exact check of the null law.
    """
    return _estimate(spec, n, alpha, method, reps, seed, power=False)


def estimate_power(
    spec: PrecisionSpec,
    n: int,
    alpha: float,
    method="partial_corr",
    reps: int = 10000,
    seed: int = 0,
) -> MonteCarloReport:
    """Rejection frequency at the alternative held by ``spec``.

    The report carries the size measured at the matched null (same spec
    with the precision entry of the probed edge (0, 1) zeroed, same
    substreams) so power and size can be compared directly.
    """
    return _estimate(spec, n, alpha, method, reps, seed, power=True)


# random_covariance_instances' dimensions, largest sample size and levels
_INSTANCE_DIMS, _INSTANCE_MAX_N, _INSTANCE_ALPHAS = (3, 4, 5, 6), 50, (0.1, 0.05, 0.01)


def _check_instance_count(count) -> None:
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise DomainError(f"instance count must be a positive integer, got {count!r}")


def random_covariance_instances(
    count: int, seed: int
) -> Iterator[tuple[SymmetricMatrix, int, int, int, float]]:
    """Random positive definite sample covariances with admissible test
    settings: yields (S, i, j, n, alpha).

    Each instance draws N from ``_INSTANCE_DIMS``, a random diagonally
    dominant precision model, n in [N + 2, ``_INSTANCE_MAX_N``] and a
    probed edge; ``_INSTANCE_ALPHAS`` cycle.  Deterministic in (count,
    seed); checks the count on first use.
    """
    _check_instance_count(count)
    rng = np.random.default_rng((seed, 0xC0))
    for k in range(count):
        dim = int(rng.choice(_INSTANCE_DIMS))
        n = int(rng.integers(dim + 2, _INSTANCE_MAX_N + 1))
        level = float(rng.uniform(0.0, 0.7))
        spec = random_precision_matrix(dim, level, seed=(seed, k, 1))
        data = sample_gaussian(spec, n, seed=(seed, k, 2))
        s = sample_covariance(data)
        i, j = sorted(int(v) for v in rng.choice(dim, size=2, replace=False))
        yield s, i, j, n, _INSTANCE_ALPHAS[k % len(_INSTANCE_ALPHAS)]
