"""Independent oracles for the test suite.

Everything here deliberately avoids the implementation paths it checks:
determinants by recursive cofactor expansion or by a hand-written
Gaussian elimination (the package uses LAPACK), the correlation-scaled
factorization by the Gauss-Jordan pivot sweep written out in numpy (the
package takes one LAPACK Cholesky call), CSV cells one at a time
with ``float`` (the package parses the body in bulk), JSON by the
recursive ``isinstance`` writer the CLI replaced, beta and correlation
CDFs by adaptive quadrature of smooth trig-substituted integrands,
quantiles by bisection of those quadrature CDFs, the normal quantile by
bisection of an erf-based CDF, Monte Carlo runs one replication at a
time, umpu's raw-scale thresholds by the determinant quadratic of
S / g (the package scales the quadratic of R instead), umpu's
conditional route one pair at a time in Python floats (the package
evaluates it over index arrays), and Holm by
deciding every pair twice with scalar p-values (the package decides each
pair once, after one array pass of p-values), and frozen records by the
``__init__`` that ``dataclasses`` generates (the package writes each
record's fields in one update).
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math

import numpy as np
from scipy import integrate

from concgraph import (
    DataError,
    Dataset,
    DomainError,
    SymmetricMatrix,
    beta_sym_quantile,
    pd_interval,
    quadratic_decomposition,
    run_edge_test,
    sample_covariance,
    sample_gaussian,
    sample_partial_correlation,
)
from concgraph.matrices import PIVOT_FLOOR


def det_cofactor_expansion(arr) -> float:
    """Determinant by recursive Laplace expansion along the first row.

    O(N!) - usable only for small matrices (N <= ~8).
    """
    a = np.asarray(arr, dtype=float)
    n = a.shape[0]
    if n == 0:
        return 1.0
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    for col in range(n):
        minor = np.delete(a[1:], col, axis=1)
        sign = -1.0 if col % 2 else 1.0
        total += sign * a[0, col] * det_cofactor_expansion(minor)
    return total


def det_elimination(arr):
    """Determinant by Gaussian elimination with partial pivoting, written
    out in Python.  O(N^3); the empty 0 x 0 matrix has determinant 1.  A
    (count, N, N) stack gives an array of determinants, like ``_det``."""
    a = np.array(arr, dtype=float)
    if a.ndim == 3:
        return np.array([det_elimination(m) for m in a])
    n = a.shape[0]
    if n == 0:
        return 1.0
    det = 1.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0.0:
            return 0.0
        if p != k:
            a[[k, p]] = a[[p, k]]
            det = -det
        piv = a[k, k]
        det *= piv
        if k + 1 < n:
            a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k] / piv, a[k, k + 1 :])
    return float(det)


def pivot_sweep(entries) -> list[tuple[int | None, np.ndarray | None]]:
    """(pivot, partial correlations) of every matrix of a (count, N, N)
    stack, by sweeping the pivots of R = D^-1/2 S D^-1/2 in order.

    Sweeping pivot k replaces the unswept block by its Schur complement,
    so the pivots are those of the symmetric triangular decomposition;
    after all N sweeps the array holds -R^-1.  ``pivot`` is the index of
    the first pivot at or below PIVOT_FLOOR (a NaN pivot fails too), or
    None; the partial correlations -K_ij / sqrt(K_ii K_jj) are None when
    a pivot fails.  A nonpositive diagonal entry is left unscaled.
    """
    entries = np.asarray(entries, dtype=float)
    dim = entries.shape[-1]
    diag = np.diagonal(entries, axis1=-2, axis2=-1)
    scale = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    r = entries / (scale[..., :, None] * scale[..., None, :])
    a = r.copy()
    # First failing pivot of each matrix; -1 while none has failed.
    pivots = np.full(entries.shape[:-2], -1)
    for k in range(dim):
        # Written so that a NaN pivot fails as well.
        failed = ~(a[..., k, k] > PIVOT_FLOOR)
        if failed.any():
            pivots[failed] = k
            # A failed matrix's result is discarded.  It is replaced by
            # the identity with pivots 0..k-1 already swept, so its
            # remaining sweeps stay finite and end at -K = -I.
            a[failed] = np.diag(np.where(np.arange(dim) < k, -1.0, 1.0))
        piv = a[..., k, k].copy()
        row = a[..., k, :].copy()
        a -= row[..., :, None] * row[..., None, :] / piv[..., None, None]
        a[..., k, :] = row / piv[..., None]
        a[..., :, k] = row / piv[..., None]
        a[..., k, k] = -1.0 / piv
    root = np.sqrt(-np.diagonal(a, axis1=-2, axis2=-1))
    partial = a / (root[..., :, None] * root[..., None, :])
    return [
        (None, partial[m]) if pivot < 0 else (int(pivot), None)
        for m, pivot in enumerate(pivots)
    ]


def cofactor_expansion(arr, k: int, l: int) -> float:
    """Signed cofactor via the recursive determinant oracle."""
    a = np.asarray(arr, dtype=float)
    minor = np.delete(np.delete(a, k, axis=0), l, axis=1)
    sign = -1.0 if (k + l) % 2 else 1.0
    return sign * det_cofactor_expansion(minor)


def read_dataset_cells(path: str) -> Dataset:
    """The CSV reader as it was before the body was parsed in bulk: every
    row through ``csv``, every cell through ``float``."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows:
        raise DataError(f"{path}: empty input")
    names = tuple(cell.strip() for cell in rows[0])
    if any(not name for name in names):
        raise DataError(f"{path}: header contains an empty variable name")
    if len(set(names)) != len(names):
        raise DataError(f"{path}: duplicate variable names in header")
    values = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(names):
            raise DataError(
                f"{path}: row {line_no}: expected {len(names)} fields, got {len(row)}"
            )
        parsed = []
        for col, cell in enumerate(row):
            try:
                parsed.append(float(cell.strip()))
            except ValueError:
                raise DataError(
                    f"{path}: row {line_no}, column {names[col]!r}: "
                    f"non-numeric value {cell!r}"
                ) from None
        values.append(parsed)
    array = np.array(values)
    bad = np.argwhere(~np.isfinite(array))
    if len(bad):
        obs, col = bad[0]
        raise DataError(
            f"{path}: row {obs + 2}, column {names[col]!r}: "
            f"non-finite value {rows[obs + 1][col]!r}"
        )
    if len(values) < 2:
        raise DataError(f"{path}: need at least two observation rows")
    return Dataset(values=array, names=names)


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise DomainError(f"cannot serialize non-finite number {x!r}")
    return format(float(x), ".17g")


def json_dumps(obj) -> str:
    """The CLI's JSON writer as it was before it dispatched on exact types:
    one ``isinstance`` chain per value, escaping only backslash, quote,
    newline, CR and tab."""
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, pieces: list[str]) -> None:
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        for raw, rep in (("\n", "\\n"), ("\r", "\\r"), ("\t", "\\t")):
            escaped = escaped.replace(raw, rep)
        pieces.append(f'"{escaped}"')
    elif isinstance(obj, dict):
        pieces.append("{")
        for idx, (key, value) in enumerate(obj.items()):
            if idx:
                pieces.append(", ")
            _emit(str(key), pieces)
            pieces.append(": ")
            _emit(value, pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for idx, value in enumerate(obj):
            if idx:
                pieces.append(", ")
            _emit(value, pieces)
        pieces.append("]")
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__}")


def beta_sym_cdf_quad(x: float, m: float) -> float:
    """CDF of Beta(m, m) by adaptive quadrature.

    The substitution u = sin(theta)**2 removes the endpoint singularity for
    every m >= 0.5, leaving the smooth integrand sin(2 theta)**(2m-1)
    (rescaled to peak at 1 so quadrature tolerances stay meaningful; the
    constant cancels in the ratio).
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0

    def integrand(theta: float) -> float:
        return math.sin(2.0 * theta) ** (2.0 * m - 1.0)

    upper = math.asin(math.sqrt(x))
    part = integrate.quad(integrand, 0.0, upper, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    full = integrate.quad(integrand, 0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return part / full


def beta_sym_quantile_quad(prob: float, m: float) -> float:
    """Inverse of the quadrature CDF by plain bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if beta_sym_cdf_quad(mid, m) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def null_corr_cdf_quad(r: float, degrees: int) -> float:
    """CDF of the density proportional to (1 - x**2)**((degrees - 2) / 2)
    on [-1, 1], by quadrature after the substitution x = sin(phi)."""
    if r <= -1.0:
        return 0.0
    if r >= 1.0:
        return 1.0
    exponent = degrees - 1.0  # cos(phi)**(2K + 1) with K = (degrees - 2) / 2

    def integrand(phi: float) -> float:
        return math.cos(phi) ** exponent

    part = integrate.quad(
        integrand, -math.pi / 2.0, math.asin(r), epsabs=1e-14, epsrel=1e-13, limit=200
    )[0]
    full = integrate.quad(
        integrand, -math.pi / 2.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-13, limit=200
    )[0]
    return part / full


def null_corr_quantile_quad(alpha: float, degrees: int) -> float:
    """Two-sided critical value from the quadrature CDF by bisection."""
    target = 1.0 - alpha / 2.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if null_corr_cdf_quad(mid, degrees) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def normal_cdf_erf(x: float) -> float:
    # complementary form: accurate in both tails, unlike 0.5*(1 + erf(...))
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile_bisect(p: float) -> float:
    """Standard normal quantile by bisection against the erf-based CDF.

    Upper-tail arguments reflect to the lower tail (exact for p >= 1/2),
    where the complementary-error-function CDF keeps full precision.
    """
    if p > 0.5:
        return -normal_quantile_bisect(1.0 - p)
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf_erf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def integer_shape_beta_cdf(x: float, m: int) -> float:
    """Beta(m, m) CDF for integer m via the binomial-sum identity:

        I_x(m, m) = sum_{k=m}^{2m-1} C(2m-1, k) x**k (1-x)**(2m-1-k)
    """
    n = 2 * m - 1
    return sum(
        math.comb(n, k) * x**k * (1.0 - x) ** (n - k) for k in range(m, n + 1)
    )


def umpu_raw_thresholds_geometric(s: SymmetricMatrix, i: int, j: int, n: int, alpha: float):
    """umpu's thresholds (c_lo, c_hi) on the raw s_ij scale from the
    positive-definiteness interval (x1, x2) of S itself:
    c_lo = x1 + (x2 - x1) q, c_hi = x2 - (x2 - x1) q.  The quadratic runs
    on S / g, with g the geometric mean of the diagonal of S, so that
    det(S / g) = det R stays in range, and the thresholds are scaled back
    by g; unequal column scales stay in the matrix."""
    g = math.exp(float(np.mean(np.log(np.diagonal(s.entries)))))
    interval = pd_interval(quadratic_decomposition(SymmetricMatrix(s.entries / g), i, j))
    q = beta_sym_quantile(alpha / 2.0, (n - s.dim) / 2.0)
    width = interval.x2 - interval.x1
    return g * (interval.x1 + width * q), g * (interval.x2 - width * q)


def conditional_route(s: SymmetricMatrix, i: int, j: int, n: int, alpha: float):
    """umpu's conditional route at one pair, one Python float at a time,
    as the package computed it before the route became array formulas:
    the lemma quadratic of R from G = R^-1, scaled by the power of two
    that brings its largest coefficient into [0.5, 1), its roots, t at
    R_ij, 1 - 2q and the raw-scale thresholds.  Returns (t, 1 - 2q, c_lo,
    c_hi, t's decision, s_ij's decision at (c_lo, c_hi))."""
    scaled, inverse = s._route_tables()
    r = float(scaled[i, j])
    g = float(inverse[i, j])
    k = float(inverse[i, i]) * float(inverse[j, j]) - g * g
    coeffs = (k, 2.0 * (g + k * r), 1.0 - 2.0 * g * r - k * r * r)
    e = -math.frexp(max(map(abs, coeffs)))[1]
    a, b, c = (math.ldexp(v, e) for v in coeffs)
    root = math.sqrt(b * b + 4.0 * a * c)
    x1, x2 = (b - root) / (2.0 * a), (b + root) / (2.0 * a)
    t = (a * r - b / 2.0) / math.sqrt(b * b / 4.0 + a * c)
    q = beta_sym_quantile(alpha / 2.0, (n - s.dim) / 2.0)
    width = x2 - x1
    scale = math.sqrt(s.entries[i, i]) * math.sqrt(s.entries[j, j])
    c_lo, c_hi = scale * (x1 + width * q), scale * (x2 - width * q)
    x = float(s.entries[i, j])
    crit = 1.0 - 2.0 * q
    return t, crit, c_lo, c_hi, t <= -crit or t >= crit, x <= c_lo or x >= c_hi


def random_pd_matrix(rng: np.random.Generator, dim: int, jitter: float = 0.5):
    """Well-conditioned random positive definite matrix G G^T + jitter*I."""
    g = rng.uniform(-2.0, 2.0, size=(dim, dim))
    m = g @ g.T + jitter * dim * np.eye(dim)
    return (m + m.T) / 2.0


def random_sample_covariance(rng: np.random.Generator, dim: int, n: int):
    """Sample covariance (1/n convention) of standard normal data, a
    realistic positive definite input when n > dim."""
    return covariance_of(rng.standard_normal((n, dim)))


def covariance_of(x: np.ndarray) -> np.ndarray:
    """Exactly symmetric sample covariance (1/n convention) of the n x N
    observations x."""
    xc = x - x.mean(axis=0)
    s = xc.T @ xc / x.shape[0]
    return (s + s.T) / 2.0


def dataset_with_exact_covariance(target, n: int, rng: np.random.Generator):
    """n x N data whose sample covariance (1/n convention) equals ``target``
    up to rounding: columns are built from an orthonormalized, mean-zero
    basis, then colored by the Cholesky factor of the target.
    """
    t = np.asarray(target, dtype=float)
    dim = t.shape[0]
    if n < dim + 1:
        raise ValueError("need n >= dim + 1")
    base = rng.standard_normal((n, dim))
    base -= base.mean(axis=0)
    q, _ = np.linalg.qr(base)
    q -= q.mean(axis=0)
    # re-orthonormalize after the second centering
    q, _ = np.linalg.qr(q)
    chol = np.linalg.cholesky(t)
    return math.sqrt(n) * q @ chol.T


def holm_two_pass(data, method: str, alpha: float):
    """Holm selection in two passes, by the former per-edge-level rule:
    every pair tested at alpha, its p-value read from that decision one
    scalar at a time, the textbook step-down on those p-values, then every
    pair tested again at its own Holm level, the level it was compared
    against if the step-down rejected it and otherwise the level at which
    the step-down stopped.  ``select_graph`` now decides every pair at the
    stopping level, which rejects the same pairs.  Returns the second
    pass's decisions and the first pass's p-values, in pair order."""
    s = sample_covariance(data)
    pairs = list(itertools.combinations(range(data.dim), 2))
    pvalues = [run_edge_test(method, s, i, j, data.n, alpha).p_value for i, j in pairs]
    count = len(pairs)
    levels = [0.0] * count
    stop = None
    for rank, k in enumerate(sorted(range(count), key=lambda k: (pvalues[k], k))):
        level = alpha / (count - rank)
        if stop is None and pvalues[k] > level:
            stop = level
        levels[k] = level if stop is None else stop
    decisions = [
        run_edge_test(method, s, i, j, data.n, level) for (i, j), level in zip(pairs, levels)
    ]
    return decisions, pvalues


def replication_loop(spec, n, alpha, methods, reps, seed, edge=(0, 1)):
    """Monte Carlo run one replication at a time on substream (seed, k):
    sample_gaussian -> sample_covariance -> run_edge_test.

    Returns every replication's decisions as a (reps, len(methods))
    boolean array, the rejection count per method, the count of agreeing
    decisions per method pair and the sample partial correlation of every
    replication.
    """
    i, j = edge
    rows = np.empty((reps, len(methods)), dtype=bool)
    counts = dict.fromkeys(methods, 0)
    agree = dict.fromkeys(itertools.combinations(methods, 2), 0)
    r = np.empty(reps)
    for k in range(reps):
        s = sample_covariance(sample_gaussian(spec, n, seed=(seed, k)))
        decisions = {name: run_edge_test(name, s, i, j, n, alpha) for name in methods}
        r[k] = sample_partial_correlation(s, i, j)
        for m, (name, decision) in enumerate(decisions.items()):
            rows[k, m] = decision.reject
            counts[name] += decision.reject
        for a, b in agree:
            agree[(a, b)] += decisions[a].reject == decisions[b].reject
    return rows, counts, agree, r


def generated_twin(cls):
    """A frozen dataclass with cls's name, fields and options, whose
    ``__init__`` is the one ``dataclasses`` generates, one
    ``object.__setattr__`` per field."""
    fields = [
        (f.name, f.type, dataclasses.field(default=f.default, repr=f.repr, compare=f.compare))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(
        cls.__name__, fields, frozen=True, eq=cls.__dataclass_params__.eq
    )
