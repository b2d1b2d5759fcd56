"""Special functions and null distributions.

Everything here is pure and reentrant: the regularized incomplete beta
function and its symmetric-shape inverse, the exact null law of the
sample partial correlation (density proportional to (1 - x**2)**((d-2)/2)
on [-1, 1] with d = n - N degrees of freedom), the Fisher transformation
and the standard normal quantile, from the standard library's
``statistics`` module.  The public functions are scalar, except
:func:`null_corr_pvalues`: every exact p-value that ``select`` writes,
under any correction, comes from one call of it per graph.  It and the
Kolmogorov-Smirnov check of a Monte Carlo null sample use the array form
of the incomplete beta function, bit for bit the scalar one.

The two laws are linked by the change of variable r = 2u - 1: if
u ~ Beta(m, m) with m = d / 2 then r follows the null correlation law.
All quantiles are exact for half-integer shapes, including m = 0.5.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, InsufficientSample

__all__ = [
    "reg_inc_beta",
    "beta_sym_quantile",
    "null_corr_cdf",
    "null_corr_quantile",
    "null_corr_pvalues",
    "fisher_z",
    "std_normal_quantile",
]

_CF_MIN_ITER = 500
_CF_EPS = 1e-15
# Fewest elements on which the array continued fraction runs rather than
# one scalar call per element: at m from 2.5 to 9950 the array pass took
# 1.1-1.6 times the scalar calls' time on 32 elements, 0.7-1.0 times on
# 48 and 0.56-0.80 times on 64, so the crossover is set by the count.
_CF_ARRAY_MIN = 48


def _cf_max_iter(a: float, b: float) -> int:
    """Iteration cap of the continued fraction for shapes (a, b).  On the
    side of the mean where it is evaluated, it converges in
    O(sqrt(max(a, b))) steps (Numerical Recipes, section 6.4): about 550
    at a = b = 10**6 and 4,800 at 10**9.  The cap is four times that
    square root, and never below 500."""
    return max(_CF_MIN_ITER, int(4.0 * math.sqrt(max(a, b))))


def _no_convergence(a: float, b: float) -> ConvergenceError:
    return ConvergenceError(
        f"incomplete beta continued fraction did not converge "
        f"for shapes ({a!r}, {b!r})"
    )


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function, evaluated with
    the modified Lentz algorithm."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _cf_max_iter(a, b) + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise _no_convergence(a, b)


def _beta_cf_array(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """:func:`_beta_cf` over a 1-d array of x.  Every element runs the
    scalar routine's modified Lentz steps, with the same operations in the
    same order, and freezes at its own convergence step, so each result is
    bit for bit the scalar one."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty_like(x)
    if not x.size:
        return out
    # Elements still iterating, and their indices in x.
    live = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
    h = d
    for m in range(1, _cf_max_iter(a, b) + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _CF_EPS
        if done.any():
            out[live[done]] = h[done]
            going = ~done
            if not going.any():
                return out
            x, c, d, h, live = x[going], c[going], d[going], h[going], live[going]
    raise _no_convergence(a, b)


def _check_shape(p: float, name: str = "shape") -> None:
    if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 0.0):
        raise DomainError(f"{name} parameter must be a positive finite real, got {p!r}")


def _log_beta_head(p: float, q: float) -> float:
    """lgamma(p + q) - lgamma(p) - lgamma(q), the head of the incomplete
    beta function's log prefactor.  exp carries its rounding, about
    eps * (|lgamma(p + q)| + |lgamma(p)| + |lgamma(q)|), into the result's
    relative error: 8.6e-6 at p = q = 5e8, 2.8 at 1e14.  Past 1e-4, or
    where lgamma overflows, the shapes are refused."""
    try:
        terms = (math.lgamma(p + q), math.lgamma(p), math.lgamma(q))
    except OverflowError:
        terms = (math.inf,)
    if not math.ulp(1.0) * sum(map(abs, terms)) <= 1e-4:
        raise ConvergenceError(f"incomplete beta prefactor inaccurate for shapes ({p!r}, {q!r})")
    return terms[0] - terms[1] - terms[2]


def reg_inc_beta(x: float, p: float, q: float) -> float:
    """Regularized incomplete beta function I_x(p, q).

    Continued-fraction evaluation, absolute error below 1e-12 across the
    shapes used here.  I_0 = 0, I_1 = 1 and I_x(p, q) = 1 - I_{1-x}(q, p).
    Shapes too large for the prefactor (:func:`_log_beta_head`) raise
    :class:`ConvergenceError`.
    """
    _check_shape(p, "first shape")
    _check_shape(q, "second shape")
    if not (isinstance(x, (int, float)) and 0.0 <= x <= 1.0):
        raise DomainError(f"argument must lie in [0, 1], got {x!r}")
    x = float(x)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    bt = math.exp(_log_beta_head(p, q) + p * math.log(x) + q * math.log1p(-x))
    if x < (p + 1.0) / (p + q + 2.0):
        return bt * _beta_cf(p, q, x) / p
    return 1.0 - bt * _beta_cf(q, p, 1.0 - x) / q


def _reg_inc_beta_array(x: np.ndarray, m: float) -> np.ndarray:
    """:func:`reg_inc_beta` of the symmetric Beta(m, m) law, I_x(m, m), at
    every element of a 1-d float array of arguments in [0, 1], bit for bit
    the scalar value at each.  The arguments and the shape are not checked.

    The continued fraction runs on arrays of ``_CF_ARRAY_MIN`` elements
    or more.  A step of the array pass costs about 14 numpy calls whatever
    the length, so on fewer elements the scalar routine runs once per
    element, with the same bits: at 28 elements and m near 10**4 that
    takes half the time.  The prefactor stays on ``math``, one element at
    a time, since numpy's log, log1p and exp differ from libm's in the
    last bit on some inputs.  For equal shapes the scalar routine's two
    tails are the one continued fraction of Beta(m, m) at x or 1 - x, so
    one pass serves both.
    """
    out = np.where(x == 1.0, 1.0, 0.0)
    inner = np.flatnonzero((x > 0.0) & (x < 1.0))
    if not inner.size:
        return out
    head = _log_beta_head(m, m)
    x = x[inner]
    bt = np.array([math.exp(head + m * math.log(v) + m * math.log1p(-v)) for v in x.tolist()])
    lower = x < (m + 1.0) / (m + m + 2.0)
    x_cf = np.where(lower, x, 1.0 - x)
    if x_cf.size < _CF_ARRAY_MIN:
        cf = np.array([_beta_cf(m, m, v) for v in x_cf.tolist()])
    else:
        cf = _beta_cf_array(m, m, x_cf)
    tail = bt * cf / m
    out[inner] = np.where(lower, tail, 1.0 - tail)
    return out


_BISECT_WIDTH = 1e-13

# Entries kept by the quantile cache here and by the critical-value cache of
# ``independence``.  A long-lived process that sees many (level, n) pairs,
# such as one Holm stopping level per graph over many datasets, would
# otherwise grow them without bound.
QUANTILE_CACHE_SIZE = 4096


@lru_cache(maxsize=QUANTILE_CACHE_SIZE)
def beta_sym_quantile(prob: float, m: float) -> float:
    """Quantile q of the symmetric Beta(m, m) law: I_q(m, m) = prob.

    Bracketed bisection to width 1e-13 followed by one secant polish, so
    |I_q - prob| <= 1e-12.  Monotone in prob, with q(1 - p) = 1 - q(p)
    exact by construction.  Cached (the QUANTILE_CACHE_SIZE most recent
    pairs), since test thresholds reuse the same (prob, m) pairs heavily.
    """
    _check_shape(m, "shape")
    if not (isinstance(prob, (int, float)) and 0.0 < prob < 1.0):
        raise DomainError(f"probability must lie in (0, 1), got {prob!r}")
    prob = float(prob)
    if prob == 0.5:
        return 0.5
    if prob > 0.5:
        return 1.0 - beta_sym_quantile(1.0 - prob, m)
    lo, hi = 0.0, 1.0
    flo, fhi = 0.0, 1.0
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        fm = reg_inc_beta(mid, m, m)
        if fm < prob:
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    if fhi > flo:
        q = lo + (prob - flo) * (hi - lo) / (fhi - flo)
        q = min(max(q, lo), hi)
    else:
        q = 0.5 * (lo + hi)
    return q


def _half_shape(n: int, dim: int) -> float:
    """m = (n - N) / 2 for an integer sample size n > N integer variables.
    Every edge test reads it, so exact ``int``s with n > dim, the common
    case, return after two type tests and one comparison; any other
    value takes the full checks, in their order and with their messages."""
    if type(n) is int and type(dim) is int and n > dim:
        return (n - dim) / 2.0
    if not isinstance(n, (int,)) or isinstance(n, bool):
        raise DomainError(f"sample size must be an integer, got {n!r}")
    if not isinstance(dim, (int,)) or isinstance(dim, bool):
        raise DomainError(f"variable count must be an integer, got {dim!r}")
    if n <= dim:
        raise InsufficientSample(
            f"insufficient sample: need n > N, got n = {n}, N = {dim}"
        )
    return (n - dim) / 2.0


def _for_sample(exc: ConvergenceError, n: int, dim: int) -> ConvergenceError:
    """``exc`` with the sample size and variable count that set its shape."""
    return ConvergenceError(f"{exc} (n = {n}, N = {dim})")


def null_corr_cdf(r: float, n: int, dim: int) -> float:
    """CDF of the null law of the sample partial correlation.

    F(r) = I_{(1+r)/2}(m, m) with m = (n - N) / 2; F(-1) = 0, F(0) = 1/2,
    F(1) = 1.
    """
    m = _half_shape(n, dim)
    if not (isinstance(r, (int, float)) and -1.0 <= r <= 1.0):
        raise DomainError(f"correlation must lie in [-1, 1], got {r!r}")
    try:
        return reg_inc_beta((1.0 + float(r)) / 2.0, m, m)
    except ConvergenceError as exc:
        raise _for_sample(exc, n, dim) from None


def _level_error(alpha, interval: str) -> DomainError:
    # 5e-324, the smallest positive double, has no critical value: its half rounds to 0
    if isinstance(alpha, float) and alpha == 5e-324:
        return DomainError(f"significance level {alpha!r} is too small: alpha / 2 rounds to 0")
    return DomainError(f"significance level must lie in {interval}, got {alpha!r}")


def null_corr_quantile(alpha: float, n: int, dim: int) -> float:
    """Two-sided critical value c for the null correlation law.

    c = 1 - 2 q with q the (alpha/2)-quantile of Beta(m, m), equivalently
    the (1 - alpha/2)-quantile of the law of r.  alpha = 1 is allowed as
    the degenerate always-reject boundary (c = 0); 5e-324 is refused.
    """
    m = _half_shape(n, dim)
    if not (isinstance(alpha, (int, float)) and 5e-324 < alpha <= 1.0):
        raise _level_error(alpha, "(0, 1]")
    try:
        return 1.0 - 2.0 * beta_sym_quantile(float(alpha) / 2.0, m)
    except ConvergenceError as exc:
        raise _for_sample(exc, n, dim) from None


def null_corr_pvalues(r, n: int, dim: int) -> np.ndarray:
    """Exact two-sided p-values min(1, 2 F(-|r_k|)) at every element of r,
    as a 1-d array, bit for bit those with F = :func:`null_corr_cdf`."""
    m = _half_shape(n, dim)
    r = np.asarray(r, dtype=np.float64).ravel()
    bad = np.flatnonzero(~(np.abs(r) <= 1.0))
    if bad.size:
        raise DomainError(f"correlation must lie in [-1, 1], got {r[bad[0]].item()!r}")
    try:
        return np.minimum(1.0, 2.0 * _reg_inc_beta_array((1.0 - np.abs(r)) / 2.0, m))
    except ConvergenceError as exc:
        raise _for_sample(exc, n, dim) from None


def fisher_z(r: float, n: int) -> float:
    """Fisher statistic z = (sqrt(n) / 2) * ln((1 + r) / (1 - r))."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"sample size must be a positive integer, got {n!r}")
    if not (isinstance(r, (int, float)) and -1.0 < r < 1.0):
        raise DomainError(f"correlation must lie strictly inside (-1, 1), got {r!r}")
    return math.sqrt(n) * math.atanh(float(r))


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF: ``statistics.NormalDist().inv_cdf``,
    Wichura's AS 241 (Applied Statistics 37, 1988), relative error below
    1e-15.  Not cached: the Fisher test reads its critical value through
    the critical-value cache of ``independence``.
    """
    if not (isinstance(p, (int, float)) and 0.0 < p < 1.0):
        raise DomainError(f"probability must lie in (0, 1), got {p!r}")
    import statistics  # here, so that only a Fisher test loads it

    return statistics.NormalDist().inv_cdf(float(p))
