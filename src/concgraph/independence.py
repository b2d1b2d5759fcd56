"""Per-edge conditional-independence tests.

Three tests of the null "variables i and j are conditionally independent
given all others" for Gaussian data, all two-sided at level alpha:

* ``umpu``: conditional test on the covariance entry s_ij given every
  other entry.  The conditional null law of s_ij is a Beta(m, m) law
  stretched over the positive-definiteness interval (x1, x2), with
  m = (n - N) / 2, so the acceptance region is a central beta interval.
  Standardizing s_ij by the determinant quadratic turns the region into
  2q - 1 < t < 1 - 2q with q the (alpha/2)-quantile of Beta(m, m).
* ``partial_corr``: compares the sample partial correlation r against the
  two-sided critical value of its exact null law.
* ``fisher``: the asymptotic z-transformation test with the sqrt(n)/2
  scaling; its p-values are asymptotic, not exact.

The standardized statistic t equals r identically and 1 - 2q is the
critical value c of r, so the first two tests are one decision rule:
both read r from the covariance matrix's one correlation-scaled
factorization and decide it at c, and testing every pair costs one
O(N^3) factorization in total.  ``_umpu_route`` keeps the conditional
route as the reference that ``verify`` checks: it standardizes the entry
R_ij of the correlation-scaled matrix R through the determinant
quadratic of R, decides t at 1 - 2q, and scales the quadratic's interval
back to S for the thresholds of ``umpu_raw_thresholds``.  Every step is
a numpy expression over index arrays of pairs, and every quadratic comes
by the matrix determinant lemma from one LAPACK inverse of R, which the
covariance matrix keeps for the route apart from its r, so
``verify --input`` checks all pairs in one O(N^3) pass next to one
public partial-correlation test per pair, the decision being checked;
``verify_equivalence`` runs the same route on its one pair.  The
scaling leaves t unchanged and keeps the quadratic well conditioned
whatever the units of the variables.

The three tests are one body, ``_edge_test``: it checks the inputs, reads
r from the one factorization, takes c from ``_critical_value`` (cached on
the method, level, n and N after the checks, so a bad call raises every
time), forms the statistic (r, or Fisher's z) and calls ``_decision``,
the closed rule: a statistic exactly at a threshold rejects.  Each input
check is raised in one place: the level in ``_check_level``, the method
in ``_check_method`` and the sample size in ``distributions._half_shape``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .distributions import (
    QUANTILE_CACHE_SIZE,
    _half_shape,
    _level_error,
    beta_sym_quantile,
    fisher_z,
    null_corr_cdf,
    null_corr_quantile,
    std_normal_quantile,
)
from .errors import DomainError
from .estimators import _partial_correlations
from .matrices import (
    SymmetricMatrix,
    _check_offdiagonal,
    _lemma_coefficients,
    _roots_and_statistic,
)

__all__ = [
    "METHODS",
    "TestConfig",
    "EdgeDecision",
    "EquivalenceReport",
    "threshold_reject",
    "umpu_test",
    "umpu_raw_thresholds",
    "partial_correlation_test",
    "fisher_test",
    "verify_equivalence",
    "run_edge_test",
]

METHODS = ("umpu", "partial_corr", "fisher")


def _check_level(alpha) -> None:
    if not (isinstance(alpha, (int, float)) and 5e-324 < alpha < 1.0):
        raise _level_error(alpha, "(0, 1)")


def _check_method(method) -> None:
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}; expected one of {METHODS}")


@dataclass(frozen=True)
class TestConfig:
    """Significance level and test method for graph selection."""

    __test__ = False  # keep pytest from collecting this as a test class

    alpha: float
    method: str = "partial_corr"

    def __post_init__(self) -> None:
        _check_level(self.alpha)
        _check_method(self.method)


@dataclass(frozen=True, slots=True, init=False)
class EdgeDecision:
    """Outcome of one per-edge test on n observations of dim variables.

    ``reject`` is True exactly when the statistic falls outside the open
    interval (lower, upper) = (-upper, upper).  ``p_value`` is computed on
    each read from the method, the statistic, n and dim, so a caller that
    reads only decisions, such as a Monte Carlo count, never pays for it.

    A ``select`` graph holds one per pair, so the fields live in slots,
    with no dict per decision.  Every public edge test builds one, so
    ``__init__`` writes each slot through its descriptor instead of the
    generated one ``object.__setattr__`` per field; equality, hashing,
    repr, ``dataclasses.replace``, pickling and the frozen fields are
    those of a generated one.
    """

    i: int
    j: int
    statistic: float
    upper: float
    reject: bool
    method: str
    n: int
    dim: int

    def __init__(self, i, j, statistic, upper, reject, method, n, dim) -> None:
        _set_i(self, i)
        _set_j(self, j)
        _set_statistic(self, statistic)
        _set_upper(self, upper)
        _set_reject(self, reject)
        _set_method(self, method)
        _set_n(self, n)
        _set_dim(self, dim)

    @property
    def lower(self) -> float:
        return -self.upper

    @property
    def p_value(self) -> float:
        if self.method == "fisher":
            return _fisher_p_value(self.statistic)
        return _exact_p_value(self.statistic, self.n, self.dim)


# The slot descriptors' setters, which write under the frozen __setattr__.
_set_i, _set_j, _set_statistic, _set_upper, _set_reject, _set_method, _set_n, _set_dim = (
    getattr(EdgeDecision, f.name).__set__ for f in fields(EdgeDecision)
)


@dataclass(frozen=True)
class EquivalenceReport:
    """Numerical comparison of umpu's conditional route and the
    partial-correlation test on one instance, with both decisions."""

    statistic_gap: float
    signed_gap: float
    threshold_gap: float
    same_decision: bool
    raw_scale_agrees: bool
    umpu: EdgeDecision
    partial_corr: EdgeDecision


def threshold_reject(statistic: float, lower: float, upper: float) -> bool:
    """Closed rejection rule: reject iff statistic <= lower or >= upper;
    elementwise when any argument is an array."""
    return (statistic <= lower) | (statistic >= upper)


def _decision(
    method: str, i: int, j: int, statistic: float, c: float, n: int, dim: int
) -> EdgeDecision:
    """The decision of every test: reject iff |statistic| >= c, the
    closed rule on the acceptance region (-c, c)."""
    return EdgeDecision(i, j, statistic, c, threshold_reject(statistic, -c, c), method, n, dim)


@lru_cache(maxsize=QUANTILE_CACHE_SIZE)
def _critical_value(method: str, alpha: float, n: int, dim: int) -> float:
    """c of a test at a checked level alpha and sizes n > dim, the same for
    every pair; a call that raises is not cached."""
    if method == "fisher":
        # from the lower tail, where alpha / 2 does not round away
        return -std_normal_quantile(alpha / 2.0)
    return null_corr_quantile(alpha, n, dim)


def _exact_p_value(statistic: float, n: int, dim: int) -> float:
    """Two-sided exact p-value 2 F(-|r|) of the null law of r, capped at 1.

    The law is symmetric, so this is the near tail of either sign, never
    1 minus a value close to 1: it keeps its relative accuracy however
    small it is, and r and -r get the same p-value.
    """
    return min(1.0, 2.0 * null_corr_cdf(-abs(statistic), n, dim))


def _fisher_p_value(z: float) -> float:
    """Two-sided asymptotic p-value of the Fisher statistic z."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def _edge_test(
    method: str, s: SymmetricMatrix, i: int, j: int, n: int, alpha: float
) -> EdgeDecision:
    """The one body of the three edge tests: checks the edge, the level,
    the sample size and positive definiteness on every call, in that
    order, and decides r (fisher: z(r)) at :func:`_critical_value`."""
    dim = s.dim
    _check_offdiagonal(dim, i, j)
    _check_level(alpha)
    _half_shape(n, dim)
    r = float(_partial_correlations(s)[i, j])
    c = _critical_value(method, alpha, n, dim)
    statistic = fisher_z(r, n) if method == "fisher" else r
    return _decision(method, i, j, statistic, c, n, dim)


def umpu_test(
    s: SymmetricMatrix, i: int, j: int, n: int, alpha: float
) -> EdgeDecision:
    """Conditional test of the covariance entry s_ij given all others.

    Accepts iff 2q - 1 < t < 1 - 2q where t is the standardized edge
    statistic and q = Beta((n-N)/2, (n-N)/2) quantile at alpha/2.  t == r
    and 1 - 2q == c, so the test is decided in that reduced form: r from
    the covariance matrix's one factorization, at the critical value c of
    its exact null law.  :func:`verify_equivalence` checks the reduction
    against the determinant-quadratic route, and the equivalent raw-scale
    thresholds are exposed by :func:`umpu_raw_thresholds`.
    """
    return _edge_test("umpu", s, i, j, n, alpha)


def _umpu_route(s: SymmetricMatrix, i, j, n: int, alpha: float):
    """umpu's conditional route at the pairs (i, j), two ints or two index
    arrays, for inputs that a public edge test has accepted: t,
    R_ij standardized by R's quadratic at each pair; 1 - 2q, with q the
    Beta(m, m) quantile at alpha/2; the thresholds (c_lo, c_hi) of
    :func:`umpu_raw_thresholds`; and the decisions of t at 1 - 2q and of
    s_ij at (c_lo, c_hi).  Every step is a numpy expression of R and
    G = R^-1, so the pairs of a matrix are checked in one pass."""
    r, g = s._route_tables()
    q = beta_sym_quantile(alpha / 2.0, (n - s.dim) / 2.0)
    x1, x2, t = _roots_and_statistic(*_lemma_coefficients(r, g, i, j), r[i, j])
    width = x2 - x1
    scale = np.sqrt(s.entries[i, i]) * np.sqrt(s.entries[j, j])
    c_lo, c_hi = scale * (x1 + width * q), scale * (x2 - width * q)
    c, raw_reject = 1.0 - 2.0 * q, threshold_reject(s.entries[i, j], c_lo, c_hi)
    return t, c, c_lo, c_hi, threshold_reject(t, -c, c), raw_reject


def umpu_raw_thresholds(
    s: SymmetricMatrix, i: int, j: int, n: int, alpha: float
) -> tuple[float, float]:
    """Thresholds (c_lo, c_hi) on the raw s_ij scale:

        c_lo = x1 + (x2 - x1) q,   c_hi = x2 - (x2 - x1) q

    with (x1, x2) the positive-definiteness interval of s_ij.  Must
    produce the same decision as the standardized form of
    :func:`umpu_test`.

    The interval comes from the determinant quadratic of the
    correlation-scaled matrix R, read in O(1) from R^-1, which the
    covariance matrix computes once for the route: scaling row and column k by
    sqrt(s_kk) maps R to S, so the interval of S in s_ij is
    sqrt(s_ii s_jj) times that of R in r_ij.  R does not depend on the
    units of the variables, and only the one scale factor of this pair
    multiplies the result.
    """
    umpu_test(s, i, j, n, alpha)  # checks the inputs that the route reads
    c_lo, c_hi = _umpu_route(s, i, j, n, alpha)[2:4]
    return float(c_lo), float(c_hi)


def partial_correlation_test(
    s: SymmetricMatrix, i: int, j: int, n: int, alpha: float
) -> EdgeDecision:
    """Exact two-sided test of the sample partial correlation, read from
    the covariance matrix's one factorization."""
    return _edge_test("partial_corr", s, i, j, n, alpha)


def fisher_test(
    s: SymmetricMatrix, i: int, j: int, n: int, alpha: float
) -> EdgeDecision:
    """Asymptotic z-transformation test.

    z = (sqrt(n)/2) ln((1+r)/(1-r)) compared against the standard normal
    quantile; the p-value is asymptotic.  r comes from the covariance
    matrix's one factorization.
    """
    return _edge_test("fisher", s, i, j, n, alpha)


def verify_equivalence(
    s: SymmetricMatrix, i: int, j: int, n: int, alpha: float
) -> EquivalenceReport:
    """Compare umpu's conditional route, t from the determinant quadratic
    of R decided at 1 - 2q, with the partial-correlation test.

    The quadratic is read from R^-1, one LAPACK inverse that the
    covariance matrix computes for the route on the first call, so that
    checking every pair of a matrix costs O(N^3) in total; it never reads
    the Cholesky factor that gives r.  ``verify --input`` runs the same route on
    every pair of its matrix at once.

    Contract: statistic_gap <= 1e-9, identical decisions, and threshold
    gap |(1 - 2q) - c| <= 1e-10; the raw-scale decision must agree with
    the standardized one as well.
    """
    # The test validates the inputs that both routes read; one quadratic
    # of R then serves t (R_ij standardized) and the raw-scale thresholds.
    pc = partial_correlation_test(s, i, j, n, alpha)
    t, c, _, _, _, raw_reject = _umpu_route(s, i, j, n, alpha)
    u = _decision("umpu", i, j, float(t), c, n, s.dim)
    signed_gap = u.statistic - pc.statistic
    return EquivalenceReport(
        statistic_gap=abs(signed_gap),
        signed_gap=signed_gap,
        threshold_gap=abs(u.upper - pc.upper),
        same_decision=u.reject == pc.reject,
        raw_scale_agrees=bool(raw_reject) == u.reject,
        umpu=u,
        partial_corr=pc,
    )


_TESTS = {
    "umpu": umpu_test,
    "partial_corr": partial_correlation_test,
    "fisher": fisher_test,
}


def run_edge_test(
    method: str, s: SymmetricMatrix, i: int, j: int, n: int, alpha: float
) -> EdgeDecision:
    """Dispatch one edge test by method name."""
    # _check_method raises for every name outside _TESTS, unhashable ones
    # included; a known name, as on every decision of a graph, costs no call
    if not isinstance(method, str) or method not in _TESTS:
        _check_method(method)
    return _TESTS[method](s, i, j, n, alpha)
