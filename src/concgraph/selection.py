"""Whole-graph selection: run a per-edge test over all pairs and keep the
edges whose null is rejected."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import _half_shape, fisher_z, null_corr_pvalues
from .errors import DomainError, NotPositiveDefinite
from .estimators import Dataset, _covariances, _partial_correlations
from .independence import EdgeDecision, TestConfig, _fisher_p_value, run_edge_test
from .matrices import SymmetricMatrix

__all__ = [
    "CORRECTIONS",
    "ConcentrationGraph",
    "all_pairs",
    "select_graph",
]

CORRECTIONS = ("none", "bonferroni", "holm")


@dataclass(frozen=True)
class ConcentrationGraph:
    """Estimated concentration graph: an edge is present exactly when the
    corresponding per-edge decision rejected conditional independence.

    The graph owns its p-value column: Holm's one pass, or one pass on a
    writer's first read.  It stays out of ``__init__`` and comparisons, so
    a ``dataclasses.replace`` copy computes its own."""

    names: tuple[str, ...]
    edges: frozenset[tuple[int, int]]
    decisions: tuple[EdgeDecision, ...]
    _pvalues: tuple[float, ...] | None = field(init=False, default=None, repr=False, compare=False)

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges in lexicographic order."""
        return sorted(self.edges)

    def _pvalue_column(self) -> list[float]:
        """Every decision's p-value in order, bit for bit each decision's
        ``p_value``, for a writer."""
        if self._pvalues is None and self.decisions:
            first = self.decisions[0]
            statistics = [d.statistic for d in self.decisions]
            pvalues = _graph_pvalues(first.method, statistics, first.n, first.dim)
            object.__setattr__(self, "_pvalues", tuple(pvalues))
        return list(self._pvalues or ())


def all_pairs(dim: int) -> list[tuple[int, int]]:
    """All unordered variable pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def _validated_covariance(data: Dataset) -> SymmetricMatrix:
    """The covariance S of the columns, each scaled by the power of two that
    brings its largest magnitude into [0.5, 1): exact, so R and every
    decision keep their bits wherever the data's own S is representable."""
    _half_shape(data.n, data.dim)
    # Centering a column leaves rounding residue of up to about
    # n * eps * max|x|, which the correlation scaling would blow up to unit
    # variance; a column whose range is at that level counts as constant.
    # Both sides scale with the column, so the check ignores its units and
    # is made in the scaled units, where hi - lo cannot overflow.
    hi = data.values.max(axis=0)
    lo = data.values.min(axis=0)
    shift = -np.frexp(np.maximum(np.abs(hi), np.abs(lo)))[1]
    hi, lo = np.ldexp(hi, shift), np.ldexp(lo, shift)
    noise = data.n * np.finfo(float).eps * np.maximum(np.abs(hi), np.abs(lo))
    constant = np.flatnonzero(hi - lo <= noise)
    if constant.size:
        raise NotPositiveDefinite(
            "sample covariance is not positive definite "
            f"(variable {data.names[constant[0]]!r} is constant)"
        )
    s = SymmetricMatrix(_covariances(np.ldexp(data.values, shift)))
    _partial_correlations(s, "sample covariance", data.names)
    return s


def _holm_divisor(pvalues: list[float], alpha: float) -> int:
    """The divisor of alpha at which Holm's step-down stops: count - K for
    the first sorted rank K whose p-value exceeds alpha / (count - K), or
    1 when no rank does.  The step-down rejects exactly the p-values at or
    below alpha over this divisor, so one level decides every pair."""
    count = len(pvalues)
    for rank, p in enumerate(sorted(pvalues)):
        if p > alpha / (count - rank):
            return count - rank
    return 1


def select_graph(
    data: Dataset, config: TestConfig, correction: str = "none"
) -> ConcentrationGraph:
    """Test every pair at the (possibly corrected) level and assemble the
    estimated concentration graph.

    Every pair is tested once, by one public edge test, at one level for
    the whole graph: config.alpha under correction "none", alpha over the
    number of pairs under "bonferroni", and under "holm" the level at
    which the step-down on the p-values stops.  A corrected level at or
    below 5e-324 is refused with DomainError before any pair is tested.
    The positive-definiteness check and every partial correlation come
    from one correlation-scaled factorization of the sample covariance,
    so the graph costs one O(N^3) factorization however many pairs there
    are, and rescaling a variable changes no decision.  The corrections
    are standard plumbing for multiple testing, outside the per-edge
    optimality statement.  The graph owns its p-values, one pass: under
    Holm the one it decided from, otherwise a writer's first read of
    ``_pvalue_column``.
    """
    if correction not in CORRECTIONS:
        raise DomainError(
            f"unknown correction {correction!r}; expected one of {CORRECTIONS}"
        )
    s = _validated_covariance(data)
    pairs = all_pairs(data.dim)
    method, n, alpha = config.method, data.n, config.alpha
    divisor = 1
    if correction == "bonferroni":
        divisor = max(len(pairs), 1)
    elif correction == "holm":
        r = s._factored()[1][np.triu_indices(s.dim, 1)]  # checked positive definite above
        statistics = [fisher_z(x, n) for x in r.tolist()] if method == "fisher" else r
        pvalues = _graph_pvalues(method, statistics, n, s.dim)
        divisor = _holm_divisor(pvalues, alpha)
    level = alpha / divisor
    # a level the user never gave, 0 or 5e-324, has no critical value
    if level <= 5e-324:
        raise DomainError(
            f"significance level {alpha!r} is too small for the {correction} correction: "
            f"alpha / {divisor} is at most 5e-324"
        )
    decisions = [run_edge_test(method, s, i, j, n, level) for i, j in pairs]
    edges = frozenset((d.i, d.j) for d in decisions if d.reject)
    graph = ConcentrationGraph(names=data.names, edges=edges, decisions=tuple(decisions))
    if correction == "holm":
        object.__setattr__(graph, "_pvalues", tuple(pvalues))
    return graph


def _graph_pvalues(method: str, statistics, n: int, dim: int) -> list[float]:
    """The p-values of a graph's edge statistics (r, or Fisher's z) in one
    pass: bit for bit what each decision's ``p_value`` computes."""
    if method == "fisher":
        return [_fisher_p_value(z) for z in statistics]
    return null_corr_pvalues(statistics, n, dim).tolist()
