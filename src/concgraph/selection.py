"""Whole-graph selection: run a per-edge test over all pairs and keep the
edges whose null is rejected."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import _half_shape, fisher_z, null_corr_pvalues
from .errors import DomainError, NotPositiveDefinite
from .estimators import Dataset, sample_covariance
from .independence import EdgeDecision, TestConfig, _fisher_p_value, run_edge_test
from .matrices import SymmetricMatrix, first_nonpositive_pivot

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
    corresponding per-edge decision rejected conditional independence."""

    names: tuple[str, ...]
    edges: frozenset[tuple[int, int]]
    decisions: tuple[EdgeDecision, ...]

    @property
    def dim(self) -> int:
        return len(self.names)

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges in lexicographic order."""
        return sorted(self.edges)

    def _pvalue_column(self) -> list[float]:
        """Every decision's p-value in order, for a writer: the graph's one
        pass runs the first time one is missing, and each decision keeps
        its value."""
        decisions = self.decisions
        if any(d._p_value is None for d in decisions):
            first = decisions[0]
            statistics = [d.statistic for d in decisions]
            _keep_pvalues(decisions, _graph_pvalues(first.method, statistics, first.n, first.dim))
        return [d._p_value for d in decisions]


def all_pairs(dim: int) -> list[tuple[int, int]]:
    """All unordered variable pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def _validated_covariance(data: Dataset) -> SymmetricMatrix:
    _half_shape(data.n, data.dim)
    # Centering a column leaves rounding residue of up to about
    # n * eps * max|x|, which the correlation scaling would blow up to unit
    # variance; a column whose range is at that level counts as constant.
    # Both sides scale with the column, so the check ignores its units.
    hi = data.values.max(axis=0)
    lo = data.values.min(axis=0)
    noise = data.n * np.finfo(float).eps * np.maximum(np.abs(hi), np.abs(lo))
    constant = np.flatnonzero(hi - lo <= noise)
    if constant.size:
        raise NotPositiveDefinite(
            "sample covariance is not positive definite "
            f"(variable {data.names[constant[0]]!r} is constant)"
        )
    s = sample_covariance(data)
    pivot = first_nonpositive_pivot(s)
    if pivot is not None:
        raise NotPositiveDefinite(
            "sample covariance is not positive definite "
            f"(pivot {pivot}, variable {data.names[pivot]!r}, fails)"
        )
    return s


def _holm_level(pvalues: list[float], alpha: float) -> float:
    """The level at which Holm's step-down stops: alpha / (count - K) for
    the first sorted rank K whose p-value exceeds it, or alpha when no
    rank does.  The step-down rejects exactly the p-values at or below
    this level, so one level decides every pair."""
    count = len(pvalues)
    for rank, p in enumerate(sorted(pvalues)):
        level = alpha / (count - rank)
        if p > level:
            return level
    return alpha


def select_graph(
    data: Dataset, config: TestConfig, correction: str = "none"
) -> ConcentrationGraph:
    """Test every pair at the (possibly corrected) level and assemble the
    estimated concentration graph.

    Every pair is tested once, by one public edge test, at one level for
    the whole graph: config.alpha under correction "none", alpha over the
    number of pairs under "bonferroni", and under "holm" the level at
    which the step-down on the p-values stops.  The positive-definiteness
    check and every partial correlation come from one correlation-scaled
    factorization of the sample covariance, so the graph costs one O(N^3)
    factorization however many pairs there are, and rescaling a variable
    changes no decision.  The corrections are standard plumbing for
    multiple testing, outside the per-edge optimality statement.  The
    p-values are one pass over the graph: under Holm before deciding,
    otherwise on a writer's first read of
    ``ConcentrationGraph._pvalue_column``, so the edges compute none.
    """
    if correction not in CORRECTIONS:
        raise DomainError(
            f"unknown correction {correction!r}; expected one of {CORRECTIONS}"
        )
    s = _validated_covariance(data)
    pairs = all_pairs(data.dim)
    method, n = config.method, data.n
    level = config.alpha
    if correction == "bonferroni":
        level = config.alpha / max(len(pairs), 1)
    elif correction == "holm":
        r = s.factorization.partial_correlations[np.triu_indices(s.dim, 1)]
        statistics = [fisher_z(x, n) for x in r.tolist()] if method == "fisher" else r
        pvalues = _graph_pvalues(method, statistics, n, s.dim)
        level = _holm_level(pvalues, config.alpha)
    decisions = [run_edge_test(method, s, i, j, n, level) for i, j in pairs]
    if correction == "holm":
        _keep_pvalues(decisions, pvalues)
    edges = frozenset((d.i, d.j) for d in decisions if d.reject)
    return ConcentrationGraph(names=data.names, edges=edges, decisions=tuple(decisions))


def _graph_pvalues(method: str, statistics, n: int, dim: int) -> list[float]:
    """The p-values of a graph's edge statistics (r, or Fisher's z) in one
    pass: bit for bit what each decision's ``p_value`` computes."""
    if method == "fisher":
        return [_fisher_p_value(z) for z in statistics]
    return null_corr_pvalues(statistics, n, dim).tolist()


def _keep_pvalues(decisions, pvalues: list[float]) -> None:
    for d, p in zip(decisions, pvalues):
        object.__setattr__(d, "_p_value", p)
