from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from concgraph import independence, selection
from concgraph.distributions import beta_sym_quantile
from concgraph import (
    CORRECTIONS,
    Dataset,
    DomainError,
    InsufficientSample,
    METHODS,
    NotPositiveDefinite,
    PrecisionSpec,
    SymmetricMatrix,
    TestConfig,
    all_pairs,
    run_edge_test,
    sample_covariance,
    sample_gaussian,
    select_graph,
)


def strong_pair_dataset(rng, rho=0.99, dim=3, n=30):
    """Dataset whose sample covariance has partial correlation exactly rho
    on edge (0, 1) and zero elsewhere."""
    precision = np.eye(dim)
    precision[0, 1] = precision[1, 0] = -rho
    target = np.linalg.inv(precision)
    target = (target + target.T) / 2.0
    values = oracles.dataset_with_exact_covariance(target, n, rng)
    return Dataset(values=values, names=tuple(f"v{k}" for k in range(dim)))


def null_dataset(rng, dim=4, n=40):
    values = rng.standard_normal((n, dim))
    return Dataset(values=values, names=tuple(f"v{k}" for k in range(dim)))


def decision_pvalues(data, method="partial_corr", alpha=0.5):
    """Each pair's p-value, read from select_graph's decisions in order;
    p-values do not depend on the level."""
    graph = select_graph(data, TestConfig(alpha=alpha, method=method))
    return {(d.i, d.j): d.p_value for d in graph.decisions}


class TestAllPairs:
    def test_lexicographic(self):
        assert all_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_small(self):
        assert all_pairs(2) == [(0, 1)]


class TestSelectGraph:
    def test_strong_edge_detected(self, rng):
        data = strong_pair_dataset(rng)
        graph = select_graph(data, TestConfig(alpha=0.05, method="partial_corr"))
        assert (0, 1) in graph.edges
        decision = graph.decisions[0]
        assert decision.statistic == pytest.approx(0.99, abs=1e-9)
        assert decision.p_value <= 1e-6

    def test_edges_match_decisions(self, rng):
        data = null_dataset(rng)
        graph = select_graph(data, TestConfig(alpha=0.2, method="umpu"))
        assert graph.edges == frozenset(
            (d.i, d.j) for d in graph.decisions if d.reject
        )
        assert [(d.i, d.j) for d in graph.decisions] == all_pairs(data.dim)

    def test_umpu_and_partial_corr_graphs_match(self, rng):
        for _ in range(5):
            data = null_dataset(rng, dim=4, n=12)
            g1 = select_graph(data, TestConfig(alpha=0.3, method="umpu"))
            g2 = select_graph(data, TestConfig(alpha=0.3, method="partial_corr"))
            assert g1.edges == g2.edges

    def test_insufficient_sample(self, rng):
        data = Dataset(values=rng.standard_normal((3, 3)), names=("a", "b", "c"))
        with pytest.raises(InsufficientSample, match="insufficient sample"):
            select_graph(data, TestConfig(alpha=0.05))

    def test_non_positive_definite_names_pivot(self, rng):
        x = rng.standard_normal((10, 3))
        x[:, 2] = x[:, 0]  # duplicated column makes the covariance singular
        data = Dataset(values=x, names=("a", "b", "c"))
        with pytest.raises(NotPositiveDefinite, match="pivot"):
            select_graph(data, TestConfig(alpha=0.05))

    @pytest.mark.parametrize("value", [0.1, 4.2, 0.0, -3e7])
    def test_constant_column_names_the_variable(self, rng, value):
        # 0.1 at n = 10 centres to a constant rounding residue, not to zero,
        # which the correlation scaling alone would turn into unit variance
        x = rng.standard_normal((10, 3))
        x[:, 1] = value
        data = Dataset(values=x, names=("a", "b", "c"))
        with pytest.raises(NotPositiveDefinite, match="variable 'b' is constant"):
            select_graph(data, TestConfig(alpha=0.05))

    def test_unknown_correction(self, rng):
        with pytest.raises(DomainError):
            select_graph(null_dataset(rng), TestConfig(alpha=0.05), "sidak")

    def test_column_permutation_permutes_graph(self, rng):
        data = strong_pair_dataset(rng, dim=4)
        graph = select_graph(data, TestConfig(alpha=0.05))
        perm = [2, 0, 3, 1]
        permuted = Dataset(
            values=data.values[:, perm],
            names=tuple(data.names[k] for k in perm),
        )
        permuted_graph = select_graph(permuted, TestConfig(alpha=0.05))
        inverse = {old: new for new, old in enumerate(perm)}
        expected = frozenset(
            tuple(sorted((inverse[i], inverse[j]))) for i, j in graph.edges
        )
        assert permuted_graph.edges == expected

    def test_isolated_graph_on_independent_data(self, rng):
        # strongly null data at a small alpha: no edges at this seed
        data = null_dataset(rng, dim=3, n=200)
        graph = select_graph(data, TestConfig(alpha=0.001))
        assert graph.edges == frozenset()


class TestCorrections:
    def test_bonferroni_level_is_alpha_over_m(self, rng):
        data = null_dataset(rng, dim=4, n=25)
        s = sample_covariance(data)
        graph = select_graph(
            data, TestConfig(alpha=0.3, method="partial_corr"), "bonferroni"
        )
        m = len(all_pairs(4))
        for d in graph.decisions:
            direct = run_edge_test("partial_corr", s, d.i, d.j, 25, 0.3 / m)
            assert d.upper == direct.upper
            assert d.reject == direct.reject

    def test_holm_rejects_superset_of_bonferroni(self, rng):
        for _ in range(10):
            data = null_dataset(rng, dim=4, n=10)
            cfg = TestConfig(alpha=0.6, method="partial_corr")
            bon = select_graph(data, cfg, "bonferroni").edges
            holm = select_graph(data, cfg, "holm").edges
            assert bon <= holm

    def test_none_is_per_edge_alpha(self, rng):
        data = null_dataset(rng, dim=3, n=20)
        s = sample_covariance(data)
        graph = select_graph(data, TestConfig(alpha=0.11), "none")
        for d in graph.decisions:
            direct = run_edge_test("partial_corr", s, d.i, d.j, 20, 0.11)
            assert d.upper == direct.upper

    def test_holm_matches_classic_procedure(self, rng):
        # compare against the textbook step-down on p-values
        for _ in range(10):
            data = null_dataset(rng, dim=5, n=12)
            cfg = TestConfig(alpha=0.4, method="partial_corr")
            pvals = list(decision_pvalues(data, "partial_corr").values())
            expected = textbook_holm_rejects(pvals, cfg.alpha)
            graph = select_graph(data, cfg, "holm")
            got = [d.reject for d in graph.decisions]
            assert got == expected


    @pytest.mark.parametrize("method", METHODS)
    def test_holm_computes_each_pvalue_once(self, method, monkeypatch):
        scalar, bulk = [], []
        exact = independence._exact_p_value
        monkeypatch.setattr(
            independence, "_exact_p_value", lambda *a: scalar.append(a) or exact(*a)
        )
        pvalues_of = selection.null_corr_pvalues
        monkeypatch.setattr(
            selection, "null_corr_pvalues", lambda *a: bulk.append(a) or pvalues_of(*a)
        )
        k = np.eye(30)
        idx = np.arange(29)
        k[idx, idx + 1] = k[idx + 1, idx] = -0.3
        data = sample_gaussian(PrecisionSpec(SymmetricMatrix(k)), 150, seed=5)
        graph = select_graph(data, TestConfig(alpha=0.05, method=method), "holm")
        assert graph.edges
        # Holm reads every p-value, then a writer reads the graph's column,
        # twice here: the exact ones come from Holm's one array pass
        pvalues = graph._pvalue_column()
        assert len(pvalues) == 435
        assert graph._pvalue_column() == pvalues
        assert scalar == []
        assert [len(a[0]) for a in bulk] == ([] if method == "fisher" else [435])


def chain_graph_data(dim=30, n=150, seed=5, rho=-0.3):
    k = np.eye(dim)
    idx = np.arange(dim - 1)
    k[idx, idx + 1] = k[idx + 1, idx] = rho
    return sample_gaussian(PrecisionSpec(SymmetricMatrix(k)), n, seed=seed)


class TestHolmDecidesOnce:
    @pytest.mark.parametrize("correction", CORRECTIONS)
    @pytest.mark.parametrize("method", METHODS)
    def test_one_edge_test_and_one_decision_per_pair(
        self, method, correction, monkeypatch, edge_test_calls
    ):
        built = []
        decision = independence._decision
        # wherever a module binds the one decision builder
        for module in (independence, selection):
            if getattr(module, "_decision", None) is decision:
                monkeypatch.setattr(
                    module, "_decision", lambda *a: built.append(a[1:3]) or decision(*a)
                )
        graph = select_graph(chain_graph_data(), TestConfig(0.05, method), correction)
        assert graph.edges
        assert edge_test_calls == [(method, i, j) for i, j in all_pairs(30)]
        assert built == all_pairs(30)

    @pytest.mark.parametrize("method", METHODS)
    def test_equal_to_two_pass_reference_on_a_chain(self, method):
        data = chain_graph_data()
        graph = select_graph(data, TestConfig(0.05, method), "holm")
        want, pvalues = oracles.holm_two_pass(data, method, 0.05)
        assert_same_holm_graph(graph, want, pvalues, data, method, 0.05)
        # one level, so one pair of critical values, for every pair
        assert len({d.upper for d in graph.decisions}) == 1

    @given(seed=st.integers(0, 2**31), alpha=st.sampled_from([0.05, 0.3, 0.6, 0.9]))
    @settings(max_examples=30, deadline=None)
    def test_equal_to_two_pass_reference_on_small_graphs(self, seed, alpha):
        rng = np.random.default_rng(seed)
        data = strong_pair_dataset(rng, rho=0.5, dim=5, n=12) if seed % 2 else null_dataset(rng, 5, 12)
        for method in METHODS:
            graph = select_graph(data, TestConfig(alpha, method), "holm")
            want, pvalues = oracles.holm_two_pass(data, method, alpha)
            assert_same_holm_graph(graph, want, pvalues, data, method, alpha)


def textbook_holm_rejects(pvalues, alpha):
    """Holm's step-down on p-values: reject in increasing order while
    p_(k) <= alpha / (count - k), then stop."""
    count = len(pvalues)
    rejects = [False] * count
    for rank, k in enumerate(sorted(range(count), key=lambda k: (pvalues[k], k))):
        if pvalues[k] > alpha / (count - rank):
            break
        rejects[k] = True
    return rejects


def textbook_holm_stop(pvalues, alpha):
    """The level the step-down stops at: alpha / (count - K) for the first
    rank K it does not reject, or alpha when it rejects every p-value."""
    count = len(pvalues)
    stop = sum(textbook_holm_rejects(pvalues, alpha))
    return alpha if stop == count else alpha / (count - stop)


def assert_same_holm_graph(graph, want, pvalues, data, method, alpha):
    """The graph rejects what the per-edge-level reference rejects, with
    its statistics and p-values, and every decision is the public edge
    test at the textbook stopping level."""
    def key(d):
        return d.i, d.j, d.statistic, d.reject

    assert [key(d) for d in graph.decisions] == [key(d) for d in want]
    assert [d.p_value for d in graph.decisions] == pvalues
    s = sample_covariance(data)
    stop = textbook_holm_stop(pvalues, alpha)
    for d in graph.decisions:
        assert d == run_edge_test(method, s, d.i, d.j, data.n, stop)


class TestHolmLevel:
    # (p-values, alpha, stopping level written out)
    CASES = {
        "every edge rejected": ([0.002, 0.001], 0.05, 0.05),
        "none rejected": ([0.3, 0.9, 0.5], 0.05, 0.05 / 3),
        "stop mid-way": ([0.2, 0.001, 0.04, 0.011], 0.05, 0.05 / 2),
        "tie at the stopping rank": ([0.04, 0.01, 0.5, 0.04], 0.1, 0.1 / 3),
        "one pair rejected": ([0.04], 0.05, 0.05),
        "one pair kept": ([0.06], 0.05, 0.05),
        "no pair": ([], 0.05, 0.05),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_equal_to_the_textbook_step_down(self, case):
        pvalues, alpha, stop = self.CASES[case]
        level = alpha / selection._holm_divisor(pvalues, alpha)
        assert level == stop == textbook_holm_stop(pvalues, alpha)
        assert [p <= level for p in pvalues] == textbook_holm_rejects(pvalues, alpha)

    @pytest.mark.parametrize("method", METHODS)
    def test_a_graph_takes_one_critical_value(self, method):
        independence._critical_value.cache_clear()
        graph = select_graph(chain_graph_data(), TestConfig(0.05, method), "holm")
        assert graph.edges
        assert independence._critical_value.cache_info().misses == 1
        assert len(graph.decisions) == 435
        assert len({d.upper for d in graph.decisions}) == 1

    def test_an_exact_graph_takes_one_cold_quantile(self):
        independence._critical_value.cache_clear()
        beta_sym_quantile.cache_clear()
        select_graph(chain_graph_data(), TestConfig(0.05, "umpu"), "holm")
        assert beta_sym_quantile.cache_info().misses == 1


class TestBulkPvalues:
    # (rho on edge (0, 1), dim, n): n - dim odd gives a half-integer shape,
    # dim = 2 one pair, |rho| = 0.999 the far tail, both signs
    CASES = (
        (0.6, 2, 5),
        (-0.6, 2, 6),
        (0.999, 3, 30),
        (-0.999, 3, 31),
        (0.3, 6, 13),
        (0.0, 6, 40),
    )

    @pytest.mark.parametrize("method", ("umpu", "partial_corr"))
    @pytest.mark.parametrize("rho, dim, n", CASES)
    def test_equal_to_scalar_pvalues(self, rng, rho, dim, n, method):
        data = strong_pair_dataset(rng, rho=rho, dim=dim, n=n)
        graph = select_graph(data, TestConfig(alpha=0.05, method=method), "holm")
        for d in graph.decisions:
            assert d.p_value == independence._exact_p_value(d.statistic, n, dim)

    def test_edges_alone_compute_no_pvalue(self, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("p-value computed")

        monkeypatch.setattr(independence, "_exact_p_value", refuse)
        monkeypatch.setattr(selection, "null_corr_pvalues", refuse)
        data = strong_pair_dataset(rng)
        for correction in ("none", "bonferroni"):
            assert select_graph(data, TestConfig(alpha=0.05), correction).edges

    @pytest.mark.parametrize("correction", CORRECTIONS)
    def test_a_copy_with_other_decisions_has_their_column(self, rng, correction):
        cfg = TestConfig(alpha=0.05)
        graph = select_graph(strong_pair_dataset(rng), cfg, correction)
        other = select_graph(null_dataset(rng, dim=3), cfg, correction)
        assert graph._pvalue_column() != other._pvalue_column()
        # the column is not compared, and a copy computes its own
        assert replace(graph) == graph
        copy = replace(graph, decisions=other.decisions)
        assert copy._pvalue_column() == [d.p_value for d in other.decisions]


class TestEdgePvalues:
    def test_sorted_by_edge_and_deterministic(self, rng):
        data = null_dataset(rng)
        out1 = list(decision_pvalues(data, "partial_corr").items())
        out2 = list(decision_pvalues(data, "partial_corr").items())
        assert out1 == out2
        assert [edge for edge, _ in out1] == all_pairs(data.dim)

    def test_strong_pair_has_tiny_pvalue(self, rng):
        data = strong_pair_dataset(rng)
        pvals = decision_pvalues(data, "partial_corr")
        assert pvals[(0, 1)] <= 1e-6

    def test_near_uniform_under_null(self, rng):
        # pool p-values over replications: roughly uniform under the null
        pooled = []
        for _ in range(60):
            data = null_dataset(rng, dim=3, n=15)
            pooled.extend(decision_pvalues(data, "partial_corr").values())
        pooled = np.asarray(pooled)
        assert abs(pooled.mean() - 0.5) < 0.1
        assert abs((pooled < 0.25).mean() - 0.25) < 0.12

    def test_matches_method_pvalues(self, rng):
        data = null_dataset(rng)
        s = sample_covariance(data)
        for (i, j), p in decision_pvalues(data, "fisher").items():
            assert p == run_edge_test("fisher", s, i, j, data.n, 0.05).p_value

    def test_propagates_data_errors(self, rng):
        data = Dataset(values=rng.standard_normal((3, 4)), names=tuple("abcd"))
        with pytest.raises(InsufficientSample):
            decision_pvalues(data, "partial_corr")


def chain_dataset(dim=40, n=160, seed=0):
    """Gaussian sample from a unit-diagonal chain precision with partial
    correlation 0.3 between neighbours."""
    k = np.eye(dim)
    idx = np.arange(dim - 1)
    k[idx, idx + 1] = k[idx + 1, idx] = -0.3
    return sample_gaussian(PrecisionSpec(SymmetricMatrix(k)), n, seed=seed)


# Column scales that broke per-edge cofactors and a trace-relative pivot
# floor: determinants underflowed (1e-4), overflowed to NaN (1e4), or the
# small-variance half failed the floor (1e5 / 1e-5).
RESCALINGS = {
    "all-1e-4": np.full(40, 1e-4),
    "all-1e4": np.full(40, 1e4),
    "half-1e5-half-1e-5": np.repeat([1e5, 1e-5], 20),
}


class TestScaleInvariance:
    @pytest.mark.parametrize("method", ["partial_corr", "umpu"])
    @pytest.mark.parametrize("name", sorted(RESCALINGS))
    def test_rescaled_columns_keep_the_graph(self, name, method):
        data = chain_dataset()
        scaled = Dataset(values=data.values * RESCALINGS[name], names=data.names)
        cfg = TestConfig(alpha=0.05, method=method)
        base = select_graph(data, cfg)
        got = select_graph(scaled, cfg)
        assert base.edges  # the chain is detected, so the check has teeth
        assert got.edges == base.edges
        assert [d.reject for d in got.decisions] == [d.reject for d in base.decisions]
        gap = max(abs(a.statistic - b.statistic) for a, b in zip(got.decisions, base.decisions))
        assert gap <= 1e-12


@st.composite
def mixed_datasets(draw):
    """Correlated Gaussian data: independent normals mixed by a unit lower
    triangular matrix, which is never singular."""
    seed = draw(st.integers(0, 2**32 - 1))
    dim = draw(st.integers(3, 7))
    n = draw(st.integers(dim + 3, 6 * dim))
    rng = np.random.default_rng(seed)
    mix = np.tril(rng.uniform(-1.0, 1.0, size=(dim, dim)), -1) + np.eye(dim)
    values = rng.standard_normal((n, dim)) @ mix.T
    return Dataset(values=values, names=tuple(f"v{k}" for k in range(dim)))


class TestInvarianceProperties:
    @given(
        data=mixed_datasets(),
        exponents=st.lists(st.floats(-8.0, 8.0), min_size=7, max_size=7),
        offsets=st.lists(st.floats(-100.0, 100.0), min_size=7, max_size=7),
        method=st.sampled_from(METHODS),
        correction=st.sampled_from(CORRECTIONS),
    )
    @settings(max_examples=60)
    def test_scaling_and_shifting_keep_every_decision(
        self, data, exponents, offsets, method, correction
    ):
        scales = 10.0 ** np.array(exponents[: data.dim])
        shifts = scales * np.array(offsets[: data.dim])
        moved = Dataset(values=data.values * scales + shifts, names=data.names)
        cfg = TestConfig(alpha=0.1, method=method)
        base = select_graph(data, cfg, correction)
        got = select_graph(moved, cfg, correction)
        assert [d.reject for d in got.decisions] == [d.reject for d in base.decisions]
        for a, b in zip(got.decisions, base.decisions):
            assert a.statistic == pytest.approx(b.statistic, abs=1e-9)

    @pytest.mark.parametrize("correction", CORRECTIONS)
    @pytest.mark.parametrize("method", METHODS)
    def test_tiny_units_keep_every_decision(self, method, correction):
        # products of values near 1e-160 are subnormal in the data's units
        data = chain_graph_data(dim=6, n=50, seed=3, rho=-0.5)
        tiny = Dataset(values=data.values * 1e-160, names=data.names)
        cfg = TestConfig(alpha=0.05, method=method)
        base = select_graph(data, cfg, correction)
        got = select_graph(tiny, cfg, correction)
        assert base.edges
        assert [d.reject for d in got.decisions] == [d.reject for d in base.decisions]
        for a, b in zip(got.decisions, base.decisions):
            assert a.statistic == pytest.approx(b.statistic, abs=1e-12)

    @given(data=mixed_datasets(), column=st.integers(0, 6))
    @settings(max_examples=40)
    def test_sign_flip_flips_r_on_the_column_edges(self, data, column):
        column %= data.dim
        flipped = np.array(data.values)
        flipped[:, column] *= -1.0
        cfg = TestConfig(alpha=0.1)
        base = select_graph(data, cfg)
        got = select_graph(Dataset(values=flipped, names=data.names), cfg)
        for a, b in zip(got.decisions, base.decisions):
            sign = -1.0 if column in (a.i, a.j) else 1.0
            assert a.statistic == pytest.approx(sign * b.statistic, abs=1e-14)
            assert a.reject == b.reject
            assert a.p_value == b.p_value

    @given(data=mixed_datasets(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_permuting_variables_permutes_the_graph(self, data, seed):
        perm = np.random.default_rng(seed).permutation(data.dim)
        permuted = Dataset(
            values=data.values[:, perm], names=tuple(data.names[k] for k in perm)
        )
        cfg = TestConfig(alpha=0.1)
        base = select_graph(data, cfg, "holm")
        got = select_graph(permuted, cfg, "holm")
        original = {(d.i, d.j): d for d in base.decisions}
        for d in got.decisions:
            old = original[tuple(sorted((int(perm[d.i]), int(perm[d.j]))))]
            assert d.statistic == pytest.approx(old.statistic, abs=1e-12)
            assert d.reject == old.reject

    @given(data=mixed_datasets(), alpha=st.floats(0.01, 0.9))
    @settings(max_examples=40)
    def test_holm_from_levels_equals_holm_from_pvalues(self, data, alpha):
        graph = select_graph(data, TestConfig(alpha=alpha), "holm")
        pvalues = [d.p_value for d in graph.decisions]
        expected = textbook_holm_rejects(pvalues, alpha)
        assert [d.reject for d in graph.decisions] == expected
