import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import stats
from scipy.special import ndtri
from hypothesis import strategies as st

import oracles
from concgraph import (
    METHODS,
    Dataset,
    DomainError,
    NotPositiveDefinite,
    PrecisionSpec,
    SymmetricMatrix,
    TestConfig,
    estimate_power,
    estimate_size,
    first_nonpositive_pivot,
    ks_statistic,
    random_covariance_instances,
    random_precision_matrix,
    reg_inc_beta,
    sample_covariance,
    sample_gaussian,
    sample_partial_correlation,
    select_graph,
    verify_equivalence,
)
from concgraph import distributions, independence, matrices, simulate

GOLDEN_PATH = Path(__file__).parent.parent / "perfbench" / "montecarlo_golden.json"


class TestPrecisionSpec:
    def test_requires_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            PrecisionSpec(SymmetricMatrix([[1.0, 2.0], [2.0, 1.0]]))

    def test_partial_correlation_from_entries(self):
        spec = PrecisionSpec(
            SymmetricMatrix([[2.0, -0.6, 0.0], [-0.6, 2.0, 0.0], [0.0, 0.0, 1.0]])
        )
        assert spec.partial_correlation(0, 1) == pytest.approx(0.3, abs=1e-15)
        assert spec.partial_correlation(0, 2) == 0.0
        # +0.0, not -0.0, which a size report would print as "rho": -0
        assert math.copysign(1.0, spec.partial_correlation(0, 2)) == 1.0

    def test_single_edge_exact_target(self):
        spec = PrecisionSpec.single_edge(5, 0, 1, 0.3)
        assert spec.partial_correlation(0, 1) == 0.3
        assert spec.partial_correlation(2, 3) == 0.0
        with pytest.raises(DomainError):
            PrecisionSpec.single_edge(5, 0, 1, 1.0)

    def test_with_edge_zeroed_matched_null(self):
        spec = PrecisionSpec.single_edge(4, 0, 1, 0.4)
        null = spec.with_edge(0, 1, 0.0)
        assert null.partial_correlation(0, 1) == 0.0

    @pytest.mark.parametrize("dim", [-1, 0, 1, 2.0, True])
    def test_dimension_validated(self, dim):
        message = "dimension must be an integer >= 2"
        with pytest.raises(DomainError, match=message):
            PrecisionSpec.identity(dim)
        with pytest.raises(DomainError, match=message):
            PrecisionSpec.single_edge(dim, 0, 1, 0.3)

    def test_covariance_is_inverse(self):
        spec = PrecisionSpec.single_edge(3, 0, 1, 0.5)
        product = spec.covariance() @ spec.matrix.entries
        assert product == pytest.approx(np.eye(3), abs=1e-12)


class TestRandomPrecision:
    def test_level_zero_is_diagonal(self):
        spec = random_precision_matrix(5, 0.0, seed=3)
        assert np.array_equal(spec.matrix.entries, np.eye(5))

    def test_always_positive_definite(self):
        for seed in range(100):
            spec = random_precision_matrix(4, 0.6, seed=seed)
            assert first_nonpositive_pivot(spec.matrix) is None

    def test_partial_correlations_bounded_by_level(self):
        for seed in range(100):
            dim = 3 + seed % 4
            level = 0.05 + (seed % 9) / 10.0
            spec = random_precision_matrix(dim, level, seed=seed)
            rhos = [
                abs(spec.partial_correlation(i, j))
                for i in range(dim)
                for j in range(i + 1, dim)
            ]
            assert max(rhos) <= level + 0.05

    def test_hits_target_when_dominance_allows(self):
        spec = random_precision_matrix(3, 0.3, seed=11)
        rhos = [
            abs(spec.partial_correlation(i, j))
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        assert max(rhos) == pytest.approx(0.3, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            random_precision_matrix(1, 0.3, seed=0)
        with pytest.raises(DomainError):
            random_precision_matrix(3, 1.0, seed=0)


class TestSampleGaussian:
    def test_deterministic_for_seed(self):
        spec = PrecisionSpec.identity(3)
        d1 = sample_gaussian(spec, 20, seed=7)
        d2 = sample_gaussian(spec, 20, seed=7)
        assert np.array_equal(d1.values, d2.values)
        assert d1.names == d2.names

    def test_different_seeds_differ(self):
        spec = PrecisionSpec.identity(3)
        d1 = sample_gaussian(spec, 20, seed=7)
        d2 = sample_gaussian(spec, 20, seed=8)
        assert not np.array_equal(d1.values, d2.values)

    def test_shape_and_names(self):
        spec = PrecisionSpec.identity(4)
        d = sample_gaussian(spec, 11, seed=0)
        assert (d.n, d.dim) == (11, 4)
        assert d.names == ("x1", "x2", "x3", "x4")

    def test_law_of_large_numbers_diagonal(self):
        spec = PrecisionSpec(SymmetricMatrix(np.diag([1.0, 4.0, 0.25])))
        n = 40000
        d = sample_gaussian(spec, n, seed=123)
        s = sample_covariance(d).entries
        expected = np.diag([1.0, 0.25, 4.0])
        tol = 5.0 / math.sqrt(n)
        assert np.max(np.abs(s - expected) / np.maximum(1.0, np.abs(expected))) < tol

    def test_partial_correlation_consistency(self):
        spec = PrecisionSpec.single_edge(3, 0, 1, 0.45)
        d = sample_gaussian(spec, 100000, seed=77)
        r = sample_partial_correlation(sample_covariance(d), 0, 1)
        assert r == pytest.approx(0.45, abs=0.02)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_gaussian(PrecisionSpec.identity(3), 1, seed=0)


class TestKsStatistic:
    def test_exact_grid_uniform(self):
        # sample at CDF midpoints minimizes the statistic: D = 1/(2n)
        sample = (np.arange(10) + 0.5) / 10.0
        assert ks_statistic(sample, lambda u: u) == pytest.approx(0.05, abs=1e-12)

    def test_degenerate_sample(self):
        assert ks_statistic([0.0], lambda u: u) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ks_statistic([], lambda u: u)


class TestEstimateSize:
    def test_deterministic_reports(self):
        spec = PrecisionSpec.identity(3)
        r1 = estimate_size(spec, 10, 0.05, "partial_corr", reps=1000, seed=5)
        r2 = estimate_size(spec, 10, 0.05, "partial_corr", reps=1000, seed=5)
        assert r1 == r2

    def test_half_alpha_rate(self):
        # any valid test rejects about half the time at alpha = 0.5
        spec = PrecisionSpec.identity(3)
        report = estimate_size(spec, 10, 0.5, "partial_corr", reps=2000, seed=9)
        band = 3.0 * math.sqrt(0.25 / 2000)
        assert abs(report.rejection_rate - 0.5) <= band

    def test_multiple_methods_share_replications(self):
        spec = PrecisionSpec.identity(4)
        report = estimate_size(
            spec, 12, 0.1, ("umpu", "partial_corr", "fisher"), reps=1000, seed=21
        )
        assert set(report.per_method) == {"umpu", "partial_corr", "fisher"}
        # exact tests agree on every replication
        assert report.agreement["umpu~partial_corr"] == 1.0
        assert (
            report.per_method["umpu"].rejections
            == report.per_method["partial_corr"].rejections
        )

    def test_ks_statistic_small_under_null(self):
        spec = PrecisionSpec.identity(3)
        report = estimate_size(spec, 10, 0.05, "partial_corr", reps=2000, seed=31)
        # 1% asymptotic KS critical value at 2000 replications
        assert report.ks_statistic <= 1.62762 / math.sqrt(2000)

    def test_std_error_formula(self):
        spec = PrecisionSpec.identity(3)
        report = estimate_size(spec, 10, 0.05, "partial_corr", reps=1000, seed=4)
        rate = report.rejection_rate
        assert report.std_error == pytest.approx(
            math.sqrt(rate * (1 - rate) / 1000), abs=1e-15
        )

    def test_requires_null_edge(self):
        spec = PrecisionSpec.single_edge(3, 0, 1, 0.2)
        with pytest.raises(DomainError, match="null probed edge"):
            estimate_size(spec, 10, 0.05, "partial_corr", reps=1000, seed=0)

    def test_requires_thousand_replications(self):
        with pytest.raises(DomainError, match="1000"):
            estimate_size(
                PrecisionSpec.identity(3), 10, 0.05, "partial_corr", reps=999, seed=0
            )

    def test_rejects_bad_method(self):
        with pytest.raises(DomainError):
            estimate_size(
                PrecisionSpec.identity(3), 10, 0.05, "wald", reps=1000, seed=0
            )


def fisher_exact_size(alpha, n, dim):
    """The exact size of the Fisher test, which rejects when |r| >= c with
    c = tanh(z / sqrt(n)), z the test's critical value: (1 + r) / 2 is
    Beta(m, m) under the null, m = (n - N) / 2, so the size is twice that
    law's upper tail at (1 + c) / 2 (scipy, not the package's beta)."""
    c = math.tanh(independence._critical_value("fisher", alpha, n, dim) / math.sqrt(n))
    m = (n - dim) / 2
    return 2.0 * stats.beta(m, m).sf((1.0 + c) / 2.0)


class TestFisherExactSize:
    """The asymptotic test's size at alpha = 0.05 is far above alpha at
    small n - N, and depends on N and n, not on n - N alone."""

    @pytest.mark.parametrize("dim, n, size", [
        (3, 8, 0.1545), (5, 10, 0.1999), (20, 25, 0.4098), (40, 45, 0.5369),
        (5, 25, 0.0872), (5, 50, 0.0661),
    ])
    def test_pinned_at_small_degrees_of_freedom(self, dim, n, size):
        z = independence._critical_value("fisher", 0.05, n, dim)
        assert z == pytest.approx(-ndtri(0.025), rel=1e-15)
        assert fisher_exact_size(0.05, n, dim) == pytest.approx(size, abs=5e-5)

    def test_monte_carlo_rate_matches_the_exact_size(self):
        reps = 20000
        report = estimate_size(PrecisionSpec.identity(5), 10, 0.05, "fisher", reps=reps, seed=1)
        exact = fisher_exact_size(0.05, 10, 5)
        assert abs(report.rejection_rate - exact) <= 4.5 * math.sqrt(exact * (1 - exact) / reps)


class TestExactPower:
    """The package's critical values and Monte Carlo power against the
    exact law of r at a true partial correlation rho (``oracles.exact_power``,
    scipy only)."""

    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    @pytest.mark.parametrize("dim, n", [(3, 8), (5, 50), (20, 25), (10, 200)])
    @pytest.mark.parametrize("method", ["umpu", "partial_corr"])
    def test_size_at_rho_zero_is_alpha(self, method, dim, n, alpha):
        c = independence.run_edge_test(method, SymmetricMatrix(np.eye(dim)), 0, 1, n, alpha).upper
        assert abs(oracles.exact_power(c, 0.0, n, dim) - alpha) <= 1e-12

    def test_oracle_at_pinned_values(self):
        # N = 5, n = 50, alpha = 0.05: the exact tests' power at rho = 0.1,
        # 0.3, 0.5, and Fisher's size, which the beta law gives apart
        c = independence._critical_value("partial_corr", 0.05, 50, 5)
        powers = [oracles.exact_power(c, rho, 50, 5) for rho in (0.1, 0.3, 0.5)]
        assert powers == pytest.approx([0.10239, 0.54511, 0.95735], abs=5e-6)
        c_fisher = math.tanh(independence._critical_value("fisher", 0.05, 50, 5) / math.sqrt(50))
        fisher_size = oracles.exact_power(c_fisher, 0.0, 50, 5)
        assert fisher_size == pytest.approx(fisher_exact_size(0.05, 50, 5), abs=1e-12)
        assert fisher_size == pytest.approx(0.06613, abs=5e-6)

    def test_equal_tails_are_unbiased_and_unequal_tails_are_not(self):
        # N = 5, n = 50, alpha = 0.05.  The package's test puts alpha/2 in
        # each tail and its exact power exceeds alpha at every rho != 0.  A
        # test of the same size with 0.01 in the lower tail and 0.04 in the
        # upper falls below alpha for small negative rho, so it is biased,
        # though it is the more powerful test at rho = 0.3: the equal tails
        # are what makes the test unbiased.
        n, dim, alpha = 50, 5, 0.05
        c = independence._critical_value("partial_corr", alpha, n, dim)
        m = (n - dim) / 2.0
        unequal = (2.0 * distributions.beta_sym_quantile(0.01, m) - 1.0,
                   1.0 - 2.0 * distributions.beta_sym_quantile(0.04, m))
        assert abs(oracles.exact_power(unequal, 0.0, n, dim) - alpha) <= 1e-12
        equal = {rho: oracles.exact_power(c, rho, n, dim)
                 for rho in (-0.3, -0.05, -0.02, 0.02, 0.05, 0.3)}
        assert min(equal.values()) > alpha
        assert [equal[-0.02], equal[0.02], equal[-0.05], equal[0.05]] == pytest.approx(
            [0.05202, 0.05202, 0.06275, 0.06275], abs=5e-6
        )
        biased = [oracles.exact_power(unequal, rho, n, dim) for rho in (-0.05, -0.02)]
        assert biased == pytest.approx([0.04158, 0.04391], abs=5e-6)
        assert max(biased) < alpha
        assert oracles.exact_power(unequal, 0.3, n, dim) == pytest.approx(0.62802, abs=5e-6)
        assert equal[0.3] == pytest.approx(0.54511, abs=5e-6)

    @pytest.mark.parametrize("rho", [0.1, 0.3, 0.5])
    def test_monte_carlo_power_matches_the_exact_power(self, rho):
        reps = 20000
        report = estimate_power(PrecisionSpec.single_edge(5, 0, 1, rho), 50, 0.05, METHODS, reps, 1)
        for method, outcome in report.per_method.items():
            c = independence._critical_value(method, 0.05, 50, 5)
            if method == "fisher":
                c = math.tanh(c / math.sqrt(50))  # |z(r)| >= c as |r| >= tanh(c / sqrt(n))
            exact = oracles.exact_power(c, rho, 50, 5)
            assert abs(outcome.rate - exact) <= 4.5 * math.sqrt(exact * (1 - exact) / reps), method
        # the matched null, for the first method
        assert abs(report.null_rate - 0.05) <= 4.5 * math.sqrt(0.05 * 0.95 / reps)


class TestSimilarityOnTheNullBoundary:
    """The test is similar: its size is alpha at every null, however
    strongly the probed pair depends on the others."""

    def test_size_and_null_law_under_strong_dependence_elsewhere(self):
        # k_01 = 0 with both variables tied to the third: the partial
        # correlation of (0, 1) is 0, their marginal correlation
        # 0.65^2 / (1 - 0.65^2) = 0.732
        k = np.eye(3)
        k[0, 2] = k[2, 0] = k[1, 2] = k[2, 1] = -0.65
        spec = PrecisionSpec(SymmetricMatrix(k))
        cov = spec.covariance()
        assert cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1]) == pytest.approx(0.4225 / 0.5775, rel=1e-12)
        reps = 20000
        report = estimate_size(spec, 25, 0.05, ("umpu", "partial_corr"), reps=reps, seed=1)
        band = 4.5 * math.sqrt(0.05 * 0.95 / reps)
        for method, outcome in report.per_method.items():
            assert abs(outcome.rate - 0.05) <= band, method
        # 1% asymptotic KS critical value at 20,000 replications
        assert report.ks_statistic < 1.62762 / math.sqrt(reps)


class TestEstimatePower:
    def test_zero_rho_reduces_to_size(self):
        spec = PrecisionSpec.identity(3)
        size = estimate_size(spec, 12, 0.05, "partial_corr", reps=1000, seed=17)
        power = estimate_power(spec, 12, 0.05, "partial_corr", reps=1000, seed=17)
        assert power.rejection_rate == size.rejection_rate
        assert power.null_rate == size.rejection_rate

    def test_power_exceeds_size(self):
        spec = PrecisionSpec.single_edge(4, 0, 1, 0.5)
        report = estimate_power(spec, 30, 0.05, "partial_corr", reps=1500, seed=3)
        assert report.rejection_rate > report.null_rate + 3.0 * report.std_error
        assert report.ks_statistic is None
        assert report.rho == 0.5

    def test_sign_symmetric_power(self):
        plus = estimate_power(
            PrecisionSpec.single_edge(3, 0, 1, 0.4), 20, 0.05,
            "partial_corr", reps=2000, seed=41,
        )
        minus = estimate_power(
            PrecisionSpec.single_edge(3, 0, 1, -0.4), 20, 0.05,
            "partial_corr", reps=2000, seed=42,
        )
        band = 3.0 * math.sqrt(plus.std_error**2 + minus.std_error**2)
        assert abs(plus.rejection_rate - minus.rejection_rate) <= band

    def test_power_monotone_in_effect_size(self):
        reports = [
            estimate_power(
                PrecisionSpec.single_edge(3, 0, 1, rho), 30, 0.05,
                "partial_corr", reps=1500, seed=60 + k,
            )
            for k, rho in enumerate((0.1, 0.2, 0.3, 0.5))
        ]
        for lo, hi in zip(reports, reports[1:]):
            slack = 3.0 * math.sqrt(lo.std_error**2 + hi.std_error**2)
            assert hi.rejection_rate >= lo.rejection_rate - slack


def agreement_rates(agree, reps):
    return {f"{a}~{b}": hits / reps for (a, b), hits in agree.items()}


class TestOneEdgeTestPerDecision:
    @pytest.mark.parametrize("power", [False, True])
    @pytest.mark.parametrize("methods", [*METHODS, METHODS])
    def test_one_public_test_per_decision(self, methods, power, edge_test_calls):
        # every replication decides each method once, and a power run
        # decides the first method once more at the matched null
        estimate = estimate_power if power else estimate_size
        spec = PrecisionSpec.single_edge(3, 0, 1, 0.3) if power else PrecisionSpec.identity(3)
        report = estimate(spec, 10, 0.05, methods, reps=1000, seed=2)
        calls = Counter(method for method, _, _ in edge_test_calls)
        want = {name: 1000 for name in report.methods}
        want[report.methods[0]] += 1000 if power else 0
        assert calls == want
        assert {(i, j) for _, i, j in edge_test_calls} == {(0, 1)}


class TestChunkedEngine:
    """The chunked engine against the one-replication-at-a-time route."""

    @staticmethod
    def check_against_oracle(runs, n, reps, seed):
        """Every run's rejection rows and the first run's r against one
        ``replication_loop`` per run; returns the loops' results."""
        chunk = simulate._chunk_length(n, runs[0][0].dim)
        # several chunks and a short last one
        assert reps >= 3 * chunk and reps % chunk
        rejects, r = simulate._run_replications(runs, n, 0.05, reps, seed)
        assert len(rejects) == len(runs)
        loops = []
        for (spec, methods), got in zip(runs, rejects):
            loop = oracles.replication_loop(spec, n, 0.05, methods, reps, seed)
            assert got.dtype == bool and got.shape == (reps, len(methods))
            assert np.array_equal(got, loop[0])
            loops.append(loop)
        assert np.array_equal(r, loops[0][3])
        return loops

    def check_size_run(self, reps, seed):
        spec, n = PrecisionSpec.identity(5), 25
        [(_, counts, agree, r)] = self.check_against_oracle([(spec, METHODS)], n, reps, seed)
        report = estimate_size(spec, n, 0.05, METHODS, reps=reps, seed=seed)
        assert {name: o.rejections for name, o in report.per_method.items()} == counts
        assert report.agreement == agreement_rates(agree, reps)
        m = (n - spec.dim) / 2.0
        ks = ks_statistic((1.0 + r) / 2.0, lambda u: reg_inc_beta(u, m, m))
        assert report.ks_statistic == ks

    def test_size_run(self):
        self.check_size_run(1000, 19)

    def test_size_run_across_a_seed_block(self):
        # rows 1,024 on come from the second block of substream seeds
        self.check_size_run(1100, 31)

    def test_power_run(self):
        spec, n, reps, seed = PrecisionSpec.single_edge(5, 0, 1, 0.3), 50, 1000, 23
        runs = [(spec, METHODS), (spec.with_edge(0, 1, 0.0), METHODS[:1])]
        (_, counts, agree, _), (_, null_counts, _, _) = self.check_against_oracle(
            runs, n, reps, seed
        )
        report = estimate_power(spec, n, 0.05, METHODS, reps=reps, seed=seed)
        assert {name: o.rejections for name, o in report.per_method.items()} == counts
        assert report.agreement == agreement_rates(agree, reps)
        assert report.null_rate == null_counts[METHODS[0]] / reps

    def test_runs_sharing_draws_match_separate_runs(self):
        # one stack of draws colored by both specs, as a power run does
        spec, n, reps, seed = PrecisionSpec.single_edge(5, 0, 1, 0.3), 50, 1000, 29
        runs = [(spec, METHODS), (spec.with_edge(0, 1, 0.0), METHODS[1:])]
        self.check_against_oracle(runs, n, reps, seed)

    def test_power_run_draws_each_substream_once(self, monkeypatch):
        rows = []
        states = simulate._substream_states

        def counted(seed, reps):
            for row in states(seed, reps):
                rows.append(row)
                yield row

        monkeypatch.setattr(simulate, "_substream_states", counted)
        spec = PrecisionSpec.single_edge(5, 0, 1, 0.3)
        estimate_power(spec, 50, 0.05, METHODS, reps=1000, seed=3)
        assert len(rows) == 1000


class TestChunkSlice:
    """A chunk's r is one [:, i, j] slice of its factored stack."""

    @staticmethod
    def spy_stacks(monkeypatch):
        """The (matrices, partial correlations) of every chunk, as the
        engine gets them."""
        chunks = []
        stack = simulate._matrix_stack
        monkeypatch.setattr(simulate, "_matrix_stack", lambda e: chunks.append(stack(e)) or chunks[-1])
        return chunks

    def test_slice_is_each_replications_r(self, monkeypatch):
        chunks = self.spy_stacks(monkeypatch)
        spec, n, reps = PrecisionSpec.identity(5), 25, 1000
        _, r = simulate._run_replications([(spec, ("umpu",))], n, 0.05, reps, 3)
        assert len(chunks) == -(-reps // simulate._chunk_length(n, spec.dim))
        want = [s._factored()[1][0, 1] for chunk, _ in chunks for s in chunk]
        assert r.dtype == np.float64 and r.tobytes() == np.array(want).tobytes()
        assert r.base is None  # a copy: no chunk's stack outlives its chunk

    def test_a_chunk_that_falls_back_raises_before_its_slice(self, monkeypatch):
        # the second chunk's fourth covariance is singular, so that chunk's
        # stack fails and each of its matrices is factored alone
        chunks = self.spy_stacks(monkeypatch)
        covariances = simulate._covariances
        formed = []

        def one_singular(x):
            s = covariances(x)
            formed.append(s)
            if len(formed) == 2:
                s[3] = np.ones_like(s[3])
            return s

        monkeypatch.setattr(simulate, "_covariances", one_singular)
        with pytest.raises(NotPositiveDefinite, match=r"pivot 1 fails"):
            estimate_size(PrecisionSpec.identity(5), 25, 0.05, "umpu", reps=1000, seed=3)
        (_, first), (chunk, partial) = chunks
        assert first is not None and partial is None
        assert [first_nonpositive_pivot(m) for m in chunk[2:5]] == [None, 1, None]
        for k, m in enumerate(chunk):
            if k != 3:
                (alone,), _ = matrices._factor_stack(m.entries[np.newaxis])
                assert m._factored()[1].tobytes() == alone[1].tobytes()


SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100, 2**128 - 1)


def seed_sequence_state(seed, k):
    return np.random.SeedSequence((seed, k)).generate_state(4, np.uint64)


class TestBulkSeeds:
    """The engine's substream seeds against numpy's SeedSequence."""

    @given(
        seed=st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**200 - 1)),
        start=st.integers(0, 5000),
        count=st.integers(1, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_are_seed_sequence_states(self, seed, start, count):
        got = simulate._substream_seeds(seed, start, start + count)
        assert got.dtype == np.uint64 and got.shape == (count, 4)
        want = np.stack([seed_sequence_state(seed, k) for k in range(start, start + count)])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_last_substream_key(self, seed):
        # k = 2**32 - 1 is the largest key that is one word
        got = simulate._substream_seeds(seed, 2**32 - 3, 2**32)
        want = [seed_sequence_state(seed, k) for k in range(2**32 - 3, 2**32)]
        assert np.array_equal(got, np.stack(want))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_match_default_rng(self, seed):
        row_seed = simulate._row_seed_type()
        keys = (0, 1, 999, 1023, 1024, 4321)
        # the first keys come from two blocks of the engine's iterator
        states = dict(enumerate(simulate._substream_states(seed, 1100)))
        states[4321] = simulate._substream_seeds(seed, 4321, 4322)[0]
        for k in keys:
            bits = np.random.PCG64(row_seed(states[k]))
            got = np.random.Generator(bits).standard_normal((25, 5))
            want = np.random.default_rng((seed, k)).standard_normal((25, 5))
            assert got.tobytes() == want.tobytes()

    def test_row_seed_serves_only_pcg64(self):
        row = simulate._row_seed_type()(np.zeros(4, dtype=np.uint64))
        with pytest.raises(ValueError):
            row.generate_state(8, np.uint32)

    def test_too_many_replications(self):
        with pytest.raises(DomainError, match="at most 2\\*\\*32"):
            estimate_size(PrecisionSpec.identity(3), 10, 0.05, reps=2**32 + 1)


class TestWorkPerReplication:
    """A replication computes only what its report reads."""

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or original(*a))
        return calls

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("estimate", [estimate_size, estimate_power])
    def test_no_incomplete_beta_per_replication(self, estimate, method, monkeypatch):
        calls = self.count_calls(monkeypatch, distributions, "reg_inc_beta")
        spec = PrecisionSpec.identity(4) if estimate is estimate_size else (
            PrecisionSpec.single_edge(4, 0, 1, 0.3))
        counts = []
        for reps in (1000, 2000):
            # cold quantiles each time, so both runs pay the same fixed cost
            independence._critical_value.cache_clear()
            distributions.beta_sym_quantile.cache_clear()
            del calls[:]
            estimate(spec, 20, 0.05, method, reps=reps, seed=3)
            counts.append(len(calls))
        assert counts[0] == counts[1] < 100

    @pytest.mark.parametrize("n", [25, 26])
    def test_no_determinant_call_for_umpu(self, n, monkeypatch):
        # umpu is decided in its reduced form, r at c, so neither a Monte
        # Carlo run nor a graph computes a determinant
        umpu_calls = []
        umpu = independence._TESTS["umpu"]
        monkeypatch.setitem(
            independence._TESTS, "umpu", lambda *a: umpu_calls.append(a) or umpu(*a)
        )
        det_calls = self.count_calls(monkeypatch, matrices, "_det")
        estimate_size(PrecisionSpec.identity(5), n, 0.05, "umpu", reps=1000, seed=3)
        data = sample_gaussian(PrecisionSpec.single_edge(5, 0, 1, 0.4), n, seed=3)
        select_graph(data, TestConfig(0.05, "umpu"), "holm")
        assert len(umpu_calls) == 1000 + 10
        assert det_calls == []

    @pytest.mark.parametrize("method", METHODS)
    def test_correlation_matrix_never_built(self, method, monkeypatch):
        spec = PrecisionSpec.identity(4)
        built = []
        checked = SymmetricMatrix._checked
        monkeypatch.setattr(
            SymmetricMatrix, "_checked", classmethod(lambda cls, e: built.append(e) or checked(e))
        )
        inits = self.count_calls(monkeypatch, SymmetricMatrix, "__init__")
        estimate_size(spec, 20, 0.05, method, reps=1000, seed=3)
        # one S per replication, and R for none
        assert len(built) == 1000
        assert len(inits) == 0


class TestInstanceStream:
    def test_deterministic(self):
        a = list(random_covariance_instances(20, seed=2))
        b = list(random_covariance_instances(20, seed=2))
        for (s1, i1, j1, n1, a1), (s2, i2, j2, n2, a2) in zip(a, b):
            assert np.array_equal(s1.entries, s2.entries)
            assert (i1, j1, n1, a1) == (i2, j2, n2, a2)

    def test_instances_are_valid(self):
        for s, i, j, n, alpha in random_covariance_instances(30, seed=8):
            assert first_nonpositive_pivot(s) is None
            assert 0 <= i < j < s.dim
            assert n > s.dim
            assert 0.0 < alpha < 1.0
            report = verify_equivalence(s, i, j, n, alpha)
            assert report.same_decision

    def test_count_respected(self):
        assert len(list(random_covariance_instances(7, seed=0))) == 7


class TestNullLawTransform:
    def test_transformed_null_sample_matches_beta(self):
        # (1 + r)/2 over null replications follows Beta(m, m); quick check
        # at 2000 replications against the 1% KS critical value
        spec = PrecisionSpec.identity(5)
        n = 12
        reps = 2000
        rs = np.empty(reps)
        for k in range(reps):
            data = sample_gaussian(spec, n, seed=(99, k))
            rs[k] = sample_partial_correlation(sample_covariance(data), 0, 1)
        m = (n - 5) / 2.0
        d = ks_statistic((1.0 + rs) / 2.0, lambda u: reg_inc_beta(u, m, m))
        assert d <= 1.62762 / math.sqrt(reps)


class TestPinnedCounts:
    """Rejection counts and KS statistic of fixed-seed runs, recorded
    before partial correlations moved from per-edge cofactors to one
    correlation-scaled factorization.  The counts must not move; the KS
    statistic may shift only in its last bits."""

    def test_size_run(self):
        report = estimate_size(
            PrecisionSpec.identity(5), 25, 0.05,
            ("umpu", "partial_corr", "fisher"), reps=1000, seed=11,
        )
        counts = {name: o.rejections for name, o in report.per_method.items()}
        assert counts == {"umpu": 68, "partial_corr": 68, "fisher": 111}
        assert dict(report.agreement) == {
            "umpu~partial_corr": 1.0,
            "umpu~fisher": 0.957,
            "partial_corr~fisher": 0.957,
        }
        assert abs(report.ks_statistic - 0.023670682807958365) <= 1e-12

    def test_power_run(self):
        report = estimate_power(
            PrecisionSpec.single_edge(5, 0, 1, 0.3), 50, 0.05,
            "partial_corr", reps=1000, seed=12,
        )
        assert report.per_method["partial_corr"].rejections == 554
        assert report.null_rate == 0.057


class TestBenchmarkGolden:
    """Every run the benchmark's montecarlo workload checks, replayed
    against the counts recorded in ``perfbench/montecarlo_golden.json``:
    N = 5, alpha 0.05, size runs at n = 25 and power runs at n = 50 with
    rho 0.3 on edge (0, 1).  The KS tolerance is the benchmark's."""

    def test_recorded_counts(self):
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            entries = json.load(handle)["calls"]
        assert len(entries) == 96
        mismatches = []
        for e in entries:
            method = e["method"].replace("-", "_")
            if e["kind"] == "size":
                report = estimate_size(
                    PrecisionSpec.identity(5), 25, 0.05, method, e["reps"], e["seed"]
                )
                got = (report.per_method[method].rejections, None)
                ks_gap = abs(report.ks_statistic - e["ks_statistic"])
            else:
                spec = PrecisionSpec.single_edge(5, 0, 1, 0.3)
                report = estimate_power(spec, 50, 0.05, method, e["reps"], e["seed"])
                got = (report.per_method[method].rejections, round(report.null_rate * e["reps"]))
                ks_gap = 0.0
            if got != (e["rejections"], e["null_rejections"]) or not ks_gap <= 1e-9:
                mismatches.append((e, got, ks_gap))
        assert mismatches == []

