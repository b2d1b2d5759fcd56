import dataclasses
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import betainc, ndtri
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from concgraph import independence, matrices, selection
from concgraph.distributions import QUANTILE_CACHE_SIZE
from concgraph import (
    ConvergenceError,
    Dataset,
    DomainError,
    InsufficientSample,
    NotPositiveDefinite,
    PrecisionSpec,
    SymmetricMatrix,
    TestConfig,
    all_pairs,
    fisher_test,
    null_corr_cdf,
    partial_correlation_test,
    random_covariance_instances,
    run_edge_test,
    sample_covariance,
    sample_gaussian,
    sample_partial_correlation,
    threshold_reject,
    umpu_raw_thresholds,
    umpu_test,
    verify_equivalence,
)

STRONG_EDGE = SymmetricMatrix([[2.0, 1.9, 1.0], [1.9, 2.0, 1.0], [1.0, 1.0, 2.0]])


def random_instance(rng, dim_lo=3, dim_hi=6):
    dim = int(rng.integers(dim_lo, dim_hi + 1))
    n = int(rng.integers(dim + 2, 51))
    s = SymmetricMatrix(oracles.random_sample_covariance(rng, dim, n))
    i, j = sorted(int(v) for v in rng.choice(dim, size=2, replace=False))
    return s, i, j, n


class TestConfigType:
    def test_valid(self):
        cfg = TestConfig(alpha=0.05, method="umpu")
        assert cfg.alpha == 0.05

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            TestConfig(alpha=0.0)
        with pytest.raises(DomainError):
            TestConfig(alpha=1.0)

    def test_method_checked(self):
        with pytest.raises(DomainError):
            TestConfig(alpha=0.05, method="wald")


class TestThresholdRule:
    def test_closed_at_both_thresholds(self):
        assert threshold_reject(0.95, -0.95, 0.95)
        assert threshold_reject(-0.95, -0.95, 0.95)

    def test_open_inside(self):
        assert not threshold_reject(0.9499999, -0.95, 0.95)
        assert not threshold_reject(0.0, -0.95, 0.95)

    def test_outside(self):
        assert threshold_reject(1.2, -0.95, 0.95)
        assert threshold_reject(-2.0, -0.95, 0.95)


class TestUmpu:
    def test_identity_accepts_with_zero_statistic(self):
        d = umpu_test(SymmetricMatrix(np.eye(4)), 0, 2, 12, 0.05)
        assert d.statistic == pytest.approx(0.0, abs=1e-15)
        assert not d.reject
        assert d.p_value == pytest.approx(1.0, abs=1e-12)

    def test_uniform_conditional_law(self):
        # n - N = 2 gives the uniform beta, so the acceptance region is
        # |t| < 0.95 at alpha = 0.05
        d = umpu_test(SymmetricMatrix(np.eye(3)), 0, 1, 5, 0.05)
        assert d.upper == pytest.approx(0.95, abs=1e-12)
        assert d.lower == pytest.approx(-0.95, abs=1e-12)

    def test_strong_edge_rejected(self):
        # (a, b, c) = (2, 2, 4), t = (2*1.9 - 1)/3; the critical value at
        # alpha = 0.05, shape 3.5, from the quadrature oracle
        d = umpu_test(STRONG_EDGE, 0, 1, 10, 0.05)
        assert d.statistic == pytest.approx(2.8 / 3.0, abs=1e-12)
        q_oracle = oracles.beta_sym_quantile_quad(0.025, 3.5)
        assert d.upper == pytest.approx(1.0 - 2.0 * q_oracle, abs=1e-8)
        assert d.upper == pytest.approx(0.6663836053363092, abs=1e-10)
        assert d.reject

    def test_raw_thresholds_agree_with_standardized(self, rng):
        for _ in range(40):
            s, i, j, n = random_instance(rng)
            alpha = float(rng.choice([0.1, 0.05, 0.01]))
            d = umpu_test(s, i, j, n, alpha)
            lo, hi = umpu_raw_thresholds(s, i, j, n, alpha)
            assert lo < hi
            raw_reject = threshold_reject(float(s.entries[i, j]), lo, hi)
            assert raw_reject == d.reject

    def test_raw_thresholds_match_the_quadratic_of_s(self):
        # R's interval scaled by sqrt(s_ii s_jj) against the interval of
        # S / g itself: equal in real arithmetic, by diagonal equivariance
        for s, i, j, n, alpha in random_covariance_instances(2000, seed=1):
            got = umpu_raw_thresholds(s, i, j, n, alpha)
            want = oracles.umpu_raw_thresholds_geometric(s, i, j, n, alpha)
            scale = math.sqrt(s.entries[i, i] * s.entries[j, j])
            assert abs(got[0] - want[0]) <= 1e-12 * scale
            assert abs(got[1] - want[1]) <= 1e-12 * scale

    def test_bit_identical_to_partial_correlation_test(self):
        # t == r and 1 - 2q == c, so umpu is decided in that reduced form
        for s, i, j, n, alpha in random_covariance_instances(2000, seed=5):
            u = umpu_test(s, i, j, n, alpha)
            pc = partial_correlation_test(s, i, j, n, alpha)
            assert u.method == "umpu"
            assert (u.statistic, u.lower, u.upper, u.reject, u.p_value) == (
                pc.statistic, pc.lower, pc.upper, pc.reject, pc.p_value
            )

    def test_errors(self):
        with pytest.raises(InsufficientSample):
            umpu_test(SymmetricMatrix(np.eye(3)), 0, 1, 3, 0.05)
        with pytest.raises(NotPositiveDefinite):
            umpu_test(SymmetricMatrix([[1.0, 1.0], [1.0, 1.0]]), 0, 1, 9, 0.05)
        with pytest.raises(DomainError):
            umpu_test(SymmetricMatrix(np.eye(3)), 0, 1, 9, 0.0)
        with pytest.raises(DomainError):
            umpu_test(SymmetricMatrix(np.eye(3)), 1, 1, 9, 0.05)

    def test_insufficient_sample_reported_before_pd(self):
        # n = N with a singular matrix: the sample-size error wins
        singular = SymmetricMatrix([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(InsufficientSample):
            umpu_test(singular, 0, 1, 2, 0.05)


class TestPartialCorrelation:
    def test_zero_statistic_accepts(self):
        d = partial_correlation_test(SymmetricMatrix(np.eye(3)), 0, 1, 9, 0.05)
        assert d.statistic == 0.0
        assert d.p_value == pytest.approx(1.0, abs=1e-12)
        assert not d.reject

    def test_uniform_critical_value(self):
        d = partial_correlation_test(SymmetricMatrix(np.eye(3)), 0, 1, 5, 0.05)
        assert d.upper == pytest.approx(0.95, abs=1e-12)

    def test_extreme_cdf_values_give_zero_p(self):
        assert null_corr_cdf(-1.0, 10, 3) == 0.0
        assert null_corr_cdf(1.0, 10, 3) == 1.0
        # near-boundary statistic: p-value collapses and the test rejects
        s = SymmetricMatrix(
            [[1.0, 0.999999, 0.0], [0.999999, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        d = partial_correlation_test(s, 0, 1, 30, 0.05)
        assert d.reject
        assert d.p_value < 1e-12

    def test_statistic_is_sample_partial_correlation(self, rng):
        s, i, j, n = random_instance(rng)
        d = partial_correlation_test(s, i, j, n, 0.05)
        assert d.statistic == sample_partial_correlation(s, i, j)


class TestExactPValue:
    """p = min(1, 2 I_{(1-|r|)/2}(m, m)), always from the near tail."""

    def test_relative_error_against_scipy(self):
        # The prefactor exp(lgamma(2m) - 2 lgamma(m) + ...) rounds its
        # lgamma terms first, so its relative error grows like
        # eps * (lgamma(2m) + 2 lgamma(m)): within 1e-13 up to m = 60,
        # 2.4e-12 at m = 500, where scipy itself is 1.2e-13 from a
        # 40-digit value.
        eps = np.finfo(float).eps
        r = np.concatenate([np.linspace(0.0, 0.999, 334), [0.5, 0.7, 0.8, 0.9, 0.99]])
        for d in (1, 2, 3, 5, 8, 13, 20, 35, 50, 80, 99, 120, 200, 333, 500, 777, 999, 1000):
            m = d / 2.0
            tol = max(1e-13, eps * (math.lgamma(2 * m) + 2 * abs(math.lgamma(m))))
            want = np.minimum(1.0, 2.0 * betainc(m, m, (1.0 - r) / 2.0))
            for sign in (1.0, -1.0):
                got = np.array([independence._exact_p_value(sign * v, d + 4, 4) for v in r])
                normal = want >= np.finfo(float).tiny
                assert np.all(got[~normal] < 1e-300)
                rel = np.abs(got - want)[normal] / want[normal]
                assert rel.max() <= tol, (d, float(rel.max()))

    def test_sign_of_r_leaves_p_unchanged(self):
        # n = 100, N = 10: p(+0.8) used to be 2 (1 - F), which cancels to 0
        for r in (0.0, 0.1, 0.5, 0.7, 0.8, 0.9, 0.999):
            assert independence._exact_p_value(r, 100, 10) == independence._exact_p_value(-r, 100, 10)
        assert independence._exact_p_value(0.8, 100, 10) == pytest.approx(1.13e-21, rel=1e-2)
        assert independence._exact_p_value(0.0, 100, 10) == 1.0

    @pytest.mark.parametrize("test", [umpu_test, partial_correlation_test, fisher_test])
    def test_computed_once_on_first_read(self, test, rng, monkeypatch):
        s, i, j, n = random_instance(rng)
        calls = []
        exact = independence._exact_p_value
        monkeypatch.setattr(
            independence, "_exact_p_value", lambda *a: calls.append(a) or exact(*a)
        )
        d = test(s, i, j, n, 0.05)
        # nothing at construction; the first read computes it once, and
        # every read gives the same value
        assert calls == []
        p = d.p_value
        assert len(calls) == (0 if test is fisher_test else 1)
        assert d.p_value == p == d.p_value
        # a copy's value follows its own statistic
        assert replace(d, reject=not d.reject).p_value == p
        again = replace(d, statistic=d.statistic / 2.0)
        if test is fisher_test:
            assert again.p_value == independence._fisher_p_value(d.statistic / 2.0)
        else:
            assert again.p_value == exact(d.statistic / 2.0, n, d.dim)

    @pytest.mark.parametrize("test", [umpu_test, partial_correlation_test])
    def test_copy_with_another_statistic_has_its_own_pvalue(self, test, rng):
        s, i, j, n = random_instance(rng)
        d = test(s, i, j, n, 0.05)
        d.p_value
        again = replace(d, statistic=0.9)
        assert again.p_value == independence._exact_p_value(0.9, n, d.dim)


class TestEdgeDecisionRecord:
    """EdgeDecision writes its fields in one update; it must behave as the
    record that the generated ``__init__`` builds."""

    FIELDS = (0, 2, -0.25, 0.5, False, "umpu", 30, 4)

    def test_behaves_as_the_generated_record(self):
        twin = oracles.generated_twin(independence.EdgeDecision)
        d, g = independence.EdgeDecision(*self.FIELDS), twin(*self.FIELDS)
        assert repr(d) == repr(g)
        assert dataclasses.astuple(d) == dataclasses.astuple(g) == self.FIELDS
        assert dataclasses.asdict(d) == dataclasses.asdict(g)
        same = independence.EdgeDecision(**dataclasses.asdict(d))
        assert d == same and d is not same and hash(d) == hash(same) == hash(g)
        assert d != replace(d, reject=True)
        assert d.lower == -0.5
        assert d.p_value == independence._exact_p_value(-0.25, 30, 4)

    def test_replace_copies_and_pickles_as_the_generated_record(self):
        twin = oracles.generated_twin(independence.EdgeDecision)
        d, g = independence.EdgeDecision(*self.FIELDS), twin(*self.FIELDS)
        copy = replace(d, statistic=0.75, reject=True)
        assert type(copy) is independence.EdgeDecision
        assert repr(copy) == repr(replace(g, statistic=0.75, reject=True))
        assert pickle.loads(pickle.dumps(d)) == d

    def test_frozen(self):
        d = independence.EdgeDecision(*self.FIELDS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.reject = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            del d.i
        assert d.reject is False

    def test_a_test_builds_the_same_record(self, rng):
        s, i, j, n = random_instance(rng)
        d = umpu_test(s, i, j, n, 0.05)
        twin = oracles.generated_twin(independence.EdgeDecision)
        assert repr(d) == repr(twin(*dataclasses.astuple(d)))


def bytes_per_record(cls, count: int = 20_000) -> float:
    """Memory that tracemalloc sees per record, for count records each
    holding its own float, as a graph's decisions do."""
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = [cls(0, 2, float(k), 0.5, False, "umpu", 30, 4) for k in range(count)]
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(records) == count
    return used / count


def test_a_decision_takes_no_more_memory_than_the_generated_record():
    # a select graph at N = 1000 holds 499,500 decisions
    twin = oracles.generated_twin(independence.EdgeDecision)
    assert bytes_per_record(independence.EdgeDecision) <= bytes_per_record(twin)


class TestFisher:
    def test_zero_statistic(self):
        d = fisher_test(SymmetricMatrix(np.eye(3)), 0, 1, 30, 0.05)
        assert d.statistic == 0.0
        assert d.p_value == pytest.approx(1.0, abs=1e-12)
        assert not d.reject

    def test_normal_critical_value(self):
        d = fisher_test(SymmetricMatrix(np.eye(3)), 0, 1, 30, 0.05)
        assert d.upper == pytest.approx(1.959963984540054, abs=1e-10)

    @pytest.mark.parametrize("alpha", [1e-17, 1e-300])
    def test_critical_value_at_a_tiny_level(self, alpha):
        # 1 - alpha/2 rounds to 1 here, so c comes from the lower tail
        d = fisher_test(SymmetricMatrix(np.eye(3)), 0, 1, 30, alpha)
        assert d.upper == pytest.approx(-ndtri(alpha / 2.0), rel=1e-13)
        assert not d.reject

    def test_strong_correlation_rejects(self):
        # r = 0.5 with 100 observations: z = 5 ln 3 > 1.96
        s = SymmetricMatrix(
            [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        d = fisher_test(s, 0, 1, 100, 0.05)
        assert d.statistic == pytest.approx(5.0 * math.log(3.0), abs=1e-12)
        assert d.reject

    def test_asymptotic_p_value_formula(self, rng):
        s, i, j, n = random_instance(rng)
        d = fisher_test(s, i, j, n, 0.05)
        phi = oracles.normal_cdf_erf(abs(d.statistic))
        assert d.p_value == pytest.approx(2.0 * (1.0 - phi), abs=1e-13)


class TestSharedBehaviour:
    @pytest.mark.parametrize("method", ["umpu", "partial_corr", "fisher"])
    def test_symmetric_thresholds(self, method, rng):
        s, i, j, n = random_instance(rng)
        d = run_edge_test(method, s, i, j, n, 0.05)
        assert d.lower == -d.upper
        assert d.method == method

    @pytest.mark.parametrize("method", ["umpu", "partial_corr", "fisher"])
    def test_edge_order_irrelevant(self, method, rng):
        s, i, j, n = random_instance(rng)
        d1 = run_edge_test(method, s, i, j, n, 0.05)
        d2 = run_edge_test(method, s, j, i, n, 0.05)
        assert d1.statistic == pytest.approx(d2.statistic, abs=1e-14)
        assert d1.reject == d2.reject
        assert d1.p_value == pytest.approx(d2.p_value, abs=1e-14)

    @pytest.mark.parametrize("itype", [np.int64, np.int32])
    @pytest.mark.parametrize("method", ["umpu", "partial_corr", "fisher"])
    def test_numpy_integer_indices_decide_as_ints(self, method, itype, rng):
        # numpy integers take the full index checks, not the exact-int path
        s, _, _, n = random_instance(rng)
        for i, j in all_pairs(s.dim):
            d = run_edge_test(method, s, itype(i), itype(j), n, 0.05)
            assert type(d.i) is itype
            assert d == run_edge_test(method, s, i, j, n, 0.05)

    @pytest.mark.parametrize("method", ["umpu", "partial_corr", "fisher"])
    def test_permutation_invariance(self, method, rng):
        s, i, j, n = random_instance(rng)
        perm = rng.permutation(s.dim)
        permuted = SymmetricMatrix(s.entries[np.ix_(perm, perm)])
        pi = int(np.where(perm == i)[0][0])
        pj = int(np.where(perm == j)[0][0])
        d1 = run_edge_test(method, s, i, j, n, 0.05)
        d2 = run_edge_test(method, permuted, pi, pj, n, 0.05)
        assert d1.statistic == pytest.approx(d2.statistic, abs=1e-10)
        assert d1.reject == d2.reject

    @pytest.mark.parametrize("method", ["umpu", "partial_corr", "fisher"])
    def test_monotone_in_alpha(self, method, rng):
        for _ in range(10):
            s, i, j, n = random_instance(rng)
            rejects = [
                run_edge_test(method, s, i, j, n, alpha).reject
                for alpha in (0.001, 0.01, 0.05, 0.1, 0.2, 0.5)
            ]
            # once rejected, rejected at every larger alpha
            assert rejects == sorted(rejects)

    @pytest.mark.parametrize("method", ["umpu", "partial_corr"])
    def test_p_value_consistent_with_decision(self, method, rng):
        for _ in range(60):
            s, i, j, n = random_instance(rng)
            alpha = float(rng.uniform(0.005, 0.4))
            d = run_edge_test(method, s, i, j, n, alpha)
            assert (d.p_value <= alpha) == d.reject

    @pytest.mark.parametrize("method", ["umpu", "partial_corr", "fisher"])
    def test_decision_matches_threshold_rule(self, method, rng):
        s, i, j, n = random_instance(rng)
        d = run_edge_test(method, s, i, j, n, 0.05)
        assert d.reject == threshold_reject(d.statistic, d.lower, d.upper)

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            run_edge_test("wald", SymmetricMatrix(np.eye(3)), 0, 1, 9, 0.05)

    @pytest.mark.parametrize("method", [["fisher"], {"fisher"}])
    def test_unhashable_method_raises_what_test_config_raises(self, method):
        with pytest.raises(DomainError) as want:
            TestConfig(0.05, method)
        with pytest.raises(DomainError) as got:
            run_edge_test(method, SymmetricMatrix(np.eye(3)), 0, 1, 9, 0.05)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


class TestCriticalValue:
    def test_cache_is_bounded(self):
        count = QUANTILE_CACHE_SIZE + 10
        for k in range(1, count + 1):
            independence._critical_value("fisher", k / (count + 1), 30, 3)
        info = independence._critical_value.cache_info()
        assert info.maxsize == QUANTILE_CACHE_SIZE
        assert info.currsize <= QUANTILE_CACHE_SIZE

    @pytest.mark.parametrize(
        "method, n, alpha, error",
        [
            ("fisher", 30, 5e-324, DomainError),  # alpha / 2 rounds to 0
            ("partial_corr", 10**11, 0.05, ConvergenceError),
            ("umpu", 10**11, 0.05, ConvergenceError),
        ],
    )
    def test_a_bad_call_raises_every_time(self, method, n, alpha, error):
        s = SymmetricMatrix(np.eye(3))
        for _ in range(3):
            with pytest.raises(error):
                run_edge_test(method, s, 0, 1, n, alpha)

    @pytest.mark.parametrize("method", ["umpu", "partial_corr", "fisher"])
    @pytest.mark.parametrize("numpy_first", [True, False])
    def test_numpy_level_decides_as_float(self, method, numpy_first):
        # equal levels share a cache entry, whichever type filled it
        independence._critical_value.cache_clear()
        levels = [np.float64(0.05), 0.05]
        if not numpy_first:
            levels.reverse()
        got = [repr(run_edge_test(method, STRONG_EDGE, 0, 1, 10, a)) for a in levels]
        assert got[0] == got[1]

    @pytest.mark.parametrize("test", [umpu_test, partial_correlation_test, fisher_test])
    def test_a_decided_setting_still_checks_its_inputs(self, test):
        # n = 10.0 hashes and compares like the cached key n = 10
        test(STRONG_EDGE, 0, 1, 10, 0.05)
        with pytest.raises(DomainError, match="sample size must be an integer"):
            test(STRONG_EDGE, 0, 1, 10.0, 0.05)


def test_exact_tests_decide_at_millions_of_observations():
    # m = (n - N) / 2 is near 2.5 * 10**6, where the continued fraction
    # needs more than its old cap of 500 steps
    for test in (partial_correlation_test, umpu_test):
        d = test(SymmetricMatrix(np.eye(3)), 0, 1, 5_000_000, 0.05)
        assert d.statistic == 0.0
        assert not d.reject
        assert d.upper == pytest.approx(1.959963984540054 / math.sqrt(4_999_997), rel=1e-3)


class TestArrayRoute:
    """umpu's conditional route over index arrays against the per-pair
    oracle, bit for bit."""

    @staticmethod
    def assert_matches_oracle(s, i, j, n, alpha):
        route = independence._umpu_route(s, i, j, n, alpha)
        columns = [np.atleast_1d(v) for v in np.broadcast_arrays(*route)]
        for k, (a, b) in enumerate(zip(np.atleast_1d(i).tolist(), np.atleast_1d(j).tolist())):
            got = tuple(column[k] for column in columns)
            assert got == oracles.conditional_route(s, a, b, n, alpha)

    @staticmethod
    def chain_covariance(scale):
        k = np.eye(40)
        idx = np.arange(39)
        k[idx, idx + 1] = k[idx + 1, idx] = -0.3
        data = sample_gaussian(PrecisionSpec(SymmetricMatrix(k)), 160, seed=4)
        return selection._validated_covariance(Dataset(data.values * scale, data.names))

    @pytest.mark.parametrize(
        "scale", [1.0, np.where(np.arange(40) < 20, 1e5, 1e-5)], ids=["chain", "mixed-units"]
    )
    def test_every_pair_of_an_n40_file(self, scale):
        s = self.chain_covariance(scale)
        i, j = np.triu_indices(40, 1)
        self.assert_matches_oracle(s, i, j, 160, 0.05)

    def test_one_pair_of_random_instances(self):
        # the one-pair route of verify_equivalence and umpu_raw_thresholds
        for s, i, j, n, alpha in random_covariance_instances(500, seed=12):
            self.assert_matches_oracle(s, i, j, n, alpha)


class TestEquivalence:
    def test_identity_instance(self):
        report = verify_equivalence(SymmetricMatrix(np.eye(4)), 0, 1, 10, 0.05)
        assert report.statistic_gap <= 1e-15
        assert report.threshold_gap == 0.0
        assert report.same_decision
        assert report.raw_scale_agrees

    def test_signed_gap_vanishes(self, rng):
        # the standardized statistic equals r itself, sign included
        for _ in range(50):
            s, i, j, n = random_instance(rng)
            report = verify_equivalence(s, i, j, n, 0.05)
            assert abs(report.signed_gap) <= 1e-9

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=100)
    def test_agreement_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        s, i, j, n = random_instance(rng)
        alpha = float(rng.choice([0.1, 0.05, 0.01]))
        report = verify_equivalence(s, i, j, n, alpha)
        assert report.same_decision
        assert report.statistic_gap <= 1e-9
        assert report.threshold_gap <= 1e-10
        assert report.raw_scale_agrees

    def test_one_inverse_and_no_determinant_per_matrix(self, monkeypatch):
        # every pair's quadratic comes from R^-1 alone: one LAPACK inverse
        # for all 780 pairs, no determinant and no three-probe quadratic
        shapes, inverses, probes = [], [], []
        det, inv = matrices._det, np.linalg.inv
        probe = matrices.quadratic_decomposition
        monkeypatch.setattr(matrices, "_det", lambda a: shapes.append(a.shape) or det(a))
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(a.shape) or inv(a))
        monkeypatch.setattr(
            matrices, "quadratic_decomposition", lambda *a: probes.append(a) or probe(*a)
        )
        k = np.eye(40)
        idx = np.arange(39)
        k[idx, idx + 1] = k[idx + 1, idx] = -0.3
        data = sample_gaussian(PrecisionSpec(SymmetricMatrix(k)), 160, seed=4)
        s = sample_covariance(data)
        for i, j in all_pairs(40):
            verify_equivalence(s, i, j, 160, 0.05)
            umpu_raw_thresholds(s, i, j, 160, 0.05)
        assert shapes == []
        assert inverses == [(40, 40)]
        assert probes == []

    def test_each_pair_validated_once(self, edge_test_calls):
        # each entry point validates through one public test of its pair
        s = SymmetricMatrix(STRONG_EDGE.entries)
        for i, j in all_pairs(3):
            verify_equivalence(s, i, j, 10, 0.05)
        assert edge_test_calls == [("partial_corr", i, j) for i, j in all_pairs(3)]
        edge_test_calls.clear()
        umpu_raw_thresholds(s, 0, 2, 10, 0.05)
        assert edge_test_calls == [("umpu", 0, 2)]

    @pytest.mark.parametrize(
        "i, j, n, alpha, error",
        [
            (0, 0, 10, 0.05, DomainError),
            (0, 3, 10, 0.05, DomainError),
            (0, 1, 10, 1.5, DomainError),
            (0, 1, 10.0, 0.05, DomainError),
            (0, 1, 3, 0.05, InsufficientSample),
        ],
    )
    def test_invalid_inputs_rejected_by_both_entry_points(self, i, j, n, alpha, error):
        for check in (verify_equivalence, umpu_raw_thresholds):
            with pytest.raises(error):
                check(STRONG_EDGE, i, j, n, alpha)

    def test_perturbed_lemma_inverse_is_caught(self, monkeypatch):
        # verify reads G_ij of R^-1 itself: a relative error of 1e-6 in it
        # opens a gap far above the limit
        inv = np.linalg.inv

        def perturbed(a):
            g = inv(a)
            g[0, 1] *= 1.0 + 1e-6
            g[1, 0] *= 1.0 + 1e-6
            return g

        monkeypatch.setattr(np.linalg, "inv", perturbed)
        # a new matrix, whose lemma table is not yet cached
        s = SymmetricMatrix(STRONG_EDGE.entries)
        report = verify_equivalence(s, 0, 1, 10, 0.05)
        assert report.statistic_gap > 1e-9

    def test_singular_lemma_inverse_is_a_library_error(self, monkeypatch):
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        s = SymmetricMatrix(STRONG_EDGE.entries)
        with pytest.raises(NotPositiveDefinite, match="numerically singular"):
            verify_equivalence(s, 0, 1, 10, 0.05)
        with pytest.raises(NotPositiveDefinite, match="numerically singular"):
            umpu_raw_thresholds(s, 0, 1, 10, 0.05)

    def test_wrong_conditional_route_is_caught(self, monkeypatch):
        # verify checks r against the determinant route, not r against
        # itself: a route that gets t's sign wrong opens a gap
        route = independence._roots_and_statistic

        def flipped(a, b, c, x):
            x1, x2, t = route(a, b, c, x)
            return x1, x2, -t

        monkeypatch.setattr(independence, "_roots_and_statistic", flipped)
        report = verify_equivalence(STRONG_EDGE, 0, 1, 10, 0.05)
        assert report.statistic_gap > 1e-9

    def test_threshold_identity_against_quadrature(self):
        # 1 - 2 q(alpha/2, m) equals the two-sided critical value of the
        # correlation null law, independently integrated
        for alpha in (0.1, 0.05, 0.01):
            for degrees in (1, 5, 12):
                n, dim = degrees + 4, 4
                d = partial_correlation_test(
                    SymmetricMatrix(np.eye(dim)), 0, 1, n, alpha
                )
                assert d.upper == pytest.approx(
                    oracles.null_corr_quantile_quad(alpha, degrees), abs=1e-8
                )
