import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import oracles
from concgraph import (
    ConcgraphError,
    ConvergenceError,
    DomainError,
    InsufficientSample,
    beta_sym_quantile,
    fisher_z,
    null_corr_cdf,
    null_corr_quantile,
    reg_inc_beta,
    std_normal_quantile,
)
from concgraph import distributions
from concgraph.distributions import QUANTILE_CACHE_SIZE, _reg_inc_beta_array, null_corr_pvalues
from concgraph.independence import _exact_p_value

SHAPES = (0.5, 1.0, 1.5, 2.0, 5.0, 10.0, 24.5)
PROBS = (0.005, 0.025, 0.05, 0.25)

probs_strategy = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
shapes_strategy = st.floats(min_value=0.5, max_value=30.0)


class TestRegIncBeta:
    def test_endpoints(self):
        assert reg_inc_beta(0.0, 2.5, 2.5) == 0.0
        assert reg_inc_beta(1.0, 2.5, 2.5) == 1.0

    @pytest.mark.parametrize("m", SHAPES)
    def test_symmetry_point(self, m):
        assert reg_inc_beta(0.5, m, m) == pytest.approx(0.5, abs=1e-13)

    def test_uniform_case(self):
        assert reg_inc_beta(0.3, 1.0, 1.0) == pytest.approx(0.3, abs=1e-14)

    def test_cubic_case(self):
        # I_x(2, 2) = 3x**2 - 2x**3
        assert reg_inc_beta(0.25, 2.0, 2.0) == pytest.approx(0.15625, abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(1.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 1.0, -2.0)
        with pytest.raises(DomainError):
            reg_inc_beta(float("nan"), 1.0, 1.0)

    @given(x=probs_strategy, p=shapes_strategy, q=shapes_strategy)
    @settings(max_examples=150)
    def test_reflection_identity(self, x, p, q):
        lhs = reg_inc_beta(x, p, q)
        rhs = 1.0 - reg_inc_beta(1.0 - x, q, p)
        assert lhs == pytest.approx(rhs, abs=2e-13)

    @pytest.mark.parametrize("m", SHAPES)
    def test_against_quadrature_oracle(self, m):
        for x in (0.01, 0.1, 0.25, 0.5, 0.7, 0.95, 0.999):
            assert reg_inc_beta(x, m, m) == pytest.approx(
                oracles.beta_sym_cdf_quad(x, m), abs=1e-10
            )

    def test_integer_shape_binomial_identity(self):
        for m in (1, 2, 4, 7):
            for x in (0.2, 0.5, 0.65, 0.9):
                assert reg_inc_beta(x, float(m), float(m)) == pytest.approx(
                    oracles.integer_shape_beta_cdf(x, m), abs=1e-12
                )

    @given(p=shapes_strategy, m=shapes_strategy)
    @settings(max_examples=80)
    def test_monotone_in_x(self, p, m):
        values = [reg_inc_beta(x, p, m) for x in np.linspace(0.0, 1.0, 21)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestRegIncBetaArray:
    """The array form against the scalar routine, bit for bit."""

    @pytest.mark.parametrize(
        "m", (0.5, 1.0, 1.5, 2.5, 10.0, 10.5, 20.0, 74.0, 150.0, 1500.0, 9950.5)
    )
    def test_bit_identical_to_scalar(self, m):
        rng = np.random.default_rng(int(2 * m))
        # endpoints, the symmetry point, both branches of the continued
        # fraction ((m + 1) / (2 m + 2) splits them) and the bulk of the law
        x = np.concatenate([
            [0.0, 0.5, 1.0, 1e-300, 1e-12, 0.5 - 1e-16, 0.5 + 1e-16, 1.0 - 1e-16],
            rng.uniform(0.0, 1.0, 200),
            rng.beta(m, m, 200),
        ])
        # and arrays on both sides of the count below which each element
        # takes the scalar continued fraction
        assert distributions._CF_ARRAY_MIN == 48
        for y in (x, *(rng.beta(m, m, size) for size in (1, 47, 48, 49))):
            got = _reg_inc_beta_array(y, m)
            want = [reg_inc_beta(float(v), m, m) for v in y]
            assert bits(got) == bits(want)

    @pytest.mark.parametrize("m", (0.5, 1.0, 1.5, 10.0, 10.5, 74.0, 1500.0, 9950.5))
    def test_symmetric_shapes_take_one_pass(self, m, monkeypatch):
        # both tails of Beta(m, m) run through one continued fraction, on
        # x below 1/2 and on 1 - x above it, with the scalar's bits
        rng = np.random.default_rng(int(2 * m))
        spread = 1.0 / math.sqrt(8.0 * m + 1.0)
        x = np.concatenate([
            [0.0, 0.5, 1.0, 1e-300, 0.5 - 1e-16, 0.5 + 1e-16, 1.0 - 1e-16],
            rng.uniform(0.0, 1.0, 100),
            np.clip(0.5 + spread * rng.standard_normal(100), 0.0, 1.0),
        ])
        assert (x < 0.5).sum() > 50 and (x > 0.5).sum() > 50
        passes = []
        lentz = distributions._beta_cf_array
        monkeypatch.setattr(
            distributions, "_beta_cf_array", lambda a, b, y: passes.append(y.size) or lentz(a, b, y)
        )
        got = _reg_inc_beta_array(x, m)
        assert passes == [np.count_nonzero((x > 0.0) & (x < 1.0))]
        assert bits(got) == bits([reg_inc_beta(float(v), m, m) for v in x])

    def test_both_branches_taken(self):
        x = np.array([0.1, 0.9])
        split = (3.0 + 1.0) / (3.0 + 3.0 + 2.0)
        assert x[0] < split <= x[1]
        assert bits(_reg_inc_beta_array(x, 3.0)) == bits(
            [reg_inc_beta(0.1, 3.0, 3.0), reg_inc_beta(0.9, 3.0, 3.0)]
        )

    def test_one_branch_empty(self):
        x = np.array([0.0, 0.01, 0.2])
        assert bits(_reg_inc_beta_array(x, 5.0)) == bits(
            [reg_inc_beta(v, 5.0, 5.0) for v in x]
        )
        assert _reg_inc_beta_array(np.array([]), 2.0).size == 0


class TestBetaSymQuantile:
    def test_uniform_shape(self):
        assert beta_sym_quantile(0.025, 1.0) == pytest.approx(0.025, abs=1e-12)

    @pytest.mark.parametrize("m", SHAPES)
    def test_median_exact(self, m):
        assert beta_sym_quantile(0.5, m) == 0.5

    def test_cache_is_bounded(self):
        # prob = 1/2 returns at once, so overfilling the cache is cheap
        for k in range(QUANTILE_CACHE_SIZE + 10):
            beta_sym_quantile(0.5, 1.0 + k)
        info = beta_sym_quantile.cache_info()
        assert info.maxsize == QUANTILE_CACHE_SIZE
        assert info.currsize <= QUANTILE_CACHE_SIZE

    def test_cubic_root_case(self):
        # I_q(2, 2) = 3q**2 - 2q**3 = 0.025: real root in (0, 1)
        roots = np.roots([-2.0, 3.0, 0.0, -0.025])
        expected = min(
            r.real for r in roots if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0
        )
        assert beta_sym_quantile(0.025, 2.0) == pytest.approx(expected, abs=1e-10)

    def test_arcsine_closed_form(self):
        # m = 1/2 is the arcsine law with quantile sin(pi p / 2)**2
        for p in PROBS:
            assert beta_sym_quantile(p, 0.5) == pytest.approx(
                math.sin(math.pi * p / 2.0) ** 2, abs=1e-12
            )

    @given(
        p=st.floats(min_value=1e-4, max_value=1.0 - 1e-4),
        m=st.floats(min_value=0.5, max_value=25.0),
    )
    @settings(max_examples=100)
    def test_inversion_accuracy(self, p, m):
        q = beta_sym_quantile(p, m)
        assert abs(reg_inc_beta(q, m, m) - p) <= 1e-12

    @given(
        p=st.floats(min_value=1e-4, max_value=0.5),
        m=st.floats(min_value=0.5, max_value=25.0),
    )
    @settings(max_examples=100)
    def test_reflection_is_exact(self, p, m):
        assert beta_sym_quantile(p, m) + beta_sym_quantile(1.0 - p, m) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_monotone_in_probability(self):
        for m in SHAPES:
            qs = [beta_sym_quantile(p, m) for p in np.linspace(0.01, 0.99, 25)]
            assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            beta_sym_quantile(0.0, 1.0)
        with pytest.raises(DomainError):
            beta_sym_quantile(1.0, 1.0)
        with pytest.raises(DomainError):
            beta_sym_quantile(0.5, 0.0)

    @pytest.mark.parametrize("m", SHAPES)
    @pytest.mark.parametrize("p", PROBS)
    def test_against_quadrature_inversion(self, m, p):
        assert beta_sym_quantile(p, m) == pytest.approx(
            oracles.beta_sym_quantile_quad(p, m), abs=1e-8
        )


class TestNullCorrCdf:
    def test_center_and_endpoints(self):
        assert null_corr_cdf(0.0, 12, 4) == pytest.approx(0.5, abs=1e-13)
        assert null_corr_cdf(-1.0, 12, 4) == 0.0
        assert null_corr_cdf(1.0, 12, 4) == 1.0

    def test_uniform_degrees_two(self):
        # n - N = 2 makes r uniform on [-1, 1]
        assert null_corr_cdf(0.5, 7, 5) == pytest.approx(0.75, abs=1e-13)

    def test_frozen_value_degrees_eight(self):
        # m = 4: binomial-sum oracle gives I_0.65(4, 4) = 0.800154265625
        assert null_corr_cdf(0.3, 12, 4) == pytest.approx(0.800154265625, abs=1e-12)
        assert oracles.integer_shape_beta_cdf(0.65, 4) == pytest.approx(
            0.800154265625, abs=1e-15
        )

    def test_against_quadrature(self):
        for degrees in (1, 2, 3, 8, 21):
            n, dim = degrees + 4, 4
            for r in (-0.95, -0.4, 0.1, 0.65):
                assert null_corr_cdf(r, n, dim) == pytest.approx(
                    oracles.null_corr_cdf_quad(r, degrees), abs=1e-10
                )

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSample):
            null_corr_cdf(0.0, 4, 4)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            null_corr_cdf(1.5, 12, 4)

    def test_non_integer_variable_count(self):
        with pytest.raises(DomainError) as info:
            null_corr_cdf(0.1, 10, 3.0)
        assert str(info.value) == "variable count must be an integer, got 3.0"

    def test_distribution_link(self):
        # if U ~ Beta(m, m) then 2U - 1 follows the correlation law:
        # the CDFs agree after the affine map
        for degrees in (1, 3, 10):
            n, dim = degrees + 5, 5
            for r in (-0.8, -0.1, 0.4, 0.9):
                u = (1.0 + r) / 2.0
                assert null_corr_cdf(r, n, dim) == pytest.approx(
                    reg_inc_beta(u, degrees / 2.0, degrees / 2.0), abs=1e-14
                )


class TestNullCorrPvalues:
    # (n, dim): n - dim odd gives a half-integer shape, dim = 2 one pair
    SIZES = ((3, 2), (4, 2), (12, 5), (40, 10), (41, 10), (1001, 2), (1010, 10))

    @pytest.mark.parametrize("n, dim", SIZES)
    def test_bit_identical_to_scalar(self, n, dim):
        grid = np.linspace(0.0, 1.0, 401)
        tail = np.array([0.0, 5e-324, 1e-300, 1e-8, 0.999, 0.9995, 0.9999, 1.0 - 1e-12, 1.0])
        r = np.concatenate([grid, tail, -grid, -tail])
        got = null_corr_pvalues(r, n, dim).tolist()
        assert got == [_exact_p_value(v, n, dim) for v in r.tolist()]
        assert got[:401] == got[410:811]  # r and -r

    def test_flattens_and_takes_lists(self):
        got = null_corr_pvalues([[0.0, 0.5], [-0.5, 1.0]], 12, 4)
        assert got.tolist() == [1.0, _exact_p_value(0.5, 12, 4), _exact_p_value(0.5, 12, 4), 0.0]
        assert null_corr_pvalues([], 12, 4).shape == (0,)

    @pytest.mark.parametrize("bad", [1.5, -1.0000001, float("nan"), float("inf")])
    def test_domain_error(self, bad):
        with pytest.raises(DomainError, match="correlation must lie in"):
            null_corr_pvalues([0.1, bad, 0.2], 12, 4)

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSample):
            null_corr_pvalues([0.1], 4, 4)


class TestNullCorrQuantile:
    def test_uniform_law(self):
        assert null_corr_quantile(0.05, 7, 5) == pytest.approx(0.95, abs=1e-12)

    @pytest.mark.parametrize("alpha, message", [
        (0, "significance level must lie in (0, 1], got 0"),
        (1.5, "significance level must lie in (0, 1], got 1.5"),
        (5e-324, "significance level 5e-324 is too small: alpha / 2 rounds to 0"),
    ])
    def test_bad_level(self, alpha, message):
        with pytest.raises(DomainError) as info:
            null_corr_quantile(alpha, 12, 4)
        assert str(info.value) == message

    def test_always_reject_boundary(self):
        assert null_corr_quantile(1.0, 12, 4) == 0.0
        # approaching alpha = 1 from below drives c to 0
        assert null_corr_quantile(1.0 - 1e-12, 7, 5) < 1e-10

    def test_frozen_value_degrees_ten(self):
        # independent quadrature inversion of the correlation density
        expected = oracles.null_corr_quantile_quad(0.05, 10)
        assert null_corr_quantile(0.05, 15, 5) == pytest.approx(expected, abs=1e-8)
        assert null_corr_quantile(0.05, 15, 5) == pytest.approx(
            0.5759829864422641, abs=1e-10
        )

    def test_threshold_relation_exact_by_construction(self):
        for alpha in (0.2, 0.1, 0.05, 0.01):
            for degrees in (1, 2, 7, 20):
                n, dim = degrees + 3, 3
                c = null_corr_quantile(alpha, n, dim)
                q = beta_sym_quantile(alpha / 2.0, degrees / 2.0)
                assert c == 1.0 - 2.0 * q

    def test_roundtrip_with_cdf(self):
        for alpha in (0.2, 0.1, 0.05, 0.01):
            for degrees in range(1, 41):
                n, dim = degrees + 2, 2
                c = null_corr_quantile(alpha, n, dim)
                assert abs(null_corr_cdf(c, n, dim) - (1.0 - alpha / 2.0)) <= 1e-10

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSample):
            null_corr_quantile(0.05, 5, 5)
        with pytest.raises(InsufficientSample):
            null_corr_quantile(0.05, 4, 5)


class TestLargeShapes:
    """m = (n - N) / 2 far above the continued fraction's 500-step floor."""

    @pytest.mark.parametrize("n", [2_000_000, 20_000_000, 1_000_000_000])
    def test_quantile_converges(self, n):
        # c is close to its normal approximation z_{0.975} / sqrt(n - N)
        c = null_corr_quantile(0.05, n, 8)
        assert c == pytest.approx(1.959963984540054 / math.sqrt(n - 8), rel=1e-3)

    def test_array_bit_identical_to_scalar(self):
        m = 1e6
        x = 0.5 + np.linspace(-3e-3, 3e-3, 41)
        got = _reg_inc_beta_array(x, m)
        assert [v.hex() for v in got.tolist()] == [
            reg_inc_beta(float(v), m, m).hex() for v in x
        ]

    def test_cap_grows_with_the_root_of_the_shape(self):
        assert distributions._cf_max_iter(2.5, 0.5) == 500
        assert distributions._cf_max_iter(1e6, 3.0) == 4000
        assert distributions._cf_max_iter(3.0, 1e8) == 40000

    def test_non_convergence_names_shape_and_sample(self, monkeypatch):
        monkeypatch.setattr(distributions, "_cf_max_iter", lambda a, b: 1)
        with pytest.raises(ConvergenceError, match=r"shapes \(7\.5, 7\.5\)$"):
            reg_inc_beta(0.3, 7.5, 7.5)
        # levels no other test asks for, so the quantile cache cannot hide
        # the failure
        with pytest.raises(ConvergenceError, match=r"\(n = 23, N = 8\)$"):
            null_corr_quantile(0.0123, 23, 8)
        with pytest.raises(ConvergenceError, match=r"\(n = 23, N = 8\)$"):
            null_corr_cdf(0.3, 23, 8)
        with pytest.raises(ConvergenceError, match=r"\(n = 23, N = 8\)$"):
            null_corr_pvalues([0.3], 23, 8)
        assert issubclass(ConvergenceError, ConcgraphError)


class TestHugeShapes:
    """Shapes at which the prefactor's lgamma head rounds away the result."""

    def test_refused_with_the_sample(self):
        # m = 1e14 - 4: the head's rounding bound is about 2.8, and the
        # quantile once came out as 0.49999999999995248 (c near 9.5e-14,
        # against about 3.7e-8 from the normal approximation)
        n = 2 * 10**14
        for call in (
            lambda: null_corr_cdf(0.3, n, 8),
            lambda: null_corr_quantile(0.05, n, 8),
            lambda: null_corr_pvalues([0.3], n, 8),
        ):
            with pytest.raises(ConvergenceError, match=r"\(n = 200000000000000, N = 8\)$"):
                call()
        # r = +-1 needs no prefactor, in the array form as in the scalar one
        assert null_corr_pvalues([1.0, -1.0], n, 8).tolist() == [0.0, 0.0]
        assert null_corr_cdf(-1.0, n, 8) == 0.0

    @pytest.mark.parametrize("m", [1e30, 1e306, 1.7e308])
    def test_no_overflow_escapes(self, m):
        # math.exp overflowed at 1e30, and lgamma itself at 1e306
        with pytest.raises(ConvergenceError, match=r"^incomplete beta prefactor"):
            reg_inc_beta(0.3, m, m)
        with pytest.raises(ConvergenceError, match=r"^incomplete beta prefactor"):
            _reg_inc_beta_array(np.array([0.3]), m)

    def test_bound_keeps_a_billion_observations(self):
        # m = 5e8, the largest shape TestLargeShapes asks for: bound 8.6e-6
        assert distributions._log_beta_head(5e8, 5e8) == (
            math.lgamma(1e9) - math.lgamma(5e8) - math.lgamma(5e8)
        )
        refused = r"shapes \(1000000000000\.0, 1000000000000\.0\)$"
        with pytest.raises(ConvergenceError, match=refused):
            distributions._log_beta_head(1e12, 1e12)


class TestFisherZ:
    def test_zero(self):
        assert fisher_z(0.0, 17) == 0.0

    def test_known_value(self):
        # (sqrt(100) / 2) * ln(3) = 5 ln 3
        assert fisher_z(0.5, 100) == pytest.approx(5.0 * math.log(3.0), abs=1e-12)

    def test_odd(self):
        assert fisher_z(-0.5, 100) == pytest.approx(-5.0 * math.log(3.0), abs=1e-12)

    @given(r=st.floats(min_value=-0.999, max_value=0.999), n=st.integers(2, 500))
    @settings(max_examples=100)
    def test_odd_property(self, r, n):
        assert fisher_z(-r, n) == pytest.approx(-fisher_z(r, n), abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            fisher_z(1.0, 10)
        with pytest.raises(DomainError):
            fisher_z(-1.0000001, 10)
        with pytest.raises(DomainError):
            fisher_z(0.5, 0)


class TestStdNormal:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_known_value(self):
        assert std_normal_quantile(0.975) == pytest.approx(
            1.959963984540054, abs=1e-10
        )

    def test_antisymmetry(self):
        assert std_normal_quantile(0.025) == pytest.approx(
            -std_normal_quantile(0.975), abs=1e-12
        )

    @given(p=st.floats(min_value=1e-8, max_value=1.0 - 1e-8))
    @settings(max_examples=120)
    def test_against_bisection_oracle(self, p):
        assert std_normal_quantile(p) == pytest.approx(
            oracles.normal_quantile_bisect(p), abs=1e-10
        )

    @given(p=st.floats(min_value=1e-10, max_value=1.0 - 1e-10))
    @settings(max_examples=100)
    def test_roundtrip(self, p):
        assert oracles.normal_cdf_erf(std_normal_quantile(p)) == pytest.approx(p, abs=1e-12)

    def test_relative_error_against_scipy(self):
        # 7.5e-16 at worst here; the rational approximation with a Newton
        # step it replaced was 3.8e-15 off at p = 0.4925 and 1.1e-9 at
        # p = 0.5 + 1e-10, where its Newton step loses the CDF's last bits
        probs = (
            [10.0**-k for k in range(1, 301)]
            + [1.0 - 10.0**-k for k in range(1, 17)]
            + [k / 400 for k in range(1, 400)]
            + [0.5 + 1e-10, 1.0 - 0.05 / 2, 1.0 - 0.01 / 2, 1.0 - 0.05 / 435 / 2]
        )
        got = np.array([std_normal_quantile(p) for p in probs])
        want = ndtri(probs)
        assert std_normal_quantile(0.5) == ndtri(0.5) == 0.0
        nonzero = want != 0.0
        assert np.max(np.abs(got - want)[nonzero] / np.abs(want[nonzero])) <= 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            std_normal_quantile(0.0)
        with pytest.raises(DomainError):
            std_normal_quantile(1.0)
        with pytest.raises(DomainError):
            std_normal_quantile(math.nan)
