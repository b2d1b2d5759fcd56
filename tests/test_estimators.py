import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from concgraph import (
    Dataset,
    DomainError,
    NotPositiveDefinite,
    PrecisionSpec,
    SymmetricMatrix,
    TestConfig,
    cofactor,
    edge_statistic,
    pd_interval,
    quadratic_decomposition,
    sample_covariance,
    sample_partial_correlation,
    select_graph,
)


class TestDataset:
    def test_basic_construction(self):
        d = Dataset(values=[[1.0, 2.0], [3.0, 4.0]], names=("a", "b"))
        assert d.n == 2
        assert d.dim == 2
        assert d.names == ("a", "b")

    def test_requires_two_observations(self):
        with pytest.raises(DomainError):
            Dataset(values=[[1.0, 2.0]], names=("a", "b"))

    def test_requires_finite(self):
        with pytest.raises(DomainError):
            Dataset(values=[[1.0, np.nan], [3.0, 4.0]], names=("a", "b"))

    def test_requires_unique_names(self):
        with pytest.raises(DomainError):
            Dataset(values=[[1.0, 2.0], [3.0, 4.0]], names=("a", "a"))

    def test_requires_matching_name_count(self):
        with pytest.raises(DomainError):
            Dataset(values=[[1.0, 2.0], [3.0, 4.0]], names=("a",))

    @pytest.mark.parametrize("values, message", [
        ([1.0, 2.0, 3.0], "observations must form a 2-d array"),
        (np.empty((3, 0)), "need at least one variable"),
    ], ids=["1-d", "no columns"])
    def test_requires_a_table_of_columns(self, values, message):
        with pytest.raises(DomainError) as info:
            Dataset(values=values, names=())
        assert str(info.value) == message

    def test_values_locked(self):
        d = Dataset(values=[[1.0, 2.0], [3.0, 4.0]], names=("a", "b"))
        with pytest.raises(ValueError):
            d.values[0, 0] = 9.0


class TestSampleCovariance:
    def test_identical_observations_give_zero(self):
        d = Dataset(values=[[1.0, 2.0, 3.0]] * 4, names=("a", "b", "c"))
        s = sample_covariance(d)
        assert np.all(s.entries == 0.0)

    def test_two_point_hand_value(self):
        # observations (1, 2) and (3, 4): deviations +-1 in both columns,
        # 1/n normalization gives every entry (1 + 1) / 2 = 1
        d = Dataset(values=[[1.0, 2.0], [3.0, 4.0]], names=("a", "b"))
        s = sample_covariance(d)
        assert s.entries == pytest.approx(np.ones((2, 2)))

    def test_one_over_n_convention(self, rng):
        x = rng.standard_normal((7, 3))
        d = Dataset(values=x, names=("a", "b", "c"))
        s = sample_covariance(d)
        xc = x - x.mean(axis=0)
        expected = xc.T @ xc / 7.0
        assert s.entries == pytest.approx(expected, abs=1e-14)

    @given(scale=st.floats(min_value=0.1, max_value=25.0), seed=st.integers(0, 2**31))
    @settings(max_examples=40)
    def test_column_scaling_is_bilinear(self, scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((8, 3))
        base = sample_covariance(Dataset(values=x, names=("a", "b", "c"))).entries
        scaled_x = x.copy()
        scaled_x[:, 0] *= scale
        scaled = sample_covariance(
            Dataset(values=scaled_x, names=("a", "b", "c"))
        ).entries
        assert scaled[0, 0] == pytest.approx(scale * scale * base[0, 0], rel=1e-12)
        assert scaled[0, 1] == pytest.approx(scale * base[0, 1], rel=1e-12)
        assert scaled[1, 2] == pytest.approx(base[1, 2], rel=1e-12)

    def test_exactly_symmetric(self, rng):
        x = rng.standard_normal((11, 5))
        s = sample_covariance(Dataset(values=x, names=tuple("abcde")))
        assert np.array_equal(s.entries, s.entries.T)


class TestSamplePartialCorrelation:
    def test_identity_edges_are_zero(self):
        s = SymmetricMatrix(np.eye(4))
        assert sample_partial_correlation(s, 1, 3) == 0.0

    def test_hand_value(self):
        s = SymmetricMatrix([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert sample_partial_correlation(s, 0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_requires_positive_definite(self):
        s = SymmetricMatrix([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            sample_partial_correlation(s, 0, 1)

    def test_constant_column_rejected_at_test_time(self, rng):
        x = rng.standard_normal((9, 3))
        x[:, 2] = 4.2
        d = Dataset(values=x, names=("a", "b", "c"))
        s = sample_covariance(d)  # estimation itself must not raise
        with pytest.raises(NotPositiveDefinite):
            sample_partial_correlation(s, 0, 1)

    def test_rejects_diagonal_pair(self):
        with pytest.raises(DomainError):
            sample_partial_correlation(SymmetricMatrix(np.eye(3)), 2, 2)

    def test_matches_standardized_quadratic_form(self, rng):
        for _ in range(30):
            dim = int(rng.integers(3, 7))
            s = SymmetricMatrix(oracles.random_sample_covariance(rng, dim, dim + 6))
            i, j = sorted(int(v) for v in rng.choice(dim, size=2, replace=False))
            r = sample_partial_correlation(s, i, j)
            q = quadratic_decomposition(s, i, j)
            t = edge_statistic(q, float(s.entries[i, j]))
            assert r == pytest.approx(t, abs=1e-9)

    def test_boundary_value_via_cofactors(self, rng):
        # at the upper root of det M(x) the cofactor ratio reaches +1
        m = SymmetricMatrix(oracles.random_pd_matrix(rng, 4))
        q = quadratic_decomposition(m, 0, 1)
        upper = pd_interval(q).x2
        singular = m.with_edge(0, 1, upper)
        c01 = cofactor(singular, 0, 1)
        denom = cofactor(singular, 0, 0) * cofactor(singular, 1, 1)
        assert -c01 / math.sqrt(denom) == pytest.approx(1.0, abs=1e-9)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_bounded_by_one(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        s = SymmetricMatrix(oracles.random_sample_covariance(rng, dim, dim + 3))
        i, j = sorted(int(v) for v in rng.choice(dim, size=2, replace=False))
        assert abs(sample_partial_correlation(s, i, j)) <= 1.0

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40)
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(3, 7))
        s = oracles.random_sample_covariance(rng, dim, dim + 8)
        d = np.diag(rng.uniform(0.1, 10.0, size=dim))
        scaled = d @ s @ d
        scaled = (scaled + scaled.T) / 2.0
        i, j = sorted(int(v) for v in rng.choice(dim, size=2, replace=False))
        r1 = sample_partial_correlation(SymmetricMatrix(s), i, j)
        r2 = sample_partial_correlation(SymmetricMatrix(scaled), i, j)
        assert r1 == pytest.approx(r2, abs=1e-10)

    def test_denominator_convention_invariance(self, rng):
        # 1/n versus 1/(n-1) covariance: same r (cofactor ratios are
        # homogeneous of degree zero), hence identical decisions
        x = rng.standard_normal((12, 4))
        d = Dataset(values=x, names=tuple("abcd"))
        s_n = sample_covariance(d)
        s_n1 = SymmetricMatrix(s_n.entries * (12.0 / 11.0))
        for i in range(4):
            for j in range(i + 1, 4):
                r_n = sample_partial_correlation(s_n, i, j)
                r_n1 = sample_partial_correlation(s_n1, i, j)
                assert r_n == pytest.approx(r_n1, abs=1e-12)

    def test_block_structure_reduces_to_plain_correlation(self, rng):
        # with variable 3 uncorrelated from (1, 2), the partial correlation
        # of (1, 2) equals their plain correlation
        c = 0.37
        s = SymmetricMatrix(
            [[1.0, c, 0.0], [c, 1.0, 0.0], [0.0, 0.0, 2.5]]
        )
        assert sample_partial_correlation(s, 0, 1) == pytest.approx(c, abs=1e-12)


INDEFINITE = SymmetricMatrix([[1.0, 2.0], [2.0, 1.0]])


def collinear_data() -> Dataset:
    x = np.random.default_rng(4).standard_normal((10, 2))
    return Dataset(values=np.column_stack([x, x[:, 0] + x[:, 1]]), names=("a", "b", "c"))


@pytest.mark.parametrize("call, message", [
    (lambda: sample_partial_correlation(INDEFINITE, 0, 1),
     "covariance matrix is not positive definite (pivot 1 fails)"),
    (lambda: select_graph(collinear_data(), TestConfig(alpha=0.05, method="umpu")),
     "sample covariance is not positive definite (pivot 2, variable 'c', fails)"),
    (lambda: PrecisionSpec(INDEFINITE),
     "precision matrix is not positive definite (pivot 1 fails)"),
], ids=["covariance", "sample covariance", "precision"])
def test_failed_pivot_message(call, message):
    with pytest.raises(NotPositiveDefinite) as info:
        call()
    assert str(info.value) == message
