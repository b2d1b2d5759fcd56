import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from concgraph import (
    DegenerateEdge,
    DomainError,
    QuadCoeffs,
    SymmetricMatrix,
    cofactor,
    determinant,
    edge_statistic,
    first_nonpositive_pivot,
    lemma_residual,
    pd_interval,
    PrecisionSpec,
    quadratic_decomposition,
    random_covariance_instances,
    sample_covariance,
    sample_gaussian,
    sylvester_residual,
)
from concgraph import matrices
from concgraph.matrices import (
    _det,
    _factor_stack,
    _lemma_coefficients,
    _matrix_stack,
    _roots_and_statistic,
)

WORKED = SymmetricMatrix([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 2.0]])


def pd_matrix_from_seed(seed: int, dim: int) -> SymmetricMatrix:
    rng = np.random.default_rng(seed)
    return SymmetricMatrix(oracles.random_pd_matrix(rng, dim))


class TestSymmetricMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            SymmetricMatrix([[1.0, 2.0], [2.0 + 1e-14, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(DomainError):
            SymmetricMatrix([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            SymmetricMatrix([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(DomainError):
            SymmetricMatrix([[np.inf]])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            SymmetricMatrix(np.zeros((0, 0)))

    def test_entries_are_immutable(self):
        m = SymmetricMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_with_edge_replaces_both_entries(self):
        m = WORKED.with_edge(0, 1, 0.25)
        assert m.entries[0, 1] == 0.25
        assert m.entries[1, 0] == 0.25
        assert WORKED.entries[0, 1] == 0.0  # original untouched

    def test_with_edge_rejects_diagonal(self):
        with pytest.raises(DomainError):
            WORKED.with_edge(1, 1, 0.0)


class TestPositiveDefinite:
    def test_identity_is_pd(self):
        assert first_nonpositive_pivot(SymmetricMatrix(np.eye(3))) is None

    def test_indefinite_2x2(self):
        assert first_nonpositive_pivot(SymmetricMatrix([[1.0, 2.0], [2.0, 1.0]])) is not None

    def test_worked_example_pd(self):
        # leading principal minors 2, 4, 4
        assert first_nonpositive_pivot(WORKED) is None

    def test_first_failing_pivot_index(self):
        m = SymmetricMatrix([[1.0, 2.0], [2.0, 1.0]])
        assert first_nonpositive_pivot(m) == 1
        assert first_nonpositive_pivot(SymmetricMatrix([[-1.0]])) == 0
        assert first_nonpositive_pivot(WORKED) is None

    def test_pivot_floor_relative_to_unit_diagonal(self):
        # correlation matrices: the second pivot is 1 - rho**2
        def corr(second_pivot):
            rho = math.sqrt(1.0 - second_pivot)
            return SymmetricMatrix([[1.0, rho], [rho, 1.0]])

        # second pivot 1e-13 is below the 1e-12 floor -> not positive definite
        assert first_nonpositive_pivot(corr(1e-13)) == 1
        # second pivot 1e-11 clears the floor
        assert first_nonpositive_pivot(corr(1e-11)) is None
        # the floor applies after scaling to a unit diagonal, so a small
        # variance alone is no failure and rescaling moves no decision
        assert first_nonpositive_pivot(SymmetricMatrix(np.diag([1.0, 1e-13]))) is None
        scale = np.outer([1e4, 1e-4], [1e4, 1e-4])
        assert first_nonpositive_pivot(SymmetricMatrix(scale * corr(1e-13).entries)) == 1
        assert first_nonpositive_pivot(SymmetricMatrix(scale * corr(1e-11).entries)) is None

    def test_negative_trace_not_pd(self):
        assert first_nonpositive_pivot(SymmetricMatrix(np.diag([-1.0, -2.0]))) is not None

    def test_agrees_with_eigenvalues(self, rng):
        for _ in range(50):
            dim = int(rng.integers(1, 7))
            g = rng.uniform(-2, 2, size=(dim, dim))
            m = (g + g.T) / 2.0
            mine = first_nonpositive_pivot(SymmetricMatrix(m)) is None
            theirs = bool(np.min(np.linalg.eigvalsh(m)) > 1e-12 * max(np.trace(m), 0.0))
            assert mine == theirs


def failing_at(rng, dim: int, k: int) -> np.ndarray:
    """Random symmetric matrix whose leading k x k block is positive
    definite and whose k-th correlation-scaled pivot is -1."""
    a = oracles.random_pd_matrix(rng, dim)
    head = a[:k, :k]
    a[k, k] = a[k, :k] @ np.linalg.solve(head, a[:k, k]) - 1.0 if k else -1.0
    return a


def template_factorize(entries: np.ndarray):
    """(pivot-free, partial correlations) of a stack as the factorization
    built them with a full [[R, I], [I, cI]] template and the index arrays
    of np.tril_indices, or None where the stack fails: the reference for
    the bits of the constant-free construction."""
    dim = entries.shape[-1]
    diag = np.diagonal(entries, axis1=-2, axis2=-1)
    scale = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    r = entries / (scale[..., :, None] * scale[..., None, :])
    shift = np.eye(2 * dim, k=dim)
    augmented = np.empty(r.shape[:-2] + (2 * dim, 2 * dim))
    augmented[...] = shift + shift.T + np.diag(np.repeat([0.0, matrices._AUGMENT], dim))
    augmented[..., :dim, :dim] = r
    try:
        factor = np.linalg.cholesky(augmented)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.diagonal(factor, axis1=-2, axis2=-1)[..., :dim] ** 2 > matrices.PIVOT_FLOOR):
        return None
    x = factor[..., dim:, :dim]
    k = x @ np.swapaxes(x, -1, -2)
    lower = np.tril_indices(dim, -1)
    k[..., lower[0], lower[1]] = k[..., lower[1], lower[0]]
    root = np.sqrt(np.diagonal(k, axis1=-2, axis2=-1))
    return -k / (root[..., :, None] * root[..., None, :])


class TestConstantFreeFactor:
    """The factorization writes only what LAPACK reads and mirrors K by a
    mask; every bit is the full template's, signed zeros included."""

    @pytest.mark.parametrize("dim", (2, 5, 30))
    def test_same_bits_as_the_template(self, rng, dim):
        stack = np.array(
            [oracles.random_pd_matrix(rng, dim) for _ in range(6)]
            # K = I: every off-diagonal r is -0.0; a block-diagonal S has
            # exact zeros in K across its blocks
            + [np.eye(dim), np.kron(np.eye(dim)[: (dim + 1) // 2, : (dim + 1) // 2],
                                     [[2.0, 0.5], [0.5, 1.0]])[:dim, :dim]]
        )
        want = template_factorize(stack)
        _, partial = _factor_stack(stack)
        assert partial.tobytes() == want.tobytes()
        assert np.signbit(partial[-2][~np.eye(dim, dtype=bool)]).all()
        for entries, (_, r) in zip(stack, _factor_stack(stack)[0]):
            assert r.tobytes() == template_factorize(entries[np.newaxis])[0].tobytes()

    @pytest.mark.parametrize("dim", (2, 5, 30))
    def test_a_failing_stack_fails_as_with_the_template(self, rng, dim):
        stack = np.array([oracles.random_pd_matrix(rng, dim), failing_at(rng, dim, dim - 1)])
        assert template_factorize(stack) is None
        pairs, partial = _factor_stack(stack)
        assert partial is None
        diag = np.diagonal(stack, axis1=-2, axis2=-1)
        scale = np.sqrt(np.where(diag > 0.0, diag, 1.0))
        r = stack / (scale[..., :, None] * scale[..., None, :])
        assert matrices._inverse_factor(r) is None
        pairs = list(pairs)
        assert [pivot for pivot, _ in pairs] == [None, dim - 1]
        got = pairs[0][1]
        assert got.tobytes() == template_factorize(stack[:1])[0].tobytes()


class TestFactorizationStack:
    def test_stack_matches_each_matrix_alone(self, rng):
        dim = 6
        stack = np.array(
            [oracles.random_pd_matrix(rng, dim) for _ in range(5)]
            + [failing_at(rng, dim, k) for k in range(dim)]
        )
        stack = stack[rng.permutation(len(stack))]
        scaled = matrices._correlation_matrix(stack)
        for entries, r, got in zip(stack, scaled, _factor_stack(stack)[0]):
            m = SymmetricMatrix(entries)
            alone = m._factored()
            assert got[0] == alone[0]
            if got[0] is None:
                assert np.array_equal(got[1], alone[1])
                assert np.array_equal(r, m._route_tables()[0])
            else:
                assert got[1] is None and alone[1] is None

    def test_reports_the_first_failing_pivot(self, rng):
        dim = 5
        # every pivot of -I fails; only the first may be reported
        stack = np.array([failing_at(rng, dim, k) for k in range(dim)] + [-np.eye(dim)])
        assert [pivot for pivot, _ in _factor_stack(stack)[0]] == list(range(dim)) + [0]

    def test_four_by_four_matches_the_sweep(self):
        # LAPACK's bits may depend on the BLAS build, so r is held within
        # 4 ulps of the sweep's; R is elementwise, so its bits are pinned.
        s = np.array([
            [2.0, 0.3, -0.7, 0.1],
            [0.3, 1.5, 0.2, -0.4],
            [-0.7, 0.2, 3.0, 0.6],
            [0.1, -0.4, 0.6, 0.9],
        ])
        ((pivot, r),), _ = _factor_stack(s[np.newaxis])
        ((swept, expected),) = oracles.pivot_sweep(s[np.newaxis])
        assert pivot is swept is None
        upper = np.triu_indices(4, 1)
        got, want = r[upper], expected[upper]
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))
        assert np.array_equal(r, r.T)
        scaled, _ = SymmetricMatrix(s)._route_tables()
        assert [float(v).hex() for v in scaled[upper]] == [
            "0x1.62b9586ad0a22p-3", "-0x1.24a1e34d5522bp-2", "0x1.314c3d92a9e91p-4",
            "0x1.822cb17ff2eb9p-4", "-0x1.60870d91bf3cfp-2", "0x1.75e9746a0b099p-2",
        ]

    def test_partial_correlations_match_numpy_inverse(self, rng):
        stack = np.array([oracles.random_pd_matrix(rng, 4) for _ in range(20)])
        for entries, (_, got) in zip(stack, _factor_stack(stack)[0]):
            sd = np.sqrt(np.diag(entries))
            k = np.linalg.inv(entries / np.outer(sd, sd))
            d = np.sqrt(np.diag(k))
            expected = -k / np.outer(d, d)
            off = ~np.eye(4, dtype=bool)
            assert np.max(np.abs(got - expected)[off]) < 1e-12
            assert not got.flags.writeable

    def test_matrix_stack_attaches_factorizations(self, rng):
        stack = np.array([oracles.random_pd_matrix(rng, 3), failing_at(rng, 3, 2)])
        matrices, _ = _matrix_stack(stack)
        assert all(m._factorization is not None for m in matrices)
        assert [np.array_equal(m.entries, e) for m, e in zip(matrices, stack)] == [True, True]
        assert first_nonpositive_pivot(matrices[0]) is None
        assert first_nonpositive_pivot(matrices[1]) == 2

    def test_matrix_stack_validates_every_matrix(self, rng):
        stack = np.array([oracles.random_pd_matrix(rng, 3)] * 2)
        stack[1, 0, 1] += 1.0
        with pytest.raises(DomainError, match="symmetric"):
            _matrix_stack(stack)

    @pytest.mark.parametrize("value, message", [
        (np.nan, "matrix entries must be finite"),
        (np.inf, "matrix entries must be finite"),
        (None, "matrix must be exactly symmetric"),
    ])
    def test_matrix_stack_raises_what_one_matrix_raises(self, rng, value, message):
        stack = np.array([oracles.random_pd_matrix(rng, 4) for _ in range(5)])
        if value is None:
            stack[3, 2, 0] = np.nextafter(stack[3, 2, 0], 9.0)
        else:
            stack[3, 1, 1] = value
        with pytest.raises(DomainError, match=message):
            SymmetricMatrix(stack[3])
        with pytest.raises(DomainError, match=message):
            _matrix_stack(stack)

    def test_matrix_stack_shares_no_writable_array(self, rng):
        stack = np.array([oracles.random_pd_matrix(rng, 3) for _ in range(2)])
        matrices, _ = _matrix_stack(stack)
        stack[0, 0, 0] = 99.0
        assert matrices[0].entries[0, 0] != 99.0
        assert not matrices[0].entries.flags.writeable
        assert not matrices[0]._route_tables()[0].flags.writeable


class TestRouteTables:
    """The conditional route's own R and G = R^-1, kept on the matrix."""

    def test_r_is_the_factorizations_and_g_its_inverse_once_each(self, rng, monkeypatch):
        stack = np.array(
            [oracles.random_pd_matrix(rng, 5) for _ in range(3)] + [failing_at(rng, 5, 2)]
        )
        formed, inverses = [], []
        form, inv = matrices._correlation_matrix, np.linalg.inv
        monkeypatch.setattr(matrices, "_correlation_matrix", lambda e: formed.append(form(e)) or formed[-1])
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(a.shape) or inv(a))
        stacked = _matrix_stack(stack)[0]
        # the stack fails, so the factorization forms R for it and for each matrix alone
        assert len(formed) == 1 + len(stack) and inverses == []
        for k, m in enumerate(stacked):
            for _ in range(3):
                r, g = m._route_tables()
                assert r.tobytes() == formed[0][k].tobytes() == formed[1 + k][0].tobytes()
                assert np.array_equal(g, inv(r))
                assert m._route_tables()[1] is g
                assert not r.flags.writeable and not g.flags.writeable
        assert len(formed) == 1 + 2 * len(stack)
        assert inverses == [(5, 5)] * len(stack)


def near_collinear(rng, dim: int, k: int, noise: float) -> np.ndarray:
    """Sample covariance of 4 dim draws whose column k is a combination of
    the columns before it plus noise of relative size ``noise``."""
    x = rng.standard_normal((4 * dim, dim))
    x[:, k] = x[:, :k] @ rng.standard_normal(k)
    rms = np.linalg.norm(x[:, k]) / math.sqrt(len(x))
    x[:, k] += noise * rms * rng.standard_normal(len(x))
    return oracles.covariance_of(x)


def chain_covariance(dim: int) -> np.ndarray:
    """Sample covariance of a chain file: n = 4 dim draws of a Gaussian
    whose precision has 1 on the diagonal and -0.4 between neighbours."""
    k = np.eye(dim)
    idx = np.arange(dim - 1)
    k[idx, idx + 1] = k[idx + 1, idx] = -0.4
    factor = np.linalg.cholesky(np.linalg.inv(k))
    x = np.random.default_rng(1).standard_normal((4 * dim, dim)) @ factor.T
    return oracles.covariance_of(x)


def assert_matches_the_sweep(stack: np.ndarray) -> None:
    """Every matrix of the stack, factored in the stack and alone, has the
    sweep's first failing pivot and, when it has none, partial
    correlations within 1e-12 of the sweep's, exactly symmetric, and the
    same bits in the stack as alone."""
    off = ~np.eye(stack.shape[-1], dtype=bool)
    for entries, (got, r), (pivot, expected) in zip(
        stack, _factor_stack(stack)[0], oracles.pivot_sweep(stack)
    ):
        ((alone, r_alone),), _ = _factor_stack(entries[np.newaxis])
        assert got == alone == pivot
        if pivot is None:
            assert np.array_equal(r, r_alone)
            assert np.array_equal(r, r.T)
            assert np.max(np.abs(r - expected)[off]) <= 1e-12
        else:
            assert r is r_alone is None


class TestFactorizationAgainstTheSweep:
    @pytest.mark.parametrize("dim", [*range(2, 11), 16, 31, 64, 65, 100, 130])
    def test_mixed_stack(self, rng, dim):
        ks = range(dim) if dim <= 10 else sorted({0, 1, dim // 3, dim // 2, dim - 2, dim - 1})
        definite = (
            [oracles.random_pd_matrix(rng, dim) for _ in range(3)]
            + [oracles.random_sample_covariance(rng, dim, 4 * dim) for _ in range(2)]
            + [chain_covariance(dim)]
        )
        failing = [failing_at(rng, dim, k) for k in ks] + [
            near_collinear(rng, dim, max(1, dim // 2), noise) for noise in (1e-7, 1e-9)
        ]
        # A stack that LAPACK accepts whole, and one it refuses.
        assert_matches_the_sweep(np.array(definite))
        stack = np.array(definite + failing)
        assert_matches_the_sweep(stack[rng.permutation(len(stack))])

    def test_near_collinear_fails_at_the_dependent_column(self, rng):
        for dim in (2, 5, 40):
            for noise in (1e-7, 1e-9):
                ((pivot, _),), _ = _factor_stack(near_collinear(rng, dim, dim - 1, noise)[np.newaxis])
                assert pivot == dim - 1

    def test_random_covariance_instances(self):
        by_dim = {}
        for s, *_ in random_covariance_instances(200, seed=3):
            by_dim.setdefault(s.dim, []).append(s.entries)
        assert sorted(by_dim) == [3, 4, 5, 6]
        for entries in by_dim.values():
            assert_matches_the_sweep(np.array(entries))


def well_conditioned(rng, dim: int, definite: bool) -> np.ndarray:
    """Random exactly symmetric Q diag(lam) Q^T with |lam| in [0.5, 2];
    the signs of lam are random unless ``definite``.  A determinant is
    only accurate to rounding relative to its size when the matrix is
    well conditioned, so the oracle comparisons use these."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lam = rng.uniform(0.5, 2.0, dim)
    if not definite:
        lam *= rng.choice([-1.0, 1.0], dim)
    m = (q * lam) @ q.T
    return (m + m.T) / 2.0


class TestDeterminant:
    def test_identity(self):
        assert determinant(SymmetricMatrix(np.eye(4))) == 1.0

    def test_worked_example(self):
        assert determinant(WORKED) == pytest.approx(4.0, abs=1e-12)

    def test_rank_deficient(self):
        assert determinant(SymmetricMatrix([[1.0, 1.0], [1.0, 1.0]])) == 0.0

    def test_empty_matrix_is_one(self):
        assert _det(np.empty((0, 0))) == 1.0

    def test_stack_matches_each_matrix_alone(self):
        rng = np.random.default_rng(29)
        for dim in range(1, 31):
            stack = np.array([well_conditioned(rng, dim, k % 2 == 0) for k in range(6)])
            stack[5] = 0.0  # singular
            got = _det(stack)
            assert got.shape == (6,)
            assert [float(v).hex() for v in got] == [_det(m).hex() for m in stack]

    @pytest.mark.parametrize("definite", [True, False])
    def test_matches_elimination_oracle(self, definite):
        rng = np.random.default_rng(17)
        for dim in range(1, 31):
            m = well_conditioned(rng, dim, definite)
            expected = oracles.det_elimination(m)
            assert determinant(SymmetricMatrix(m)) == pytest.approx(expected, rel=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6))
    @settings(max_examples=60)
    def test_matches_cofactor_expansion_oracle(self, seed, dim):
        rng = np.random.default_rng(seed)
        g = rng.uniform(-3, 3, size=(dim, dim))
        m = (g + g.T) / 2.0
        expected = oracles.det_cofactor_expansion(m)
        scale = max(1.0, abs(expected))
        assert determinant(SymmetricMatrix(m)) == pytest.approx(
            expected, abs=1e-9 * scale
        )


class TestCofactor:
    def test_identity_diagonal(self):
        assert cofactor(SymmetricMatrix(np.eye(3)), 0, 0) == 1.0

    def test_worked_example_offdiagonal(self):
        # minor deleting row 0, col 1 is [[0, 1], [1, 2]] with determinant -1
        assert cofactor(WORKED, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_worked_example_diagonal(self):
        assert cofactor(WORKED, 0, 0) == pytest.approx(3.0, abs=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            cofactor(WORKED, 0, 3)
        with pytest.raises(DomainError):
            cofactor(WORKED, -1, 0)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        g = rng.uniform(-2, 2, size=(dim, dim))
        m = (g + g.T) / 2.0
        k = int(rng.integers(0, dim))
        l = int(rng.integers(0, dim))
        expected = oracles.cofactor_expansion(m, k, l)
        assert cofactor(SymmetricMatrix(m), k, l) == pytest.approx(
            expected, abs=1e-9 * max(1.0, abs(expected))
        )


def quadratic_one_probe_at_a_time(m: SymmetricMatrix, i: int, j: int):
    """(a, b, c) from three separate determinant calls, one per probe."""
    xbar = 1.0 + float(np.max(np.abs(m.entries)))
    d0, dplus, dminus = (_det(m.with_edge(i, j, x).entries) for x in (0.0, xbar, -xbar))
    return (
        (2.0 * d0 - dplus - dminus) / (2.0 * xbar * xbar),
        (dplus - dminus) / (2.0 * xbar),
        d0,
    )


class TestQuadraticDecomposition:
    def test_stacked_probes_match_one_at_a_time(self, monkeypatch):
        rng = np.random.default_rng(31)
        calls = []
        det = matrices._det
        monkeypatch.setattr(matrices, "_det", lambda a: calls.append(a.shape) or det(a))
        for dim in range(2, 31):
            for definite in (True, False):
                m = SymmetricMatrix(well_conditioned(rng, dim, definite))
                for _ in range(3):
                    i, j = (int(k) for k in sorted(rng.choice(dim, 2, replace=False)))
                    del calls[:]
                    q = quadratic_decomposition(m, i, j)
                    assert calls == [(3, dim, dim)]
                    assert (q.a, q.b, q.c) == quadratic_one_probe_at_a_time(m, i, j)

    def test_2x2_identity_edge(self):
        q = quadratic_decomposition(SymmetricMatrix(np.eye(2)), 0, 1)
        assert (q.a, q.b, q.c) == pytest.approx((1.0, 0.0, 1.0), abs=1e-12)

    def test_block_diagonal(self):
        m = SymmetricMatrix([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        q = quadratic_decomposition(m, 0, 1)
        assert (q.a, q.b, q.c) == pytest.approx((1.0, 0.0, 4.0), abs=1e-12)

    def test_worked_example(self):
        m = SymmetricMatrix([[2.0, 1.9, 1.0], [1.9, 2.0, 1.0], [1.0, 1.0, 2.0]])
        q = quadratic_decomposition(m, 0, 1)
        assert (q.a, q.b, q.c) == pytest.approx((2.0, 2.0, 4.0), abs=1e-9)

    def test_rejects_diagonal_edge(self):
        with pytest.raises(DomainError):
            quadratic_decomposition(WORKED, 2, 2)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(3, 8))
    @settings(max_examples=60)
    def test_reconstructs_determinant_at_probe_points(self, seed, dim):
        rng = np.random.default_rng(seed)
        m = SymmetricMatrix(oracles.random_pd_matrix(rng, dim))
        i, j = sorted(int(v) for v in rng.choice(dim, size=2, replace=False))
        q = quadratic_decomposition(m, i, j)
        span = 1.0 + float(np.max(np.abs(m.entries)))
        for x in rng.uniform(-span, span, size=10):
            expected = -q.a * x * x + q.b * x + q.c
            actual = determinant(m.with_edge(i, j, float(x)))
            assert actual == pytest.approx(expected, abs=1e-9 * max(1.0, abs(expected)))


    @pytest.mark.parametrize("definite", [True, False])
    def test_matches_elimination_oracle(self, definite, monkeypatch):
        # the quadratic from the LAPACK determinant against the one from the
        # hand-written elimination, each coefficient relative to the size of
        # the probe determinants it combines
        rng = np.random.default_rng(18)
        for dim in range(2, 31):
            m = SymmetricMatrix(well_conditioned(rng, dim, definite))
            i, j = (int(k) for k in sorted(rng.choice(dim, 2, replace=False)))
            got = quadratic_decomposition(m, i, j)
            with monkeypatch.context() as patch:
                patch.setattr(matrices, "_det", oracles.det_elimination)
                want = quadratic_decomposition(m, i, j)
            xbar = 1.0 + float(np.max(np.abs(m.entries)))
            size = max(abs(got.c), abs(got.b) * xbar, abs(got.a) * xbar * xbar)
            assert got.a == pytest.approx(want.a, rel=1e-12, abs=1e-12 * size / xbar**2)
            assert got.b == pytest.approx(want.b, rel=1e-12, abs=1e-12 * size / xbar)
            assert got.c == pytest.approx(want.c, rel=1e-12)


def lemma_error(s: SymmetricMatrix, i: int, j: int) -> float:
    """Largest difference between the lemma route's a, b, c and the probe
    route's on R divided by det R, relative to the largest of the probe
    route's three."""
    scaled, table = s._route_tables()
    got = _lemma_coefficients(scaled, table, i, j)
    det = np.linalg.det(scaled)
    probe = quadratic_decomposition(SymmetricMatrix(scaled), i, j)
    want = (probe.a / det, probe.b / det, probe.c / det)
    size = max(map(abs, want))
    return max(abs(u - v) for u, v in zip(got, want)) / size


class TestLemmaQuadratic:
    def test_matches_probe_route_on_random_instances(self):
        # the probe route's c cancels at larger N, so the bound is relative
        # to the largest coefficient, not to each one
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(600):
            dim = int(rng.integers(2, 31))
            n = int(rng.integers(dim + 2, 121))
            s = SymmetricMatrix(oracles.random_sample_covariance(rng, dim, n))
            i, j = sorted(rng.choice(dim, size=2, replace=False).tolist())
            seen.add(dim)
            assert lemma_error(s, i, j) <= 1e-10
        assert seen == set(range(2, 31))

    def test_matches_probe_route_on_a_wide_chain(self):
        k = np.eye(200)
        idx = np.arange(199)
        k[idx, idx + 1] = k[idx + 1, idx] = -0.4
        data = sample_gaussian(PrecisionSpec(SymmetricMatrix(k)), 800, seed=1)
        s = sample_covariance(data)
        for i in range(0, 200, 17):
            for j in (i + 1, i + 2, i + 50, 199):
                if j < 200 and i != j:
                    assert lemma_error(s, i, j) <= 1e-10

    def test_worked_example(self):
        # R = WORKED / 2, and with r_01 = x its determinant is
        # -x**2 + x/2 + 1/2; the lemma route gives it divided by det R,
        # which doubles every coefficient, and so the tolerance
        got = _lemma_coefficients(*WORKED._route_tables(), 0, 1)
        det = np.linalg.det(WORKED.entries / 2.0)
        want = (1.0 / det, 0.5 / det, 0.5 / det)
        assert got == pytest.approx(want, abs=2e-15)


class TestPdInterval:
    @pytest.mark.parametrize("power", [-620, -1, 0, 1, 500])
    def test_scale_free_to_the_bit(self, power):
        # det M of a correlation matrix with a thousand variables is near
        # 1e-185, where b**2 and a c underflow unless the quadratic is
        # scaled first; a power of two changes no bit of the result
        q = QuadCoeffs(*_lemma_coefficients(*pd_matrix_from_seed(5, 6)._route_tables(), 1, 4))
        scaled = QuadCoeffs(*(math.ldexp(v, power) for v in (q.a, q.b, q.c)))
        assert pd_interval(scaled) == pd_interval(q)
        for x in (-0.5, 0.0, 0.3):
            assert edge_statistic(scaled, x) == edge_statistic(q, x)

    def test_unit_quadratic(self):
        iv = pd_interval(QuadCoeffs(a=1.0, b=0.0, c=1.0))
        assert (iv.x1, iv.x2) == pytest.approx((-1.0, 1.0), abs=1e-15)

    def test_worked_example(self):
        iv = pd_interval(QuadCoeffs(a=2.0, b=2.0, c=4.0))
        assert (iv.x1, iv.x2) == pytest.approx((-1.0, 2.0), abs=1e-12)

    def test_zero_discriminant_degenerate(self):
        with pytest.raises(DegenerateEdge):
            pd_interval(QuadCoeffs(a=1.0, b=0.0, c=0.0))

    def test_first_degenerate_quadratic_in_order_is_named(self):
        # a negative discriminant and a negative a: whichever comes first
        # raises the error pd_interval raises for it alone
        good, bad_disc, bad_a = (1.0, 0.0, 1.0), (1.0, 0.0, -3.0), (-0.5, 0.0, 1.0)
        cases = (([good, bad_disc, bad_a], bad_disc), ([bad_a, good, bad_disc], bad_a))
        for quadratics, first in cases:
            with pytest.raises(DegenerateEdge) as want:
                pd_interval(QuadCoeffs(*first))
            with pytest.raises(DegenerateEdge) as got:
                _roots_and_statistic(*np.array(quadratics).T, 0.0)
            assert str(got.value) == str(want.value)
        assert str(want.value) == "leading coefficient a = -0.5 is not positive"

    def test_nonpositive_leading_coefficient_degenerate(self):
        with pytest.raises(DegenerateEdge):
            pd_interval(QuadCoeffs(a=0.0, b=1.0, c=1.0))
        with pytest.raises(DegenerateEdge):
            pd_interval(QuadCoeffs(a=-1.0, b=0.0, c=1.0))

    def test_determinant_vanishes_at_roots(self, rng):
        for _ in range(25):
            dim = int(rng.integers(3, 7))
            m = SymmetricMatrix(oracles.random_pd_matrix(rng, dim))
            i, j = sorted(int(v) for v in rng.choice(dim, size=2, replace=False))
            q = quadratic_decomposition(m, i, j)
            iv = pd_interval(q)
            scale = max(1.0, abs(q.c))
            for root in (iv.x1, iv.x2):
                assert determinant(m.with_edge(i, j, root)) == pytest.approx(
                    0.0, abs=1e-8 * scale
                )
            assert iv.x1 < m.entries[i, j] < iv.x2


class TestEdgeStatistic:
    def test_boundary_values(self, rng):
        for _ in range(25):
            dim = int(rng.integers(3, 8))
            m = SymmetricMatrix(oracles.random_pd_matrix(rng, dim))
            i, j = sorted(int(v) for v in rng.choice(dim, size=2, replace=False))
            q = quadratic_decomposition(m, i, j)
            iv = pd_interval(q)
            assert edge_statistic(q, iv.x1) == pytest.approx(-1.0, abs=1e-9)
            assert edge_statistic(q, iv.x2) == pytest.approx(1.0, abs=1e-9)

    def test_strictly_increasing_inside_interval(self, rng):
        m = SymmetricMatrix(oracles.random_pd_matrix(rng, 4))
        q = quadratic_decomposition(m, 0, 2)
        iv = pd_interval(q)
        xs = np.linspace(iv.x1, iv.x2, 40)
        values = [edge_statistic(q, float(x)) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_norm_identity(self, rng):
        # C_ii * C_jj equals b**2/4 + a c for positive definite matrices
        for _ in range(25):
            dim = int(rng.integers(3, 8))
            m = SymmetricMatrix(oracles.random_pd_matrix(rng, dim))
            i, j = sorted(int(v) for v in rng.choice(dim, size=2, replace=False))
            q = quadratic_decomposition(m, i, j)
            product = cofactor(m, i, i) * cofactor(m, j, j)
            norm = q.b * q.b / 4.0 + q.a * q.c
            assert product == pytest.approx(norm, rel=1e-9)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateEdge):
            edge_statistic(QuadCoeffs(a=1.0, b=0.0, c=-1.0), 0.0)


class TestLemmaResidual:
    def test_worked_example_probe_zero(self):
        # edge (0, 1) of WORKED has (a, b) = (2, 2); the cofactor of the
        # edge entry at x = 0 must equal b / 2 = 1
        q = quadratic_decomposition(WORKED, 0, 1)
        cof_at_zero = cofactor(WORKED.with_edge(0, 1, 0.0), 0, 1)
        assert cof_at_zero == pytest.approx(q.b / 2.0, abs=1e-12)

    def test_2x2_identity(self):
        # cofactor of (0, 1) in [[1, x], [x, 1]] is -x; a = 1, b = 0
        assert lemma_residual(SymmetricMatrix(np.eye(2)), 0, 1) <= 1e-12

    def test_diagonal_matrix_zero_residual(self):
        m = SymmetricMatrix(np.diag([3.0, 5.0, 7.0, 2.0]))
        assert lemma_residual(m, 1, 3) <= 1e-10

    def test_contract_on_random_pd(self, rng):
        for _ in range(40):
            dim = int(rng.integers(2, 9))
            m = SymmetricMatrix(oracles.random_pd_matrix(rng, dim))
            i, j = sorted(int(v) for v in rng.choice(dim, size=2, replace=False))
            q = quadratic_decomposition(m, i, j)
            scale = max(1.0, abs(q.a), abs(q.b))
            assert lemma_residual(m, i, j) <= 1e-9 * scale

    def test_cofactor_affine_slope_and_intercept(self, rng):
        # cofactor(M(x), i, j) = -a x + b/2: check slope and intercept by
        # evaluating at two probe points
        for _ in range(20):
            dim = int(rng.integers(3, 7))
            m = SymmetricMatrix(oracles.random_pd_matrix(rng, dim))
            i, j = sorted(int(v) for v in rng.choice(dim, size=2, replace=False))
            q = quadratic_decomposition(m, i, j)
            c0 = cofactor(m.with_edge(i, j, 0.0), i, j)
            c1 = cofactor(m.with_edge(i, j, 1.0), i, j)
            scale = max(1.0, abs(q.a), abs(q.b))
            assert c0 == pytest.approx(q.b / 2.0, abs=1e-9 * scale)
            assert c1 - c0 == pytest.approx(-q.a, abs=1e-9 * scale)


class TestSylvesterResidual:
    def test_worked_example(self):
        # C_pair = 2, det = 4, C_00 C_11 - C_01**2 = 9 - 1 = 8
        assert sylvester_residual(WORKED, 0, 1) <= 1e-12

    def test_identity(self):
        assert sylvester_residual(SymmetricMatrix(np.eye(3)), 0, 2) <= 1e-15

    def test_singular_at_root_balances(self, rng):
        # at a root of det M(x), C_ii C_jj equals C_ij**2
        m = SymmetricMatrix(oracles.random_pd_matrix(rng, 4))
        q = quadratic_decomposition(m, 0, 1)
        iv = pd_interval(q)
        singular = m.with_edge(0, 1, iv.x1)
        lhs = cofactor(singular, 0, 0) * cofactor(singular, 1, 1)
        rhs = cofactor(singular, 0, 1) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_contract_on_random_pd(self, rng):
        for _ in range(40):
            dim = int(rng.integers(2, 9))
            m = SymmetricMatrix(oracles.random_pd_matrix(rng, dim))
            i, j = sorted(int(v) for v in rng.choice(dim, size=2, replace=False))
            c_ii = cofactor(m, i, i)
            c_jj = cofactor(m, j, j)
            scale = max(1.0, abs(c_ii * c_jj), abs(determinant(m)))
            assert sylvester_residual(m, i, j) <= 1e-9 * scale

    def test_two_by_two_uses_empty_complement(self):
        m = SymmetricMatrix([[2.0, 1.0], [1.0, 3.0]])
        # complement determinant is the empty product 1, so the identity
        # reduces to det = C_00 C_11 - C_01**2 = 3*2 - 1
        assert sylvester_residual(m, 0, 1) <= 1e-12
