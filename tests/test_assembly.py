"""Tests for system assembly: collocation, penalty blocks, smoothing weights."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from scatterspline.assembly import (
    FitConfig,
    PointCloud,
    assemble_system,
    build_collocation,
    build_knots,
    build_penalty_block,
    compute_lambdas,
    derivative_multi_indices,
    dim_maximizers,
    parameterize,
    stack_penalty,
)
from scatterspline.bsplines import (
    IndexSet,
    KnotVector,
    SplineModel,
    basis_derivative_single,
    basis_maximizer,
    lex_unrank,
    uniform_clamped_knots,
)


def random_cloud(rng, m, box=((0.0, 1.0), (0.0, 1.0)), num_values=1):
    box = np.asarray(box, dtype=float)
    d = box.shape[0]
    coords = rng.uniform(box[:, 0], box[:, 1], size=(m, d))
    values = rng.standard_normal((m, num_values))
    return PointCloud(coords, values, box[:, 0], box[:, 1])


def dense_penalty_oracle(delta, knots):
    """Entry-by-entry penalty block via scalar basis derivative products."""
    shape = tuple(kv.n for kv in knots)
    iset = IndexSet(shape)
    axes = [[basis_maximizer(kv, j) for j in range(kv.n)] for kv in knots]
    out = np.zeros((iset.n_tot, iset.n_tot))
    for i in range(iset.n_tot):
        alpha = lex_unrank(iset, i)
        w = [axes[k][alpha[k]] for k in range(len(knots))]
        for j in range(iset.n_tot):
            beta = lex_unrank(iset, j)
            prod = 1.0
            for k, kv in enumerate(knots):
                prod *= basis_derivative_single(kv, beta[k], w[k], delta[k])
            out[i, j] = prod
    return out


# ---------------------------------------------------------------------------
# point clouds and parameterization
# ---------------------------------------------------------------------------

class TestPointCloud:
    def test_values_column_promoted(self):
        coords = np.array([[0.0, 0.0], [0.5, 0.2], [1.0, 1.0]])
        cloud = PointCloud(coords, np.arange(3.0))
        assert cloud.values.shape == (3, 1)

    def test_box_must_contain_points(self):
        with pytest.raises(ValueError):
            PointCloud(
                np.array([[0.0, 0.0], [2.0, 0.5]]),
                np.zeros(2),
                np.zeros(2),
                np.ones(2),
            )

    def test_degenerate_box_rejected(self):
        coords = np.array([[0.5, 0.5], [0.5, 0.7]])  # no x extent
        with pytest.raises(ValueError):
            PointCloud(coords, np.zeros(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 2)), np.zeros((0, 1)))


    def test_rejects_non_finite(self):
        coords = np.array([[0.0, 0.0], [0.5, 0.2], [1.0, 1.0]])
        bad_coords = coords.copy()
        bad_coords[1, 0] = np.nan
        with pytest.raises(ValueError, match="coords must be finite"):
            PointCloud(bad_coords, np.zeros(3))
        with pytest.raises(ValueError, match="values must be finite"):
            PointCloud(coords, [0.0, np.inf, 1.0])
        with pytest.raises(ValueError, match="bbox_min must be finite"):
            PointCloud(coords, np.zeros(3), [np.nan, 0.0], [1.0, 1.0])

    def test_caller_arrays_stay_writable(self):
        coords = np.random.default_rng(9).uniform(0, 1, size=(5, 2))
        values = np.arange(5.0)
        cloud = PointCloud(coords, values, np.zeros(2), np.ones(2))
        coords[3, 0] = 0.0
        values[0] = 9.0
        assert cloud.coords[3, 0] != 0.0 and cloud.values[0, 0] == 0.0
        assert not cloud.coords.flags.writeable


class TestParameterize:
    def test_midpoint(self):
        w = 4 * np.pi
        cloud = PointCloud(
            np.array([[0.0, 0.0]]), np.zeros(1), np.array([-w, -w]), np.array([w, w])
        )
        np.testing.assert_allclose(parameterize(cloud)[0], [0.5, 0.5], atol=1e-15)

    def test_corners(self):
        lo = np.array([-1.0, 2.0])
        hi = np.array([3.0, 5.0])
        cloud = PointCloud(np.stack([lo, hi]), np.zeros(2), lo, hi)
        params = parameterize(cloud)
        np.testing.assert_array_equal(params[0], [0.0, 0.0])
        np.testing.assert_array_equal(params[1], [1.0, 1.0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_always_in_unit_cube(self, seed):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, 50, box=((-3.0, 9.0), (2.0, 2.5)))
        params = parameterize(cloud)
        assert params.min() >= 0.0 and params.max() <= 1.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_model_map(self, seed):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, 50, box=((-3.0, 9.0), (2.0, 2.5)))
        kvs = (uniform_clamped_knots(4, 2),) * 2
        model = SplineModel(kvs, np.zeros((16, 1)), cloud.bbox_min, cloud.bbox_max)
        np.testing.assert_array_equal(
            parameterize(cloud), model.to_params(cloud.coords)
        )


# ---------------------------------------------------------------------------
# collocation
# ---------------------------------------------------------------------------

class TestCollocation:
    def test_corner_point_single_entry(self):
        config = FitConfig(degree=2, shape=(4, 4))
        knots = build_knots(config)
        mat = build_collocation(np.array([[0.0, 0.0]]), knots)
        dense = mat.toarray()
        assert dense[0, 0] == pytest.approx(1.0)
        assert np.abs(dense[0, 1:]).max() < 1e-15

    def test_row_sums_one(self):
        rng = np.random.default_rng(11)
        config = FitConfig(degree=3, shape=(7, 5))
        knots = build_knots(config)
        params = rng.uniform(0, 1, size=(200, 2))
        mat = build_collocation(params, knots)
        sums = np.asarray(mat.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_constant_reproduction(self):
        rng = np.random.default_rng(12)
        config = FitConfig(degree=2, shape=(6, 6))
        knots = build_knots(config)
        params = rng.uniform(0, 1, size=(150, 2))
        mat = build_collocation(params, knots)
        ones = mat @ np.ones(config.n_tot)
        np.testing.assert_allclose(ones, 1.0, atol=1e-12)

    def test_nonzeros_per_row(self):
        rng = np.random.default_rng(13)
        config = FitConfig(degree=2, shape=(8, 8))
        knots = build_knots(config)
        mat = build_collocation(rng.uniform(0, 1, size=(60, 2)), knots)
        row_counts = np.diff(mat.indptr)
        assert row_counts.max() <= (config.degree + 1) ** 2


# ---------------------------------------------------------------------------
# penalty blocks
# ---------------------------------------------------------------------------

class TestPenaltyBlock:
    def test_bezier_second_derivative_rows(self):
        kv = KnotVector(2, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        block = build_penalty_block((2,), (kv,))
        dense = block.toarray()
        for row in dense:
            np.testing.assert_allclose(row, [2.0, -4.0, 2.0], atol=1e-9)

    def test_rows_sum_to_zero(self):
        config = FitConfig(degree=3, shape=(7, 6))
        knots = build_knots(config)
        for delta in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            block = build_penalty_block(delta, knots)
            sums = np.asarray(block.sum(axis=1)).ravel()
            scale = max(1.0, np.abs(block.data).max())
            np.testing.assert_allclose(sums, 0.0, atol=1e-10 * scale)

    def test_matches_direct_evaluation_1d(self):
        kv = uniform_clamped_knots(6, 3)
        for delta in [(1,), (2,)]:
            block = build_penalty_block(delta, (kv,))
            np.testing.assert_allclose(
                block.toarray(), dense_penalty_oracle(delta, (kv,)), atol=1e-10
            )

    def test_matches_direct_evaluation_2d(self):
        config = FitConfig(degree=2, shape=(4, 3))
        knots = build_knots(config)
        for delta in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            block = build_penalty_block(delta, knots)
            np.testing.assert_allclose(
                block.toarray(), dense_penalty_oracle(delta, knots), atol=1e-10
            )

    def test_support_sparsity(self):
        config = FitConfig(degree=2, shape=(8, 7))
        knots = build_knots(config)
        shape = config.shape
        iset = IndexSet(shape)
        axes = [dim_maximizers(kv) for kv in knots]
        block = build_penalty_block((2, 0), knots).tocoo()
        for i, j in zip(block.row, block.col):
            alpha = lex_unrank(iset, int(i))
            beta = lex_unrank(iset, int(j))
            for k, kv in enumerate(knots):
                w = axes[k][alpha[k]]
                assert kv.knots[beta[k]] <= w <= kv.knots[beta[k] + kv.degree + 1]

    def test_invalid_order(self):
        config = FitConfig(degree=2, shape=(5, 5))
        knots = build_knots(config)
        with pytest.raises(ValueError):
            build_penalty_block((3, 0), knots)


class TestStacking:
    def test_block_order_both_orders(self):
        assert derivative_multi_indices(2, (1, 2)) == [
            (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
        ]

    def test_block_order_second_only(self):
        assert derivative_multi_indices(2, (2,)) == [(2, 0), (1, 1), (0, 2)]

    def test_3d_second_order_count(self):
        deltas = derivative_multi_indices(3, (2,))
        assert len(deltas) == 6
        assert deltas[0] == (2, 0, 0)

    def test_stacked_shape(self):
        config = FitConfig(degree=2, shape=(5, 4), threshold=1.0, orders=(2,))
        knots = build_knots(config)
        deltas = derivative_multi_indices(2, (2,))
        blocks = {d: build_penalty_block(d, knots) for d in deltas}
        stacked = stack_penalty(config, blocks)
        assert stacked.shape == (3 * config.n_tot, config.n_tot)

    def test_five_blocks_with_first_order(self):
        config = FitConfig(degree=2, shape=(4, 4), threshold=1.0, orders=(1, 2))
        knots = build_knots(config)
        deltas = derivative_multi_indices(2, (1, 2))
        blocks = {d: build_penalty_block(d, knots) for d in deltas}
        stacked = stack_penalty(config, blocks)
        assert stacked.shape == (5 * config.n_tot, config.n_tot)

    def test_missing_block_rejected(self):
        config = FitConfig(degree=2, shape=(4, 4), threshold=1.0, orders=(2,))
        with pytest.raises(ValueError):
            stack_penalty(config, {})


# ---------------------------------------------------------------------------
# smoothing weights
# ---------------------------------------------------------------------------

class TestComputeLambdas:
    def test_arithmetic(self):
        mat = sparse.csr_matrix(np.array([[2.0]]))
        pen = sparse.csr_matrix(np.array([[-8.0]]))
        lam, s, s_tilde, _ = compute_lambdas(mat, pen, 6.0)
        assert s[0] == pytest.approx(2.0)
        assert s_tilde[0] == pytest.approx(8.0)  # absolute sum
        assert lam[0] == pytest.approx(0.5)

    def test_zero_threshold_gives_exact_zeros(self):
        rng = np.random.default_rng(21)
        mat = sparse.random(30, 12, density=0.3, random_state=rng.integers(2**31))
        pen = sparse.random(36, 12, density=0.3, random_state=rng.integers(2**31))
        lam, _, _, _ = compute_lambdas(mat, pen, 0.0)
        assert np.all(lam == 0.0)

    def test_clamp_at_threshold(self):
        mat = sparse.csr_matrix(np.array([[5.0, 1.0]]))
        pen = sparse.csr_matrix(np.array([[2.0, 2.0]]))
        lam, _, _, _ = compute_lambdas(mat, pen, 4.0)
        assert lam[0] == 0.0
        assert lam[1] == pytest.approx(1.5)

    def test_degenerate_column_warns(self):
        mat = sparse.csr_matrix(np.array([[1.0, 1.0]]))
        pen = sparse.csr_matrix(np.array([[3.0, 0.0]]))
        with pytest.warns(RuntimeWarning):
            lam, _, _, degenerate = compute_lambdas(mat, pen, 2.0)
        assert lam[1] == 0.0
        assert list(degenerate) == [1]


# ---------------------------------------------------------------------------
# full assembly
# ---------------------------------------------------------------------------

class TestAssembleSystem:
    def test_zero_threshold_lambdas_identically_zero(self):
        rng = np.random.default_rng(31)
        cloud = random_cloud(rng, 120)
        system = assemble_system(cloud, FitConfig(degree=2, shape=(6, 5)))
        assert np.all(system.lambdas == 0.0)
        col_sums = np.asarray(system.collocation.sum(axis=0)).ravel()
        np.testing.assert_array_equal(col_sums, system.data_col_sums)

    def test_column_sum_law(self):
        rng = np.random.default_rng(32)
        cloud = random_cloud(rng, 80)
        for threshold in (1.0, 6.0, 10.0):
            config = FitConfig(degree=2, shape=(7, 7), threshold=threshold)
            system = assemble_system(cloud, config)
            s = system.data_col_sums
            s_tilde = system.penalty_col_sums
            lam = system.lambdas
            ok = s_tilde > 0
            np.testing.assert_allclose(
                (s + lam * s_tilde)[ok], np.maximum(s, threshold)[ok], atol=1e-12
            )
            assert np.array_equal(lam == 0.0, s >= threshold)

    def test_stacked_column_sums_match_law(self):
        rng = np.random.default_rng(33)
        cloud = random_cloud(rng, 60)
        config = FitConfig(degree=2, shape=(6, 6), threshold=6.0, orders=(1, 2))
        system = assemble_system(cloud, config)
        scaled = system.penalty @ sparse.diags(system.lambdas)
        stacked_abs = system.data_col_sums + np.asarray(
            abs(scaled).sum(axis=0)
        ).ravel()
        ok = system.penalty_col_sums > 0
        np.testing.assert_allclose(
            stacked_abs[ok],
            np.maximum(system.data_col_sums, config.threshold)[ok],
            atol=1e-12,
        )

    def test_satisfied_columns_keep_plain_collocation(self):
        rng = np.random.default_rng(34)
        cloud = random_cloud(rng, 200)
        config = FitConfig(degree=2, shape=(5, 5), threshold=2.0)
        system = assemble_system(cloud, config)
        scaled = (system.penalty @ sparse.diags(system.lambdas)).tocsc()
        for j in np.flatnonzero(system.data_col_sums >= config.threshold):
            assert scaled[:, j].nnz == 0

    def test_single_point_cloud(self):
        # only the (p+1)^d functions over the point have data mass
        coords = np.array([[0.31, 0.64]])
        cloud = PointCloud(coords, np.ones(1), np.zeros(2), np.ones(2))
        config = FitConfig(degree=2, shape=(6, 6), threshold=1.0)
        system = assemble_system(cloud, config)
        empty = system.data_col_sums == 0.0
        assert empty.sum() == config.n_tot - 9
        visible = empty & (system.penalty_col_sums > 0)
        np.testing.assert_allclose(
            system.lambdas[visible], 1.0 / system.penalty_col_sums[visible], rtol=0
        )

    def test_deterministic_assembly(self):
        rng_a = np.random.default_rng(35)
        rng_b = np.random.default_rng(35)
        config = FitConfig(degree=3, shape=(6, 6), threshold=3.0)
        sys_a = assemble_system(random_cloud(rng_a, 90), config)
        sys_b = assemble_system(random_cloud(rng_b, 90), config)
        for attr in ("collocation", "penalty"):
            mat_a = getattr(sys_a, attr)
            mat_b = getattr(sys_b, attr)
            assert np.array_equal(mat_a.data, mat_b.data)
            assert np.array_equal(mat_a.indices, mat_b.indices)
            assert np.array_equal(mat_a.indptr, mat_b.indptr)
        assert np.array_equal(sys_a.lambdas, sys_b.lambdas)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(36)
        cloud = random_cloud(rng, 10)
        with pytest.raises(ValueError):
            assemble_system(cloud, FitConfig(degree=2, shape=(4, 4, 4)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_lambda_monotone_in_threshold(self, seed):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, 40)
        previous = None
        for threshold in (0.0, 1.0, 2.0, 4.0, 8.0):
            config = FitConfig(degree=2, shape=(5, 4), threshold=threshold)
            lam = assemble_system(cloud, config).lambdas
            if previous is not None:
                assert np.all(lam >= previous - 1e-15)
            previous = lam

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.sampled_from([(2, (1,)), (2, (2,)), (3, (1, 2))]),
        st.integers(1, 150),
        st.lists(st.floats(0.0, 30.0), min_size=2, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lambda_monotone_in_threshold_any_dimension(
        self, seed, d, degree_orders, m, thresholds
    ):
        # random clouds, shapes, orders and thresholds in d = 1-3, and no slack
        degree, orders = degree_orders
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(degree + 1, degree + 5, d))
        cloud = PointCloud(rng.uniform(-1.0, 1.0, (m, d)), rng.normal(size=m),
                           -np.ones(d), np.ones(d))
        previous = None
        for threshold in sorted(thresholds):
            config = FitConfig(degree, shape, threshold, orders)
            lam = assemble_system(cloud, config).lambdas
            if previous is not None:
                assert np.all(lam >= previous)
            previous = lam

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_lambda_zero_characterization(self, seed):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, 30)
        config = FitConfig(degree=2, shape=(6, 5), threshold=3.0)
        system = assemble_system(cloud, config)
        zero = system.lambdas == 0.0
        expected = (system.data_col_sums >= config.threshold) | (
            system.penalty_col_sums == 0.0
        )
        assert np.array_equal(zero, expected)


class TestFitConfigValidation:
    def test_control_count_too_small(self):
        with pytest.raises(ValueError):
            FitConfig(degree=3, shape=(3, 5))

    def test_negative_threshold(self):
        with pytest.raises(ValueError):
            FitConfig(degree=2, shape=(4, 4), threshold=-1.0)

    def test_empty_orders_with_threshold(self):
        with pytest.raises(ValueError):
            FitConfig(degree=2, shape=(4, 4), threshold=1.0, orders=())

    def test_empty_orders_without_threshold_allowed(self):
        config = FitConfig(degree=2, shape=(4, 4), threshold=0.0, orders=())
        assert config.orders == ()

    def test_order_above_degree(self):
        with pytest.raises(ValueError):
            FitConfig(degree=1, shape=(4, 4), threshold=1.0, orders=(2,))

    def test_bad_order_value(self):
        with pytest.raises(ValueError):
            FitConfig(degree=3, shape=(4, 4), threshold=1.0, orders=(3,))
