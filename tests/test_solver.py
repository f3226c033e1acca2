"""Tests for the normal-system solvers and conditioning estimates."""

import math

import numpy as np
import pytest
from scipy import sparse

from scatterspline import bsplines, solver
from scatterspline.assembly import (
    FitConfig,
    PointCloud,
    assemble_system,
    build_collocation,
)
from scatterspline.bsplines import (
    SplineModel,
    eval_model_many,
    uniform_clamped_knots,
)
from scatterspline.datasets import SynthConfig, VoidSpec, generate_polysinc_cloud
from scatterspline.solver import (
    NotConvergedError,
    RankDeficientError,
    SolveOptions,
    _band_cholesky,
    condition_number,
    fit_cloud,
    solve,
)

NO_COND = SolveOptions(estimate_condition=False)


def spline_sampled_cloud(rng, shape, degree, grid, box=((0.0, 1.0), (0.0, 1.0))):
    """Evaluate a random model on a dense grid; fitting must recover it."""
    kvs = tuple(uniform_clamped_knots(nk, degree) for nk in shape)
    n_tot = int(np.prod(shape))
    box = np.asarray(box, dtype=float)
    model = SplineModel(kvs, rng.standard_normal((n_tot, 1)), box[:, 0], box[:, 1])
    axes = [np.linspace(0.0, 1.0, g) for g in grid]
    mesh = np.meshgrid(*axes, indexing="ij")
    params = np.stack([g.ravel() for g in mesh], axis=1)
    coords = box[:, 0] + params * (box[:, 1] - box[:, 0])
    values = eval_model_many(model, params)
    cloud = PointCloud(coords, values, box[:, 0], box[:, 1])
    return model, cloud


def corner_void_cloud(rng, m=400):
    """Uniform cloud on [0,1]^2 minus the upper-right quadrant."""
    pts = []
    while len(pts) < m:
        cand = rng.uniform(0, 1, size=(m, 2))
        keep = ~((cand[:, 0] > 0.5) & (cand[:, 1] > 0.5))
        pts.extend(cand[keep].tolist())
    coords = np.array(pts[:m])
    values = np.sin(3 * coords[:, 0]) + coords[:, 1]
    return PointCloud(coords, values, np.zeros(2), np.ones(2))


class TestRecovery:
    def test_exact_recovery_from_spline_data(self):
        rng = np.random.default_rng(101)
        model, cloud = spline_sampled_cloud(
            rng, (6, 6), 3, (30, 30), box=((-2.0, 3.0), (1.0, 4.0))
        )
        system = assemble_system(cloud, FitConfig(degree=3, shape=(6, 6)))
        controls, report = solve(system, NO_COND)
        assert np.abs(controls - model.controls).max() <= 1e-8
        assert report.data_residual_norms[0] <= 1e-8

    def test_constant_reproduction_unregularized(self):
        rng = np.random.default_rng(102)
        coords = rng.uniform(0, 1, size=(200, 2))
        cloud = PointCloud(coords, np.full(200, 4.5), np.zeros(2), np.ones(2))
        system = assemble_system(cloud, FitConfig(degree=2, shape=(5, 5)))
        controls, _ = solve(system, NO_COND)
        np.testing.assert_allclose(controls, 4.5, atol=1e-10)

    def test_constant_reproduction_dense_data_with_threshold(self):
        # every column is data-rich, so the threshold leaves lambda at zero
        # and the regularized solve degenerates to the plain one
        rng = np.random.default_rng(103)
        coords = rng.uniform(0, 1, size=(600, 2))
        cloud = PointCloud(coords, np.full(600, -1.25), np.zeros(2), np.ones(2))
        system = assemble_system(
            cloud, FitConfig(degree=2, shape=(5, 5), threshold=3.0)
        )
        assert np.all(system.lambdas == 0.0)
        controls, _ = solve(system, NO_COND)
        np.testing.assert_allclose(controls, -1.25, atol=1e-10)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(104)
        _, cloud = spline_sampled_cloud(rng, (5, 5), 2, (20, 20))
        config = FitConfig(degree=2, shape=(5, 5), threshold=2.0)
        base, _ = solve(assemble_system(cloud, config), NO_COND)
        doubled_cloud = PointCloud(
            cloud.coords, 2.0 * cloud.values, cloud.bbox_min, cloud.bbox_max
        )
        doubled, _ = solve(assemble_system(doubled_cloud, config), NO_COND)
        np.testing.assert_array_equal(doubled, 2.0 * base)  # power of two: exact
        tripled_cloud = PointCloud(
            cloud.coords, 3.0 * cloud.values, cloud.bbox_min, cloud.bbox_max
        )
        tripled, _ = solve(assemble_system(tripled_cloud, config), NO_COND)
        np.testing.assert_allclose(tripled, 3.0 * base, rtol=1e-12, atol=1e-13)


class TestRankDeficiency:
    def test_empty_corner_unregularized_raises(self):
        rng = np.random.default_rng(105)
        cloud = corner_void_cloud(rng)
        system = assemble_system(cloud, FitConfig(degree=2, shape=(8, 8)))
        with pytest.raises(RankDeficientError):
            solve(system, NO_COND)

    def test_empty_corner_regularized_succeeds(self):
        rng = np.random.default_rng(105)
        cloud = corner_void_cloud(rng)
        system = assemble_system(
            cloud,
            FitConfig(degree=2, shape=(8, 8), threshold=5.0, orders=(1, 2)),
        )
        controls, report = solve(system)
        assert np.all(np.isfinite(controls))
        assert math.isinf(report.cond_data)  # collocation alone is deficient
        assert math.isfinite(report.cond_stacked)
        assert not report.rank_deficient

    def test_numerically_singular_without_dead_columns_raises(self):
        # two sparse voids (the sparsity-0.02 cell of the acceptance study):
        # every control point sees some data, so no diagonal entry is zero,
        # yet the unregularized normal matrix is singular to working precision
        voids = tuple(
            VoidSpec(center, 1.5 * math.pi, 0.02)
            for center in ((-2 * math.pi, -2 * math.pi), (2 * math.pi, 2 * math.pi))
        )
        cloud = generate_polysinc_cloud(
            SynthConfig(count=40_000, seed=20260822, voids=voids)
        )
        system = assemble_system(
            cloud, FitConfig(degree=4, shape=(60, 60), threshold=0.0, orders=(2,))
        )
        assert np.all(system.collocation.sum(axis=0) > 0)
        result = None
        with pytest.raises(RankDeficientError, match="threshold"):
            result = solve(system, NO_COND)
        assert result is None

    def test_singular_without_dead_columns_raises_on_cg_path(self):
        # samples on two horizontal lines: every basis function in y is
        # nonzero on one of them, yet the y-direction has rank 2 of 5
        rng = np.random.default_rng(114)
        x = rng.uniform(0, 1, size=300)
        y = np.where(np.arange(300) % 2 == 0, 0.3, 0.9)
        cloud = PointCloud(
            np.column_stack([x, y]), np.sin(3 * x), np.zeros(2), np.ones(2)
        )
        system = assemble_system(cloud, FitConfig(degree=2, shape=(5, 5)))
        assert np.all(system.collocation.sum(axis=0) > 0)
        with pytest.raises(RankDeficientError, match="threshold"):
            solve(system, SolveOptions(method="cg"))

    def test_error_message_mentions_threshold(self):
        rng = np.random.default_rng(106)
        cloud = corner_void_cloud(rng)
        system = assemble_system(cloud, FitConfig(degree=2, shape=(8, 8)))
        with pytest.raises(RankDeficientError, match="threshold"):
            solve(system, NO_COND)


class TestNonFiniteInput:
    def test_nan_value_is_input_error(self):
        # an input error naming the field, not a singular normal matrix
        rng = np.random.default_rng(116)
        coords = rng.uniform(0, 1, size=(400, 2))
        values = np.sin(3 * coords[:, 0])
        values[17] = np.nan
        with pytest.raises(ValueError, match="values must be finite"):
            fit_cloud(PointCloud(coords, values), FitConfig(degree=3, shape=(6, 6)))


class TestMethods:
    def test_direct_and_cg_agree(self):
        rng = np.random.default_rng(107)
        _, cloud = spline_sampled_cloud(rng, (6, 5), 2, (25, 25))
        system = assemble_system(cloud, FitConfig(degree=2, shape=(6, 5)))
        direct, rep_d = solve(
            system, SolveOptions(method="direct", estimate_condition=False)
        )
        via_cg, rep_c = solve(
            system, SolveOptions(method="cg", estimate_condition=False)
        )
        assert rep_d.method == "direct" and rep_c.method == "cg"
        assert rep_c.iterations > 0
        scale = np.abs(direct).max()
        np.testing.assert_allclose(via_cg, direct, atol=1e-8 * scale)

    def test_cg_iteration_cap(self):
        rng = np.random.default_rng(108)
        _, cloud = spline_sampled_cloud(rng, (6, 6), 2, (25, 25))
        system = assemble_system(cloud, FitConfig(degree=2, shape=(6, 6)))
        with pytest.raises(NotConvergedError):
            solve(
                system,
                SolveOptions(method="cg", maxiter=1, estimate_condition=False),
            )

    def test_bad_method(self):
        with pytest.raises(ValueError):
            SolveOptions(method="gauss")

    def test_auto_is_not_a_method(self):
        with pytest.raises(ValueError, match="unknown method 'auto'"):
            SolveOptions(method="auto")

    @pytest.mark.parametrize("maxiter", [0, -1])
    def test_maxiter_below_one_rejected(self, maxiter):
        # zero iterations would return the zero start vector as converged
        with pytest.raises(ValueError, match="maxiter"):
            SolveOptions(method="cg", maxiter=maxiter)

    def test_default_is_direct_above_twenty_thousand_controls(self):
        # a 1-D linear spline with 25,000 controls, two samples per span
        n = 25_000
        rng = np.random.default_rng(117)
        coords = np.sort(rng.uniform(0, 1, 2 * n))[:, None]
        cloud = PointCloud(coords, np.sin(7 * coords[:, 0]), [0.0], [1.0])
        system = assemble_system(
            cloud, FitConfig(degree=1, shape=(n,), threshold=1.0, orders=(1,))
        )
        default, report = solve(system, NO_COND)
        direct, _ = solve(
            system, SolveOptions(method="direct", estimate_condition=False)
        )
        assert report.method == "direct" and report.iterations == 0
        np.testing.assert_array_equal(default, direct)


def random_regularized_system(seed, shape, degree, num_values=2):
    """Uniform cloud with a void at the domain centre, 10 samples per control.

    The threshold of 100 lies above every column sum, so the penalty is on
    for every control point and the normal matrix stays well conditioned up
    to degree 5 in 3-D.
    """
    rng = np.random.default_rng(seed)
    d = len(shape)
    coords = rng.uniform(0, 1, size=(10 * int(np.prod(shape)), d))
    coords = coords[((coords - 0.5) ** 2).sum(axis=1) > 0.04]
    values = np.column_stack(
        [np.sin(3 * coords).sum(axis=1), coords[:, 0] ** 2][:num_values]
    )
    cloud = PointCloud(coords, values, np.zeros(d), np.ones(d))
    orders = (1, 2) if degree > 1 else (1,)
    config = FitConfig(degree=degree, shape=shape, threshold=100.0, orders=orders)
    return assemble_system(cloud, config)


def explicit_normal(system):
    n = system.collocation
    scaled = system.penalty @ sparse.diags(system.lambdas)
    return (n.T @ n + scaled.T @ scaled).tocsr()


class TestBandCholesky:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_direct_solve_matches_dense(self, d, degree):
        shape = (degree + 3,) * d
        system = random_regularized_system(200 + 10 * d + degree, shape, degree)
        assert np.any(system.lambdas > 0)
        controls, report = solve(
            system, SolveOptions(method="direct", estimate_condition=False)
        )
        dense = np.linalg.solve(explicit_normal(system).toarray(), system.rhs)
        assert report.method == "direct" and controls.shape == (system.n_tot, 2)
        assert np.abs(controls - dense).max() <= 1e-10 * np.abs(dense).max()

    @pytest.mark.parametrize("shape", [(9,), (7, 6), (6, 5, 7)])
    @pytest.mark.parametrize("degree", [1, 3])
    def test_bandwidth_of_fit_matrices(self, shape, degree):
        system = random_regularized_system(300, shape, degree, num_values=1)
        factor = _band_cholesky(explicit_normal(system))
        expected = sum(
            degree * int(np.prod(shape[k + 1:])) for k in range(len(shape))
        )
        assert factor.shape == (expected + 1, system.n_tot)

    def test_singular_matrix_gives_none(self):
        ones = sparse.csr_matrix(np.ones((4, 4)))
        assert _band_cholesky(ones) is None
        assert _band_cholesky(sparse.diags([1.0, 1e-13, 1.0]).tocsr()) is None
        assert _band_cholesky(sparse.diags([1.0, 1e-11, 1.0]).tocsr()) is not None


class TestGramPanels:
    @pytest.mark.parametrize("shape", [(7,), (5, 7), (5, 4, 6)])
    def test_equals_scipy_product_for_any_cpu_count(self, shape, monkeypatch):
        # n_tot 7, 35 and 120 split into panels of unequal width
        rng = np.random.default_rng(sum(shape))
        knots = tuple(uniform_clamped_knots(nk, 3) for nk in shape)
        collocation = build_collocation(rng.uniform(0.0, 1.0, (500, len(shape))), knots)
        # the wide input is condition_number's A A^T, _gram of A's transpose
        wide = sparse.random(
            len(shape) + 6, 90, density=0.3, random_state=7, format="csr",
            data_rvs=rng.standard_normal,
        )
        wide_product = (wide @ wide.T).tocsr()
        wide_product.sort_indices()  # SciPy leaves this product unsorted
        cases = (
            (collocation, (collocation.T @ collocation).tocsr()),
            (wide.T, wide_product),
        )
        for matrix, expected in cases:
            for workers in (1, 2, 3, 4):
                for module in (bsplines, solver):
                    monkeypatch.setattr(module, "_worker_count", lambda: workers)
                gram = solver._gram(matrix)
                assert gram.shape == expected.shape
                np.testing.assert_array_equal(gram.indptr, expected.indptr)
                np.testing.assert_array_equal(gram.indices, expected.indices)
                np.testing.assert_array_equal(gram.data, expected.data)


class TestResiduals:
    def test_penalty_never_improves_data_residual(self):
        rng = np.random.default_rng(109)
        _, cloud = spline_sampled_cloud(rng, (5, 5), 2, (15, 15))
        noisy = PointCloud(
            cloud.coords,
            cloud.values + 0.1 * rng.standard_normal(cloud.values.shape),
            cloud.bbox_min,
            cloud.bbox_max,
        )
        plain_system = assemble_system(noisy, FitConfig(degree=2, shape=(5, 5)))
        _, plainels = solve(plain_system, NO_COND)
        reg_system = assemble_system(
            noisy, FitConfig(degree=2, shape=(5, 5), threshold=4.0)
        )
        _, reg = solve(reg_system, NO_COND)
        assert (
            reg.data_residual_norms[0] >= plainels.data_residual_norms[0] - 1e-12
        )
        assert reg.residual_norms[0] >= reg.data_residual_norms[0] - 1e-15


class TestConditionNumber:
    def test_orthonormal_columns(self):
        eye = sparse.eye(40, format="csr")
        assert condition_number(eye, mode="exact") == pytest.approx(1.0)
        assert condition_number(eye, mode="estimate") == pytest.approx(1.0, rel=1e-6)

    def test_zero_column_flags_infinite(self):
        rng = np.random.default_rng(110)
        dense = rng.standard_normal((30, 10))
        dense[:, 4] = 0.0
        mat = sparse.csr_matrix(dense)
        assert math.isinf(condition_number(mat, mode="exact"))
        assert math.isinf(condition_number(mat, mode="estimate"))

    def test_dependent_columns_flag_infinite(self):
        # singular Gram matrix with no zero column: column 4 = column 1 + column 2
        rng = np.random.default_rng(113)
        dense = rng.standard_normal((30, 10))
        dense[:, 4] = dense[:, 1] + dense[:, 2]
        mat = sparse.csr_matrix(dense)
        assert np.all(np.abs(dense).sum(axis=0) > 0)
        assert math.isinf(condition_number(mat, mode="exact"))
        assert condition_number(mat, mode="estimate") == math.inf

    def test_estimate_matches_dense_oracle(self):
        rng = np.random.default_rng(111)
        for trial in range(5):
            mat = sparse.random(
                50, 30, density=0.25, random_state=int(rng.integers(2**31)),
                data_rvs=rng.standard_normal,
            )
            exact = condition_number(mat, mode="exact")
            estimate = condition_number(mat, mode="estimate")
            assert abs(estimate - exact) <= 0.05 * exact

    def test_estimate_on_permuted_banded_matrix(self):
        # the estimate factors the Gram matrix in the order given; a random
        # symmetric permutation of a banded SPD matrix has an unbanded Gram
        # matrix, whose band factor spans the whole matrix
        rng = np.random.default_rng(115)
        n, width = 300, 4
        offsets = range(-width, width + 1)
        diagonals = [rng.uniform(-1, 1, n - abs(k)) for k in offsets]
        banded = sparse.diags(diagonals, offsets)
        spd = (banded @ banded.T + 0.05 * sparse.eye(n)).tocsr()
        order = rng.permutation(n)
        permuted = spd[order][:, order]
        exact = condition_number(permuted, mode="exact")
        estimate = condition_number(permuted, mode="estimate")
        assert math.isfinite(exact)
        assert abs(estimate - exact) <= 0.05 * exact

    def test_estimate_keeps_lexicographic_tensor_order(self, monkeypatch):
        # the estimate factors this tensor-product Gram matrix (band 33) in
        # its own lexicographic order
        rng = np.random.default_rng(116)
        cloud = PointCloud(rng.uniform(0, 1, (3000, 2)), rng.normal(size=3000))
        colloc = assemble_system(cloud, FitConfig(degree=3, shape=(10, 10))).collocation
        factored = []
        band_cholesky = solver._band_cholesky
        monkeypatch.setattr(
            solver, "_band_cholesky", lambda m: factored.append(m) or band_cholesky(m)
        )
        estimate = condition_number(colloc, mode="estimate")
        gram = (colloc.T @ colloc).tocsr()
        assert len(factored) == 1 and (factored[0] != gram).nnz == 0
        exact = condition_number(colloc, mode="exact")
        assert abs(estimate - exact) <= 0.05 * exact

    def test_exact_mode_size_cap(self):
        with pytest.raises(ValueError):
            condition_number(sparse.eye(5001, format="csr"), mode="exact")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            condition_number(sparse.eye(3, format="csr"), mode="fast")

    def test_wide_matrix_uses_small_side(self):
        rng = np.random.default_rng(112)
        mat = sparse.random(
            20, 80, density=0.4, random_state=7, data_rvs=rng.standard_normal
        )
        exact = condition_number(mat, mode="exact")
        estimate = condition_number(mat, mode="estimate")
        assert math.isfinite(exact)
        assert abs(estimate - exact) <= 0.05 * exact
