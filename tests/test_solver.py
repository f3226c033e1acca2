"""Tests for the normal-system solvers and conditioning estimates."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from scatterspline import bsplines, solver
from scatterspline.assembly import (
    FitConfig,
    PointCloud,
    assemble_system,
    build_collocation,
    build_knots,
    parameterize,
)
from scatterspline.bsplines import (
    SplineModel,
    eval_model_many,
    find_span,
    uniform_clamped_knots,
)
from scatterspline.datasets import SynthConfig, VoidSpec, generate_polysinc_cloud
from scatterspline.solver import (
    NotConvergedError,
    RankDeficientError,
    SolveOptions,
    _band_cholesky,
    _by_knot_cell,
    _largest_eigenvalue,
    condition_number,
    fit_cloud,
    solve,
)

NO_COND = SolveOptions(estimate_condition=False)


@st.composite
def smoothed_everywhere_fits(draw):
    """A cloud of d + 1 to d + 30 points in d = 1-3 and a degree 2-3 config
    whose threshold lies above every data column sum, with orders (2,).

    Every control is smoothed, and d + 1 points in general position pin the
    affine functions the second-derivative penalty leaves free, so the
    normal matrix is nonsingular.
    """
    d = draw(st.integers(1, 3))
    degree = draw(st.integers(2, 3))
    m = d + 1 + draw(st.integers(0, 29))
    r = draw(st.floats(0.001, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cloud = PointCloud(rng.uniform(-1, 1, size=(m, d)), rng.standard_normal(m))
    shape = tuple(int(n) for n in rng.integers(degree + 1, degree + 5, size=d))
    plain = assemble_system(cloud, FitConfig(degree=degree, shape=shape))
    threshold = (1.0 + r) * float(plain.data_col_sums.max())
    return cloud, FitConfig(degree, shape, threshold=threshold, orders=(2,))


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


def void_cloud(rng, d, m):
    """Two value columns on [0, 1]^d, no point in the corner cube [0.6, 1]^d."""
    coords = rng.uniform(0.0, 1.0, (3 * m, d))
    coords = coords[~np.all(coords > 0.6, axis=1)][:m]
    values = np.column_stack([np.sin(3.0 * coords.sum(axis=1)), coords[:, 0] ** 2])
    return PointCloud(coords, values, np.zeros(d), np.ones(d))


def indexed_cloud(rng, config, m):
    """A cloud on [-1, 2]^d whose value column 0 is each point's index.

    A quarter of the coordinates sit on knots, the box ends included, so
    cells share points and points lie on cell borders."""
    d = config.d
    params = rng.uniform(0.0, 1.0, (m, d))
    for k, kv in enumerate(build_knots(config)):
        on_knot = rng.random(m) < 0.25
        params[on_knot, k] = rng.choice(np.unique(kv.knots), on_knot.sum())
    coords = -1.0 + 3.0 * params
    values = np.column_stack([np.arange(m, dtype=float), rng.standard_normal(m)])
    return PointCloud(coords, values, -np.ones(d), 2.0 * np.ones(d))


KNOT_CELL_FITS = [
    pytest.param(FitConfig(3, (9,), threshold=4.0, orders=(1, 2)), id="1d"),
    pytest.param(FitConfig(3, (7, 6), threshold=3.0), id="2d"),
    pytest.param(FitConfig(2, (5, 4, 5), threshold=2.0, orders=(1, 2)), id="3d"),
]


class TestKnotCellOrder:
    @pytest.mark.parametrize(
        "degree, shape", [(3, (7,)), (2, (5, 6)), (3, (4, 6, 5))], ids=["1d", "2d", "3d"]
    )
    def test_stable_permutation_in_cell_order(self, degree, shape):
        config = FitConfig(degree, shape)
        cloud = indexed_cloud(np.random.default_rng(len(shape)), config, 400)
        given = assemble_system(cloud, config)
        ordered = _by_knot_cell(given)
        index = ordered.values[:, 0].astype(int)
        np.testing.assert_array_equal(np.sort(index), np.arange(cloud.m))
        np.testing.assert_array_equal(ordered.values, cloud.values[index])
        n, expected = ordered.collocation, given.collocation[index]
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(n, name), getattr(expected, name))
        # every other field is the given system's, summed in the cloud's order
        for name in ("penalty", "lambdas", "data_col_sums", "penalty_col_sums", "rhs",
                     "knots", "config", "deltas", "maximizer_axes", "degenerate_cols"):
            assert getattr(ordered, name) is getattr(given, name)
        # each row's cell by the scalar span search, raveled like the controls
        params = parameterize(cloud)[index]
        spans = [
            [find_span(kv, u) for u in params[:, k]]
            for k, kv in enumerate(build_knots(config))
        ]
        cell = np.ravel_multi_index(spans, shape)
        steps = np.diff(cell)
        assert np.all(steps >= 0)
        assert np.all(np.diff(index)[steps == 0] > 0)
        assert np.count_nonzero(steps == 0) > 0 and np.count_nonzero(steps) > 0

    @pytest.mark.parametrize("shape", [(5,), (4, 5), (4, 4, 5)], ids=["1d", "2d", "3d"])
    def test_order_is_the_stable_argsort_under_heavy_ties(self, shape):
        # two knot cells per cloud, so thousands of rows share each first column
        config = FitConfig(3, shape)
        given = assemble_system(indexed_cloud(np.random.default_rng(60), config, 6000), config)
        n = given.collocation
        first = n.indices[n.indptr[:-1]]
        assert np.unique(first, return_counts=True)[1].min() >= 1000
        expected = np.argsort(first, kind="stable")
        ordered = _by_knot_cell(given)
        np.testing.assert_array_equal(ordered.values[:, 0], expected)
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(
                getattr(ordered.collocation, name), getattr(n[expected], name)
            )

    @pytest.mark.parametrize("config", KNOT_CELL_FITS)
    def test_report_carries_the_weights_it_solved_with(self, config):
        cloud = void_cloud(np.random.default_rng(47 + config.d), config.d, 600)
        system = assemble_system(cloud, config)
        _, report = solve(system)
        assert report.lambdas is system.lambdas
        _, fitted = fit_cloud(cloud, config)
        np.testing.assert_array_equal(fitted.lambdas, system.lambdas)
        assert 0 < np.count_nonzero(fitted.lambdas) < config.n_tot

    @pytest.mark.parametrize("config", KNOT_CELL_FITS)
    def test_fit_solves_the_sorted_system(self, config):
        cloud = void_cloud(np.random.default_rng(40 + config.d), config.d, 600)
        model, report = fit_cloud(cloud, config)
        ordered = _by_knot_cell(assemble_system(cloud, config))
        controls, ordered_report = solve(ordered)
        np.testing.assert_array_equal(model.controls, controls)
        np.testing.assert_array_equal(report.residual_norms, ordered_report.residual_norms)
        np.testing.assert_array_equal(model.bbox_min, cloud.bbox_min)
        np.testing.assert_array_equal(model.bbox_max, cloud.bbox_max)

        # the same fit assembled in the cloud's order: only N^T N and the
        # residual norms are summed in another order
        given = assemble_system(cloud, config)
        given_controls, _ = solve(given)
        scale = np.abs(given_controls).max()
        assert np.abs(controls - given_controls).max() <= 1e-10 * scale
        np.testing.assert_array_equal(ordered.data_col_sums, given.data_col_sums)
        np.testing.assert_array_equal(ordered.lambdas, given.lambdas)
        assert 0 < np.count_nonzero(given.lambdas) < config.n_tot

    @pytest.mark.parametrize("config", KNOT_CELL_FITS)
    def test_fit_weights_are_the_cloud_order_assembly(self, config, monkeypatch):
        cloud = void_cloud(np.random.default_rng(45 + config.d), config.d, 600)
        solved = []

        def record(system, opts=None):
            solved.append(system)
            return solve(system, opts)

        monkeypatch.setattr(solver, "solve", record)
        fit_cloud(cloud, config)
        given = assemble_system(cloud, config)
        for name in ("lambdas", "data_col_sums", "penalty_col_sums", "rhs"):
            np.testing.assert_array_equal(getattr(solved[0], name), getattr(given, name))

    def test_dimension_mismatch_raises_the_assembly_error(self):
        cloud = void_cloud(np.random.default_rng(44), 2, 50)
        for shape in ((6,), (4, 4, 4)):
            message = f"^cloud dimension 2 != configured dimension {len(shape)}$"
            with pytest.raises(ValueError, match=message):
                fit_cloud(cloud, FitConfig(degree=2, shape=shape))


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

    @staticmethod
    def two_line_system():
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
        return system

    def test_singular_without_dead_columns_raises_on_cg_path(self):
        with pytest.raises(RankDeficientError, match="threshold"):
            solve(self.two_line_system(), SolveOptions(method="cg"))

    def test_unchecked_cg_solve_reports_rank_not_checked(self):
        # conjugate gradients without a condition estimate factors nothing,
        # so its report may not claim the singular system full rank
        system = self.two_line_system()
        unchecked = SolveOptions(method="cg", estimate_condition=False)
        _, report = solve(system, unchecked)
        assert report.rank_deficient is None
        # the direct path's factor vouches for a nonsingular system
        rng = np.random.default_rng(115)
        _, cloud = spline_sampled_cloud(rng, (5, 5), 2, (15, 15))
        system = assemble_system(cloud, FitConfig(degree=2, shape=(5, 5)))
        assert solve(system, NO_COND)[1].rank_deficient is False
        assert solve(system)[1].rank_deficient is False
        assert solve(system, unchecked)[1].rank_deficient is None

    def test_error_message_mentions_threshold(self):
        rng = np.random.default_rng(106)
        cloud = corner_void_cloud(rng)
        system = assemble_system(cloud, FitConfig(degree=2, shape=(8, 8)))
        with pytest.raises(RankDeficientError, match="threshold"):
            solve(system, NO_COND)

    def test_advice_names_a_positive_threshold(self):
        # ten points cannot pin 36 cubic controls; a tiny threshold does not
        # lift the singularity, so the advice is to raise it, not to set one
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.uniform(size=(10, 2)), rng.uniform(size=10))
        with pytest.raises(RankDeficientError, match="> 0"):
            fit_cloud(cloud, FitConfig(degree=3, shape=(6, 6)), NO_COND)
        config = FitConfig(degree=3, shape=(6, 6), threshold=1e-6, orders=(2,))
        with pytest.raises(RankDeficientError) as raised:
            fit_cloud(cloud, config, NO_COND)
        message = str(raised.value)
        assert message.endswith(
            "raise the regularization threshold above its current 1e-06"
        )
        assert "> 0" not in message

    @given(smoothed_everywhere_fits())
    @settings(max_examples=40, deadline=None)
    def test_threshold_above_every_column_sum_solves(self, case):
        cloud, config = case
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model, report = fit_cloud(cloud, config)
        assert np.all(np.isfinite(model.controls))
        assert math.isfinite(report.cond_stacked)
        assert not report.rank_deficient


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

    @given(smoothed_everywhere_fits())
    @settings(max_examples=40, deadline=None)
    def test_direct_and_cg_agree_within_condition_bound(self, case):
        # CG stops at a relative residual of _CG_RTOL on the normal matrix,
        # whose condition is cond_stacked squared; that bounds the error
        cloud, config = case
        system = assemble_system(cloud, config)
        direct, rep_d = solve(system)
        via_cg, _ = solve(system, SolveOptions(method="cg", estimate_condition=False))
        bound = rep_d.cond_stacked**2 * solver._CG_RTOL * np.linalg.norm(direct)
        assert np.linalg.norm(via_cg - direct) <= bound

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


def unsorted_csr(rng, rows, cols, density, integers=False):
    """A random CSR matrix whose rows store their columns in random order.

    Zero values are stored as explicit entries. Integer values (-2..2) make
    some entries of its Gram matrix cancel to an exact zero sum.
    """
    if integers:
        values = rng.integers(-2, 3, size=(rows, cols)).astype(float)
    else:
        values = rng.standard_normal((rows, cols))
        values[rng.random((rows, cols)) < 0.2] = 0.0
    mask = rng.random((rows, cols)) < density
    stored = [rng.permutation(np.flatnonzero(row)) for row in mask]
    indptr = np.concatenate([[0], np.cumsum([row.size for row in stored])])
    indices = np.concatenate(stored)
    data = values[np.repeat(np.arange(rows), np.diff(indptr)), indices]
    return sparse.csr_matrix((data, indices, indptr), shape=(rows, cols))


def sorted_product(left, right):
    """SciPy's own left @ right in CSR with sorted indices."""
    product = (left @ right).tocsr()
    product.sort_indices()  # SciPy leaves some products unsorted
    return product


def band_slots(matrix):
    """min(n, 2 bw + 1), bw the widest column span of a stored row of matrix."""
    csr = sparse.csr_matrix(matrix)
    rows = np.split(csr.indices, csr.indptr[1:-1])
    bw = max((int(np.ptp(row)) for row in rows if row.size), default=0)
    return min(csr.shape[1], 2 * bw + 1)


def assert_gram_matches(matrix, expected, workers):
    """solver._gram(matrix) with `workers` CPUs equals `expected` bit for bit.

    The kernel is called once per 64-row block from range(0, n, 64), in one
    _map_parallel call, whatever the CPU count; each call's buffers hold
    rows x min(n, 2 bw + 1) slots, at least the entry count that SciPy's own
    counting pass (csr_matmat_maxnnz) finds for its rows.

    Returns (rows, buffer slots) of each kernel call, in the order they ran."""
    kernel = solver._sparsetools
    calls, mapped = [], []

    class Counting:
        @staticmethod
        def csr_matmat(n_row, n_col, ap, aj, ax, bp, bj, bx, cp, cj, cx):
            needed = kernel.csr_matmat_maxnnz(n_row, n_col, ap, aj, bp, bj)
            calls.append((n_row, cj.size))
            # checked before the kernel runs: it writes past a short buffer
            assert cj.size == cx.size >= needed
            kernel.csr_matmat(n_row, n_col, ap, aj, ax, bp, bj, bx, cp, cj, cx)

    def recording_map(func, items):
        mapped.append(list(items))
        return bsplines._map_parallel(func, mapped[-1])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bsplines, "_worker_count", lambda: workers)
        patch.setattr(solver, "_sparsetools", Counting)
        patch.setattr(solver, "_map_parallel", recording_map)
        gram = solver._gram(matrix)
    n = expected.shape[0]
    assert mapped == [list(range(0, n, 64))]
    blocks = [min(64, n - lo) for lo in range(0, n, 64)]
    # threads may finish the blocks in any order
    assert sorted(calls) == sorted((rows, rows * band_slots(matrix)) for rows in blocks)
    assert gram.shape == expected.shape
    assert gram.has_sorted_indices
    np.testing.assert_array_equal(gram.indptr, expected.indptr)
    np.testing.assert_array_equal(gram.indices, expected.indices)
    np.testing.assert_array_equal(gram.data, expected.data)
    return calls


def banded_csr(rng, rows, cols, span, outlier):
    """Each row stores up to three random columns within `span` of each
    other, but row 0 stores columns 0 and `outlier`, which sets the band."""
    first = rng.integers(0, cols - span, size=rows)
    columns = [np.unique(f + rng.integers(0, span, size=3)) for f in first]
    columns[0] = np.array([0, outlier])
    indptr = np.concatenate([[0], np.cumsum([c.size for c in columns])])
    data = rng.standard_normal(indptr[-1])
    return sparse.csr_matrix(
        (data, np.concatenate(columns), indptr), shape=(rows, cols)
    )


@st.composite
def gram_inputs(draw):
    """A random sparse matrix or its transpose (CSC), with explicit zeros,
    unsorted indices and empty rows and columns at low density."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = unsorted_csr(
        rng,
        draw(st.integers(1, 30)),
        draw(st.integers(1, 12)),
        draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0])),
        integers=draw(st.booleans()),
    )
    return matrix.T if draw(st.booleans()) else matrix


class TestGramPanels:
    @pytest.mark.parametrize("shape", [(7,), (5, 7), (5, 4, 6)])
    def test_equals_scipy_product_for_any_cpu_count(self, shape):
        # n_tot 7, 35 and 120: one block, one block, and 64 + 56 rows
        rng = np.random.default_rng(sum(shape))
        knots = tuple(uniform_clamped_knots(nk, 3) for nk in shape)
        collocation = build_collocation(rng.uniform(0.0, 1.0, (500, len(shape))), knots)
        # the wide input is condition_number's A A^T, _gram of A's transpose
        wide = sparse.random(
            len(shape) + 6, 90, density=0.3, random_state=7, format="csr",
            data_rvs=rng.standard_normal,
        )
        cancelling = unsorted_csr(rng, 60, 9, 0.4, integers=True)
        assert not cancelling.has_sorted_indices
        holes = unsorted_csr(rng, 40, 10, 0.3)
        holes = sparse.diags((np.arange(40) % 3 > 0).astype(float)) @ holes
        holes = (holes @ sparse.diags((np.arange(10) % 4 > 0).astype(float))).tocsr()
        assert np.diff(holes.indptr)[::3].max() == 0
        assert np.bincount(holes.indices, minlength=10)[::4].max() == 0
        zeros = sparse.csr_matrix(
            (np.zeros(5), [0, 2, 2, 1, 3], [0, 2, 3, 5]), shape=(3, 4)
        )
        inputs = (
            collocation,
            cancelling,  # explicit zeros, unsorted indices, zero sums dropped
            holes,  # empty rows and columns
            unsorted_csr(rng, 30, 1, 0.5),  # a single column
            sparse.csr_matrix((20, 6)),  # no stored entry
            zeros,  # only explicit zeros
            banded_csr(rng, 2000, 129, 8, 20),  # blocks of 64, 64 and 1 rows
        )
        cases = [(matrix, sorted_product(matrix.T, matrix)) for matrix in inputs]
        cases.append((wide.T, sorted_product(wide, wide.T)))
        for matrix, expected in cases:
            for workers in (1, 2, 3, 4):
                assert_gram_matches(matrix, expected, workers)

    @pytest.mark.parametrize("config", KNOT_CELL_FITS)
    def test_knot_cell_order_equals_scipy_product(self, config):
        cloud = void_cloud(np.random.default_rng(50 + config.d), config.d, 3000)
        matrix = _by_knot_cell(assemble_system(cloud, config)).collocation
        expected = sorted_product(matrix.T, matrix)
        for workers in (1, 2, 3, 4):
            assert_gram_matches(matrix, expected, workers)

    @given(gram_inputs(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_random_matrices_equal_scipy_product(self, matrix, workers):
        assert_gram_matches(matrix, sorted_product(matrix.T, matrix), workers)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_kernel_buffers_stay_within_budget(self, workers):
        # 40 points, but one stores columns 0 and 2999: every call's buffers
        # take 64 rows x 3000 slots, so the calls in flight hold at most
        # workers x 192,000 slots against the 9 million of the whole band
        rng = np.random.default_rng(workers)
        few = banded_csr(rng, 40, 3000, 5, 2999)
        # 20,000 points on 400 columns with bandwidth 60: every row of the
        # product sums ~450 products but holds at most 121 entries
        many = banded_csr(rng, 20_000, 400, 10, 60)
        for matrix, width in ((few, 3000), (many, 121)):
            calls = assert_gram_matches(matrix, sorted_product(matrix.T, matrix), workers)
            assert all(slots == rows * width for rows, slots in calls)


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


class TestLanczos:
    def test_identity_is_exactly_one(self):
        eye = sparse.eye(40, format="csr")
        assert _largest_eigenvalue(eye.dot, 40) == 1.0
        assert condition_number(eye, mode="estimate") == 1.0

    @pytest.mark.parametrize("cols", [1, 2])
    def test_one_and_two_columns(self, cols):
        mat = sparse.csr_matrix(np.random.default_rng(cols).standard_normal((5, cols)))
        exact = condition_number(mat, mode="exact")
        assert condition_number(mat, mode="estimate") == pytest.approx(exact, rel=1e-12)

    def test_ritz_value_never_above_lambda_max(self):
        # K + 5 distinct eigenvalues: K steps cannot span every eigenvector
        n = solver._LANCZOS_STEPS + 5
        for seed in range(50):
            diag = np.random.default_rng(seed).permutation(np.arange(1.0, n + 1))
            estimate = _largest_eigenvalue(sparse.diags(diag).tocsr().dot, n)
            assert 0.99 * n <= estimate <= n

    def test_same_bits_on_every_call(self):
        rng = np.random.default_rng(120)
        mat = sparse.random(300, 80, density=0.1, random_state=3, data_rvs=rng.standard_normal)
        mat = (mat + sparse.diags(np.full(80, 0.5), shape=(300, 80))).tocsr()
        gram = (mat.T @ mat).tocsr()
        assert _largest_eigenvalue(gram.dot, 80) == _largest_eigenvalue(gram.dot, 80)
        assert condition_number(mat) == condition_number(mat)

    def test_kuczynski_wozniakowski_bound(self):
        # criterion 7's matrices; the relative error of each extremal
        # eigenvalue is inside the bound that fails with probability 1e-3
        rng = np.random.default_rng(0xACCE7)
        steps = 2 * solver._LANCZOS_STEPS - 1
        for i in range(20):
            rows = int(rng.integers(40, 501))
            cols = int(rng.integers(20, min(rows, 300) + 1))
            mat = sparse.random(
                rows, cols, density=float(rng.uniform(0.02, 0.15)),
                random_state=np.random.RandomState(i), format="csr",
            )
            mat = mat + sparse.diags(np.full(cols, 0.5), shape=(rows, cols))
            gram = (mat.T @ mat).tocsr()
            dense = gram.toarray()
            eigenvalues = np.linalg.eigvalsh(dense)
            eps = (math.log(1.648 * math.sqrt(cols) / 1e-3) / steps) ** 2
            for exact, estimate in (
                (eigenvalues[-1], _largest_eigenvalue(gram.dot, cols)),
                (1.0 / eigenvalues[0],
                 _largest_eigenvalue(lambda x: np.linalg.solve(dense, x), cols)),
            ):
                assert -1e-12 <= (exact - estimate) / exact <= eps


class TestConditionNumber:
    @pytest.mark.parametrize("mode", ["estimate", "exact"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_is_an_input_error(self, mode, bad):
        dense = np.random.default_rng(111).standard_normal((30, 10))
        dense[7, 4] = bad
        with pytest.raises(ValueError, match="^matrix must be finite$"):
            condition_number(sparse.csr_matrix(dense), mode=mode)

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
