"""Error measurement and penalty-weight inspection."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from scatterspline import (
    FitConfig,
    PointCloud,
    SplineModel,
    assemble_system,
    compute_lambdas,
    eval_model_many,
    resample_grid,
    uniform_clamped_knots,
)
from scatterspline.bsplines import grid_points
from scatterspline.metrics import (
    ErrorStats,
    RegionOfInterest,
    lambda_field,
    pointwise_errors,
)


def random_model(seed=0, n=5, p=2, box=((-2.0, 3.0), (1.0, 4.0))):
    kv = uniform_clamped_knots(n, p)
    rng = np.random.default_rng(seed)
    controls = rng.normal(size=(n * n, 1))
    lo = [b[0] for b in box]
    hi = [b[1] for b in box]
    return SplineModel((kv, kv), controls, lo, hi)


def as_callable(model):
    """Reference function evaluating the model at physical coordinates."""

    def fn(coords):
        params = (coords - model.bbox_min) / (model.bbox_max - model.bbox_min)
        return eval_model_many(model, params)

    return fn


class TestRegionOfInterest:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            RegionOfInterest((0.0,), (1.0, 2.0))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="min < max"):
            RegionOfInterest((0.0, 1.0), (1.0, 1.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            RegionOfInterest((0.0, -math.inf), (1.0, 1.0))

    def test_dimension(self):
        assert RegionOfInterest((0, 0, 0), (1, 1, 1)).d == 3


class TestPointwiseErrorsCallable:
    def test_constant_offset(self):
        model = random_model()
        base = as_callable(model)
        stats = pointwise_errors(model, lambda c: base(c) + 1.0, grid_shape=20)
        assert stats.max_error == pytest.approx(1.0, rel=1e-12)
        assert stats.rms_error == pytest.approx(1.0, rel=1e-12)
        assert stats.num_samples == 400

    def test_self_comparison_is_zero(self):
        model = random_model(seed=3)
        stats = pointwise_errors(model, as_callable(model), grid_shape=15)
        assert stats.max_error < 1e-12

    def test_max_dominates_rms(self):
        model = random_model(seed=5)
        rng = np.random.default_rng(8)

        def noisy(coords):
            return as_callable(model)(coords) + rng.normal(
                size=(coords.shape[0], 1)
            )

        stats = pointwise_errors(model, noisy, grid_shape=12)
        assert stats.max_error >= stats.rms_error > 0

    def test_roi_localizes_error(self):
        model = random_model(seed=7)
        base = as_callable(model)

        def bumped(coords):
            out = base(coords)
            inside = (coords[:, 0] > 2.0) & (coords[:, 1] > 3.0)
            out[inside] += 5.0
            return out

        clean = pointwise_errors(
            model,
            bumped,
            roi=RegionOfInterest((-2.0, 1.0), (1.5, 2.5)),
            grid_shape=25,
        )
        dirty = pointwise_errors(
            model,
            bumped,
            roi=RegionOfInterest((2.2, 3.2), (2.9, 3.9)),
            grid_shape=25,
        )
        assert clean.max_error < 1e-12
        assert dirty.max_error == pytest.approx(5.0, rel=1e-12)

    def test_roi_outside_box_rejected(self):
        model = random_model()
        roi = RegionOfInterest((-2.0, 0.0), (3.5, 2.0))
        with pytest.raises(ValueError, match="outside"):
            pointwise_errors(model, as_callable(model), roi=roi)

    def test_roi_dimension_mismatch(self):
        model = random_model()
        roi = RegionOfInterest((0.0,), (1.0,))
        with pytest.raises(ValueError, match="dimensional"):
            pointwise_errors(model, as_callable(model), roi=roi)

    def test_grid_shape_tuple(self):
        model = random_model()
        stats = pointwise_errors(model, as_callable(model), grid_shape=(4, 9))
        assert stats.num_samples == 36

    def test_grid_shape_wrong_length(self):
        model = random_model()
        with pytest.raises(ValueError, match="grid counts"):
            pointwise_errors(model, as_callable(model), grid_shape=(4, 9, 2))

    def test_grid_shape_too_small(self):
        model = random_model()
        with pytest.raises(ValueError, match="at least 2"):
            pointwise_errors(model, as_callable(model), grid_shape=1)

    def test_reference_component_mismatch(self):
        model = random_model()
        with pytest.raises(ValueError, match="components"):
            pointwise_errors(
                model,
                lambda c: np.zeros((c.shape[0], 3)),
                grid_shape=4,
            )

    def test_default_grid_density(self):
        model = random_model()
        stats = pointwise_errors(model, as_callable(model))
        assert stats.num_samples == 512 * 512

    def test_grid_without_roi_is_resample_grid(self):
        # without a region both lay out the same grid on the model's box
        box = ((-4.0 * np.pi, 4.0 * np.pi), (0.1, 0.7))
        model = random_model(seed=4, n=7, p=3, box=box)

        def reference(coords):
            return np.sin(coords[:, 0]) * np.cos(3.0 * coords[:, 1])

        for shape in ((2, 2), (37, 23), (101, 64)):
            stats = pointwise_errors(model, reference, grid_shape=shape)
            axes, values = resample_grid(model, shape)
            diff = values.reshape(-1) - reference(grid_points(axes))
            flat = np.abs(diff)
            assert stats.num_samples == flat.size
            assert stats.max_error == float(flat.max())
            assert stats.rms_error == float(np.sqrt(np.mean(flat**2)))


class TestPointwiseErrorsCloud:
    def test_known_offset_at_cloud_points(self):
        model = random_model(seed=11)
        rng = np.random.default_rng(2)
        coords = rng.uniform([-2.0, 1.0], [3.0, 4.0], size=(100, 2))
        params = (coords - model.bbox_min) / (model.bbox_max - model.bbox_min)
        truth = eval_model_many(model, params)
        cloud = PointCloud(coords, truth + 0.5)
        stats = pointwise_errors(model, cloud)
        assert stats.max_error == pytest.approx(0.5, rel=1e-12)
        assert stats.rms_error == pytest.approx(0.5, rel=1e-12)
        assert stats.num_samples == 100

    def test_roi_filters_points(self):
        model = random_model(seed=11)
        coords = np.array([[0.0, 2.0], [2.5, 3.5], [-1.0, 1.5]])
        params = (coords - model.bbox_min) / (model.bbox_max - model.bbox_min)
        truth = eval_model_many(model, params)
        cloud = PointCloud(coords, truth + 1.0)
        roi = RegionOfInterest((2.0, 3.0), (3.0, 4.0))
        stats = pointwise_errors(model, cloud, roi=roi)
        assert stats.num_samples == 1

    def test_empty_roi_rejected(self):
        model = random_model(seed=11)
        cloud = PointCloud([[0.0, 2.0], [2.5, 3.5]], [0.0, 1.0])
        roi = RegionOfInterest((1.0, 2.0), (1.5, 2.5))
        with pytest.raises(ValueError, match="no sample points"):
            pointwise_errors(model, cloud, roi=roi)

    def test_points_outside_model_box_are_skipped(self):
        model = random_model(seed=11)
        coords = np.array([[0.0, 2.0], [10.0, 10.0]])
        cloud = PointCloud(coords, [0.0, 0.0])
        stats = pointwise_errors(model, cloud)
        assert stats.num_samples == 1

    def test_dimension_mismatch(self):
        model = random_model()
        cloud = PointCloud([[0.0], [1.0]], [0.0, 1.0])
        with pytest.raises(ValueError, match="dimension"):
            pointwise_errors(model, cloud)


def corner_void_cloud(count=1500, seed=13):
    """Uniform cloud on the unit square minus the upper-right quadrant."""
    rng = np.random.default_rng(seed)
    pts = []
    while sum(len(p) for p in pts) < count:
        cand = rng.uniform(size=(count, 2))
        keep = ~((cand[:, 0] > 0.5) & (cand[:, 1] > 0.5))
        pts.append(cand[keep])
    coords = np.concatenate(pts)[:count]
    values = np.sin(coords[:, 0]) + coords[:, 1]
    return PointCloud(coords, values, (0.0, 0.0), (1.0, 1.0))


class TestLambdaField:
    def test_matches_system_arrays(self):
        cloud = corner_void_cloud()
        config = FitConfig(degree=2, shape=(8, 8), threshold=4.0, orders=(2,))
        system = assemble_system(cloud, config)
        field = lambda_field(system)
        assert field.shape == (8, 8)
        assert field.maximizers.shape == (64, 2)
        assert_array_equal(field.lambdas, system.lambdas)
        assert_array_equal(field.data_col_sums, system.data_col_sums)
        assert_array_equal(field.penalty_col_sums, system.penalty_col_sums)

    def test_row_major_maximizer_layout(self):
        cloud = corner_void_cloud()
        config = FitConfig(degree=2, shape=(5, 6), threshold=1.0, orders=(2,))
        system = assemble_system(cloud, config)
        field = lambda_field(system)
        # index i = a*6 + b pairs axis-0 maximizer a with axis-1 maximizer b
        for i in (0, 7, 29):
            a, b = divmod(i, 6)
            assert field.maximizers[i, 0] == system.maximizer_axes[0][a]
            assert field.maximizers[i, 1] == system.maximizer_axes[1][b]

    def test_weights_agree_with_direct_recomputation(self):
        cloud = corner_void_cloud()
        config = FitConfig(degree=2, shape=(8, 8), threshold=4.0, orders=(2,))
        system = assemble_system(cloud, config)
        field = lambda_field(system)
        lam, _, _, _ = compute_lambdas(system.collocation, system.penalty, 4.0)
        assert_allclose(field.lambdas, lam, rtol=0, atol=0)

    def test_positive_weights_sit_in_the_void(self):
        cloud = corner_void_cloud()
        config = FitConfig(degree=2, shape=(10, 10), threshold=3.0, orders=(2,))
        system = assemble_system(cloud, config)
        field = lambda_field(system)
        positive = field.lambdas > 0
        maximizers = field.maximizers
        # deep inside the empty quadrant every control point is starved
        deep_void = (maximizers[:, 0] > 0.75) & (maximizers[:, 1] > 0.75)
        assert deep_void.any() and positive[deep_void].all()
        # well inside the data-covered region nothing is penalized (the
        # exact corner is excluded: its basis support is a single tiny cell)
        covered = np.all((maximizers > 0.05) & (maximizers < 0.3), axis=1)
        assert covered.any() and not positive[covered].any()
        # and the characterization is exact
        assert_array_equal(positive, field.data_col_sums < 3.0)

    def test_copies_are_independent(self):
        cloud = corner_void_cloud()
        config = FitConfig(degree=2, shape=(5, 5), threshold=1.0, orders=(2,))
        system = assemble_system(cloud, config)
        field = lambda_field(system)
        field.lambdas[0] = 123.0
        assert system.lambdas[0] != 123.0
