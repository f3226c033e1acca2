"""Tests for the B-spline basis layer.

Expected values for the hand-checkable cases are frozen literals; everything
else is checked against independent oracles (dense grid scan, naive full-sum
evaluation, central finite differences) implemented here in plain numpy.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import BSpline
from scipy.optimize import brentq

from scatterspline import bsplines
from scatterspline.bsplines import (
    _EVAL_BLOCK,
    IndexSet,
    KnotVector,
    SplineModel,
    basis_derivative_single,
    basis_derivatives,
    basis_derivatives_many,
    basis_maximizer,
    basis_value_single,
    basis_values,
    basis_values_many,
    eval_model,
    eval_model_derivative,
    eval_model_many,
    eval_model_grid,
    find_span,
    grid_points,
    lex_rank,
    lex_unrank,
    tensor_basis_rows,
    uniform_clamped_knots,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def grid_argmax(kv, j, num=1_000_000):
    """Dense grid scan over the support of basis function j."""
    a = float(kv.knots[j])
    b = float(kv.knots[j + kv.degree + 1])
    u = np.linspace(a, b, num)
    vals, first = basis_values_many(kv, u)
    col = j - first
    y = np.zeros(num)
    mask = (col >= 0) & (col <= kv.degree)
    y[mask] = vals[mask, col[mask]]
    return u[np.argmax(y)]


def naive_eval(model, u):
    """Sum over ALL basis functions, ignoring local support."""
    iset = IndexSet(model.shape)
    acc = np.zeros(model.controls.shape[1])
    for i in range(iset.n_tot):
        alpha = lex_unrank(iset, i)
        w = 1.0
        for k in range(model.d):
            w *= basis_value_single(model.knot_vectors[k], alpha[k], u[k])
        acc += w * model.controls[i]
    return acc


def fd_next_row(kv, u, row, h=1e-5):
    """Central finite difference of analytic derivative row `row` at u."""
    lo, first_lo = basis_derivatives(kv, u - h, row)
    hi, first_hi = basis_derivatives(kv, u + h, row)
    assert first_lo == first_hi, "stencil must not straddle a knot"
    return (hi[row] - lo[row]) / (2.0 * h), first_lo


def interior_params(kv, rng, count, margin=1e-3):
    """Random parameters at least `margin` away from every knot."""
    out = []
    while len(out) < count:
        u = rng.uniform(0.0, 1.0)
        if np.min(np.abs(kv.knots - u)) > margin:
            out.append(u)
    return np.array(out)


# ---------------------------------------------------------------------------
# knot vectors
# ---------------------------------------------------------------------------

class TestKnotConstruction:
    def test_single_interior_knot(self):
        kv = uniform_clamped_knots(3, 1)
        np.testing.assert_allclose(kv.knots, [0.0, 0.0, 0.5, 1.0, 1.0], rtol=0, atol=0)
        assert kv.n == 3

    def test_bezier_case(self):
        kv = uniform_clamped_knots(3, 2)
        np.testing.assert_allclose(kv.knots, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0], rtol=0, atol=0)

    def test_two_interior_knots(self):
        kv = uniform_clamped_knots(5, 2)
        np.testing.assert_allclose(
            kv.knots, [0.0, 0.0, 0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0, 1.0, 1.0], rtol=1e-15
        )

    def test_too_few_basis_functions(self):
        with pytest.raises(ValueError):
            uniform_clamped_knots(2, 2)

    def test_rejects_unclamped(self):
        with pytest.raises(ValueError):
            KnotVector(1, [0.0, 0.1, 0.5, 1.0, 1.0])

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            KnotVector(1, [0.0, 0.0, 0.6, 0.4, 1.0, 1.0])

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="knots must be finite"):
                KnotVector(1, [0.0, 0.0, bad, 1.0, 1.0])

    def test_caller_array_stays_writable(self):
        knots = np.array([0.0, 0.0, 0.5, 1.0, 1.0])
        kv = KnotVector(1, knots)
        knots[2] = 0.25
        assert kv.knots[2] == 0.5
        assert not kv.knots.flags.writeable


# ---------------------------------------------------------------------------
# span lookup
# ---------------------------------------------------------------------------

class TestFindSpan:
    def test_interior(self):
        kv = KnotVector(1, [0.0, 0.0, 0.5, 1.0, 1.0])
        assert find_span(kv, 0.25) == 1

    def test_right_endpoint(self):
        kv = KnotVector(1, [0.0, 0.0, 0.5, 1.0, 1.0])
        assert find_span(kv, 1.0) == 2

    def test_single_interval(self):
        kv = KnotVector(2, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        assert find_span(kv, 0.7) == 2

    def test_out_of_domain(self):
        kv = uniform_clamped_knots(4, 2)
        with pytest.raises(ValueError):
            find_span(kv, -0.1)
        with pytest.raises(ValueError):
            find_span(kv, 1.1)

    @given(st.integers(1, 5), st.integers(0, 8), st.floats(0.0, 1.0))
    def test_span_brackets_parameter(self, p, extra, u):
        kv = uniform_clamped_knots(p + 1 + extra, p)
        s = find_span(kv, u)
        assert kv.degree <= s <= kv.n - 1
        assert kv.knots[s] <= u
        if u < 1.0:
            assert u < kv.knots[s + 1]
        assert kv.knots[s] < kv.knots[s + 1]


# ---------------------------------------------------------------------------
# basis values
# ---------------------------------------------------------------------------

class TestBasisValues:
    def test_hat_functions(self):
        kv = KnotVector(1, [0.0, 0.0, 0.5, 1.0, 1.0])
        vals, first = basis_values(kv, 0.25)
        assert first == 0
        np.testing.assert_allclose(vals, [0.5, 0.5], atol=1e-15)

    def test_left_end_interpolates(self):
        for n, p in [(3, 1), (5, 2), (7, 3)]:
            kv = uniform_clamped_knots(n, p)
            vals, first = basis_values(kv, 0.0)
            assert first == 0
            np.testing.assert_allclose(vals[0], 1.0, atol=1e-15)
            np.testing.assert_allclose(vals[1:], 0.0, atol=1e-15)

    def test_bernstein_midpoint(self):
        kv = KnotVector(2, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        vals, first = basis_values(kv, 0.5)
        assert first == 0
        np.testing.assert_allclose(vals, [0.25, 0.5, 0.25], atol=1e-15)

    def test_many_matches_scalar(self):
        # the array kernel runs the scalar recursion's arithmetic, so every
        # derivative order must agree exactly, at knots and at 0 and 1 too
        rng = np.random.default_rng(12)
        for p in range(1, 6):
            nonuniform = KnotVector(
                p, [0.0] * (p + 1) + [0.05, 0.3, 0.31, 0.7] + [1.0] * (p + 1)
            )
            for kv in (uniform_clamped_knots(p + 6, p), nonuniform):
                us = np.concatenate(
                    [np.linspace(0.0, 1.0, 57), kv.knots, rng.uniform(size=20)]
                )
                vals, first = basis_values_many(kv, us)
                for order in range(p + 1):
                    ders, first_many = basis_derivatives_many(kv, us, order)
                    np.testing.assert_array_equal(first_many, first)
                    for i, u in enumerate(us):
                        ref, f = basis_derivatives(kv, u, order)
                        assert f == first[i]
                        np.testing.assert_array_equal(ders[:, i], ref)
                for i, u in enumerate(us):
                    np.testing.assert_array_equal(vals[i], basis_values(kv, u)[0])

    @given(st.integers(1, 5), st.integers(0, 8), st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_partition_of_unity(self, p, extra, u):
        kv = uniform_clamped_knots(p + 1 + extra, p)
        vals, _ = basis_values(kv, u)
        assert abs(vals.sum() - 1.0) < 1e-12
        assert np.all(vals >= -1e-15)

    @given(st.integers(1, 4), st.sets(st.integers(1, 999), min_size=1, max_size=8),
           st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_partition_of_unity_nonuniform(self, p, interior, u):
        knots = [0.0] * (p + 1) + sorted(v / 1000.0 for v in interior) + [1.0] * (p + 1)
        kv = KnotVector(p, knots)
        vals, _ = basis_values(kv, u)
        assert abs(vals.sum() - 1.0) < 1e-12
        assert np.all(vals >= -1e-15)

    def test_local_support(self):
        kv = uniform_clamped_knots(7, 2)
        for j in range(kv.n):
            a, b = kv.knots[j], kv.knots[j + kv.degree + 1]
            for u in np.linspace(0.0, 1.0, 41):
                if u < a or u > b:
                    assert basis_value_single(kv, j, u) == 0.0


# ---------------------------------------------------------------------------
# basis derivatives
# ---------------------------------------------------------------------------

class TestBasisDerivatives:
    def test_hat_slopes(self):
        kv = KnotVector(1, [0.0, 0.0, 0.5, 1.0, 1.0])
        ders, first = basis_derivatives(kv, 0.25, 1)
        assert first == 0
        np.testing.assert_allclose(ders[0], [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(ders[1], [-2.0, 2.0], atol=1e-13)

    def test_order_zero_matches_values(self):
        kv = uniform_clamped_knots(6, 3)
        for u in [0.0, 0.31, 0.77, 1.0]:
            ders, f1 = basis_derivatives(kv, u, 0)
            vals, f2 = basis_values(kv, u)
            assert f1 == f2
            np.testing.assert_allclose(ders[0], vals, atol=0)

    def test_bernstein_second_derivatives(self):
        kv = KnotVector(2, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        ders, _ = basis_derivatives(kv, 0.5, 2)
        np.testing.assert_allclose(ders[0], [0.25, 0.5, 0.25], atol=1e-15)
        np.testing.assert_allclose(ders[1], [-1.0, 0.0, 1.0], atol=1e-13)
        np.testing.assert_allclose(ders[2], [2.0, -4.0, 2.0], atol=1e-12)

    def test_order_above_degree_rejected(self):
        kv = uniform_clamped_knots(5, 2)
        with pytest.raises(ValueError):
            basis_derivatives(kv, 0.5, 3)

    @given(st.integers(1, 5), st.integers(0, 6), st.floats(0.0, 1.0),
           st.integers(1, 5))
    @settings(max_examples=200)
    def test_derivative_rows_sum_to_zero(self, p, extra, u, r):
        kv = uniform_clamped_knots(p + 1 + extra, p)
        r = min(r, p)
        ders, _ = basis_derivatives(kv, u, r)
        for k in range(1, r + 1):
            assert abs(ders[k].sum()) < 1e-10 * max(1.0, np.abs(ders[k]).max())

    def test_first_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(20260822)
        for n, p in [(4, 1), (6, 2), (9, 3), (12, 4)]:
            kv = uniform_clamped_knots(n, p)
            for u in interior_params(kv, rng, 25):
                ders, first = basis_derivatives(kv, u, 1)
                fd, fd_first = fd_next_row(kv, u, 0)
                assert first == fd_first
                scale = max(1.0, np.abs(ders[1]).max())
                np.testing.assert_allclose(ders[1], fd, atol=1e-6 * scale)

    def test_second_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(9)
        for n, p in [(6, 2), (9, 3), (12, 4)]:
            kv = uniform_clamped_knots(n, p)
            for u in interior_params(kv, rng, 25):
                ders, _ = basis_derivatives(kv, u, 2)
                fd, _ = fd_next_row(kv, u, 1)
                scale = max(1.0, np.abs(ders[2]).max())
                np.testing.assert_allclose(ders[2], fd, atol=1e-6 * scale)


# ---------------------------------------------------------------------------
# basis maximizers
# ---------------------------------------------------------------------------

class TestBasisMaximizer:
    def test_clamped_ends(self):
        kv = uniform_clamped_knots(6, 3)
        assert basis_maximizer(kv, 0) == 0.0
        assert basis_maximizer(kv, 5) == 1.0

    def test_symmetric_interior(self):
        kv = KnotVector(2, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        assert abs(basis_maximizer(kv, 1) - 0.5) < 1e-8

    def test_against_grid_scan(self):
        kv = KnotVector(2, [0.0, 0.0, 0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0, 1.0, 1.0])
        w = basis_maximizer(kv, 1)
        assert abs(w - grid_argmax(kv, 1)) < 1e-6

    def test_against_grid_scan_various(self):
        # smaller grids here; the million-point case above pins the contract
        for n, p in [(5, 1), (7, 2), (8, 3), (10, 4)]:
            kv = uniform_clamped_knots(n, p)
            for j in range(n):
                w = basis_maximizer(kv, j)
                ref = grid_argmax(kv, j, num=200_001)
                assert abs(w - ref) < 1e-4, (n, p, j)

    def test_out_of_range(self):
        kv = uniform_clamped_knots(4, 2)
        with pytest.raises(IndexError):
            basis_maximizer(kv, 4)

    def test_within_tolerance_of_derivative_root(self):
        # the documented 1e-10 from the root of the basis derivative
        for n, p in [(12, 3), (48, 4), (12, 2), (10, 5), (7, 1)]:
            kv = uniform_clamped_knots(n, p)
            for j in range(1, n - 1):
                coeffs = np.zeros(n)
                coeffs[j] = 1.0
                slope = BSpline(kv.knots, coeffs, p).derivative()
                a, b = kv.knots[j], kv.knots[j + p + 1]
                # from degree 2 on the slope also vanishes at the support ends
                margin = 1e-3 * (b - a)
                root = brentq(slope, a + margin, b - margin)
                assert abs(basis_maximizer(kv, j) - root) <= 1e-10, (n, p, j)

    def test_stationary_or_endpoint(self):
        eps = 1e-6
        for n, p in [(6, 2), (9, 3)]:
            kv = uniform_clamped_knots(n, p)
            for j in range(n):
                w = basis_maximizer(kv, j)
                a, b = kv.knots[j], kv.knots[j + p + 1]
                if w - a < 1e-8 or b - w < 1e-8:
                    continue
                left = basis_derivative_single(kv, j, w - eps, 1)
                right = basis_derivative_single(kv, j, w + eps, 1)
                assert left >= -1e-4 and right <= 1e-4


# ---------------------------------------------------------------------------
# lexicographic indexing
# ---------------------------------------------------------------------------

class TestLexOrdering:
    def test_first_element(self):
        assert lex_rank(IndexSet((2, 3)), (0, 0)) == 0

    def test_last_element(self):
        assert lex_rank(IndexSet((2, 3)), (1, 2)) == 5

    def test_1d_identity(self):
        assert lex_rank(IndexSet((4,)), (2,)) == 2

    def test_last_dimension_fastest(self):
        iset = IndexSet((2, 3))
        ranks = [lex_rank(iset, a) for a in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]]
        assert ranks == [0, 1, 2, 3, 4, 5]

    def test_out_of_range(self):
        iset = IndexSet((2, 3))
        with pytest.raises(IndexError):
            lex_rank(iset, (2, 0))
        with pytest.raises(IndexError):
            lex_unrank(iset, 6)

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=3), st.data())
    def test_rank_unrank_round_trip(self, shape, data):
        iset = IndexSet(tuple(shape))
        i = data.draw(st.integers(0, iset.n_tot - 1))
        assert lex_rank(iset, lex_unrank(iset, i)) == i
        alpha = tuple(data.draw(st.integers(0, nk - 1)) for nk in shape)
        assert lex_unrank(iset, lex_rank(iset, alpha)) == alpha


# ---------------------------------------------------------------------------
# model evaluation
# ---------------------------------------------------------------------------

def random_model(rng, shape, p, num_values=1):
    kvs = tuple(uniform_clamped_knots(nk, p) for nk in shape)
    n_tot = int(np.prod(shape))
    controls = rng.standard_normal((n_tot, num_values))
    d = len(shape)
    return SplineModel(kvs, controls, np.zeros(d), np.ones(d))


class TestModelEvaluation:
    def test_constant_model(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, (5, 4), 2)
        model = SplineModel(
            model.knot_vectors,
            np.full((20, 1), 3.25),
            model.bbox_min,
            model.bbox_max,
        )
        for u in rng.uniform(0, 1, size=(20, 2)):
            np.testing.assert_allclose(eval_model(model, u), [3.25], atol=1e-13)

    def test_corner_returns_first_control(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, (4, 5), 3, num_values=2)
        np.testing.assert_allclose(
            eval_model(model, (0.0, 0.0)), model.controls[0], atol=1e-15
        )

    def test_matches_naive_full_sum(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, (6, 5), 2, num_values=2)
        for u in rng.uniform(0, 1, size=(100, 2)):
            got = eval_model(model, u)
            np.testing.assert_allclose(got, naive_eval(model, u), atol=1e-12)

    def test_domain_error(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, (4, 4), 2)
        with pytest.raises(ValueError):
            eval_model(model, (0.5, 1.2))

    def test_3d_model(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, (4, 3, 5), 2)
        for u in rng.uniform(0, 1, size=(10, 3)):
            np.testing.assert_allclose(
                eval_model(model, u), naive_eval(model, u), atol=1e-12
            )

    def test_many_across_block_boundary(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, (5, 4, 6), 3, num_values=2)
        params = rng.uniform(0, 1, size=(_EVAL_BLOCK + 1, 3))
        got = eval_model_many(model, params)
        assert got.shape == (_EVAL_BLOCK + 1, 2)
        sampled = rng.integers(0, _EVAL_BLOCK, 20)
        for i in (0, 1, _EVAL_BLOCK - 1, _EVAL_BLOCK, *sampled):
            np.testing.assert_allclose(
                got[i], eval_model(model, params[i]), rtol=1e-14, atol=1e-14
            )


@st.composite
def eval_models(draw):
    """A model with d 1-3, degree 1-5, 1-3 value columns and a few cells."""
    d = draw(st.integers(1, 3))
    p = draw(st.integers(1, 5))
    num_values = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(p + 1, p + 3)) for _ in range(d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kvs = tuple(uniform_clamped_knots(nk, p) for nk in shape)
    controls = rng.uniform(-1.0, 1.0, (int(np.prod(shape)), num_values))
    return SplineModel(kvs, controls, np.zeros(d), np.ones(d)), rng


def knot_heavy_params(model, rng, m):
    """m parameter rows, about half of each column drawn from the knots
    (0, 1 and every interior knot), the rest uniform on [0, 1]."""
    params = rng.uniform(0.0, 1.0, (m, model.d))
    for k, kv in enumerate(model.knot_vectors):
        on_knot = rng.random(m) < 0.5
        params[on_knot, k] = rng.choice(np.unique(kv.knots), on_knot.sum())
    return params


class TestEvalKernelProperties:
    @given(eval_models(), st.sampled_from([0, 1, _EVAL_BLOCK, _EVAL_BLOCK + 1]))
    @settings(max_examples=30, deadline=None)
    def test_many_matches_per_point_and_local_rows(self, case, m):
        model, rng = case
        params = knot_heavy_params(model, rng, m)
        got = eval_model_many(model, params)
        assert got.shape == (m, model.num_values)
        # the collocation rows give an independent route to the same sums
        w, cols = tensor_basis_rows(model.knot_vectors, params)
        rows = np.einsum("ml,mlv->mv", w, model.controls[cols])
        np.testing.assert_allclose(got, rows, rtol=1e-14, atol=1e-14)
        picked = {0, 1, _EVAL_BLOCK - 1, _EVAL_BLOCK, m - 1, *rng.integers(0, max(m, 1), 8)}
        for i in sorted(i for i in picked if 0 <= i < m):
            np.testing.assert_allclose(
                got[i], eval_model(model, params[i]), rtol=1e-14, atol=1e-14
            )

    @given(eval_models())
    @settings(max_examples=30, deadline=None)
    def test_many_matches_grid(self, case):
        model, rng = case
        axes = [
            np.unique(np.concatenate([kv.knots, rng.uniform(0.0, 1.0, 3)]))
            for kv in model.knot_vectors
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([g.ravel() for g in mesh], axis=1)
        grid = eval_model_grid(model, axes).reshape(-1, model.num_values)
        np.testing.assert_allclose(
            eval_model_many(model, points), grid, rtol=1e-14, atol=1e-14
        )

    def test_grid_keeps_shape_for_empty_and_single_axes(self):
        kvs = (uniform_clamped_knots(5, 2), uniform_clamped_knots(4, 2))
        controls = np.arange(40.0).reshape(20, 2)
        model = SplineModel(kvs, controls, np.zeros(2), np.ones(2))
        for axes, shape in (
            ([[], [0.5]], (0, 1, 2)),
            ([[0.25], []], (1, 0, 2)),
            ([[0.25], [0.0, 1.0]], (1, 2, 2)),
        ):
            grid = eval_model_grid(model, axes)
            assert grid.shape == shape
            np.testing.assert_allclose(
                grid.reshape(-1, 2), eval_model_many(model, grid_points(axes)),
                rtol=1e-14, atol=1e-14,
            )

    def test_grid_rejects_parameters_outside_unit_interval(self):
        kv = uniform_clamped_knots(5, 2)
        model = SplineModel((kv, kv), np.zeros((25, 1)), np.zeros(2), np.ones(2))
        for axes in ([[0.5], [1.5]], [[-1e-9, 0.5], [0.5]]):
            with pytest.raises(ValueError, match=r"parameters outside \[0, 1\]"):
                eval_model_grid(model, axes)

    def test_grid_points_follow_grid_order(self):
        axes = [np.array([0.0, 0.5]), np.array([0.1, 0.2, 0.3]), np.array([1.0, 0.25])]
        points = grid_points(axes)
        assert points.shape == (12, 3)
        for i, row in enumerate(points):
            index = np.unravel_index(i, (2, 3, 2))
            np.testing.assert_array_equal(row, [ax[k] for ax, k in zip(axes, index)])

    @given(eval_models())
    @settings(max_examples=15, deadline=None)
    def test_malformed_params_rejected(self, case):
        model, rng = case
        d = model.d
        good = rng.uniform(0.0, 1.0, (5, d))
        bad = [
            rng.uniform(0.0, 1.0, (5, d + 1)),
            np.zeros((0, d + 1)),
            good[:, 0],
            good[None],
        ]
        for value in (-1e-12, 1.0 + 1e-12, np.nan):
            out = good.copy()
            out[3, d - 1] = value
            bad.append(out)
        for params in bad:
            with pytest.raises(ValueError):
                eval_model_many(model, params)


class TestParallelEvaluation:
    """Blocks of rows run on one thread per CPU; the CPU count is patched."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_column_sums_like_a_one_column_model(self, d):
        rng = np.random.default_rng(40 + d)
        model = random_model(rng, (6,) * d, 3, num_values=3)
        single = SplineModel(
            model.knot_vectors, model.controls[:, :1], model.bbox_min, model.bbox_max
        )
        params = knot_heavy_params(model, rng, 3000)
        np.testing.assert_array_equal(
            eval_model_many(model, params)[:, 0], eval_model_many(single, params)[:, 0]
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bits_do_not_depend_on_cpu_count(self, d, monkeypatch):
        rng = np.random.default_rng(50 + d)
        model = random_model(rng, (5,) * d, 2, num_values=2)
        params = knot_heavy_params(model, rng, 3 * _EVAL_BLOCK + 5)
        expected = eval_model_many(model, params)
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(bsplines, "_worker_count", lambda: workers)
            for m in (0, 1, _EVAL_BLOCK - 1, _EVAL_BLOCK, _EVAL_BLOCK + 1, len(params)):
                got = eval_model_many(model, params[:m])
                assert got.shape == (m, 2)
                np.testing.assert_array_equal(got, expected[:m])

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_bad_parameter_in_last_block_raises(self, workers, monkeypatch):
        monkeypatch.setattr(bsplines, "_worker_count", lambda: workers)
        rng = np.random.default_rng(60)
        model = random_model(rng, (5, 5), 2)
        params = rng.uniform(0.0, 1.0, (2 * _EVAL_BLOCK + 3, 2))
        params[-1, 1] = 1.0 + 1e-12
        with pytest.raises(ValueError, match="outside"):
            eval_model_many(model, params)

    def test_map_runs_inline_on_one_cpu_and_keeps_item_order(self, monkeypatch):
        def where(item):
            return item, threading.get_ident()

        monkeypatch.setattr(bsplines, "_worker_count", lambda: 1)
        assert bsplines._map_parallel(where, range(5)) == [
            (i, threading.get_ident()) for i in range(5)
        ]
        monkeypatch.setattr(bsplines, "_worker_count", lambda: 3)
        assert [item for item, _ in bsplines._map_parallel(where, range(50))] == list(
            range(50)
        )


class TestSplineModelInput:
    def test_rejects_non_finite_controls_and_box(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, (4, 4), 2)
        controls = model.controls.copy()
        controls[5, 0] = np.inf
        with pytest.raises(ValueError, match="controls must be finite"):
            SplineModel(model.knot_vectors, controls, model.bbox_min, model.bbox_max)
        with pytest.raises(ValueError, match="bbox_min must be finite"):
            SplineModel(model.knot_vectors, model.controls, [np.nan, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="bbox_max must be finite"):
            SplineModel(model.knot_vectors, model.controls, [0.0, 0.0], [1.0, np.inf])

    def test_caller_arrays_stay_writable(self):
        rng = np.random.default_rng(8)
        kvs = (uniform_clamped_knots(4, 2),) * 2
        controls = rng.standard_normal((16, 1))
        lo, hi = np.zeros(2), np.ones(2)
        model = SplineModel(kvs, controls, lo, hi)
        controls[3, 0] = 7.0
        lo[0] = -1.0
        assert model.controls[3, 0] != 7.0 and model.bbox_min[0] == 0.0
        assert not model.controls.flags.writeable


class TestModelDerivatives:
    def test_zeroth_matches_eval(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, (5, 5), 2)
        for u in rng.uniform(0, 1, size=(10, 2)):
            np.testing.assert_allclose(
                eval_model_derivative(model, u, (0, 0)), eval_model(model, u), atol=0
            )

    def test_constant_has_zero_derivative(self):
        kvs = (uniform_clamped_knots(5, 2), uniform_clamped_knots(4, 2))
        model = SplineModel(kvs, np.full((20, 1), 7.0), np.zeros(2), np.ones(2))
        for delta in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            got = eval_model_derivative(model, (0.4, 0.6), delta)
            np.testing.assert_allclose(got, [0.0], atol=1e-10)

    def test_matches_finite_difference_1d(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, (8,), 3)
        kv = model.knot_vectors[0]
        h = 1e-5
        for u in interior_params(kv, rng, 40):
            an = eval_model_derivative(model, (u,), (1,))
            fd = (eval_model(model, (u + h,)) - eval_model(model, (u - h,))) / (2 * h)
            np.testing.assert_allclose(an, fd, rtol=1e-6, atol=1e-8)

    def test_order_above_degree_rejected(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, (5, 5), 2)
        with pytest.raises(ValueError):
            eval_model_derivative(model, (0.5, 0.5), (3, 0))

    def test_mixed_partial_symmetry(self):
        # d2/dudv computed as (du then dv) must equal dv of du numerically
        rng = np.random.default_rng(10)
        model = random_model(rng, (6, 6), 3)
        h = 1e-5
        u = (0.413, 0.719)
        an = eval_model_derivative(model, u, (1, 1))
        fd = (
            eval_model_derivative(model, (u[0] + h, u[1]), (0, 1))
            - eval_model_derivative(model, (u[0] - h, u[1]), (0, 1))
        ) / (2 * h)
        np.testing.assert_allclose(an, fd, rtol=1e-6, atol=1e-8)
