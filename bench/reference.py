"""Reference computations made apart from scatterspline, for the checks.

Everything here is built from SciPy's own B-spline code (BSpline,
NdBSpline) and plain sparse products, so a check compares the program with
an independent computation, not with itself.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import sparse
from scipy.interpolate import BSpline, NdBSpline
from scipy.optimize import brentq


def clamped_knots(n, p):
    """Uniform clamped knot vector with n basis functions of degree p."""
    interior = np.linspace(0.0, 1.0, n - p + 1)[1:-1]
    return np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])


def collocation(params, knots, p):
    """Row-wise tensor product of BSpline.design_matrix, one factor per axis."""
    m, d = params.shape
    weights = np.ones((m, 1))
    cols = np.zeros((m, 1), dtype=np.int64)
    for k in range(d):
        factor = BSpline.design_matrix(params[:, k], knots[k], p).tocsr()
        n_k = len(knots[k]) - p - 1
        w = factor.data.reshape(m, p + 1)
        c = factor.indices.reshape(m, p + 1).astype(np.int64)
        weights = (weights[:, :, None] * w[:, None, :]).reshape(m, -1)
        cols = (cols[:, :, None] * n_k + c[:, None, :]).reshape(m, -1)
    local = weights.shape[1]
    n_tot = int(np.prod([len(t) - p - 1 for t in knots]))
    indptr = np.arange(0, m * local + 1, local)
    return sparse.csr_matrix((weights.ravel(), cols.ravel(), indptr), shape=(m, n_tot))


def maximizers(knots, p, samples=2001):
    """Maximizer of each basis function: a root of its derivative, by brentq.

    The root is bracketed by the samples around the largest sampled value;
    the end functions peak at the clamped ends.
    """
    n = len(knots) - p - 1
    out = np.empty(n)
    out[0], out[-1] = 0.0, 1.0
    for j in range(1, n - 1):
        element = BSpline.basis_element(knots[j : j + p + 2], extrapolate=False)
        grid = np.linspace(knots[j], knots[j + p + 1], samples)
        i = int(np.argmax(element(grid)))
        slope = element.derivative()
        out[j] = brentq(slope, grid[i - 1], grid[i + 1], xtol=1e-15)
    return out


def derivative_multi_indices(d, orders):
    """Penalty blocks: grouped by total order, earlier axes higher first."""
    out = []
    for total in sorted(orders):
        group = [o for o in itertools.product(range(total + 1), repeat=d) if sum(o) == total]
        out.extend(sorted(group, reverse=True))
    return out


def penalty(knots, p, points, deltas):
    """Stacked Kronecker blocks of basis derivatives at the given points."""
    blocks = []
    for delta in deltas:
        block = None
        for t, at, order in zip(knots, points, delta):
            n = len(t) - p - 1
            spline = BSpline(t, np.eye(n), p)
            values = spline.derivative(order)(at) if order else spline(at)
            factor = sparse.csr_matrix(values)
            block = factor if block is None else sparse.kron(block, factor, format="csr")
        blocks.append(block)
    return sparse.vstack(blocks, format="csr")


def normal_residual(N, M, lambdas, controls, values):
    """Relative residual of the regularized normal equations, per value column.

    ||N^T N c + (M L)^T (M L) c - N^T v|| / ||N^T v||, from sparse
    matrix-vector products only.
    """
    rhs = N.T @ values
    scaled = lambdas[:, None] * controls
    lhs = N.T @ (N @ controls) + lambdas[:, None] * (M.T @ (M @ scaled))
    return np.linalg.norm(lhs - rhs, axis=0) / np.linalg.norm(rhs, axis=0)


def evaluate(knots, p, controls, params):
    """Spline values at parameter points by scipy.interpolate.NdBSpline."""
    shape = tuple(len(t) - p - 1 for t in knots)
    spline = NdBSpline(tuple(knots), controls.reshape(shape + (-1,)), p)
    return spline(params)


def grid_points(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def polysinc(x, y):
    """sinc(x^2 + y^2) sinc(2 (x-2)^2 + (y+2)^2) with sinc(t) = sin(t)/t."""
    return np.sinc((x**2 + y**2) / np.pi) * np.sinc(
        (2.0 * (x - 2.0) ** 2 + (y + 2.0) ** 2) / np.pi
    )


def max_diff(a, b):
    """Largest absolute difference of two dense or sparse arrays."""
    if sparse.issparse(a) or sparse.issparse(b):
        diff = sparse.csr_matrix(a) - sparse.csr_matrix(b)
        return float(abs(diff).max()) if diff.nnz else 0.0
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))
