"""Clamped B-spline basis evaluation and tensor-product indexing.

Everything here works on the parameter cube [0, 1]^d. A model carries the
affine map back to physical coordinates as a bounding box; all basis math is
done in parameter space.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse

__all__ = [
    "KnotVector",
    "IndexSet",
    "SplineModel",
    "uniform_clamped_knots",
    "find_span",
    "basis_values",
    "basis_values_many",
    "basis_derivatives",
    "basis_derivatives_many",
    "basis_value_single",
    "basis_derivative_single",
    "basis_maximizer",
    "dim_maximizers",
    "lex_rank",
    "lex_unrank",
    "eval_model",
    "eval_model_derivative",
    "eval_model_many",
    "eval_model_grid",
    "tensor_basis_rows",
]

_MAXIMIZER_TOL = 1e-10
# evaluation rows in flight at once, shared out among the worker threads;
# bounds the gathered (rows, (p+1)^d) control windows and basis tables
_EVAL_BLOCK = 8192


def _worker_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _map_parallel(func, items) -> list:
    """[func(item) for item in items], on one thread per available CPU.

    Worth it only when func spends its time in native code that releases
    the interpreter lock (NumPy kernels, SciPy's sparse products). The pool
    lives for one call, so no thread outlives it or is inherited by a fork;
    with one worker the items run inline. The first exception raised by
    func, in item order, is raised here.
    """
    items = list(items)
    workers = min(_worker_count(), len(items))
    if workers <= 1:
        return [func(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, items))


def owned_finite(x, name: str) -> np.ndarray:
    """x as a C-contiguous float64 array that shares no memory with x.

    The caller's own array is copied, so freezing the result leaves it
    writable. Raises ValueError naming the field when an entry is NaN or
    infinite.
    """
    arr = np.ascontiguousarray(x, dtype=float)
    if np.may_share_memory(arr, x):
        arr = arr.copy()
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def owned_box(bbox_min, bbox_max, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A bounding box as owned finite arrays, one min < max per dimension."""
    lo = owned_finite(bbox_min, "bbox_min")
    hi = owned_finite(bbox_max, "bbox_max")
    if lo.shape != (d,) or hi.shape != (d,):
        raise ValueError("bounding box must have one (min, max) per dimension")
    if np.any(lo >= hi):
        raise ValueError("bounding box must have min < max in every dimension")
    return lo, hi


@dataclass(frozen=True, eq=False)
class KnotVector:
    """A clamped, nondecreasing knot sequence on [0, 1].

    Parameters
    ----------
    degree : int
        Polynomial degree p of the basis.
    knots : array_like
        Sequence t_0..t_{n+p} with the first and last p+1 entries equal to
        0 and 1 respectively.
    """

    degree: int
    knots: np.ndarray

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        knots = owned_finite(self.knots, "knots")
        if knots.ndim != 1:
            raise ValueError("knots must be a 1-D sequence")
        p = self.degree
        if knots.size < 2 * (p + 1):
            raise ValueError(
                f"need at least {2 * (p + 1)} knots for degree {p}, got {knots.size}"
            )
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be nondecreasing")
        if np.any(knots[: p + 1] != 0.0) or np.any(knots[-(p + 1):] != 1.0):
            raise ValueError("first/last p+1 knots must be clamped to 0 and 1")
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)

    @property
    def n(self) -> int:
        """Number of basis functions."""
        return self.knots.size - self.degree - 1


def uniform_clamped_knots(n: int, p: int) -> KnotVector:
    """Clamped knot vector with n - p - 1 equispaced interior knots.

    Raises
    ------
    ValueError
        If n < p + 1 (not enough basis functions for the degree).
    """
    if p < 0:
        raise ValueError("degree must be nonnegative")
    if n < p + 1:
        raise ValueError(f"basis count {n} too small for degree {p} (need n >= p+1)")
    interior = np.linspace(0.0, 1.0, n - p + 1)[1:-1]
    knots = np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])
    return KnotVector(p, knots)


def find_span(kv: KnotVector, u: float) -> int:
    """Index i of the knot interval with t_i <= u < t_{i+1}.

    u = 1 maps to the last non-degenerate interval so that evaluation at the
    right endpoint never indexes past the clamp.
    """
    u = float(u)
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"parameter {u} outside [0, 1]")
    span = int(np.searchsorted(kv.knots, u, side="right")) - 1
    return min(max(span, kv.degree), kv.n - 1)


def basis_values(kv: KnotVector, u: float) -> tuple[np.ndarray, int]:
    """Values of the p+1 basis functions that are nonzero at u.

    Returns
    -------
    values : ndarray, shape (p+1,)
        N_{first}, ..., N_{first+p} evaluated at u.
    first : int
        Index of the first locally supported basis function (span - p).
    """
    ders, first = basis_derivatives(kv, u, 0)
    return ders[0], first


def basis_values_many(kv: KnotVector, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`basis_values` over a 1-D array of parameters.

    Returns the (m, p+1) value table and the (m,) array of first indices.
    """
    ders, first = basis_derivatives_many(kv, u, 0)
    return ders[0], first


def basis_derivatives(kv: KnotVector, u: float, order: int) -> tuple[np.ndarray, int]:
    """Derivatives of the locally supported basis functions at u.

    Parameters
    ----------
    order : int
        Highest derivative order r, 0 <= r <= p. Derivatives above the
        degree are identically zero and are rejected rather than returned.

    Returns
    -------
    ders : ndarray, shape (order+1, p+1)
        Row k holds the k-th derivatives of N_{first}..N_{first+p} at u;
        row 0 holds the basis values.
    first : int
        Index of the first locally supported basis function.

    Notes
    -----
    The NURBS Book's algorithm A2.3 (Piegl & Tiller) on Python floats; it is
    the scalar reference for :func:`basis_derivatives_many`. All divisions are
    by knot differences spanning the non-degenerate interval found by
    :func:`find_span`, so no zero denominators occur.
    """
    p = kv.degree
    if not 0 <= order <= p:
        raise ValueError(f"derivative order {order} outside [0, {p}]")
    span = find_span(kv, u)
    u = float(u)
    t = kv.knots.tolist()

    # triangle of basis values plus the knot differences it divides by
    ndu = [[0.0] * (p + 1) for _ in range(p + 1)]
    left = [0.0] * (p + 1)
    right = [0.0] * (p + 1)
    ndu[0][0] = 1.0
    for j in range(1, p + 1):
        left[j] = u - t[span + 1 - j]
        right[j] = t[span + j] - u
        saved = 0.0
        for r in range(j):
            ndu[j][r] = right[r + 1] + left[j - r]
            temp = ndu[r][j - 1] / ndu[j][r]
            ndu[r][j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j][j] = saved

    ders = [[row[p] for row in ndu]] + [[0.0] * (p + 1) for _ in range(order)]
    a = [[0.0] * (p + 1) for _ in range(2)]
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0][0] = 1.0
        for k in range(1, order + 1):
            der = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2][0] = a[s1][0] / ndu[pk + 1][rk]
                der = a[s2][0] * ndu[rk][pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2][j] = (a[s1][j] - a[s1][j - 1]) / ndu[pk + 1][rk + j]
                der += a[s2][j] * ndu[rk + j][pk]
            if r <= pk:
                a[s2][k] = -a[s1][k - 1] / ndu[pk + 1][r]
                der += a[s2][k] * ndu[r][pk]
            ders[k][r] = der
            s1, s2 = s2, s1

    ders = np.array(ders)
    factor = float(p)
    for k in range(1, order + 1):
        ders[k] *= factor
        factor *= p - k
    return ders, span - p


def basis_derivatives_many(
    kv: KnotVector, u: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`basis_derivatives` over a 1-D array of parameters.

    Returns
    -------
    ders : ndarray, shape (order+1, m, p+1)
        ders[k, i] holds the k-th derivatives of the p+1 basis functions
        that are nonzero at u[i].
    first : ndarray, shape (m,)
        Index of the first of them per parameter.

    Notes
    -----
    The same arithmetic as :func:`basis_derivatives` (algorithms A2.2 and
    A2.3 of The NURBS Book), run on whole columns of parameters at once.
    Derivative order k reads the value table of degree p - k and the knot
    differences of the step after it; only those tables are kept.
    """
    u = np.ascontiguousarray(u, dtype=float)
    if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):
        raise ValueError("parameters outside [0, 1]")
    p = kv.degree
    if not 0 <= order <= p:
        raise ValueError(f"derivative order {order} outside [0, {p}]")
    t = kv.knots
    spans = np.clip(np.searchsorted(t, u, side="right") - 1, p, kv.n - 1)

    # values holds one array per local index at the current degree j;
    # tables[j] and dens[j] keep degree j's values and the knot differences
    # its step divided by, for the degrees the derivatives read
    values = [np.ones(u.size)]
    tables, dens = {0: values}, {}
    left = [None] + [u - t[spans + 1 - j] for j in range(1, p + 1)]
    right = [None] + [t[spans + j] - u for j in range(1, p + 1)]
    for j in range(1, p + 1):
        saved = 0.0
        new, den_j = [], []
        for r in range(j):
            den_j.append(right[r + 1] + left[j - r])
            temp = values[r] / den_j[r]
            new.append(saved + right[r + 1] * temp)
            saved = left[j - r] * temp
        new.append(saved)
        values = new
        if j >= p - order:
            tables[j] = values
            dens[j] = den_j

    ders = np.empty((order + 1, u.size, p + 1))
    for r in range(p + 1):
        ders[0, :, r] = values[r]
        a_prev = [1.0]
        for k in range(1, order + 1):
            rk = r - k
            pk = p - k
            ndu, den = tables[pk], dens[pk + 1]
            a = [0.0] * (k + 1)
            der = 0.0
            if r >= k:
                a[0] = a_prev[0] / den[rk]
                der = a[0] * ndu[rk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[j] = (a_prev[j] - a_prev[j - 1]) / den[rk + j]
                der += a[j] * ndu[rk + j]
            if r <= pk:
                a[k] = -a_prev[k - 1] / den[r]
                der += a[k] * ndu[r]
            ders[k, :, r] = der
            a_prev = a

    factor = float(p)
    for k in range(1, order + 1):
        ders[k] *= factor
        factor *= p - k
    return ders, spans - p


def basis_value_single(kv: KnotVector, j: int, u: float) -> float:
    """Value of basis function j at u (zero outside its support)."""
    values, first = basis_values(kv, u)
    offset = j - first
    if 0 <= offset <= kv.degree:
        return float(values[offset])
    return 0.0


def basis_derivative_single(kv: KnotVector, j: int, u: float, order: int) -> float:
    """order-th derivative of basis function j at u (zero off support)."""
    ders, first = basis_derivatives(kv, u, order)
    offset = j - first
    if 0 <= offset <= kv.degree:
        return float(ders[order, offset])
    return 0.0


def dim_maximizers(kv: KnotVector) -> np.ndarray:
    """Parameter where each basis function of one dimension peaks.

    The end functions peak at the clamped endpoints. Interior functions are
    unimodal on their support [t_j, t_{j+p+1}]; one bisection on the sign of
    their first derivatives locates all of them at once, to absolute
    tolerance 1e-10. Degree-0 functions are flat on one interval; the
    midpoint is returned.
    """
    n, p = kv.n, kv.degree
    j = np.arange(1, n - 1)
    lo = kv.knots[j]
    hi = kv.knots[j + p + 1]
    if p > 0:
        rows = np.arange(j.size)
        while np.any(hi - lo > _MAXIMIZER_TOL):
            mid = 0.5 * (lo + hi)
            ders, first = basis_derivatives_many(kv, mid, 1)
            rising = ders[1, rows, j - first] > 0.0
            lo = np.where(rising, mid, lo)
            hi = np.where(rising, hi, mid)
    out = np.zeros(n)
    out[1:] = 1.0
    out[1:-1] = 0.5 * (lo + hi)
    return out


def basis_maximizer(kv: KnotVector, j: int) -> float:
    """Parameter where basis function j attains its maximum.

    See :func:`dim_maximizers`, which finds them for every j at once.
    """
    if not 0 <= j < kv.n:
        raise IndexError(f"basis index {j} outside [0, {kv.n})")
    return float(dim_maximizers(kv)[j])


@dataclass(frozen=True)
class IndexSet:
    """Per-dimension basis counts with lexicographic ranking.

    Ranks run over {0..n_tot-1} with the LAST dimension varying fastest
    (row-major), matching the layout of control-point matrices.
    """

    shape: tuple[int, ...]

    def __post_init__(self):
        shape = tuple(int(nk) for nk in self.shape)
        if not shape or any(nk < 1 for nk in shape):
            raise ValueError("index set needs at least one positive size per dimension")
        object.__setattr__(self, "shape", shape)

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def n_tot(self) -> int:
        return int(np.prod(self.shape))


def lex_rank(iset: IndexSet, alpha: tuple[int, ...]) -> int:
    """Position of multi-index alpha in row-major lexicographic order."""
    if len(alpha) != iset.d:
        raise IndexError(f"multi-index has {len(alpha)} components, expected {iset.d}")
    for ak, nk in zip(alpha, iset.shape):
        if not 0 <= ak < nk:
            raise IndexError(f"component {ak} outside [0, {nk})")
    return int(np.ravel_multi_index(alpha, iset.shape))


def lex_unrank(iset: IndexSet, i: int) -> tuple[int, ...]:
    """Inverse of :func:`lex_rank`."""
    if not 0 <= i < iset.n_tot:
        raise IndexError(f"rank {i} outside [0, {iset.n_tot})")
    return tuple(int(c) for c in np.unravel_index(i, iset.shape))


@dataclass(frozen=True, eq=False)
class SplineModel:
    """Tensor-product B-spline with lexicographically ordered control points.

    Parameters
    ----------
    knot_vectors : tuple of KnotVector
        One per spatial dimension; all must share the same degree.
    controls : ndarray, shape (n_tot, D_v)
        Control points, rows in lexicographic order (last dimension fastest).
    bbox_min, bbox_max : ndarray, shape (d,)
        Physical bounding box defining the affine map onto [0, 1]^d.
    """

    knot_vectors: tuple[KnotVector, ...]
    controls: np.ndarray
    bbox_min: np.ndarray
    bbox_max: np.ndarray

    def __post_init__(self):
        kvs = tuple(self.knot_vectors)
        if not kvs:
            raise ValueError("need at least one knot vector")
        degrees = {kv.degree for kv in kvs}
        if len(degrees) != 1:
            raise ValueError("all knot vectors must share one degree")
        controls = owned_finite(self.controls, "controls")
        if controls.ndim != 2:
            raise ValueError("controls must be (n_tot, D_v)")
        n_tot = int(np.prod([kv.n for kv in kvs]))
        if controls.shape[0] != n_tot:
            raise ValueError(
                f"control rows {controls.shape[0]} != product of basis counts {n_tot}"
            )
        lo, hi = owned_box(self.bbox_min, self.bbox_max, len(kvs))
        for arr in (controls, lo, hi):
            arr.flags.writeable = False
        object.__setattr__(self, "knot_vectors", kvs)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "bbox_min", lo)
        object.__setattr__(self, "bbox_max", hi)

    @property
    def d(self) -> int:
        return len(self.knot_vectors)

    @property
    def degree(self) -> int:
        return self.knot_vectors[0].degree

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(kv.n for kv in self.knot_vectors)

    @property
    def n_tot(self) -> int:
        return self.controls.shape[0]

    @property
    def num_values(self) -> int:
        return self.controls.shape[1]

    def to_params(self, coords: np.ndarray) -> np.ndarray:
        """Affine map from physical coordinates (..., d) into [0, 1]^d."""
        return _unit_params(coords, self.bbox_min, self.bbox_max)


def _unit_params(coords, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The affine map taking the box [lo, hi] onto the unit cube."""
    return (np.asarray(coords, dtype=float) - lo) / (hi - lo)


def eval_model(model: SplineModel, u) -> np.ndarray:
    """Model value at parameter tuple u, summing only local basis functions."""
    return eval_model_derivative(model, u, (0,) * model.d)


def eval_model_derivative(model: SplineModel, u, delta) -> np.ndarray:
    """Partial derivative of the model in parameter space.

    delta gives the derivative order per dimension; each component must not
    exceed the degree (higher derivatives vanish identically).
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (model.d,) or len(delta) != model.d:
        raise ValueError(f"expected {model.d}-component parameter and order tuples")
    return _eval_rows(model, u[None, :], tuple(int(o) for o in delta))[0]


def _local_weights(
    knot_vectors: tuple[KnotVector, ...], params: np.ndarray, delta: tuple[int, ...]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Tensor-product weights (m, (p+1)^d), last dimension fastest, and the
    first local basis index of every point in each dimension."""
    w, firsts = None, []
    for k, (kv, order) in enumerate(zip(knot_vectors, delta)):
        ders, first = basis_derivatives_many(kv, params[:, k], order)
        vals = ders[order]
        if w is not None:
            # an explicit width, since -1 cannot be resolved when m is 0
            width = w.shape[1] * vals.shape[1]
            vals = np.einsum("mi,mj->mij", w, vals).reshape(len(vals), width)
        w = vals
        firsts.append(first)
    return w, firsts


def tensor_basis_rows(
    knot_vectors: tuple[KnotVector, ...], params: np.ndarray, delta=None
) -> tuple[np.ndarray, np.ndarray]:
    """Local tensor-product basis values for a batch of parameter tuples.

    delta, the derivative order per dimension, defaults to all zeros; with it
    the weights are the delta-partials of the basis functions instead.

    Returns
    -------
    weights : ndarray, shape (m, (p+1)^d)
        Nonzero tensor-product basis values per point, last dimension
        varying fastest.
    cols : ndarray, shape (m, (p+1)^d)
        Lexicographic ranks of the basis functions the weights belong to.
    """
    params = np.asarray(params, dtype=float)
    d = len(knot_vectors)
    if params.ndim != 2 or params.shape[1] != d:
        raise ValueError(f"expected (m, {d}) parameter array")
    delta = (0,) * d if delta is None else tuple(int(o) for o in delta)
    if len(delta) != d:
        raise ValueError(f"expected a {d}-component derivative order")
    w, firsts = _local_weights(knot_vectors, params, delta)
    shape = [kv.n for kv in knot_vectors]
    # flat rank = sum_k (first_k + offset_k) * stride_k, row-major strides
    first_rank, offsets = 0, np.zeros(1, dtype=np.intp)
    for k, (kv, first) in enumerate(zip(knot_vectors, firsts)):
        stride = math.prod(shape[k + 1:])
        first_rank = first_rank + first * stride
        offsets = (offsets[:, None] + stride * np.arange(kv.degree + 1)).ravel()
    return w, first_rank[:, None] + offsets


def _basis_matrix(
    knot_vectors: tuple[KnotVector, ...], params: np.ndarray, delta=None
) -> sparse.csr_matrix:
    """Sparse (m, n_tot) matrix of the tensor_basis_rows of every point.

    Row i holds point i's (p+1)^d local weights at their ascending
    lexicographic columns; the collocation matrix, each per-dimension penalty
    factor and each grid axis of eval_model_grid are this matrix.
    """
    weights, cols = tensor_basis_rows(knot_vectors, params, delta)
    m, local = weights.shape
    indptr = np.arange(0, m * local + 1, local)
    n_tot = math.prod(kv.n for kv in knot_vectors)
    return sparse.csr_matrix((weights.ravel(), cols.ravel(), indptr), shape=(m, n_tot))


def eval_model_many(model: SplineModel, params: np.ndarray) -> np.ndarray:
    """Evaluate at m parameter tuples, returned as (m, D_v).

    Rows are evaluated in blocks, at most _EVAL_BLOCK rows at a time across
    all threads, so memory stays bounded whatever m is. The result is the
    same, bit for bit, for any number of CPUs.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != model.d:
        raise ValueError(f"expected (m, {model.d}) parameter array")
    return _eval_rows(model, params, (0,) * model.d)


def _eval_rows(model: SplineModel, params: np.ndarray, delta: tuple[int, ...]) -> np.ndarray:
    """The delta-partial of the model at every row of params, as (m, D_v).

    Each point's controls are read as one window of a strided view of the
    control grid, so no (m, (p+1)^d) rank array is formed. One einsum per
    value column sums each point's (p+1)^d products. Every column has its
    own contiguous grid, so each sums in the same order as a one-column
    model. Blocks of rows run on one thread per available CPU and write
    disjoint rows of the result.
    """
    d, p, num_values = model.d, model.degree, model.num_values
    # windows[v][i_1, ..., i_d] is the (p+1, ..., p+1) block of column v's
    # controls whose basis functions start at first indices i_1, ..., i_d
    windows = [
        sliding_window_view(np.ascontiguousarray(col).reshape(model.shape), (p + 1,) * d)
        for col in model.controls.T
    ]
    out = np.empty((params.shape[0], num_values))
    workers = _worker_count()
    rows = -(-_EVAL_BLOCK // workers)
    starts = range(0, params.shape[0], rows)

    def evaluate(first):
        # every workers-th block, in one loop: a call per block frees all its
        # arrays on return, and malloc hands that memory back to the system
        # only to fault it in again for the next block (47 % slower on one
        # core)
        for start in starts[first::workers]:
            block = slice(start, start + rows)
            w, firsts = _local_weights(model.knot_vectors, params[block], delta)
            for v in range(num_values):
                local = windows[v][tuple(firsts)].reshape(w.shape)
                out[block, v] = np.einsum("ml,ml->m", local, w)

    _map_parallel(evaluate, range(min(workers, len(starts))))
    return out


def grid_points(axes) -> np.ndarray:
    """A tensor grid's points as rows in eval_model_grid's order, last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def eval_model_grid(model: SplineModel, axes) -> np.ndarray:
    """Evaluate on a tensor grid of parameters.

    axes is one 1-D parameter array per dimension; the result has shape
    (len(axes[0]), ..., len(axes[d-1]), D_v). The control grid is contracted
    one dimension at a time with that axis's sparse basis matrix. SciPy's
    sparse-times-dense product sums each entry in the matrix's column order
    and calls no BLAS, so the result is the same bit for bit on any number of
    CPUs or BLAS threads.
    """
    if len(axes) != model.d:
        raise ValueError(f"expected {model.d} grid axes")
    out = model.controls.reshape(model.shape + (model.num_values,))
    for k, (kv, ax) in enumerate(zip(model.knot_vectors, axes)):
        mat = _basis_matrix((kv,), np.reshape(ax, (-1, 1)))
        moved = np.moveaxis(out, k, 0)
        product = mat @ moved.reshape(kv.n, -1)
        out = np.moveaxis(product.reshape(mat.shape[:1] + moved.shape[1:]), 0, k)
    return out
