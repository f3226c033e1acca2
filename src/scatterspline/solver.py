"""Solvers and conditioning diagnostics for the assembled normal system.

The normal matrix A = N^T N + (M Lambda)^T (M Lambda) is formed explicitly.
N^T N is built in row panels, one per CPU the process may run on, computed
at the same time: rows lo..hi are N[:, lo:hi]^T N. Each entry is summed in
ascending point order, as in SciPy's own N.T @ N, so the matrix is the same
bit for bit whatever the number of CPUs. A is symmetric and, in
lexicographic control order, banded with bandwidth p*(n_2*...*n_d) + ... + p,
so one banded Cholesky factorization (LAPACK pbtrf through
scipy.linalg.cholesky_banded) serves the direct solve of every value
component at once and the condition estimate. Conjugate gradients runs only
when the caller asks for it.

A factorization is judged numerically singular when a leading minor is not
positive or the pivot ratio min diag(L)^2 / max diag(L)^2 falls below 1e-12
(_PIVOT_RATIO). The solve then raises RankDeficientError and the condition
estimate returns math.inf. Otherwise the extremal eigenvalues of the Gram
matrix come from Lanczos (eigsh): lambda_max on the matrix itself and
1/lambda_min on its inverse, applied through the same factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse
from scipy.sparse import linalg as sparse_linalg

from .assembly import FitConfig, LinearSystem, PointCloud, assemble_system
from .bsplines import SplineModel, _map_parallel, _worker_count

__all__ = [
    "SolveOptions",
    "FitReport",
    "RankDeficientError",
    "NotConvergedError",
    "solve",
    "fit_cloud",
    "condition_number",
]

_CG_RTOL = 1e-10
_EXACT_COLUMN_LIMIT = 5_000
_SINGULAR_RATIO = 1e-13
# smallest min diag(L)^2 / max diag(L)^2 of a Cholesky factor that counts as
# nonsingular. Roundoff leaves the smallest pivot of a singular matrix near
# or below machine epsilon times the largest; a symmetric positive definite
# matrix keeps a ratio of at least 1/cond.
_PIVOT_RATIO = 1e-12
_LANCZOS_SEED = 0x5EED
# relative accuracy asked of each Lanczos eigenvalue; the condition number
# is a diagnostic, and eigsh's default of machine precision costs extra
# restarts without changing its leading digits
_LANCZOS_TOL = 1e-6


class RankDeficientError(RuntimeError):
    """The normal system is numerically singular (unconstrained controls)."""


class NotConvergedError(RuntimeError):
    """Conjugate gradients exhausted its iterations above tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SolveOptions:
    """method 'direct' (the default) solves with one banded Cholesky factor.

    'cg' runs conjugate gradients to a relative residual of 1e-10, for at
    most maxiter iterations (10 * n_tot when None). The condition estimate
    factors the normal matrix on either path, so a system whose band does not
    fit in memory needs method='cg' and estimate_condition=False.
    """

    method: str = "direct"
    maxiter: int | None = None
    estimate_condition: bool = True

    def __post_init__(self):
        if self.method not in ("direct", "cg"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.maxiter is not None and self.maxiter < 1:
            raise ValueError("maxiter must be at least 1")


@dataclass(frozen=True, eq=False)
class FitReport:
    """Solve diagnostics.

    residual_norms holds the full stacked-system residual per value
    component; data_residual_norms the collocation part alone. Condition
    numbers are estimates of the stacked matrix (N over M Lambda) and of the
    collocation matrix by itself; math.inf marks numerically rank-deficient
    matrices.
    """

    residual_norms: np.ndarray
    data_residual_norms: np.ndarray
    iterations: int
    cond_stacked: float
    cond_data: float
    rank_deficient: bool
    method: str


def _scaled_penalty(system: LinearSystem) -> sparse.csr_matrix | None:
    if system.penalty.shape[0] == 0 or not np.any(system.lambdas > 0):
        return None
    return (system.penalty @ sparse.diags(system.lambdas)).tocsr()


def solve(
    system: LinearSystem, opts: SolveOptions | None = None
) -> tuple[np.ndarray, FitReport]:
    """Solve for the control points of every value component.

    Raises
    ------
    RankDeficientError
        If the normal matrix is singular (typically threshold 0 with control
        points that no sample supports); the fix is a positive threshold.
        It is also raised when the banded Cholesky factorization fails or its
        pivot ratio min diag(L)^2 / max diag(L)^2 is below 1e-12 (numerically
        singular). The direct method always factorizes; conjugate gradients
        (method='cg') does so, before iterating, only when the condition is
        estimated.
    NotConvergedError
        If conjugate gradients (method='cg') stops above tolerance.
    """
    opts = opts or SolveOptions()
    collocation = system.collocation
    scaled_penalty = _scaled_penalty(system)

    gram = _gram(collocation)
    normal = gram
    if scaled_penalty is not None:
        normal = (gram + scaled_penalty.T @ scaled_penalty).tocsr()

    # a zero diagonal entry means no equation touches that control point
    dead = np.flatnonzero(normal.diagonal() == 0.0)
    if dead.size:
        raise RankDeficientError(
            f"{dead.size} control point(s) have no data support and no "
            "smoothing; set a regularization threshold > 0"
        )

    rhs = system.rhs
    iterations = 0
    factor = None
    if opts.method == "direct" or opts.estimate_condition:
        factor = _band_cholesky(normal)
        if factor is None:
            raise RankDeficientError(
                "normal matrix is numerically singular; "
                "set a regularization threshold > 0"
            )
    if opts.method == "direct":
        controls = linalg.cho_solve_banded((factor, True), rhs, check_finite=False)
    else:
        maxiter = opts.maxiter or 10 * system.n_tot
        cols = []
        for c in range(rhs.shape[1]):
            x, info, its = _cg(normal, rhs[:, c], maxiter)
            iterations = max(iterations, its)
            if info != 0:
                resid = float(np.linalg.norm(normal @ x - rhs[:, c]))
                raise NotConvergedError(
                    f"conjugate gradients stopped after {maxiter} iterations "
                    f"(residual {resid:.3e}); use the direct method",
                    resid,
                )
            cols.append(x)
        controls = np.column_stack(cols)

    data_resid = collocation @ controls - system.values
    data_norms = np.linalg.norm(data_resid, axis=0)
    if scaled_penalty is not None:
        pen_resid = scaled_penalty @ controls
        stacked_norms = np.sqrt(
            data_norms**2 + np.linalg.norm(pen_resid, axis=0) ** 2
        )
    else:
        stacked_norms = data_norms.copy()

    cond_data = cond_stacked = math.nan
    if opts.estimate_condition:
        # the normal matrix is the Gram matrix of the stacked system
        cond_stacked = _condition_from_gram(normal, factor)
        if scaled_penalty is not None:
            cond_data = _condition_from_gram(gram, _band_cholesky(gram))
        else:
            cond_data = cond_stacked

    report = FitReport(
        residual_norms=stacked_norms,
        data_residual_norms=data_norms,
        iterations=iterations,
        cond_stacked=cond_stacked,
        cond_data=cond_data,
        rank_deficient=bool(math.isinf(cond_stacked)),
        method=opts.method,
    )
    return controls, report


def _gram(collocation) -> sparse.csr_matrix:
    """N^T N in CSR with sorted indices, one row panel per CPU at once.

    Rows lo..hi of the product are N[:, lo:hi]^T N. Each panel's transpose
    is read from one CSC copy of N, so every entry is the same sum, in
    ascending point order, as in (N.T @ N).tocsr(), bit for bit.
    """
    m, n = collocation.shape
    by_column = collocation.tocsc()
    bounds = np.linspace(0, n, min(_worker_count(), n) + 1).astype(int)

    def panel(span):
        lo, hi = span
        start, stop = by_column.indptr[lo], by_column.indptr[hi]
        # N[:, lo:hi]^T as CSR on views of the CSC arrays, set after
        # construction: the constructor copies a slice shorter than half its
        # base
        rows = sparse.csr_matrix((hi - lo, m))
        rows.indptr = by_column.indptr[lo : hi + 1] - start
        rows.indices = by_column.indices[start:stop]
        rows.data = by_column.data[start:stop]
        product = rows @ collocation
        product.sort_indices()
        return product

    panels = _map_parallel(panel, zip(bounds[:-1], bounds[1:]))
    del by_column  # before stacking, so the peak stays at one copy of N
    return sparse.vstack(panels, format="csr")


def _cg(matrix, b, maxiter):
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, info = sparse_linalg.cg(
        matrix, b, rtol=_CG_RTOL, atol=0.0, maxiter=maxiter, callback=count
    )
    return x, info, iterations


def fit_cloud(
    cloud: PointCloud, config: FitConfig, opts: SolveOptions | None = None
) -> tuple[SplineModel, FitReport]:
    """Assemble and solve in one step, returning the fitted model."""
    system = assemble_system(cloud, config)
    controls, report = solve(system, opts)
    model = SplineModel(system.knots, controls, cloud.bbox_min, cloud.bbox_max)
    return model, report


def condition_number(matrix, mode: str = "estimate") -> float:
    """Spectral condition number sigma_max / sigma_min of a sparse matrix.

    exact mode densifies and takes the full singular spectrum; it is capped
    at 5000 columns, and returns math.inf when sigma_min <= 1e-13 sigma_max.

    estimate mode works on the Gram matrix of the smaller side (A^T A or
    A A^T, whose eigenvalues are the squared singular values; _gram builds
    either one, as it builds the solve's N^T N), factored in the order given:
    a tensor-product fit matrix in lexicographic order has a narrow band, and
    any other matrix costs n x bandwidth memory. It returns math.inf when the
    banded Cholesky factorization of the Gram matrix fails or its pivot
    ratio min diag(L)^2 / max diag(L)^2 is below 1e-12, the rule the solve
    uses to raise RankDeficientError. A sigma bound of 1e-13 would be a 1e-26
    bound on the Gram matrix, which double precision cannot resolve.
    Otherwise Lanczos (eigsh, one eigenvalue, fixed start vector, relative
    tolerance 1e-6) estimates lambda_max of the Gram matrix and, through the
    factor, 1/lambda_min; the result is sqrt(lambda_max / lambda_min), with
    the same 1e-13 bound on sigma_min / sigma_max as exact mode.
    """
    matrix = sparse.csr_matrix(matrix)
    rows, cols = matrix.shape
    if rows == 0 or cols == 0:
        raise ValueError("empty matrix")
    if mode == "exact":
        if min(rows, cols) > _EXACT_COLUMN_LIMIT:
            raise ValueError(
                f"exact mode is capped at {_EXACT_COLUMN_LIMIT} columns; "
                "use mode='estimate'"
            )
        svals = np.linalg.svd(matrix.toarray(), compute_uv=False)
        return _condition_from_singular_values(float(svals[0]), float(svals[-1]))
    if mode == "estimate":
        gram = _gram(matrix if cols <= rows else matrix.T)
        return _condition_from_gram(gram, _band_cholesky(gram))
    raise ValueError(f"unknown mode {mode!r}")


def _condition_from_singular_values(smax: float, smin: float) -> float:
    if smax == 0.0 or smin <= _SINGULAR_RATIO * smax:
        return math.inf
    return smax / smin


def _band_cholesky(matrix):
    """Lower banded Cholesky factor of a symmetric sparse matrix, or None.

    The bandwidth is the matrix's own, max(row - col) over its pattern; the
    factor is in LAPACK lower band storage (row i holds diagonal -i). None
    means numerically singular: a leading minor is not positive, or the
    pivot ratio min diag(L)^2 / max diag(L)^2 is below _PIVOT_RATIO.
    """
    lower = sparse.tril(matrix, format="coo")
    offset = lower.row - lower.col
    band = np.zeros((int(offset.max(initial=0)) + 1, matrix.shape[0]))
    band[offset, lower.col] = lower.data
    try:
        factor = linalg.cholesky_banded(
            band, lower=True, overwrite_ab=True, check_finite=False
        )
    except linalg.LinAlgError:
        return None
    pivots = factor[0] ** 2
    if not pivots.min() >= _PIVOT_RATIO * pivots.max():
        return None
    return factor


def _condition_from_gram(gram, factor) -> float:
    """sigma_max / sigma_min of any matrix whose Gram matrix is `gram`.

    factor is _band_cholesky(gram); None marks gram numerically singular.
    Both extremal eigenvalues come from eigsh at relative tolerance 1e-6.
    """
    if factor is None:
        return math.inf
    n = gram.shape[0]
    if n == 1:  # eigsh needs k < n; a nonsingular 1x1 matrix has condition 1
        return 1.0
    inverse = sparse_linalg.LinearOperator(
        gram.shape,
        matvec=lambda x: linalg.cho_solve_banded((factor, True), x, check_finite=False),
        dtype=float,
    )
    lam_max = _largest_eigenvalue(gram)
    inv_lam_min = _largest_eigenvalue(inverse)
    if not (lam_max > 0.0 and inv_lam_min > 0.0):
        return math.inf
    return _condition_from_singular_values(
        math.sqrt(lam_max), 1.0 / math.sqrt(inv_lam_min)
    )


def _largest_eigenvalue(operator) -> float:
    """Lanczos estimate of the largest eigenvalue of a symmetric operator."""
    v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(operator.shape[0])
    top = sparse_linalg.eigsh(
        operator, k=1, which="LA", v0=v0, tol=_LANCZOS_TOL, return_eigenvectors=False
    )
    return float(top[0])
