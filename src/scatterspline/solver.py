"""Solvers and conditioning diagnostics for the assembled normal system.

The normal matrix A = N^T N + (M Lambda)^T (M Lambda) is formed explicitly.
N^T N is built in fixed blocks of 64 rows, as many at once as the process
has CPUs, each entry summed in ascending row order of N by SciPy's own
product kernel as in N.T @ N, so the matrix is the same bit for bit whatever
the number of CPUs (see _gram). fit_cloud sorts the rows of the assembled N
by knot cell (_by_knot_cell), so rows that share a column lie near each
other and the kernel reads nearby memory; the weights, column sums and rhs
keep the cloud's order. A is symmetric and, in lexicographic control
order, banded with bandwidth p*(n_2*...*n_d) + ... + p, so one banded
Cholesky factorization (LAPACK dpbtrf) serves the direct solve of every
value component at once and the condition estimate. Conjugate gradients
runs only when the caller asks for it.

LAPACK is called through ctypes on the routines SciPy publishes in
scipy.linalg.cython_lapack (_lapack): a ctypes call releases the interpreter
lock, which SciPy's own LAPACK wrappers hold. So the factorizations of A and
of N^T N run at once, one per CPU, and so do the four Lanczos runs of the two
condition estimates (see solve). Each is the same computation as on one
thread, so the results do not depend on the number of CPUs.

A factorization is judged numerically singular when a leading minor is not
positive or the pivot ratio min diag(L)^2 / max diag(L)^2 falls below 1e-12
(_PIVOT_RATIO). The solve then raises RankDeficientError and the condition
estimate returns math.inf. Otherwise the extremal eigenvalues of the Gram
matrix come from a fixed number of Lanczos steps each (_largest_eigenvalue):
lambda_max on the matrix itself and 1/lambda_min on its inverse, applied
through the same factor by LAPACK dpbtrs.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy import linalg, sparse
from scipy.linalg import cython_lapack
from scipy.sparse import _sparsetools
from scipy.sparse import linalg as sparse_linalg

from .assembly import FitConfig, LinearSystem, PointCloud, assemble_system
from .bsplines import SplineModel, _index_dtype, _map_parallel, _whole

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
# Lanczos steps per extremal eigenvalue, capped at n (see _largest_eigenvalue)
_LANCZOS_STEPS = 24
# rows of N^T N per call of the product kernel (see _gram)
_GRAM_ROWS = 64


def _lapack(name: str, *argtypes):
    """LAPACK routine `name` of SciPy's own library, as a ctypes function.

    SciPy publishes the routine's address in a capsule of
    scipy.linalg.cython_lapack, whose name is the C signature. A ctypes
    foreign call releases the interpreter lock for its duration.
    """
    py_api = ctypes.PYFUNCTYPE
    get_name = py_api(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = py_api(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    capsule = cython_lapack.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_INT = ctypes.POINTER(ctypes.c_int)
# uplo, n, kd, ab, ldab, info
_dpbtrf = _lapack("dpbtrf", ctypes.c_char_p, _INT, _INT, ctypes.c_void_p, _INT, _INT)
# uplo, n, kd, nrhs, ab, ldab, b, ldb, info
_dpbtrs = _lapack(
    "dpbtrs", ctypes.c_char_p, _INT, _INT, _INT, ctypes.c_void_p, _INT,
    ctypes.c_void_p, _INT, _INT,
)


def _call(routine, *args) -> int:
    """routine(*args, info), returning info >= 0.

    Integers are passed by reference and arrays, which must be
    Fortran-ordered float64, by their data pointers. A negative info names
    an invalid argument, which raises ValueError as SciPy's wrappers do.
    """

    def pointer(a):
        if isinstance(a, np.ndarray):
            if not (a.dtype == np.float64 and a.flags.f_contiguous):
                raise ValueError("LAPACK takes Fortran-ordered float64 arrays")
            return a.ctypes.data
        return ctypes.byref(ctypes.c_int(a)) if isinstance(a, int) else a

    info = ctypes.c_int()
    routine(*map(pointer, args), ctypes.byref(info))
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of a LAPACK call")
    return info.value


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
    factors the normal matrix on either path, and N^T N beside it when a
    penalty is on, both bands held at once, so a system whose band does not
    fit in memory needs method='cg' and estimate_condition=False.
    """

    method: str = "direct"
    maxiter: int | None = None
    estimate_condition: bool = True

    def __post_init__(self):
        if self.method not in ("direct", "cg"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.maxiter is not None:
            object.__setattr__(self, "maxiter", _whole(self.maxiter, "maxiter"))
            if self.maxiter < 1:
                raise ValueError("maxiter must be at least 1")


@dataclass(frozen=True, eq=False)
class FitReport:
    """Solve diagnostics.

    residual_norms holds the full stacked-system residual per value
    component; data_residual_norms the collocation part alone. Condition
    numbers are estimates of the stacked matrix (N over M Lambda) and of the
    collocation matrix by itself; math.inf marks numerically rank-deficient
    matrices. rank_deficient is True when cond_stacked is math.inf and False
    when a banded Cholesky factor of the normal matrix passed its pivot check;
    it is None (not checked) after conjugate gradients without a condition
    estimate, the one path that factors nothing. lambdas is the system's own
    array of smoothing weights, the ones the solve used.
    """

    residual_norms: np.ndarray
    data_residual_norms: np.ndarray
    iterations: int
    cond_stacked: float
    cond_data: float
    rank_deficient: bool | None
    method: str
    lambdas: np.ndarray


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
        points that no sample supports); the message advises a positive
        threshold, or one above the current one when it is already positive.
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
        what = f"{dead.size} control point(s) have no data support and no smoothing"
        raise _rank_deficient(system, what)

    rhs = system.rhs
    iterations = 0
    # the normal matrix is the Gram matrix of the stacked system
    grams = [normal]
    if opts.estimate_condition and scaled_penalty is not None:
        grams.append(gram)
    factors = []
    if opts.method == "direct" or opts.estimate_condition:
        # the bands are built here and factored in place on the workers, whose
        # own malloc arenas would keep the pages of bands built there
        factors = _map_parallel(_band_factor, [_lower_band(g) for g in grams])
        if factors[0] is None:
            raise _rank_deficient(system, "normal matrix is numerically singular")
    if opts.method == "direct":
        controls = _band_solve(factors[0], rhs)
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
        conditions = _conditions(grams, factors)
        # without a penalty the two matrices are one
        cond_stacked, cond_data = conditions[0], conditions[-1]

    report = FitReport(
        residual_norms=stacked_norms,
        data_residual_norms=data_norms,
        iterations=iterations,
        cond_stacked=cond_stacked,
        cond_data=cond_data,
        rank_deficient=math.isinf(cond_stacked) if factors else None,
        method=opts.method,
        lambdas=system.lambdas,
    )
    return controls, report


def _rank_deficient(system: LinearSystem, what: str) -> RankDeficientError:
    threshold = system.config.threshold
    if threshold > 0:
        advice = f"raise the regularization threshold above its current {threshold:g}"
    else:
        advice = "set a regularization threshold > 0"
    return RankDeficientError(f"{what}; {advice}")


def _gram(collocation) -> sparse.csr_matrix:
    """N^T N in CSR with sorted indices, in fixed blocks of _GRAM_ROWS rows.

    Rows lo..lo + 64 of the product are N[:, lo:lo + 64]^T N. Each block's
    transpose is read from one CSC copy of N and multiplied by SciPy's own
    kernel (csr_matmat, which releases the interpreter lock), so every entry
    is the same sum, in ascending point order, as in (N.T @ N).tocsr(), bit
    for bit, and zero sums are dropped as there.

    SciPy's product first counts the output entries in a separate pass
    (csr_matmat_maxnnz); here one bound sizes the buffers instead. Row i of
    the product gets one entry per column j that shares a stored row of N
    with column i, so |i - j| <= bw, the widest column span of any row of N,
    and each row gets min(n, 2 bw + 1) slots. The buffers in flight hold at
    most one block per CPU. A call costs about 0.1 ms beyond its work, so
    16-row blocks are slower, and 128-row ones split a 400-row product
    unevenly between two threads.
    """
    m, n = collocation.shape
    by_row = collocation.tocsr()
    by_column = collocation.tocsc()
    nnz = int(by_row.indptr[-1])
    row_starts = by_row.indptr[:-1][np.diff(by_row.indptr) > 0]
    bandwidth = 0
    if row_starts.size:  # reduceat over the stored rows only: empty ones have no span
        stored = by_row.indices[:nnz]
        spans = np.maximum.reduceat(stored, row_starts) - np.minimum.reduceat(
            stored, row_starts
        )
        bandwidth = int(spans.max())
    width = min(n, 2 * bandwidth + 1)  # slots per row of the product
    # the kernel takes every index array in one dtype
    index = _index_dtype(m, n, nnz, _GRAM_ROWS * width)
    row_ptr, row_idx, col_ptr, col_idx = (
        a.astype(index, copy=False)
        for a in (by_row.indptr, by_row.indices, by_column.indptr, by_column.indices)
    )

    def rows(lo):
        hi = min(lo + _GRAM_ROWS, n)
        start, stop = col_ptr[lo], col_ptr[hi]
        indptr = np.empty(hi - lo + 1, dtype=index)
        indices = np.empty((hi - lo) * width, dtype=index)
        data = np.empty((hi - lo) * width, dtype=by_row.data.dtype)
        # N[:, lo:hi]^T as CSR on views of the CSC arrays, times N
        _sparsetools.csr_matmat(
            hi - lo, n,
            col_ptr[lo : hi + 1] - start,
            col_idx[start:stop],
            by_column.data[start:stop],
            row_ptr, row_idx, by_row.data,
            indptr, indices, data,
        )
        # trimmed in place to the entries written: realloc releases the rest
        # without copying, and no view of the buffers is left to forbid it
        indices.resize(indptr[-1], refcheck=False)
        data.resize(indptr[-1], refcheck=False)
        product = sparse.csr_matrix((data, indices, indptr), shape=(hi - lo, n))
        product.sort_indices()
        return product

    blocks = _map_parallel(rows, range(0, n, _GRAM_ROWS))
    # before stacking, so the peak stays at one copy of N
    del by_column, col_ptr, col_idx
    return sparse.vstack(blocks, format="csr")


def _by_knot_cell(system: LinearSystem) -> LinearSystem:
    """The system with the rows of N and the values stably sorted by knot cell.

    A row's first stored column is the first control its knot cell touches,
    so the cells come in the controls' lexicographic order, and rows that
    share a column lie near each other for the N^T N kernel. Every other
    field keeps its cloud-order bits. Sorting in solve, whose caller still
    holds N, would hold a second N; fit_cloud passes assemble_system's result
    unnamed, so the unsorted N is freed before solve copies the sorted one.
    The keys column * m + row are distinct, so NumPy's unstable (SIMD) sort,
    in place, orders them as a stable sort of the columns would.
    """
    n = system.collocation
    m = n.shape[0]
    order = n.indices[n.indptr[:-1]].astype(np.int64) * m + np.arange(m)
    order.sort()
    order %= m
    return replace(system, collocation=n[order], values=system.values[order])


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
    """Assemble and solve in one step, returning the fitted model.

    The assembled rows of N are sorted by knot cell (_by_knot_cell), so N^T N
    reads nearby memory. The lambdas (report.lambdas), column sums and rhs
    are assemble_system(cloud)'s bit for bit; only N^T N and the residual
    norms are summed in another order, so the controls may differ in their
    last bits.
    """
    system = _by_knot_cell(assemble_system(cloud, config))
    controls, report = solve(system, opts)
    model = SplineModel(system.knots, controls, cloud.bbox_min, cloud.bbox_max)
    return model, report


def condition_number(matrix, mode: str = "estimate") -> float:
    """Spectral condition number sigma_max / sigma_min of a sparse matrix.

    exact mode densifies and takes the full singular spectrum; it is capped
    at 5000 columns, and returns math.inf when sigma_min <= 1e-13 sigma_max.

    estimate mode works on the Gram matrix of the smaller side (A^T A or
    A A^T, whose eigenvalues are the squared singular values; _gram builds
    either one, as it builds the solve's N^T N), laid out by _lower_band and
    factored by _band_factor, as in the solve, in the order given: a
    tensor-product fit matrix in lexicographic order has a narrow band, and
    any other matrix costs n x bandwidth memory. It returns math.inf when the
    banded Cholesky factorization of the Gram matrix fails or its pivot
    ratio min diag(L)^2 / max diag(L)^2 is below 1e-12, the rule the solve
    uses to raise RankDeficientError. A sigma bound of 1e-13 would be a 1e-26
    bound on the Gram matrix, which double precision cannot resolve.
    Otherwise 24 Lanczos steps from a fixed start vector estimate lambda_max
    of the Gram matrix and 24 more, through the factor, 1/lambda_min, the
    two runs at once on two CPUs (see _conditions); the result is
    sqrt(lambda_max / lambda_min), with the same 1e-13 bound on sigma_min /
    sigma_max as exact mode. Both are Ritz values, never above the
    eigenvalues they estimate beyond rounding, so neither is the estimate
    above the exact condition number; for n columns, the chance that either
    falls short by a relative eps is at most 1.648 sqrt(n) exp(-47
    sqrt(eps)) (Kuczynski and Wozniakowski, 1992).
    """
    matrix = sparse.csr_matrix(matrix)
    rows, cols = matrix.shape
    if rows == 0 or cols == 0:
        raise ValueError("empty matrix")
    if not np.isfinite(matrix.data).all():
        raise ValueError("matrix must be finite")
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
        (condition,) = _conditions([gram], [_band_factor(_lower_band(gram))])
        return condition
    raise ValueError(f"unknown mode {mode!r}")


def _condition_from_singular_values(smax: float, smin: float) -> float:
    if smax == 0.0 or smin <= _SINGULAR_RATIO * smax:
        return math.inf
    return smax / smin


def _lower_band(matrix) -> np.ndarray:
    """A symmetric sparse matrix's lower band, Fortran-ordered for LAPACK.

    The bandwidth is the matrix's own, max(row - col) over its pattern; row
    i of the (bandwidth + 1) x n array holds diagonal -i.
    """
    lower = sparse.tril(matrix, format="coo")
    offset = lower.row - lower.col
    band = np.zeros((int(offset.max(initial=0)) + 1, matrix.shape[0]), order="F")
    band[offset, lower.col] = lower.data
    return band


def _band_factor(band: np.ndarray) -> np.ndarray | None:
    """band from _lower_band, factored in place by LAPACK dpbtrf, or None.

    The lower Cholesky factor L overwrites the band, in the same storage.
    None means numerically singular: a leading minor is not positive, or the
    pivot ratio min diag(L)^2 / max diag(L)^2 is below _PIVOT_RATIO.
    """
    kd, n = band.shape[0] - 1, band.shape[1]
    if _call(_dpbtrf, b"L", n, kd, band, kd + 1):
        return None
    pivots = band[0] ** 2
    if not pivots.min() >= _PIVOT_RATIO * pivots.max():
        return None
    return band


def _band_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A^-1 rhs for one or more right-hand sides, A = L L^T, L = factor.

    A new Fortran-ordered array of rhs's shape, solved by LAPACK dpbtrs.
    """
    x = np.array(rhs, dtype=float, order="F")
    kd, n = factor.shape[0] - 1, factor.shape[1]
    if x.shape[0] != n or x.ndim > 2:
        raise ValueError(f"rhs of shape {x.shape} for a band of order {n}")
    nrhs = x.shape[1] if x.ndim == 2 else 1
    _call(_dpbtrs, b"L", n, kd, nrhs, factor, kd + 1, x, max(n, 1))
    return x


def _conditions(grams, factors) -> list[float]:
    """sigma_max / sigma_min of each matrix whose Gram matrix is in grams.

    Each factor is _band_factor(_lower_band(gram)); None marks gram
    numerically singular, math.inf. Otherwise lambda_max comes from
    _largest_eigenvalue on gram's CSR product, and 1/lambda_min on the
    inverse, which _band_solve applies with the factor. The runs of every
    matrix go to one _map_parallel call: each run is the same on any thread.
    """
    runs = []
    for gram, factor in zip(grams, factors):
        if factor is not None:
            n = gram.shape[0]
            runs += [(gram.dot, n), (partial(_band_solve, factor), n)]
    estimates = iter(_map_parallel(lambda run: _largest_eigenvalue(*run), runs))

    def condition(factor):
        if factor is None:
            return math.inf
        lam_max, inv_lam_min = next(estimates), next(estimates)
        if not (lam_max > 0.0 and inv_lam_min > 0.0):
            return math.inf
        return _condition_from_singular_values(
            math.sqrt(lam_max), 1.0 / math.sqrt(inv_lam_min)
        )

    return [condition(factor) for factor in factors]


def _largest_eigenvalue(apply, n: int) -> float:
    """Lanczos estimate of the largest eigenvalue of a symmetric n x n operator.

    K = min(_LANCZOS_STEPS, n) steps from the seeded Gaussian start vector,
    each new vector orthogonalized against all the stored ones; the result is
    the top eigenvalue (Ritz value) of the K x K tridiagonal matrix. A Ritz
    value never exceeds lambda_max; in floating point a converged one may, by
    rounding. For a positive definite operator and a uniformly random start,
    Kuczynski and Wozniakowski (1992) bound the relative error:
    P(rel. error > eps) <= 1.648 sqrt(n) exp(-sqrt(eps) (2K - 1)). The run
    stops early only on an invariant subspace (beta = 0), where the Ritz
    value is exact: the identity stops after one step at 1.0.
    """
    # the sums are einsum's, not BLAS's, whose threads split long sums
    # differently for each thread count
    steps = min(_LANCZOS_STEPS, n)
    basis = np.empty((steps, n))
    alpha, beta = np.empty(steps), np.empty(steps)
    w = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    norm = math.sqrt(np.einsum("i,i", w, w))
    for j in range(steps):
        q = basis[j] = w / norm
        w = apply(q)
        # the Rayleigh quotient, exactly 1.0 where w is q
        alpha[j] = np.einsum("i,i", q, w) / np.einsum("i,i", q, q)
        w -= alpha[j] * q
        if j:
            w -= norm * basis[j - 1]
        stored = basis[: j + 1]
        w -= np.einsum("k,ki", np.einsum("ki,i", stored, w), stored)
        norm = beta[j] = math.sqrt(np.einsum("i,i", w, w))
        if norm == 0.0:
            break
    return float(linalg.eigvalsh_tridiagonal(alpha[: j + 1], beta[:j])[-1])
