"""Assembly of the regularized least-squares system.

The pipeline: map physical points onto the parameter cube, collocate the
tensor-product basis at every sample (matrix N), evaluate basis derivatives
at every basis function's own maximizer (penalty blocks, stacked into M),
and derive the per-control-point smoothing weights from the column sums of
both matrices. Solving is left to the solver module.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .bsplines import (
    KnotVector,
    _basis_matrix,
    dim_maximizers,
    _unit_params,
    owned_box,
    owned_finite,
    uniform_clamped_knots,
)

__all__ = [
    "PointCloud",
    "FitConfig",
    "LinearSystem",
    "parameterize",
    "build_knots",
    "build_collocation",
    "build_penalty_block",
    "derivative_multi_indices",
    "stack_penalty",
    "compute_lambdas",
    "assemble_system",
    "dim_maximizers",
]


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Scattered samples: m spatial coordinates with value vectors attached.

    The bounding box defaults to the tight box of the coordinates; synthetic
    generators pass their full domain instead so that fits cover it even
    where no sample landed.
    """

    coords: np.ndarray
    values: np.ndarray
    bbox_min: np.ndarray | None = None
    bbox_max: np.ndarray | None = None

    def __post_init__(self):
        coords = owned_finite(self.coords, "coords")
        values = owned_finite(self.values, "values")
        if coords.ndim != 2:
            raise ValueError("coords must be (m, d)")
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if values.ndim != 2 or values.shape[0] != coords.shape[0]:
            raise ValueError("values must be (m, D_v) matching coords")
        if coords.shape[0] < 1:
            raise ValueError("need at least one point")
        lo = coords.min(axis=0) if self.bbox_min is None else self.bbox_min
        hi = coords.max(axis=0) if self.bbox_max is None else self.bbox_max
        lo, hi = owned_box(lo, hi, coords.shape[1])
        if np.any(coords < lo) or np.any(coords > hi):
            raise ValueError("bounding box does not contain all points")
        for arr in (coords, values, lo, hi):
            arr.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bbox_min", lo)
        object.__setattr__(self, "bbox_max", hi)

    @property
    def m(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]

    @property
    def num_values(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FitConfig:
    """Fit settings: control grid, degree, and regularization.

    threshold is the minimum effective column sum every control point should
    reach; orders lists which derivative orders (1 and/or 2) enter the
    penalty. An empty order set is only allowed with threshold 0.
    """

    degree: int
    shape: tuple[int, ...]
    threshold: float = 0.0
    orders: tuple[int, ...] = (2,)

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        shape = tuple(int(nk) for nk in self.shape)
        if not shape:
            raise ValueError("control shape must have at least one dimension")
        for nk in shape:
            if nk < self.degree + 1:
                raise ValueError(
                    f"control count {nk} too small for degree {self.degree}"
                )
        if not np.isfinite(self.threshold) or self.threshold < 0:
            raise ValueError("threshold must be finite and >= 0")
        orders = tuple(sorted(set(int(o) for o in self.orders)))
        if any(o not in (1, 2) for o in orders):
            raise ValueError("penalty orders must be a subset of {1, 2}")
        if not orders and self.threshold > 0:
            raise ValueError("threshold > 0 requires a nonempty penalty order set")
        if orders and max(orders) > self.degree:
            raise ValueError(
                f"penalty order {max(orders)} exceeds degree {self.degree}"
            )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "orders", orders)

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def n_tot(self) -> int:
        return int(np.prod(self.shape))


def parameterize(cloud: PointCloud) -> np.ndarray:
    """Map physical coordinates onto [0, 1]^d by the bounding-box affine map."""
    return _unit_params(cloud.coords, cloud.bbox_min, cloud.bbox_max)


def build_knots(config: FitConfig) -> tuple[KnotVector, ...]:
    """Uniform clamped knot vectors for the configured control grid."""
    return tuple(uniform_clamped_knots(nk, config.degree) for nk in config.shape)


def build_collocation(
    params: np.ndarray, knots: tuple[KnotVector, ...]
) -> sparse.csr_matrix:
    """Sparse m x n_tot matrix of tensor-product basis values at the samples.

    Each row holds the (p+1)^d locally supported basis values and sums to 1.
    """
    return _basis_matrix(knots, params)


def derivative_multi_indices(d: int, orders: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Penalty derivative multi-indices in block order.

    Blocks are grouped by total order (first derivatives before second), and
    within a group ordered with the earlier dimensions taking the higher
    order first: in 2-D the second-order group is (2,0), (1,1), (0,2).
    """
    out = []
    for total in sorted(set(orders)):
        group = [
            delta
            for delta in itertools.product(range(total + 1), repeat=d)
            if sum(delta) == total
        ]
        group.sort(reverse=True)
        out.extend(group)
    return out


def build_penalty_block(
    delta: tuple[int, ...],
    knots: tuple[KnotVector, ...],
    maximizers: list[np.ndarray] | None = None,
) -> sparse.csr_matrix:
    """n_tot x n_tot block of delta-order basis derivatives at the maximizers.

    Row i (evaluation point: the maximizer of basis function i) holds the
    delta-partial of every basis function j there. The tensor structure makes
    the block an exact Kronecker product of 1-D derivative collocation
    matrices, assembled dimension by dimension.
    """
    delta = tuple(int(o) for o in delta)
    if len(delta) != len(knots):
        raise ValueError(f"expected a {len(knots)}-component derivative order")
    for o, kv in zip(delta, knots):
        if not 0 <= o <= kv.degree:
            raise ValueError(f"derivative order {o} outside [0, {kv.degree}]")
    if maximizers is None:
        maximizers = [dim_maximizers(kv) for kv in knots]
    block = None
    for kv, order, w_axis in zip(knots, delta, maximizers):
        mat = _basis_matrix((kv,), np.reshape(w_axis, (-1, 1)), (order,))
        block = mat if block is None else sparse.kron(block, mat, format="csr")
    return block.tocsr()


def stack_penalty(
    config: FitConfig, blocks: dict[tuple[int, ...], sparse.csr_matrix]
) -> sparse.csr_matrix:
    """Vertical concatenation of the penalty blocks in canonical order."""
    deltas = derivative_multi_indices(config.d, config.orders)
    if not deltas:
        if config.threshold > 0:
            raise ValueError("threshold > 0 requires a nonempty penalty order set")
        return sparse.csr_matrix((0, config.n_tot))
    missing = [delta for delta in deltas if delta not in blocks]
    if missing:
        raise ValueError(f"missing penalty blocks for {missing}")
    return sparse.vstack([blocks[delta] for delta in deltas], format="csr")


def compute_lambdas(
    matrix: sparse.spmatrix, penalty: sparse.spmatrix, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-control-point smoothing weights from the two column-sum profiles.

    Returns (lambdas, data_col_sums, penalty_col_sums, degenerate_cols).
    data_col_sums is the plain column sum of the collocation matrix;
    penalty_col_sums sums ABSOLUTE penalty entries, so a positive threshold
    can always be met exactly where the penalty sees the control point.
    Columns the penalty cannot see (penalty sum 0) keep lambda 0; if they
    also fall short of the threshold a warning is issued.
    """
    if matrix.shape[1] != penalty.shape[1]:
        raise ValueError("collocation and penalty column counts differ")
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    s = np.asarray(matrix.sum(axis=0), dtype=float).ravel()
    s_tilde = np.asarray(abs(penalty).sum(axis=0), dtype=float).ravel()
    deficit = np.maximum(threshold - s, 0.0)
    lam = np.zeros_like(s)
    visible = s_tilde > 0
    lam[visible] = deficit[visible] / s_tilde[visible]
    degenerate = np.flatnonzero(~visible & (deficit > 0))
    if degenerate.size:
        warnings.warn(
            f"{degenerate.size} control point(s) below threshold are invisible "
            "to the penalty and stay unregularized",
            RuntimeWarning,
            stacklevel=2,
        )
    return lam, s, s_tilde, degenerate


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Assembled regularized normal system, kept in factored blocks.

    collocation is m x n_tot, penalty is (blocks * n_tot) x n_tot, lambdas
    the diagonal smoothing weights. rhs is collocation^T @ values, the
    right-hand side shared by the plain and regularized normal systems.
    """

    collocation: sparse.csr_matrix
    penalty: sparse.csr_matrix
    lambdas: np.ndarray
    data_col_sums: np.ndarray
    penalty_col_sums: np.ndarray
    rhs: np.ndarray
    values: np.ndarray
    knots: tuple[KnotVector, ...]
    config: FitConfig
    deltas: tuple[tuple[int, ...], ...]
    maximizer_axes: tuple[np.ndarray, ...]
    degenerate_cols: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    @property
    def n_tot(self) -> int:
        return self.collocation.shape[1]

    @property
    def num_values(self) -> int:
        return self.values.shape[1]


def assemble_system(cloud: PointCloud, config: FitConfig) -> LinearSystem:
    """Build every block of the regularized system for one cloud and config.

    With threshold 0 all lambdas are exactly zero and the system the solver
    forms from these blocks is the plain (unregularized) normal system.
    """
    if cloud.d != config.d:
        raise ValueError(
            f"cloud dimension {cloud.d} != configured dimension {config.d}"
        )
    params = parameterize(cloud)
    knots = build_knots(config)
    collocation = build_collocation(params, knots)
    maximizer_axes = tuple(dim_maximizers(kv) for kv in knots)
    deltas = tuple(derivative_multi_indices(config.d, config.orders))
    blocks = {
        delta: build_penalty_block(delta, knots, list(maximizer_axes))
        for delta in deltas
    }
    penalty = stack_penalty(config, blocks)
    lam, s, s_tilde, degenerate = compute_lambdas(
        collocation, penalty, config.threshold
    )
    rhs = np.asarray((collocation.T @ cloud.values), dtype=float)
    return LinearSystem(
        collocation=collocation,
        penalty=penalty,
        lambdas=lam,
        data_col_sums=s,
        penalty_col_sums=s_tilde,
        rhs=rhs,
        values=cloud.values,
        knots=knots,
        config=config,
        deltas=deltas,
        maximizer_axes=maximizer_axes,
        degenerate_cols=degenerate,
    )
