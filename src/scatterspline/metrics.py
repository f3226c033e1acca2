"""Fit-quality metrics and inspection of the adaptive penalty weights."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import LinearSystem, PointCloud
from .bsplines import SplineModel, eval_model_grid, eval_model_many, grid_points

__all__ = [
    "RegionOfInterest",
    "ErrorStats",
    "LambdaField",
    "pointwise_errors",
    "lambda_field",
]


@dataclass(frozen=True)
class RegionOfInterest:
    """An axis-aligned box restricting where errors are measured."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    def __post_init__(self):
        mins = tuple(float(v) for v in self.mins)
        maxs = tuple(float(v) for v in self.maxs)
        if len(mins) != len(maxs) or not mins:
            raise ValueError("mins and maxs must have the same nonzero length")
        for lo, hi in zip(mins, maxs):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("region bounds must be finite")
            if not lo < hi:
                raise ValueError("region must have min < max per dimension")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def d(self) -> int:
        return len(self.mins)


@dataclass(frozen=True)
class ErrorStats:
    """Max and root-mean-square absolute error over the sampled points."""

    max_error: float
    rms_error: float
    num_samples: int


def _check_roi_in_box(roi, model):
    if roi.d != model.d:
        raise ValueError(f"region is {roi.d}-dimensional, model is {model.d}")
    lo = np.asarray(roi.mins)
    hi = np.asarray(roi.maxs)
    if np.any(lo < model.bbox_min) or np.any(hi > model.bbox_max):
        raise ValueError("region extends outside the model's bounding box")
    return lo, hi


def _grid_counts(grid_shape, d):
    if grid_shape is None:
        per_dim = 512 if d <= 2 else 64
        return (per_dim,) * d
    if np.isscalar(grid_shape):
        return (int(grid_shape),) * d
    shape = tuple(int(g) for g in grid_shape)
    if len(shape) != d:
        raise ValueError(f"expected {d} grid counts")
    return shape


def _stats(diff):
    flat = np.abs(np.asarray(diff, dtype=float)).ravel()
    if flat.size == 0:
        raise ValueError("no sample points in the region")
    return ErrorStats(
        max_error=float(flat.max()),
        rms_error=float(np.sqrt(np.mean(flat**2))),
        num_samples=flat.size,
    )


def pointwise_errors(model: SplineModel, reference, roi=None, grid_shape=None):
    """Compare a model against a reference inside an optional region.

    The reference is either a callable mapping an (m, d) coordinate array to
    values, sampled on a dense equispaced grid (512 per dimension in 1D/2D,
    64 above, override with grid_shape), or a PointCloud, compared at the
    subset of the cloud's points falling inside the region and the model's
    box. The region must sit inside the model's bounding box.
    """
    if roi is not None:
        lo, hi = _check_roi_in_box(roi, model)
    else:
        lo, hi = model.bbox_min, model.bbox_max

    if isinstance(reference, PointCloud):
        if reference.d != model.d:
            raise ValueError("reference cloud dimension mismatch")
        coords = reference.coords
        mask = np.all((coords >= lo) & (coords <= hi), axis=1)
        coords = coords[mask]
        if coords.shape[0] == 0:
            raise ValueError("no sample points in the region")
        predicted = eval_model_many(model, model.to_params(coords))
        return _stats(predicted - reference.values[mask])

    counts = _grid_counts(grid_shape, model.d)
    if any(g < 2 for g in counts):
        raise ValueError("need at least 2 grid points per dimension")
    axes = [np.linspace(lo[k], hi[k], counts[k]) for k in range(model.d)]
    # ax[:, None] broadcasts against every box dimension; column k is axis k
    param_axes = [model.to_params(ax[:, None])[:, k] for k, ax in enumerate(axes)]
    predicted = eval_model_grid(model, param_axes)
    coords = grid_points(axes)
    ref_values = np.asarray(reference(coords), dtype=float).reshape(coords.shape[0], -1)
    if ref_values.shape[1] != model.num_values:
        raise ValueError(
            f"reference returned {ref_values.shape[1]} value components, "
            f"model has {model.num_values}"
        )
    return _stats(predicted.reshape(coords.shape[0], -1) - ref_values)


@dataclass(frozen=True, eq=False)
class LambdaField:
    """Per-control-point penalty diagnostics, in row-major control order.

    maximizers holds the parameter-space location where each control point's
    basis function peaks; data_col_sums and penalty_col_sums are the column
    sums the weights were computed from.
    """

    shape: tuple[int, ...]
    maximizers: np.ndarray
    data_col_sums: np.ndarray
    penalty_col_sums: np.ndarray
    lambdas: np.ndarray


def lambda_field(system: LinearSystem) -> LambdaField:
    """Lay out the assembled penalty weights control point by control point."""
    return LambdaField(
        shape=system.config.shape,
        maximizers=grid_points(system.maximizer_axes),
        data_col_sums=system.data_col_sums.copy(),
        penalty_col_sums=system.penalty_col_sums.copy(),
        lambdas=system.lambdas.copy(),
    )
