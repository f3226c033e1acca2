"""Synthetic benchmark clouds, CSV ingestion/export, and grid resampling.

The generators draw from numpy's default PCG64 stream, so a fixed seed gives
bit-identical clouds on every platform. CSV files carry a `x1,..,xd,v1,..,vD`
header and full-precision (17 significant digit) decimal values, which round
trip exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .assembly import PointCloud
from .bsplines import SplineModel, eval_model_grid

__all__ = [
    "VoidSpec",
    "SynthConfig",
    "CsvParseError",
    "sinc",
    "polysinc",
    "default_polysinc_voids",
    "generate_polysinc_cloud",
    "generate_annulus_cloud",
    "read_csv",
    "read_points",
    "write_csv",
    "write_table",
    "resample_grid",
    "grid_to_cloud",
    "POLYSINC_BOX",
]

POLYSINC_BOX = ((-4.0 * math.pi, 4.0 * math.pi), (-4.0 * math.pi, 4.0 * math.pi))
_ANNULUS_BOX = ((-4.0, 4.0), (-4.0, 4.0))


def sinc(t):
    """Unnormalized sinc: sin(t)/t with the removable singularity at 0."""
    t = np.asarray(t, dtype=float)
    out = np.ones_like(t)
    nz = t != 0.0
    out[nz] = np.sin(t[nz]) / t[nz]
    if out.ndim == 0:
        return float(out)
    return out


def polysinc(x, y):
    """Two-factor sinc product test function on the plane.

    f(x, y) = sinc(x^2 + y^2) * sinc(2 (x-2)^2 + (y+2)^2), a ring pattern
    around the origin modulated by an off-center ellipse pattern.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return sinc(x**2 + y**2) * sinc(2.0 * (x - 2.0) ** 2 + (y + 2.0) ** 2)


@dataclass(frozen=True)
class VoidSpec:
    """A disk where only a fraction of the ambient sample density is kept."""

    center: tuple[float, ...]
    radius: float
    sparsity: float

    def __post_init__(self):
        center = tuple(float(c) for c in self.center)
        if not all(math.isfinite(c) for c in center):
            raise ValueError("void center must be finite")
        if not self.radius > 0:
            raise ValueError("void radius must be positive")
        if not 0.0 < self.sparsity <= 1.0:
            raise ValueError("sparsity must be in (0, 1]")
        object.__setattr__(self, "center", center)


@dataclass(frozen=True)
class SynthConfig:
    """Settings for the synthetic generators.

    box and voids default per generator (voids=None means the generator's
    default layout; pass () for none). The seed is mandatory so every cloud
    is reproducible. hole_radius only applies to the annulus generator.
    """

    count: int
    seed: int
    box: tuple[tuple[float, float], ...] | None = None
    voids: tuple[VoidSpec, ...] | None = None
    hole_radius: float | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("point count must be at least 1")
        if self.box is not None:
            box = tuple((float(lo), float(hi)) for lo, hi in self.box)
            for lo, hi in box:
                if not lo < hi:
                    raise ValueError("box must have min < max per dimension")
            object.__setattr__(self, "box", box)
        if self.voids is not None:
            object.__setattr__(self, "voids", tuple(self.voids))
        if self.hole_radius is not None and not self.hole_radius > 0:
            raise ValueError("hole radius must be positive")


def default_polysinc_voids(sparsity: float = 0.02) -> tuple[VoidSpec, ...]:
    """Four disks of radius pi on the diagonal quadrant centers."""
    c = 2.0 * math.pi
    return tuple(
        VoidSpec((sx * c, sy * c), math.pi, sparsity)
        for sx in (-1.0, 1.0)
        for sy in (-1.0, 1.0)
    )


def _box_arrays(box):
    box = np.asarray(box, dtype=float)
    return box[:, 0], box[:, 1]


def _rejection_sample(rng, count, lo, hi, keep_probability):
    """Uniform candidates thinned by a per-point acceptance probability."""
    chunks = []
    accepted = 0
    stalled = 0
    while accepted < count:
        batch = max(4096, 2 * (count - accepted))
        cand = rng.uniform(lo, hi, size=(batch, lo.size))
        prob = keep_probability(cand)
        keep = rng.uniform(size=batch) < prob
        got = cand[keep]
        if got.shape[0] == 0:
            stalled += 1
            if stalled > 1000:
                raise RuntimeError("rejection sampling accepted nothing; empty region")
        else:
            stalled = 0
        chunks.append(got)
        accepted += got.shape[0]
    return np.concatenate(chunks, axis=0)[:count]


def generate_polysinc_cloud(cfg: SynthConfig) -> PointCloud:
    """Uniform cloud on the polysinc box, thinned inside the configured voids.

    A candidate inside a void is kept with probability equal to the void's
    sparsity (probabilities multiply where voids overlap). Values are the
    polysinc function at the kept locations; the cloud's bounding box is the
    full domain box, not the tight hull of the samples.
    """
    box = cfg.box if cfg.box is not None else POLYSINC_BOX
    if len(box) != 2:
        raise ValueError("polysinc clouds are two-dimensional")
    voids = cfg.voids if cfg.voids is not None else default_polysinc_voids()
    lo, hi = _box_arrays(box)
    centers = np.array([v.center for v in voids], dtype=float).reshape(len(voids), 2)
    radii = np.array([v.radius for v in voids], dtype=float)
    sparsities = np.array([v.sparsity for v in voids], dtype=float)

    def keep_probability(cand):
        prob = np.ones(cand.shape[0])
        for c, r, s in zip(centers, radii, sparsities):
            inside = np.sum((cand - c) ** 2, axis=1) <= r * r
            prob[inside] *= s
        return prob

    rng = np.random.default_rng(cfg.seed)
    coords = _rejection_sample(rng, cfg.count, lo, hi, keep_probability)
    values = polysinc(coords[:, 0], coords[:, 1])
    return PointCloud(coords, values, lo, hi)


def generate_annulus_cloud(cfg: SynthConfig) -> PointCloud:
    """Uniform cloud on a box with a hard circular hole at the center.

    No point lands inside the hole at all, which makes an unregularized fit
    on a hole-covering control grid rank-deficient. Values are a fixed smooth
    wave with range [-2, 10].
    """
    if cfg.voids:
        raise ValueError("annulus clouds use hole_radius, not voids")
    box = cfg.box if cfg.box is not None else _ANNULUS_BOX
    if len(box) != 2:
        raise ValueError("annulus clouds are two-dimensional")
    lo, hi = _box_arrays(box)
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    radius = cfg.hole_radius if cfg.hole_radius is not None else 0.375 * half.min()
    if radius >= half.min():
        raise ValueError("hole radius must be smaller than the box half-extent")

    def keep_probability(cand):
        outside = np.sum((cand - center) ** 2, axis=1) >= radius * radius
        return outside.astype(float)

    rng = np.random.default_rng(cfg.seed)
    coords = _rejection_sample(rng, cfg.count, lo, hi, keep_probability)
    values = _annulus_values(coords, center, half)
    return PointCloud(coords, values, lo, hi)


def _annulus_values(coords, center, half):
    x = (coords[:, 0] - center[0]) / half[0]
    y = (coords[:, 1] - center[1]) / half[1]
    return 4.0 + 6.0 * np.sin(math.pi * x) * np.cos(math.pi * y)


_BLOCK_ROWS = 8192  # rows parsed or formatted per block


class CsvParseError(ValueError):
    """Malformed point-cloud CSV; the message carries the 1-based line number."""


def _count_numbered(fields, letter, start=0):
    """How many fields from start read letter1, letter2, ... in order."""
    count = 0
    for name in fields[start:]:
        if name != f"{letter}{count + 1}":
            break
        count += 1
    return count


def _parse_header(fields, path):
    d = _count_numbered(fields, "x")
    num_values = _count_numbered(fields, "v", d)
    if d == 0 or num_values == 0 or d + num_values != len(fields):
        raise CsvParseError(
            f"{path}: line 1: header must be x1,..,xd,v1,..,vD "
            f"(got {','.join(fields)!r})"
        )
    return d, num_values


def _read_table(path, parse_header) -> tuple[tuple[int, ...], np.ndarray]:
    """Numeric rows of a CSV file; every error names the 1-based line.

    parse_header(fields) checks the header and returns the sizes of the
    leading column groups to convert; they are returned with the data. Blank
    lines are skipped. Each data row must have as many fields as the header,
    every converted field must parse with float(), and every value must be
    finite. Rows are parsed a block at a time; a block that fails is parsed
    again line by line, only to name the bad line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    first = next((i for i, line in enumerate(lines) if line.strip()), None)
    if first is None:
        raise CsvParseError(f"{path}: empty file (missing header)")
    if first != 0:
        raise CsvParseError(f"{path}: line 1: missing header")
    fields = [f.strip() for f in lines[0].split(",")]
    groups = parse_header(fields)
    keep = sum(groups)
    width = len(fields)
    data = np.empty((len(lines) - 1, keep))
    rows = 0
    for start in range(1, len(lines), _BLOCK_ROWS):
        block = [line for line in lines[start : start + _BLOCK_ROWS] if line.strip()]
        if not block:
            continue
        try:
            if set(map(str.count, block, repeat(","))) != {width - 1}:
                raise ValueError("ragged row")
            flat = ",".join(block).split(",")
            columns = chain.from_iterable(flat[j::width] for j in range(keep))
            parsed = np.fromiter(map(float, columns), float, keep * len(block))
        except ValueError:
            _raise_bad_line(path, lines, start, width, keep)
        data[rows : rows + len(block)] = parsed.reshape(keep, len(block)).T
        rows += len(block)
    data = data[:rows]
    if data.shape[0] == 0:
        raise CsvParseError(f"{path}: no data rows")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        numbers = [i + 1 for i, line in enumerate(lines) if line.strip()]
        line_number = numbers[1 + int(np.argmin(finite))]
        raise CsvParseError(f"{path}: line {line_number}: non-finite value")
    return groups, data


def _raise_bad_line(path, lines, start, width, keep):
    """Raise the CsvParseError for the first malformed line of the block."""
    for line_number, line in enumerate(lines[start : start + _BLOCK_ROWS], start + 1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise CsvParseError(
                f"{path}: line {line_number}: expected {width} fields, "
                f"got {len(parts)}"
            )
        try:
            list(map(float, parts[:keep]))
        except ValueError as exc:
            raise CsvParseError(f"{path}: line {line_number}: {exc}") from None
    raise AssertionError("block parse failed on well-formed lines")


def read_csv(path) -> PointCloud:
    """Read a point cloud from `x1,..,xd,v1,..,vD` CSV.

    The bounding box is the tight hull of the coordinates. Raises
    CsvParseError (with the offending line number) for a missing or malformed
    header, ragged rows, or non-numeric or non-finite fields.
    """
    (d, _), data = _read_table(path, lambda fields: _parse_header(fields, path))
    return PointCloud(data[:, :d], data[:, d:])


def read_points(path, d: int) -> np.ndarray:
    """Coordinates from a CSV whose header starts x1..xd; other columns are ignored.

    Raises CsvParseError like :func:`read_csv`, and ValueError when the file
    holds points of another dimension.
    """

    def parse_header(fields):
        k = _count_numbered(fields, "x")
        if k == 0:
            raise CsvParseError(f"{path}: line 1: header must start with x1,x2,..")
        if k != d:
            raise ValueError(f"{path} has {k}-dimensional points, model wants {d}")
        return (d,)

    return _read_table(path, parse_header)[1]


def write_csv(cloud: PointCloud, path) -> None:
    """Write a cloud as `x1,..,xd,v1,..,vD` CSV at full precision."""
    header = [f"x{k + 1}" for k in range(cloud.d)]
    header += [f"v{k + 1}" for k in range(cloud.num_values)]
    write_table(path, header, np.hstack([cloud.coords, cloud.values]))


def write_table(path, header, table) -> None:
    """Write a header line and a 2-D float table as CSV, each value as %.17g.

    17 significant digits read back to the same double; the bytes equal
    format(v, ".17g") value for value, and rows are written a block at a time.
    """
    table = np.asarray(table, dtype=float)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, table.shape[0], _BLOCK_ROWS):
            block = table[start : start + _BLOCK_ROWS]
            handle.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def resample_grid(model: SplineModel, shape) -> tuple[list[np.ndarray], np.ndarray]:
    """Evaluate the model on an equispaced tensor grid including endpoints.

    Returns the per-dimension physical axis arrays and the value array of
    shape (*shape, D_v).
    """
    shape = tuple(int(g) for g in shape)
    if len(shape) != model.d:
        raise ValueError(f"expected {model.d} grid counts")
    if any(g < 2 for g in shape):
        raise ValueError("need at least 2 grid points per dimension")
    param_axes = [np.linspace(0.0, 1.0, g) for g in shape]
    axes = [
        model.bbox_min[k] + ax * (model.bbox_max[k] - model.bbox_min[k])
        for k, ax in enumerate(param_axes)
    ]
    values = eval_model_grid(model, param_axes)
    return axes, values


def grid_to_cloud(axes, values) -> PointCloud:
    """Flatten grid output to a cloud in row-major (last axis fastest) order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([g.ravel() for g in mesh], axis=1)
    flat = values.reshape(coords.shape[0], -1)
    return PointCloud(coords, flat)
