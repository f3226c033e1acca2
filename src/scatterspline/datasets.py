"""Synthetic benchmark clouds, grid resampling, and every file format.

The generators draw from numpy's default PCG64 stream, so a fixed seed gives
bit-identical clouds on every platform. CSV files carry a `x1,..,xd,v1,..,vD`
header. The point tables, the model file and the key,value reports write
every number through one 17 significant digit template, so each value reads
back bit for bit.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .assembly import PointCloud, _check_threshold, _penalty_orders
from .bsplines import KnotVector, SplineModel, _sample_box, _whole, grid_points

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
    "ModelFileError",
    "save_model",
    "load_model",
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
        count = _whole(self.count, "point count")
        if count < 1:
            raise ValueError("point count must be at least 1")
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "seed", _whole(self.seed, "seed"))
        if self.box is not None:
            box = tuple((float(lo), float(hi)) for lo, hi in self.box)
            if not np.isfinite(box).all():
                raise ValueError(f"box must be finite, got {box}")
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
    for void in voids:
        if len(void.center) != 2:
            raise ValueError(f"polysinc voids need a 2-D center, got {void}")
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


_BLOCK_ROWS = 8192  # rows formatted per block
# every number written; the text equals format() at 17 significant digits,
# which reads back to the same double
_NUMBER = "%.17g"


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
    r"""Numeric rows of a CSV file; every error names the 1-based line.

    parse_header(fields) checks the header and returns the sizes of the
    leading column groups to convert; they are returned with the data. The
    grammar is float() on each line of str.splitlines: blank lines are
    skipped, each data row has the header's width, and every converted value
    is finite. A malformed line anywhere is named before a non-finite value;
    an undecodable byte anywhere wins over both, named by its file offset.
    The file is read once, a block of text at a time: NumPy's C text reader
    parses each block it can vouch for (_loadtxt_block), float() the others.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                return _parse_blocks(path, handle, parse_header)
            except ValueError:
                while handle.read(_BLOCK_CHARS):  # an undecodable byte further on wins
                    pass
                raise
    except UnicodeDecodeError:
        with open(path, "r", encoding="utf-8") as handle:
            handle.read()  # the decoder's own error, with its offset in the whole file
        raise


_BLOCK_CHARS = 1 << 20  # characters of text parsed per block
# text with one of these is left to _float_block: the line breaks
# str.splitlines knows beyond "\n", and \x1c-\x1f, which loadtxt strips from
# a field as whitespace but float() does not. An ASCII string is searched
# for a non-ASCII character in constant time
_OUTSIDE_SUBSET = "\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029"


def _text_blocks(handle):
    r"""The rest of a text file in blocks of about _BLOCK_CHARS, each cut after a "\n"."""
    carry = ""
    while chunk := handle.read(_BLOCK_CHARS):
        text = carry + chunk
        cut = text.rfind("\n") + 1
        carry = text[cut:]
        if cut:
            yield text[:cut]
    if carry:
        yield carry


def _parse_blocks(path, handle, parse_header):
    """_read_table's result from an open file: the header, then block by block."""
    # the header, and any lines after another break str.splitlines knows
    header, *rest = handle.readline().splitlines(True) or [""]
    if not header.strip():
        if "".join(rest).strip() or any(block.strip() for block in _text_blocks(handle)):
            raise CsvParseError(f"{path}: line 1: missing header")
        raise CsvParseError(f"{path}: empty file (missing header)")
    fields = [f.strip() for f in header.split(",")]
    groups = parse_header(fields)
    width, keep = len(fields), sum(groups)
    parts, line, non_finite = [], 1, None  # line: the number of the last line read
    for block in chain(["".join(rest)], _text_blocks(handle)):
        table = _loadtxt_block(block, width, keep)
        if table is None:
            lines = block.splitlines()
            table, bad = _float_block(path, lines, line, width, keep)
            non_finite = non_finite or bad
            line += len(lines)
        else:
            line += block.count("\n")
        parts.append(table)
    data = np.concatenate(parts)
    if data.shape[0] == 0:
        raise CsvParseError(f"{path}: no data rows")
    if non_finite:
        raise CsvParseError(f"{path}: line {non_finite}: non-finite value")
    return groups, data


def _loadtxt_block(block, width, keep):
    r"""The rows np.loadtxt reads from a block, or None where float() might differ.

    The text mode turns "\r\n" and a lone "\r" into "\n", the only break
    loadtxt splits at, so a block without the other breaks str.splitlines
    knows has the same lines. loadtxt strips a field's whitespace and
    converts it with PyOS_string_to_double, the converter float() calls;
    underscores and non-ASCII digits, which only float() takes, fail. A
    block with a whitespace-only line before its last row, a ragged row, a
    non-numeric column past the kept ones or a non-finite value is refused.
    """
    if any(c in block for c in _OUTSIDE_SUBSET):
        return None
    if block[-2:].isspace():  # whitespace-only lines at its end
        block = block.rstrip()
    if not block:
        return np.empty((0, keep))
    try:
        table = np.loadtxt(io.StringIO(block), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != width or not np.isfinite(table[:, :keep]).all():
        return None
    return table[:, :keep]


def _float_block(path, lines, line, width, keep):
    """float() on each non-blank line of a block; line counts the lines before it.

    Returns the rows and the number of the first line with a non-finite
    value, or None. The rows are parsed at once; a block that fails is
    scanned again line by line, only to raise the CsvParseError that names
    its first malformed line.
    """
    rows = [text for text in lines if text.strip()]
    if not rows:
        return np.empty((0, keep)), None
    try:
        if set(map(str.count, rows, repeat(","))) != {width - 1}:
            raise ValueError("ragged row")
        flat = ",".join(rows).split(",")
        columns = chain.from_iterable(flat[j::width] for j in range(keep))
        parsed = np.fromiter(map(float, columns), float, keep * len(rows))
    except ValueError:
        for number, text in enumerate(lines, line + 1):
            if not text.strip():
                continue
            fields = text.split(",")
            if len(fields) != width:
                raise CsvParseError(
                    f"{path}: line {number}: expected {width} fields, got {len(fields)}"
                ) from None
            try:
                list(map(float, fields[:keep]))
            except ValueError as exc:
                raise CsvParseError(f"{path}: line {number}: {exc}") from None
        raise AssertionError("block parse failed on well-formed lines")
    table = parsed.reshape(keep, len(rows)).T
    finite = np.isfinite(table).all(axis=1)
    if finite.all():
        return table, None
    numbers = [number for number, text in enumerate(lines, line + 1) if text.strip()]
    return table, numbers[int(np.argmin(finite))]


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
    """Write a header line and a 2-D float table as CSV at full precision."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(_format_rows(table, ","))


def _format_rows(table, sep):
    """Yield a 2-D float table's text lines, one % format per block of rows."""
    table = np.asarray(table, dtype=float)
    row = sep.join([_NUMBER] * table.shape[1]) + "\n"
    for start in range(0, table.shape[0], _BLOCK_ROWS):
        block = table[start : start + _BLOCK_ROWS]
        yield (row * block.shape[0]) % tuple(block.ravel().tolist())


def format_key_values(rows, sep=",") -> str:
    """One `key<sep>value` line per row: a float at full precision, else str()."""
    return "".join(
        f"{key}{sep}{_NUMBER % value if isinstance(value, float) else value}\n"
        for key, value in rows
    )


def write_key_values(path, rows) -> None:
    """Write (key, value) rows as a `key,value` CSV report."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("key,value\n" + format_key_values(rows))


_MAGIC = "spline-model"
_VERSION = 1


class ModelFileError(ValueError):
    """A model file that cannot be parsed or is internally inconsistent."""


def save_model(path, model: SplineModel, threshold=None, orders=None) -> None:
    """Write a model as versioned structured text with full-precision numbers.

    threshold and orders are optional fit settings carried along so later
    reporting can reassemble the penalty for the same configuration. Settings
    load_model would refuse raise ValueError before the file is opened.
    """
    if threshold is not None:
        _check_threshold(float(threshold))
    if orders is not None:
        _penalty_orders(orders, model.degree, float(threshold or 0.0))

    def keyed(key, values):
        return key + " " + "".join(_format_rows([values], " "))

    head = [
        f"{_MAGIC} {_VERSION}\n",
        f"dim {model.d}\n",
        f"values {model.num_values}\n",
        f"degree {model.degree}\n",
        "shape " + " ".join(str(n) for n in model.shape) + "\n",
        keyed("bbox_min", model.bbox_min),
        keyed("bbox_max", model.bbox_max),
    ]
    if threshold is not None:
        head.append(keyed("threshold", [float(threshold)]))
    if orders is not None:
        head.append("orders " + " ".join(str(int(o)) for o in orders) + "\n")
    head += [keyed("knots", kv.knots) for kv in model.knot_vectors]
    head.append(f"controls {model.n_tot}\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(head))
        handle.writelines(_format_rows(model.controls, " "))


class _ModelReader:
    def __init__(self, path):
        self.path = path
        with open(path, "r", encoding="utf-8") as handle:
            self.lines = handle.read().splitlines()
        self.at = 0  # lines read so far

    def fail(self, message):
        raise ModelFileError(f"{self.path}: line {self.at}: {message}")

    def next_line(self, wanted):
        self.at += 1
        if self.at > len(self.lines):
            self.fail(f"unexpected end of file (wanted {wanted})")
        return self.lines[self.at - 1].split()

    def numbers(self, what, parts, count=None, kind=float):
        try:
            values = [kind(p) for p in parts]
        except ValueError:
            self.fail(f"bad number in {what}")
        if count is not None and len(values) != count:
            self.fail(f"{what} needs {count} values, got {len(values)}")
        return values

    def keyed(self, key, count=None, kind=float):
        parts = self.next_line(key)
        if not parts or parts[0] != key:
            self.fail(f"expected {key!r}")
        return self.numbers(repr(key), parts[1:], count, kind)

    def peek_key(self):
        upcoming = self.lines[self.at].split() if self.at < len(self.lines) else []
        return upcoming[0] if upcoming else None


def load_model(path):
    """Read a saved model; returns (model, settings dict).

    settings carries 'threshold' and 'orders' when the file recorded them,
    else None, orders sorted and deduplicated. Raises ModelFileError on any
    structural problem and on orders FitConfig rejects for the file.
    """
    reader = _ModelReader(path)
    head = reader.next_line("header")
    if len(head) != 2 or head[0] != _MAGIC:
        reader.fail(f"not a {_MAGIC} file")
    if head[1] != str(_VERSION):
        reader.fail(f"unsupported version {head[1]}")
    (d,) = reader.keyed("dim", 1, int)
    (num_values,) = reader.keyed("values", 1, int)
    (degree,) = reader.keyed("degree", 1, int)
    if d < 1 or num_values < 1 or degree < 1:
        reader.fail("dim, values, and degree must be positive")
    shape = reader.keyed("shape", d, int)
    bbox_min = reader.keyed("bbox_min", d)
    bbox_max = reader.keyed("bbox_max", d)
    settings = {"threshold": None, "orders": None}
    if reader.peek_key() == "threshold":
        (settings["threshold"],) = reader.keyed("threshold", 1)
        try:
            _check_threshold(settings["threshold"])
        except ValueError as exc:
            reader.fail(str(exc))
    if reader.peek_key() == "orders":
        orders = reader.keyed("orders", None, int)
        try:
            settings["orders"] = _penalty_orders(orders, degree, settings["threshold"] or 0.0)
        except ValueError as exc:
            reader.fail(str(exc))
    knot_vectors = []
    for k in range(d):
        knots = reader.keyed("knots", shape[k] + degree + 1)
        try:
            knot_vectors.append(KnotVector(degree, np.array(knots)))
        except ValueError as exc:
            reader.fail(f"invalid knot vector: {exc}")
    (n_tot,) = reader.keyed("controls", 1, int)
    if n_tot != math.prod(shape):
        reader.fail(f"controls count {n_tot} does not match shape")
    what = "control row"
    rows = [reader.numbers(what, reader.next_line(what), num_values) for _ in range(n_tot)]
    # built from the rows read, never sized by the header's counts alone
    controls = np.array(rows).reshape(n_tot, num_values)
    try:
        model = SplineModel(tuple(knot_vectors), controls, bbox_min, bbox_max)
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from None
    return model, settings


def resample_grid(model: SplineModel, shape) -> tuple[list[np.ndarray], np.ndarray]:
    """Evaluate the model on an equispaced tensor grid including endpoints.

    Returns the per-dimension physical axis arrays and the value array of
    shape (*shape, D_v).
    """
    return _sample_box(model, shape, model.bbox_min, model.bbox_max)


def grid_to_cloud(axes, values) -> PointCloud:
    """Flatten grid output to a cloud in row-major (last axis fastest) order."""
    coords = grid_points(axes)
    return PointCloud(coords, values.reshape(coords.shape[0], -1))
