"""Command-line front end: generate clouds, fit models, evaluate, report.

Exit codes: 0 success, 2 usage or invalid settings, 3 numerical failure
(rank-deficient or non-converged fit), 4 unreadable or malformed files.
Every failure prints a single line starting with `error:` to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .assembly import FitConfig, PointCloud, assemble_system
from .bsplines import KnotVector, SplineModel, eval_model_many
from .datasets import (
    CsvParseError,
    SynthConfig,
    VoidSpec,
    generate_annulus_cloud,
    generate_polysinc_cloud,
    grid_to_cloud,
    polysinc,
    read_csv,
    read_points,
    resample_grid,
    write_csv,
    write_table,
)
from .metrics import RegionOfInterest, lambda_field, pointwise_errors
from .solver import (
    NotConvergedError,
    RankDeficientError,
    SolveOptions,
    solve,
)

__all__ = ["main", "save_model", "load_model", "ModelFileError"]

_MAGIC = "spline-model"
_VERSION = 1


class ModelFileError(ValueError):
    """A model file that cannot be parsed or is internally inconsistent."""


def _fmt(values) -> str:
    return " ".join(format(float(v), ".17g") for v in values)


def save_model(path, model: SplineModel, threshold=None, orders=None) -> None:
    """Write a model as versioned structured text with full-precision numbers.

    threshold and orders are optional fit settings carried along so later
    reporting can reassemble the penalty for the same configuration.
    """
    lines = [
        f"{_MAGIC} {_VERSION}",
        f"dim {model.d}",
        f"values {model.num_values}",
        f"degree {model.degree}",
        "shape " + " ".join(str(n) for n in model.shape),
        "bbox_min " + _fmt(model.bbox_min),
        "bbox_max " + _fmt(model.bbox_max),
    ]
    if threshold is not None:
        lines.append("threshold " + format(float(threshold), ".17g"))
    if orders is not None:
        lines.append("orders " + " ".join(str(int(o)) for o in orders))
    for kv in model.knot_vectors:
        lines.append("knots " + _fmt(kv.knots))
    lines.append(f"controls {model.n_tot}")
    for row in model.controls:
        lines.append(_fmt(row))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


class _ModelReader:
    def __init__(self, path):
        self.path = path
        with open(path, "r", encoding="utf-8") as handle:
            self.lines = handle.read().splitlines()
        self.at = 0

    def fail(self, message):
        raise ModelFileError(f"{self.path}: line {self.at}: {message}")

    def next_line(self, key=None):
        if self.at >= len(self.lines):
            self.at += 1
            self.fail(f"unexpected end of file (wanted {key or 'data'})")
        line = self.lines[self.at]
        self.at += 1
        return line.split()

    def keyed(self, key, count=None, kind=float):
        parts = self.next_line(key)
        if not parts or parts[0] != key:
            self.fail(f"expected {key!r}")
        try:
            values = [kind(p) for p in parts[1:]]
        except ValueError:
            self.fail(f"bad number in {key!r}")
        if count is not None and len(values) != count:
            self.fail(f"{key!r} needs {count} values, got {len(values)}")
        return values

    def peek_key(self):
        if self.at >= len(self.lines):
            return None
        parts = self.lines[self.at].split()
        return parts[0] if parts else None


def load_model(path):
    """Read a saved model; returns (model, settings dict).

    settings carries 'threshold' and 'orders' when the file recorded them,
    else None. Raises ModelFileError on any structural problem.
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
        if not 0.0 <= settings["threshold"] < math.inf:
            reader.fail("threshold must be finite and >= 0")
    if reader.peek_key() == "orders":
        settings["orders"] = tuple(reader.keyed("orders", None, int))
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
    rows = []
    for _ in range(n_tot):
        parts = reader.next_line("control row")
        if len(parts) != num_values:
            reader.fail(f"control row needs {num_values} values")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            reader.fail("bad number in control row")
    # built from the rows read, never sized by the header's counts alone
    controls = np.array(rows).reshape(n_tot, num_values)
    try:
        model = SplineModel(tuple(knot_vectors), controls, bbox_min, bbox_max)
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from None
    return model, settings


def _int_tuple(text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _void_arg(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("--void wants cx,cy,r,sparsity")
    try:
        cx, cy, r, s = (float(p) for p in parts)
        return VoidSpec((cx, cy), r, s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --void: {exc}")


def _roi_arg(text):
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad --roi: {text!r}")
    if len(values) % 2:
        raise argparse.ArgumentTypeError("--roi wants min,max pairs per dimension")
    return RegionOfInterest(tuple(values[0::2]), tuple(values[1::2]))


class _Parser(argparse.ArgumentParser):
    # exit code 2 with a bare `error:` prefix, parseable by scripts
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser():
    parser = _Parser(prog="scatterspline", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic point cloud CSV")
    p.add_argument("--kind", choices=("polysinc", "annulus"), required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--void",
        type=_void_arg,
        action="append",
        help="cx,cy,r,sparsity; repeatable; replaces the default layout",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit a spline model to a CSV cloud")
    p.add_argument("--input", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--ctrl", type=_int_tuple, required=True, metavar="N1,N2[,N3]")
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--orders", type=_int_tuple, default=(2,), metavar="2|1,2")
    p.add_argument("--solver", choices=("direct", "cg"), default="direct",
                   help="banded Cholesky (default) or conjugate gradients")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="also write solve diagnostics as key,value CSV")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval", help="evaluate a saved model")
    p.add_argument("--model", required=True)
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--grid", type=_int_tuple, metavar="N1,N2[,N3]")
    where.add_argument("--points", help="CSV with x1..xd columns")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="error metrics against a reference")
    p.add_argument("--model", required=True)
    p.add_argument(
        "--reference",
        required=True,
        help="'polysinc' or a CSV cloud path",
    )
    p.add_argument(
        "--roi",
        type=_roi_arg,
        metavar="X1MIN,X1MAX,X2MIN,X2MAX",
        help="restrict metrics to a box; write --roi=-1,1,.. for negative bounds",
    )
    p.add_argument("--grid", type=_int_tuple, metavar="N1,N2[,N3]")
    p.add_argument("--out", help="write metrics as key,value CSV")
    p.add_argument("--lambda-out", help="write the per-control penalty weights")
    p.set_defaults(func=_cmd_report)

    return parser


def _cmd_synth(args) -> int:
    voids = tuple(args.void) if args.void else None
    cfg = SynthConfig(count=args.count, seed=args.seed, voids=voids)
    if args.kind == "polysinc":
        cloud = generate_polysinc_cloud(cfg)
    else:
        cloud = generate_annulus_cloud(cfg)
    write_csv(cloud, args.out)
    print(f"wrote {cloud.coords.shape[0]} points to {args.out}")
    return 0


def _write_kv_csv(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("key,value\n")
        for key, value in rows:
            handle.write(f"{key},{value}\n")


def _report_rows(report, threshold, lambdas):
    rows = [
        ("method", report.method),
        ("iterations", report.iterations),
        ("rank_deficient", int(report.rank_deficient)),
        ("not_converged", int(report.not_converged)),
        ("cond_stacked", format(report.cond_stacked, ".17g")),
        ("cond_data", format(report.cond_data, ".17g")),
        ("threshold", format(threshold, ".17g")),
        ("lambda_positive", int(np.count_nonzero(lambdas > 0))),
        ("lambda_max", format(lambdas.max(initial=0.0), ".17g")),
    ]
    for k, value in enumerate(report.data_residual_norms):
        rows.append((f"data_residual_{k + 1}", format(value, ".17g")))
    for k, value in enumerate(report.residual_norms):
        rows.append((f"stacked_residual_{k + 1}", format(value, ".17g")))
    return rows


def _cmd_fit(args) -> int:
    cloud = read_csv(args.input)
    config = FitConfig(
        degree=args.degree,
        shape=args.ctrl,
        threshold=args.threshold,
        orders=args.orders,
    )
    system = assemble_system(cloud, config)
    controls, report = solve(system, SolveOptions(method=args.solver))
    model = SplineModel(system.knots, controls, cloud.bbox_min, cloud.bbox_max)
    save_model(args.out, model, threshold=args.threshold, orders=args.orders)
    if args.report:
        _write_kv_csv(
            args.report, _report_rows(report, args.threshold, system.lambdas)
        )
    residual = float(np.max(report.data_residual_norms))
    print(
        f"fit {cloud.coords.shape[0]} points with {config.n_tot} controls, "
        f"max data residual {residual:.3e}, wrote {args.out}"
    )
    return 0


def _cmd_eval(args) -> int:
    model, _ = load_model(args.model)
    if args.grid is not None:
        axes, values = resample_grid(model, args.grid)
        cloud = grid_to_cloud(axes, values)
    else:
        coords = read_points(args.points, model.d)
        params = model.to_params(coords)
        if np.any(params < 0.0) or np.any(params > 1.0):
            raise ValueError("points fall outside the model's bounding box")
        cloud = PointCloud(coords, eval_model_many(model, params))
    write_csv(cloud, args.out)
    print(f"wrote {cloud.coords.shape[0]} evaluations to {args.out}")
    return 0


def _cmd_report(args) -> int:
    model, settings = load_model(args.model)
    cloud = None
    if args.reference == "polysinc":
        if model.d != 2 or model.num_values != 1:
            raise ValueError("polysinc reference needs a 2D single-value model")

        def reference(coords):
            return polysinc(coords[:, 0], coords[:, 1])

    else:
        cloud = read_csv(args.reference)
        reference = cloud
    stats = pointwise_errors(model, reference, roi=args.roi, grid_shape=args.grid)
    rows = [
        ("max_error", format(stats.max_error, ".17g")),
        ("rms_error", format(stats.rms_error, ".17g")),
        ("num_samples", stats.num_samples),
    ]
    for key, value in rows:
        print(f"{key}={value}")
    if args.out:
        _write_kv_csv(args.out, rows)
    if args.lambda_out:
        if cloud is None:
            raise ValueError("lambda export needs the fitted cloud CSV as --reference")
        if settings["threshold"] is None or settings["orders"] is None:
            raise ValueError("model file does not record threshold and orders")
        config = FitConfig(
            degree=model.degree,
            shape=model.shape,
            threshold=settings["threshold"],
            orders=settings["orders"],
        )
        system = assemble_system(cloud, config)
        field = lambda_field(system)
        span = model.bbox_max - model.bbox_min
        physical = model.bbox_min + field.maximizers * span
        header = [f"x{k + 1}" for k in range(model.d)]
        header += ["data_sum", "penalty_sum", "lambda"]
        columns = (field.data_col_sums, field.penalty_col_sums, field.lambdas)
        write_table(args.lambda_out, header, np.column_stack((physical, *columns)))
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except (RankDeficientError, NotConvergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CsvParseError, ModelFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
