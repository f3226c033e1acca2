"""Command-line front end: generate clouds, fit models, evaluate, report.

The file formats live in `datasets`, including the `save_model`,
`load_model` and `ModelFileError` this module re-exports. Exit codes: 0
success, 2 usage or invalid settings, 3 rank-deficient fit, 4 unreadable or
malformed files. Every failure prints a single line starting with `error:` to
stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .assembly import FitConfig, PointCloud, assemble_system
from .bsplines import eval_model_many
from .datasets import (
    CsvParseError,
    ModelFileError,
    SynthConfig,
    VoidSpec,
    coords_digest,
    format_key_values,
    generate_annulus_cloud,
    generate_polysinc_cloud,
    grid_to_cloud,
    load_model,
    polysinc,
    read_csv,
    read_points,
    resample_grid,
    save_model,
    write_csv,
    write_key_values,
    write_table,
)
from .metrics import RegionOfInterest, lambda_field, pointwise_errors
from .solver import RankDeficientError, fit_cloud

__all__ = ["main", "save_model", "load_model", "ModelFileError"]


def _read(reader, path, *args):
    """reader(path, *args), with a byte that is not UTF-8 reported under the path."""
    try:
        return reader(path, *args)
    except UnicodeDecodeError as exc:  # its message has the offset, not the file
        raise UnicodeError(f"{path}: {exc}") from exc


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


def _report_rows(report, threshold):
    rows = [
        ("method", report.method),
        ("iterations", report.iterations),
        ("rank_deficient", int(report.rank_deficient)),
        ("cond_stacked", report.cond_stacked),
        ("cond_data", report.cond_data),
        ("threshold", threshold),
        ("lambda_positive", int(np.count_nonzero(report.lambdas > 0))),
        ("lambda_max", report.lambdas.max(initial=0.0)),
    ]
    rows += [(f"data_residual_{k + 1}", v) for k, v in enumerate(report.data_residual_norms)]
    rows += [(f"stacked_residual_{k + 1}", v) for k, v in enumerate(report.residual_norms)]
    return rows


def _cmd_fit(args) -> int:
    cloud = _read(read_csv, args.input)
    config = FitConfig(
        degree=args.degree,
        shape=args.ctrl,
        threshold=args.threshold,
        orders=args.orders,
    )
    model, report = fit_cloud(cloud, config)
    save_model(
        args.out, model, threshold=config.threshold, orders=config.orders,
        cloud_sha256=coords_digest(cloud.coords),
    )
    if args.report:
        write_key_values(args.report, _report_rows(report, args.threshold))
    residual = float(np.max(report.data_residual_norms))
    print(
        f"fit {cloud.coords.shape[0]} points with {config.n_tot} controls, "
        f"max data residual {residual:.3e}, wrote {args.out}"
    )
    return 0


def _cmd_eval(args) -> int:
    model, _ = _read(load_model, args.model)
    if args.grid is not None:
        axes, values = resample_grid(model, args.grid)
        cloud = grid_to_cloud(axes, values)
    else:
        coords = _read(read_points, args.points, model.d)
        params = model.to_params(coords)
        if np.any(params < 0.0) or np.any(params > 1.0):
            raise ValueError("points fall outside the model's bounding box")
        cloud = PointCloud(coords, eval_model_many(model, params))
    write_csv(cloud, args.out)
    print(f"wrote {cloud.coords.shape[0]} evaluations to {args.out}")
    return 0


def _cmd_report(args) -> int:
    model, settings = _read(load_model, args.model)
    if args.lambda_out:
        # refused before any metric is printed or written
        if args.reference == "polysinc":
            raise ValueError("lambda export needs the fitted cloud CSV as --reference")
        if settings["threshold"] is None or settings["orders"] is None:
            raise ValueError("model file does not record threshold and orders")
        config = FitConfig(model.degree, model.shape, settings["threshold"], settings["orders"])
    if args.reference == "polysinc":
        if model.d != 2 or model.num_values != 1:
            raise ValueError("polysinc reference needs a 2D single-value model")

        def reference(coords):
            return polysinc(coords[:, 0], coords[:, 1])

    else:
        cloud = _read(read_csv, args.reference)
        reference = cloud
        # the weights are assembled on the cloud's own box: the fitted cloud
        # has the model's, since save_model writes it bit for bit
        if args.lambda_out and not (
            np.array_equal(cloud.bbox_min, model.bbox_min)
            and np.array_equal(cloud.bbox_max, model.bbox_max)
        ):
            raise ValueError(
                "lambda export needs the fitted cloud as --reference: its "
                "bounding box differs from the model's"
            )
        digest = settings["cloud_sha256"]  # not recorded by older files
        if args.lambda_out and digest not in (None, coords_digest(cloud.coords)):
            raise ValueError(
                "lambda export needs the fitted cloud as --reference: its "
                "coordinates differ from the fitted cloud's"
            )
    stats = pointwise_errors(model, reference, roi=args.roi, grid_shape=args.grid)
    rows = [
        ("max_error", stats.max_error),
        ("rms_error", stats.rms_error),
        ("num_samples", stats.num_samples),
    ]
    print(format_key_values(rows, "="), end="")
    if args.out:
        write_key_values(args.out, rows)
    if args.lambda_out:
        system = assemble_system(cloud, config)
        field = lambda_field(system)
        physical = model.to_coords(field.maximizers)
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
    except (RankDeficientError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, RankDeficientError):
            return 3
        unreadable = (CsvParseError, ModelFileError, OSError, UnicodeError)
        return 4 if isinstance(exc, unreadable) else 2


if __name__ == "__main__":
    sys.exit(main())
