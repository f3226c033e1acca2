"""The three workloads: inputs from a seed, one timed round, and its checks.

A round is one fixed list of operations (a fit, an evaluation batch, an
error measurement or a CLI command). Every round of a run attempts the same
operations. The checks verify every operation of the first round against
computations made apart from the program (see reference.py); later rounds
must agree with the first.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import reference as ref
import scatterspline as ss
from scatterspline import cli

PI = math.pi
POLYSINC_BOX = (-4.0 * PI, 4.0 * PI)


@dataclass
class Op:
    key: str
    kind: str  # fit, eval, errors or cli
    seconds: float
    points: int
    result: object
    error: Exception | None


@dataclass
class Round:
    ops: list = field(default_factory=list)
    wall: float = 0.0
    calibration: list = field(default_factory=list)  # kernel times in the round

    def op(self, key):
        return next(op for op in self.ops if op.key == key)

    @property
    def fit_seconds(self):
        return sum(op.seconds for op in self.ops if op.kind == "fit")

    @property
    def eval_mpts_per_s(self):
        evals = [op for op in self.ops if op.kind == "eval"]
        return sum(op.points for op in evals) / sum(op.seconds for op in evals) / 1e6


class Recorder:
    """Runs one round's operations, each after a garbage collection and
    followed by a calibration of the host, if one is given."""

    def __init__(self, tracer, host=None):
        self.tracer, self.host = tracer, host
        self.round = Round()
        self.calibrating = 0.0

    def run(self, key, kind, call, points=0):
        gc.collect()
        with self.tracer.span("op " + key):
            start = time.perf_counter()
            try:
                result, error = call(), None
            except Exception as exc:  # recorded; the checks decide
                result, error = None, exc
            seconds = time.perf_counter() - start
        self.round.ops.append(Op(key, kind, seconds, points, result, error))
        if self.host is not None:
            start = time.perf_counter()
            self.host.run(seconds)
            self.calibrating += time.perf_counter() - start
        return result


def _digest(result):
    if isinstance(result, tuple) and isinstance(result[0], ss.SplineModel):
        return result[0].controls
    if isinstance(result, ss.ErrorStats):
        return np.array([result.max_error, result.rms_error, result.num_samples])
    return np.asarray(result, dtype=float)


def _close(a, b, rtol=1e-9):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)))
    return a.shape == b.shape and ref.max_diff(a, b) <= rtol * scale


class Workload:
    """Base: subclasses define generate, ops, verify and their sizes."""

    name = ""
    warm = {}  # constructor arguments of the small warm-up instance

    def __init__(self, workdir=None):
        self.workdir = workdir

    def warm_up(self, seed, tracer):
        small = type(self)(workdir=self.workdir, **self.warm)
        small.run_round(small.generate(seed), tracer, "warm")

    def run_round(self, inputs, tracer, label, host=None):
        """One round; its wall time leaves out the calibrations."""
        recorder = Recorder(tracer, host)
        sampled = len(host.times) if host else 0
        start = time.perf_counter()
        self.ops(inputs, recorder, label)
        recorder.round.wall = time.perf_counter() - start - recorder.calibrating
        if host:
            recorder.round.calibration = host.times[sampled:]
        return recorder.round

    def expected_error(self, key):
        return None

    def same(self, first, later):
        if first.error is not None or later.error is not None:
            return type(first.error) is type(later.error)
        return _close(_digest(first.result), _digest(later.result))

    def round_problems(self, rnd):
        """Failures of properties that span several operations of a round."""
        return {}

    def check(self, inputs, rounds):
        """Failure messages keyed by (round index, op key)."""
        failures = {}
        first = rounds[0]
        for op in first.ops:
            expected = self.expected_error(op.key)
            if expected is not None and not isinstance(op.error, expected):
                failures[(0, op.key)] = f"expected {expected.__name__}, got {op.error!r}"
            elif expected is None and op.error is not None:
                failures[(0, op.key)] = f"raised {op.error!r}"
        for key, message in self.verify(inputs, first).items():
            failures.setdefault((0, key), message)
        for index, rnd in enumerate(rounds[1:], start=1):
            for op in rnd.ops:
                if (0, op.key) in failures:
                    failures[(index, op.key)] = "failed in round 0"
                elif not self.same(first.op(op.key), op):
                    failures[(index, op.key)] = "differs from round 0"
        for index, rnd in enumerate(rounds):
            for key, message in self.round_problems(rnd).items():
                failures.setdefault((index, key), message)
        return failures


class FitChecker:
    """Independent checks of one fitted system against its control grid."""

    def __init__(self, shape, degree, orders):
        self.p = degree
        self.knots = [ref.clamped_knots(n, degree) for n in shape]
        self.deltas = ref.derivative_multi_indices(len(shape), orders)
        self.maximizers = [ref.maximizers(t, degree) for t in self.knots]
        self.penalty = None

    def problems(self, system, params, values, threshold, controls, colloc=None):
        """Messages for every law the fitted system breaks (empty if none)."""
        out = []
        if not all(np.array_equal(kv.knots, t) for kv, t in zip(system.knots, self.knots)):
            out.append("knot vectors differ from uniform clamped knots")
        N = ref.collocation(params, self.knots, self.p) if colloc is None else colloc
        err = ref.max_diff(N, system.collocation)
        if err > 1e-12:
            out.append(f"collocation differs from BSpline.design_matrix by {err:.2e}")
        s = np.asarray(N.sum(axis=0)).ravel()
        law = s + system.lambdas * system.penalty_col_sums - np.maximum(s, threshold)
        if np.max(np.abs(law)) > 1e-12:
            out.append(f"column-sum law off by {np.max(np.abs(law)):.2e}")
        # a search that compares basis values cannot place a maximum closer
        # than about sqrt(machine epsilon) times the support width
        for mine, theirs in zip(self.maximizers, system.maximizer_axes):
            if ref.max_diff(mine, theirs) > 1e-7:
                out.append(f"maximizers off by {ref.max_diff(mine, theirs):.2e}")
        if [tuple(d) for d in system.deltas] != self.deltas:
            out.append(f"penalty blocks {system.deltas} != {self.deltas}")
        if self.penalty is None:
            self.penalty = ref.penalty(self.knots, self.p, system.maximizer_axes, self.deltas)
        scale = float(abs(self.penalty).max())
        err = ref.max_diff(self.penalty, system.penalty)
        if err > 1e-10 * scale:
            out.append(f"penalty differs from BSpline derivatives by {err:.2e}")
        residual = ref.normal_residual(N, self.penalty, system.lambdas, controls, values)
        if np.max(residual) > 1e-10:
            out.append(f"normal-equation residual {np.max(residual):.2e}")
        return out

    def eval_problem(self, controls, params, values):
        expected = ref.evaluate(self.knots, self.p, controls, params)
        values = np.asarray(values).reshape(expected.shape)
        tol = 1e-12 * max(float(np.ptp(expected)), 1e-300)
        err = ref.max_diff(expected, values)
        return f"differs from NdBSpline by {err:.2e}" if err > tol else None


def _params(coords, lo, hi):
    return (coords - lo) / (hi - lo)


def _polysinc_roi_problem(checker, model, stats, half, max_error):
    """pointwise_errors against polysinc on the 512x512 grid of the ROI
    [-half, half]^2, recomputed with NdBSpline, and the error bound."""
    axis = np.linspace(-half, half, 512)
    coords = ref.grid_points([axis, axis])
    params = _params(coords, model.bbox_min, model.bbox_max)
    fitted = ref.evaluate(checker.knots, checker.p, model.controls, params)[:, 0]
    diff = np.abs(fitted - ref.polysinc(coords[:, 0], coords[:, 1]))
    mine = (diff.max(), math.sqrt(np.mean(diff**2)))
    if not _close([stats.max_error, stats.rms_error], mine, 1e-9):
        return f"errors {stats.max_error}, {stats.rms_error} != recomputed {mine}"
    if stats.max_error > max_error:
        return f"fit is {stats.max_error:.3f} from polysinc in the ROI"
    return None


# --------------------------------------------------------------------- voids2d


class Voids2d(Workload):
    """The paper's two-void sparsity study (acceptance criterion 6 layout)."""

    name = "voids2d"
    sparsities = (0.02, 0.32, 1.0)
    thresholds = (1.0, 0.0)
    singular = (0.02, 0.0)
    degree = 4
    orders = (2,)
    roi = 3.5 * PI
    max_error = 0.3
    warm = {"count": 3000, "shape": (12, 12), "query": 2000, "grid": 32}

    def __init__(self, workdir=None, count=30_000, shape=(48, 48), query=120_000, grid=256):
        super().__init__(workdir)
        self.count, self.shape, self.query, self.grid = count, shape, query, grid

    @staticmethod
    def key(kind, sparsity, threshold):
        return f"{kind} sparsity={sparsity} threshold={threshold}"

    def generate(self, seed):
        clouds = {}
        for sparsity in self.sparsities:
            voids = tuple(
                ss.VoidSpec(center, 1.5 * PI, sparsity)
                for center in ((-2 * PI, -2 * PI), (2 * PI, 2 * PI))
            )
            config = ss.SynthConfig(count=self.count, seed=seed, voids=voids)
            clouds[sparsity] = ss.generate_polysinc_cloud(config)
        query = np.random.default_rng(seed).uniform(0.0, 1.0, size=(self.query, 2))
        axes = [np.linspace(0.0, 1.0, self.grid)] * 2
        return {"clouds": clouds, "query": query, "axes": axes}

    def ops(self, inputs, rec, label):
        roi = ss.RegionOfInterest((-self.roi,) * 2, (self.roi,) * 2)
        query, axes = inputs["query"], inputs["axes"]
        for sparsity in self.sparsities:
            cloud = inputs["clouds"][sparsity]
            for threshold in self.thresholds:
                config = ss.FitConfig(self.degree, self.shape, threshold, self.orders)
                fit = rec.run(
                    self.key("fit", sparsity, threshold), "fit",
                    lambda: ss.fit_cloud(cloud, config),
                )
                if (sparsity, threshold) == self.singular:
                    continue
                model = fit[0] if fit else None
                rec.run(
                    self.key("errors", sparsity, threshold), "errors",
                    lambda: ss.pointwise_errors(
                        model, lambda c: ss.polysinc(c[:, 0], c[:, 1]), roi=roi
                    ),
                )
                rec.run(
                    self.key("eval", sparsity, threshold), "eval",
                    lambda: ss.eval_model_many(model, query), len(query),
                )
                rec.run(
                    self.key("grid", sparsity, threshold), "eval",
                    lambda: ss.eval_model_grid(model, axes), self.grid**2,
                )

    def expected_error(self, key):
        if key == self.key("fit", *self.singular):
            return ss.RankDeficientError
        return None

    def verify(self, inputs, rnd):
        checker = FitChecker(self.shape, self.degree, self.orders)
        failures = {}
        for sparsity in self.sparsities:
            cloud = inputs["clouds"][sparsity]
            params = _params(cloud.coords, cloud.bbox_min, cloud.bbox_max)
            colloc = ref.collocation(params, checker.knots, checker.p)
            for threshold in self.thresholds:
                fit = rnd.op(self.key("fit", sparsity, threshold))
                if fit.error is not None:
                    continue
                model = fit.result[0]
                config = ss.FitConfig(self.degree, self.shape, threshold, self.orders)
                system = ss.assemble_system(cloud, config)
                problems = checker.problems(
                    system, params, cloud.values, threshold, model.controls, colloc
                )
                if problems:
                    failures[fit.key] = "; ".join(problems)
                for kind, points in (
                    ("eval", inputs["query"]),
                    ("grid", ref.grid_points(inputs["axes"])),
                ):
                    op = rnd.op(self.key(kind, sparsity, threshold))
                    if op.error is None:
                        problem = checker.eval_problem(model.controls, points, op.result)
                        if problem:
                            failures[op.key] = problem
                op = rnd.op(self.key("errors", sparsity, threshold))
                if op.error is None:
                    problem = self.errors_problem(checker, model, op.result)
                    if problem:
                        failures[op.key] = problem
        return failures

    def errors_problem(self, checker, model, stats):
        return _polysinc_roi_problem(checker, model, stats, self.roi, self.max_error)

    def round_problems(self, rnd):
        """The paper's property: regularized errors stay flat over sparsity."""
        def outcome(sparsity):
            fit = rnd.op(self.key("fit", sparsity, 1.0))
            if fit.error is not None:
                return None, None
            errors = rnd.op(self.key("errors", sparsity, 1.0)).result
            return fit.result[1], errors.max_error if errors else math.nan

        # that the plain fit at sparsity 0.02 fails is checked by expected_error
        regularized = [outcome(s) for s in self.sparsities]
        problems = []
        if any(report is None for report, _ in regularized):
            problems.append("a regularized fit failed")
        else:
            errors = [e for _, e in regularized]
            if not max(errors) < 10.0 * min(errors):
                problems.append(f"regularized errors vary {max(errors) / min(errors):.1f}x")
            if not all(math.isfinite(r.cond_stacked) for r, _ in regularized):
                problems.append("a regularized condition number is infinite")
        message = "; ".join(problems)
        keys = [self.key("fit", s, 1.0) for s in self.sparsities]
        return {key: message for key in keys} if message else {}


# ------------------------------------------------------------------- grid3d


def _field(coords):
    """Two smooth value columns on the cube."""
    x, y, z = coords[:, 0], coords[:, 1], coords[:, 2]
    first = np.sin(2.0 * x) * np.cos(1.5 * y) * np.exp(0.5 * z)
    second = np.exp(-(x**2 + 2.0 * y**2 + 0.5 * z**2))
    return np.column_stack([first, second])


class Grid3d(Workload):
    """A 3-D cloud on [-1, 1]^3 with a thinned spherical void, two fields.

    One fit_cloud per round, then the model evaluated at the queries and
    on a grid.
    """

    name = "grid3d"
    degree = 3
    threshold = 5.0
    orders = (2,)
    center = np.array([0.2, -0.1, 0.15])
    radius = 0.45
    sparsity = 0.02
    max_error = 0.05
    warm = {"count": 4000, "shape": (6, 6, 6), "query": 2000, "grid": 8}

    def __init__(self, workdir=None, count=40_000, shape=(12, 12, 12), query=270_000, grid=56):
        super().__init__(workdir)
        self.count, self.shape, self.query, self.grid = count, shape, query, grid

    def config(self):
        return ss.FitConfig(self.degree, self.shape, self.threshold, self.orders)

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        chunks, kept = [], 0
        while kept < self.count:
            cand = rng.uniform(-1.0, 1.0, size=(self.count, 3))
            inside = np.sum((cand - self.center) ** 2, axis=1) < self.radius**2
            cand = cand[~inside | (rng.uniform(size=self.count) < self.sparsity)]
            chunks.append(cand)
            kept += len(cand)
        coords = np.concatenate(chunks)[: self.count]
        cloud = ss.PointCloud(coords, _field(coords), np.full(3, -1.0), np.full(3, 1.0))
        query = rng.uniform(0.0, 1.0, size=(self.query, 3))
        return {"cloud": cloud, "query": query, "axes": [np.linspace(0.0, 1.0, self.grid)] * 3}

    def ops(self, inputs, rec, label):
        config = self.config()
        fit = rec.run("fit", "fit", lambda: ss.fit_cloud(inputs["cloud"], config))
        model = fit[0] if fit else None
        rec.run("eval", "eval", lambda: ss.eval_model_many(model, inputs["query"]),
                self.query)
        rec.run("grid", "eval", lambda: ss.eval_model_grid(model, inputs["axes"]),
                self.grid**3)

    def verify(self, inputs, rnd):
        fit = rnd.op("fit")
        if fit.error is not None:
            return {}
        checker = FitChecker(self.shape, self.degree, self.orders)
        cloud, query = inputs["cloud"], inputs["query"]
        model = fit.result[0]
        system = ss.assemble_system(cloud, self.config())
        params = _params(cloud.coords, cloud.bbox_min, cloud.bbox_max)
        problems = checker.problems(
            system, params, cloud.values, self.threshold, model.controls
        )
        if not np.any(system.lambdas > 0):
            problems.append("no lambda switched on in the void")
        failures = {"fit": "; ".join(problems)} if problems else {}
        for key, points in (("eval", query), ("grid", ref.grid_points(inputs["axes"]))):
            op = rnd.op(key)
            if op.error is None:
                problem = checker.eval_problem(model.controls, points, op.result)
                if key == "eval" and not problem:
                    coords = model.bbox_min + query * (model.bbox_max - model.bbox_min)
                    problem = self.accuracy_problem(coords, op.result)
                if problem:
                    failures[key] = problem
        return failures

    def accuracy_problem(self, coords, values):
        """Away from the void and the faces of the cube."""
        away = np.sum((coords - self.center) ** 2, axis=1) > (self.radius + 0.25) ** 2
        inside = away & np.all(np.abs(coords) <= 0.8, axis=1)
        worst = float(np.max(np.abs(values[inside] - _field(coords[inside]))))
        if worst > self.max_error:
            return f"fit is {worst:.3f} from the fields away from the void"
        return None


# ------------------------------------------------------------------ pipeline2d


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _table(path):
    """Header fields and numeric rows of a CSV written by the program."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _key_values(path):
    with open(path, encoding="utf-8") as handle:
        rows = [line.strip().split(",", 1) for line in handle.readlines()[1:]]
    return dict(rows)


class Pipeline2d(Workload):
    """The CLI in process: synth, fit --report, report twice, eval twice."""

    name = "pipeline2d"
    degree = 3
    threshold = 10.0
    orders = (2,)
    roi = 11.0
    max_error = 0.3
    warm = {"count": 3000, "ctrl": (8, 8), "query": 1000, "grid": 20}
    outputs = {
        "synth": ["cloud.csv"],
        "fit": ["model.txt", "fit.csv"],
        "report polysinc": ["report_polysinc.csv"],
        "report cloud": ["report_cloud.csv", "lambdas.csv"],
        "eval grid": ["grid.csv"],
        "eval points": ["points.csv"],
    }

    def __init__(self, workdir=None, count=100_000, ctrl=(20, 20), query=100_000, grid=300):
        super().__init__(workdir)
        self.count, self.ctrl, self.query, self.grid = count, ctrl, query, grid

    def generate(self, seed):
        os.makedirs(self.workdir, exist_ok=True)
        query = os.path.join(self.workdir, f"query-{self.count}.csv")
        half = 0.9 * POLYSINC_BOX[1]
        coords = np.random.default_rng(seed).uniform(-half, half, size=(self.query, 2))
        np.savetxt(query, coords, fmt="%.17g", delimiter=",", header="x1,x2", comments="")
        return {"seed": seed, "query": query, "coords": coords}

    def commands(self, inputs, out):
        def path(name):
            return os.path.join(out, name)

        ctrl = ",".join(str(n) for n in self.ctrl)
        roi = f"--roi={-self.roi},{self.roi},{-self.roi},{self.roi}"
        return {
            "synth": ["synth", "--kind", "polysinc", "--count", str(self.count),
                      "--seed", str(inputs["seed"]), "--out", path("cloud.csv")],
            "fit": ["fit", "--input", path("cloud.csv"), "--degree", str(self.degree),
                    "--ctrl", ctrl, "--threshold", repr(self.threshold), "--orders", "2",
                    "--out", path("model.txt"), "--report", path("fit.csv")],
            "report polysinc": ["report", "--model", path("model.txt"), "--reference",
                                "polysinc", roi, "--out", path("report_polysinc.csv")],
            "report cloud": ["report", "--model", path("model.txt"), "--reference",
                             path("cloud.csv"), "--lambda-out", path("lambdas.csv"),
                             "--out", path("report_cloud.csv")],
            "eval grid": ["eval", "--model", path("model.txt"), "--grid",
                          f"{self.grid},{self.grid}", "--out", path("grid.csv")],
            "eval points": ["eval", "--model", path("model.txt"), "--points",
                            inputs["query"], "--out", path("points.csv")],
        }

    def ops(self, inputs, rec, label):
        out = os.path.join(self.workdir, f"{self.count}-{label}")
        os.makedirs(out, exist_ok=True)
        kinds = {"synth": "cli", "fit": "fit", "eval grid": "eval", "eval points": "eval"}
        points = {"eval grid": self.grid**2, "eval points": self.query}
        for key, argv in self.commands(inputs, out).items():
            rec.run(key, kinds.get(key, "cli"), lambda: self._main(argv, out, key),
                    points.get(key, 0))

    def _main(self, argv, out, key):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return {name: os.path.join(out, name) for name in self.outputs[key]}

    def same(self, first, later):
        if first.error is not None or later.error is not None:
            return type(first.error) is type(later.error)
        return all(_sha256(path) == _sha256(later.result[name])
                   for name, path in first.result.items())

    def verify(self, inputs, rnd):
        checks = {
            "synth": self._check_synth,
            "fit": self._check_fit,
            "report polysinc": self._check_report_polysinc,
            "report cloud": self._check_report_cloud,
            "eval grid": self._check_eval_grid,
            "eval points": self._check_eval_points,
        }
        failures = {}
        files = {}
        for op in rnd.ops:
            if op.error is None:
                files.update(op.result)
        needed = {"cloud.csv", "model.txt"}
        if not needed <= files.keys():
            return {key: "inputs of the check are missing" for key in checks}
        cloud = ss.read_csv(files["cloud.csv"])
        model, settings = cli.load_model(files["model.txt"])
        context = {"cloud": cloud, "model": model, "settings": settings, "files": files,
                   "checker": FitChecker(self.ctrl, self.degree, self.orders),
                   "inputs": inputs}
        for op in rnd.ops:
            if op.error is None:
                problem = checks[op.key](context)
                if problem:
                    failures[op.key] = problem
        return failures

    def _check_synth(self, ctx):
        path = ctx["files"]["cloud.csv"]
        header, table = _table(path)
        config = ss.SynthConfig(count=self.count, seed=ctx["inputs"]["seed"])
        expected = ss.generate_polysinc_cloud(config)
        if header != ["x1", "x2", "v1"] or table.shape != (self.count, 3):
            return f"cloud.csv has header {header} and shape {table.shape}"
        if not (np.array_equal(table[:, :2], expected.coords)
                and np.array_equal(table[:, 2:], expected.values)):
            return "cloud.csv does not hold the generated cloud bit for bit"
        if ref.max_diff(table[:, 2], ref.polysinc(table[:, 0], table[:, 1])) > 1e-12:
            return "cloud values are not polysinc"
        copy = os.path.join(os.path.dirname(path), "cloud-roundtrip.csv")
        ss.write_csv(ctx["cloud"], copy)
        if _sha256(copy) != _sha256(path):
            return "read_csv then write_csv does not reproduce cloud.csv"
        return None

    def _check_fit(self, ctx):
        cloud, model, files = ctx["cloud"], ctx["model"], ctx["files"]
        path = files["model.txt"]
        copy = os.path.join(os.path.dirname(path), "model-roundtrip.txt")
        cli.save_model(copy, model, **ctx["settings"])
        if _sha256(copy) != _sha256(path):
            return "load_model then save_model does not reproduce model.txt"
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("controls "))
        controls = np.array([[float(v) for v in line.split()] for line in lines[start + 1:]])
        if not np.array_equal(controls, model.controls):
            return "controls in model.txt differ from the loaded model"
        config = ss.FitConfig(self.degree, self.ctrl, self.threshold, self.orders)
        system = ss.assemble_system(cloud, config)
        lo, hi = cloud.coords.min(axis=0), cloud.coords.max(axis=0)
        if not (np.array_equal(model.bbox_min, lo) and np.array_equal(model.bbox_max, hi)):
            return "model box is not the hull of the cloud"
        params = _params(cloud.coords, lo, hi)
        problems = ctx["checker"].problems(
            system, params, cloud.values, self.threshold, model.controls
        )
        report = _key_values(files["fit.csv"])
        if int(report["lambda_positive"]) != int(np.count_nonzero(system.lambdas > 0)):
            problems.append("fit report counts the wrong number of lambdas")
        if report["rank_deficient"] != "0" or not math.isfinite(float(report["cond_stacked"])):
            problems.append("fit report flags a singular system")
        return "; ".join(problems) or None

    def _report_problem(self, path, stats):
        rows = _key_values(path)
        written = [float(rows["max_error"]), float(rows["rms_error"]), int(rows["num_samples"])]
        if written != [stats.max_error, stats.rms_error, stats.num_samples]:
            return f"report {written} != pointwise_errors {stats}"
        return None

    def _check_report_polysinc(self, ctx):
        model = ctx["model"]
        roi = ss.RegionOfInterest((-self.roi,) * 2, (self.roi,) * 2)
        stats = ss.pointwise_errors(model, lambda c: ss.polysinc(c[:, 0], c[:, 1]), roi=roi)
        problem = self._report_problem(ctx["files"]["report_polysinc.csv"], stats)
        return problem or _polysinc_roi_problem(
            ctx["checker"], model, stats, self.roi, self.max_error
        )

    def _check_report_cloud(self, ctx):
        cloud, model, files = ctx["cloud"], ctx["model"], ctx["files"]
        stats = ss.pointwise_errors(model, cloud)
        problem = self._report_problem(files["report_cloud.csv"], stats)
        if problem:
            return problem
        header, table = _table(files["lambdas.csv"])
        if header != ["x1", "x2", "data_sum", "penalty_sum", "lambda"]:
            return f"lambdas.csv header {header}"
        checker = ctx["checker"]
        params = _params(cloud.coords, model.bbox_min, model.bbox_max)
        s = np.asarray(ref.collocation(params, checker.knots, checker.p).sum(axis=0)).ravel()
        if not _close(table[:, 2], s, 1e-12):
            return "data_sum column differs from the independent column sums"
        law = s + table[:, 4] * table[:, 3] - np.maximum(s, self.threshold)
        if np.max(np.abs(law)) > 1e-12:
            return f"lambda rows break the column-sum law by {np.max(np.abs(law)):.2e}"
        return None

    def _check_eval_grid(self, ctx):
        model, checker = ctx["model"], ctx["checker"]
        header, table = _table(ctx["files"]["grid.csv"])
        axis = np.linspace(0.0, 1.0, self.grid)
        params = ref.grid_points([axis, axis])
        coords = model.bbox_min + params * (model.bbox_max - model.bbox_min)
        if header != ["x1", "x2", "v1"] or not _close(table[:, :2], coords, 1e-15):
            return "grid.csv coordinates are not the resampling grid"
        return checker.eval_problem(model.controls, params, table[:, 2:])

    def _check_eval_points(self, ctx):
        model, checker = ctx["model"], ctx["checker"]
        header, table = _table(ctx["files"]["points.csv"])
        coords = ctx["inputs"]["coords"]
        if header != ["x1", "x2", "v1"] or not np.array_equal(table[:, :2], coords):
            return "points.csv coordinates differ from the query points"
        params = model.to_params(coords)
        if not _close(table[:, 2:], ss.eval_model_many(model, params), 1e-14):
            return "eval output differs from eval_model_many on the loaded model"
        return checker.eval_problem(model.controls, params, table[:, 2:])


WORKLOADS = {w.name: w for w in (Voids2d, Grid3d, Pipeline2d)}
