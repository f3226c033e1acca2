"""Command-line interface: flags, exit codes, file formats."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import scatterspline
from scatterspline import (
    FitConfig,
    assemble_system,
    SplineModel,
    read_csv,
    resample_grid,
    uniform_clamped_knots,
    write_csv,
)
from scatterspline.cli import ModelFileError, load_model, main, save_model
from scatterspline.datasets import grid_to_cloud


def random_model(seed=0, n=8, p=3, box=((-2.0, 3.0), (1.0, 4.0))):
    kv = uniform_clamped_knots(n, p)
    rng = np.random.default_rng(seed)
    controls = rng.normal(size=(n * n, 1))
    lo = [b[0] for b in box]
    hi = [b[1] for b in box]
    return SplineModel((kv, kv), controls, lo, hi)


def spline_csv(path, seed=0, grid=(30, 30)):
    """CSV sampled from a random spline; returns the source model."""
    model = random_model(seed=seed)
    axes, values = resample_grid(model, grid)
    write_csv(grid_to_cloud(axes, values), path)
    return model


class TestModelFile:
    def test_round_trip_exact(self, tmp_path):
        model = random_model(seed=5)
        path = tmp_path / "m.model"
        save_model(path, model, threshold=1.5, orders=(1, 2))
        back, settings = load_model(path)
        assert back.degree == model.degree
        assert back.shape == model.shape
        assert_array_equal(back.controls, model.controls)
        for kv_a, kv_b in zip(back.knot_vectors, model.knot_vectors):
            assert_array_equal(kv_a.knots, kv_b.knots)
        assert_array_equal(back.bbox_min, model.bbox_min)
        assert_array_equal(back.bbox_max, model.bbox_max)
        assert settings["threshold"] == 1.5
        assert settings["orders"] == (1, 2)

    def test_settings_optional(self, tmp_path):
        model = random_model()
        path = tmp_path / "m.model"
        save_model(path, model)
        _, settings = load_model(path)
        assert settings["threshold"] is None
        assert settings["orders"] is None

    def test_version_line_present(self, tmp_path):
        model = random_model()
        path = tmp_path / "m.model"
        save_model(path, model)
        assert path.read_text().splitlines()[0] == "spline-model 1"

    def test_rejects_unknown_version(self, tmp_path):
        model = random_model()
        path = tmp_path / "m.model"
        save_model(path, model)
        text = path.read_text().replace("spline-model 1", "spline-model 9", 1)
        path.write_text(text)
        with pytest.raises(ModelFileError, match="version"):
            load_model(path)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("something-else 1\n")
        with pytest.raises(ModelFileError, match="spline-model"):
            load_model(path)

    def test_rejects_truncated_file(self, tmp_path):
        model = random_model()
        path = tmp_path / "m.model"
        save_model(path, model)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ModelFileError, match="end of file"):
            load_model(path)

    def test_rejects_inconsistent_control_count(self, tmp_path):
        model = random_model()
        path = tmp_path / "m.model"
        save_model(path, model)
        text = path.read_text().replace("controls 64", "controls 63", 1)
        path.write_text(text)
        with pytest.raises(ModelFileError, match="does not match shape"):
            load_model(path)

    def test_rejects_non_finite_control(self, tmp_path, capsys):
        model = random_model()
        path = tmp_path / "m.model"
        save_model(path, model)
        lines = path.read_text().splitlines()
        lines[-5] = "inf"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFileError, match="controls must be finite"):
            load_model(path)
        code = main(["eval", "--model", str(path), "--grid", "4,4",
                     "--out", str(tmp_path / "v.csv")])
        err = capsys.readouterr().err.splitlines()
        assert code == 4
        assert len(err) == 1 and err[0].startswith("error:")

    def test_rejects_bad_number_with_line(self, tmp_path):
        model = random_model()
        path = tmp_path / "m.model"
        save_model(path, model)
        lines = path.read_text().splitlines()
        lines[1] = "dim two"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFileError, match="line 2"):
            load_model(path)

    def test_bad_control_row_names_its_line(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(path, random_model())
        lines = path.read_text().splitlines()
        lines[-5] = "two"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            ModelFileError, match=f"line {len(lines) - 4}: bad number"
        ):
            load_model(path)

    def test_huge_value_count_is_io_error(self, tmp_path, capsys):
        # the header's counts must not size an array before the rows are read
        kv = uniform_clamped_knots(3, 2)
        path = tmp_path / "bad.txt"
        save_model(path, SplineModel((kv,), np.ones((3, 1)), [0.0], [1.0]))
        text = path.read_text().replace("values 1", "values 99999999999999", 1)
        path.write_text(text)
        assert len(text.splitlines()) == 12
        code = main(["eval", "--model", str(path), "--grid", "3",
                     "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err.splitlines()
        assert code == 4
        assert len(err) == 1 and err[0].startswith("error:")
        assert "line 10: control row needs 99999999999999 values" in err[0]


class TestSynth:
    def test_row_count(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = main(
            [
                "synth", "--kind", "polysinc", "--count", "1000",
                "--seed", "7", "--out", str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 1001
        cloud = read_csv(out)
        assert cloud.coords.shape == (1000, 2)
        assert "1000" in capsys.readouterr().out

    def test_identical_bytes_for_same_seed(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(
                [
                    "synth", "--kind", "polysinc", "--count", "500",
                    "--seed", "7", "--out", str(out),
                ]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_void_flag_thins_disk(self, tmp_path):
        counts = {}
        for name, sparsity in (("thin", "0.02"), ("full", "1.0")):
            out = tmp_path / f"{name}.csv"
            code = main(
                [
                    "synth", "--kind", "polysinc", "--count", "4000",
                    "--seed", "3", "--void", f"6.28,6.28,3.14,{sparsity}",
                    "--out", str(out),
                ]
            )
            assert code == 0
            cloud = read_csv(out)
            d2 = (cloud.coords[:, 0] - 6.28) ** 2 + (cloud.coords[:, 1] - 6.28) ** 2
            counts[name] = int(np.sum(d2 <= 3.14**2))
        assert counts["full"] > 100
        assert counts["thin"] < counts["full"] / 10

    def test_annulus_kind(self, tmp_path):
        out = tmp_path / "a.csv"
        assert main(
            [
                "synth", "--kind", "annulus", "--count", "800",
                "--seed", "2", "--out", str(out),
            ]
        ) == 0
        cloud = read_csv(out)
        assert np.all(np.sum(cloud.coords**2, axis=1) >= 1.5**2)

    def test_annulus_rejects_void(self, tmp_path, capsys):
        code = main(
            [
                "synth", "--kind", "annulus", "--count", "10", "--seed", "1",
                "--void", "0,0,1,0.5", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_kind_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "synth", "--kind", "nope", "--count", "10", "--seed", "1",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_void_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "synth", "--kind", "polysinc", "--count", "10", "--seed", "1",
                "--void", "1,2,3", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    def test_missing_flag_is_usage_error(self, capsys):
        assert main(["synth", "--kind", "polysinc"]) == 2

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        code = main(
            [
                "synth", "--kind", "polysinc", "--count", "10", "--seed", "1",
                "--out", str(tmp_path / "missing" / "c.csv"),
            ]
        )
        assert code == 4
        assert capsys.readouterr().err.startswith("error:")


class TestFit:
    def test_exact_recovery_and_report(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        source = spline_csv(data, seed=9)
        out = tmp_path / "m.model"
        rep = tmp_path / "r.csv"
        code = main(
            [
                "fit", "--input", str(data), "--degree", "3",
                "--ctrl", "8,8", "--threshold", "0",
                "--out", str(out), "--report", str(rep),
            ]
        )
        assert code == 0
        model, settings = load_model(out)
        assert_allclose(model.controls, source.controls, atol=1e-8)
        assert settings["threshold"] == 0.0
        rows = dict(
            line.split(",") for line in rep.read_text().splitlines()[1:]
        )
        assert float(rows["data_residual_1"]) <= 1e-8
        assert rows["rank_deficient"] == "0"
        assert float(rows["lambda_positive"]) == 0

    def test_annulus_unregularized_exits_3(self, tmp_path, capsys):
        data = tmp_path / "a.csv"
        main(["synth", "--kind", "annulus", "--count", "3000", "--seed", "5",
              "--out", str(data)])
        code = main(
            [
                "fit", "--input", str(data), "--degree", "2",
                "--ctrl", "20,20", "--threshold", "0",
                "--out", str(tmp_path / "m.model"),
            ]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_annulus_regularized_succeeds(self, tmp_path):
        data = tmp_path / "a.csv"
        main(["synth", "--kind", "annulus", "--count", "3000", "--seed", "5",
              "--out", str(data)])
        out = tmp_path / "m.model"
        code = main(
            [
                "fit", "--input", str(data), "--degree", "2",
                "--ctrl", "20,20", "--threshold", "5", "--orders", "1,2",
                "--out", str(out),
            ]
        )
        assert code == 0
        model, settings = load_model(out)
        assert settings["orders"] == (1, 2)
        assert np.all(np.isfinite(model.controls))

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code = main(
            [
                "fit", "--input", str(tmp_path / "nope.csv"), "--degree", "2",
                "--ctrl", "5,5", "--out", str(tmp_path / "m.model"),
            ]
        )
        assert code == 4

    def test_malformed_csv_is_io_error(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("x1,x2,v1\n0,0\n")
        code = main(
            [
                "fit", "--input", str(data), "--degree", "2",
                "--ctrl", "5,5", "--out", str(tmp_path / "m.model"),
            ]
        )
        assert code == 4
        assert "line 2" in capsys.readouterr().err

    def test_dimension_mismatch_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        spline_csv(data)
        code = main(
            [
                "fit", "--input", str(data), "--degree", "2",
                "--ctrl", "5,5,5", "--out", str(tmp_path / "m.model"),
            ]
        )
        assert code == 2

    def test_non_finite_input_is_io_error(self, tmp_path, capsys):
        # a nan value and an inf coordinate, each on line 5 of the file
        for bad_row in ("0.5,1.5,nan", "inf,1.5,0.25"):
            data = tmp_path / "d.csv"
            spline_csv(data)
            lines = data.read_text().splitlines()
            lines[4] = bad_row
            data.write_text("\n".join(lines) + "\n")
            code = main(
                [
                    "fit", "--input", str(data), "--degree", "3",
                    "--ctrl", "6,6", "--out", str(tmp_path / "m.model"),
                ]
            )
            err = capsys.readouterr().err.splitlines()
            assert code == 4, bad_row
            assert len(err) == 1 and err[0].startswith("error:")
            assert "line 5" in err[0]

    def test_auto_solver_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        spline_csv(data)
        code = main(
            [
                "fit", "--input", str(data), "--degree", "3",
                "--ctrl", "8,8", "--solver", "auto",
                "--out", str(tmp_path / "m.model"),
            ]
        )
        assert code == 2
        assert "invalid choice: 'auto'" in capsys.readouterr().err

    def test_invalid_orders_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        spline_csv(data)
        code = main(
            [
                "fit", "--input", str(data), "--degree", "3",
                "--ctrl", "8,8", "--orders", "3",
                "--out", str(tmp_path / "m.model"),
            ]
        )
        assert code == 2


class TestEval:
    def _fitted(self, tmp_path):
        data = tmp_path / "d.csv"
        spline_csv(data, seed=21)
        out = tmp_path / "m.model"
        main(["fit", "--input", str(data), "--degree", "3", "--ctrl", "8,8",
              "--threshold", "0", "--out", str(out)])
        return out

    def test_grid_matches_library_resampling(self, tmp_path):
        model_path = self._fitted(tmp_path)
        out = tmp_path / "g.csv"
        assert main(["eval", "--model", str(model_path), "--grid", "7,5",
                     "--out", str(out)]) == 0
        cloud = read_csv(out)
        model, _ = load_model(model_path)
        axes, values = resample_grid(model, (7, 5))
        expected = grid_to_cloud(axes, values)
        assert_array_equal(cloud.coords, expected.coords)
        assert_array_equal(cloud.values, expected.values)

    def test_constant_model_grid(self, tmp_path):
        kv = uniform_clamped_knots(4, 2)
        model = SplineModel((kv, kv), np.full((16, 1), 3.25), (0, 0), (1, 1))
        path = tmp_path / "c.model"
        save_model(path, model)
        out = tmp_path / "g.csv"
        assert main(["eval", "--model", str(path), "--grid", "6,6",
                     "--out", str(out)]) == 0
        cloud = read_csv(out)
        assert_allclose(cloud.values, 3.25, rtol=1e-14)

    def test_corner_points_hit_corner_controls(self, tmp_path):
        model_path = self._fitted(tmp_path)
        model, _ = load_model(model_path)
        pts = tmp_path / "p.csv"
        lo, hi = model.bbox_min, model.bbox_max
        pts.write_text(
            "x1,x2\n"
            + f"{lo[0]},{lo[1]}\n"
            + f"{hi[0]},{hi[1]}\n"
        )
        out = tmp_path / "v.csv"
        assert main(["eval", "--model", str(model_path), "--points", str(pts),
                     "--out", str(out)]) == 0
        cloud = read_csv(out)
        grid = model.controls.reshape(8, 8)
        assert cloud.values[0, 0] == pytest.approx(grid[0, 0], rel=1e-12)
        assert cloud.values[1, 0] == pytest.approx(grid[-1, -1], rel=1e-12)

    def test_points_with_value_columns_accepted(self, tmp_path):
        model_path = self._fitted(tmp_path)
        data = tmp_path / "d.csv"  # the fit input itself: x1,x2,v1
        out = tmp_path / "v.csv"
        assert main(["eval", "--model", str(model_path), "--points", str(data),
                     "--out", str(out)]) == 0
        evaluated = read_csv(out)
        source = read_csv(data)
        assert_allclose(evaluated.values, source.values, atol=1e-8)

    def test_point_outside_box_is_usage_error(self, tmp_path, capsys):
        model_path = self._fitted(tmp_path)
        pts = tmp_path / "p.csv"
        pts.write_text("x1,x2\n100,100\n")
        code = main(["eval", "--model", str(model_path), "--points", str(pts),
                     "--out", str(tmp_path / "v.csv")])
        assert code == 2
        assert "bounding box" in capsys.readouterr().err

    def test_malformed_points_file_is_io_error(self, tmp_path, capsys):
        model_path = self._fitted(tmp_path)
        capsys.readouterr()
        pts = tmp_path / "p.csv"
        for body in ("0,2\n0,2,3\n", "0,2\n0,two\n", "0,2\n-inf,2\n"):
            pts.write_text("x1,x2\n" + body)
            code = main(["eval", "--model", str(model_path), "--points", str(pts),
                         "--out", str(tmp_path / "v.csv")])
            err = capsys.readouterr().err.splitlines()
            assert code == 4, body
            assert len(err) == 1 and err[0].startswith("error:")
            assert "line 3" in err[0]

    def test_dimension_mismatch(self, tmp_path, capsys):
        model_path = self._fitted(tmp_path)
        pts = tmp_path / "p.csv"
        pts.write_text("x1\n0.5\n")
        code = main(["eval", "--model", str(model_path), "--points", str(pts),
                     "--out", str(tmp_path / "v.csv")])
        assert code == 2

    def test_grid_and_points_conflict(self, tmp_path, capsys):
        model_path = self._fitted(tmp_path)
        code = main(["eval", "--model", str(model_path), "--grid", "4,4",
                     "--points", "p.csv", "--out", str(tmp_path / "v.csv")])
        assert code == 2

    def test_corrupt_model_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text("spline-model 1\ndim 2\nvalues oops\n")
        code = main(["eval", "--model", str(bad), "--grid", "4,4",
                     "--out", str(tmp_path / "v.csv")])
        assert code == 4

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
    def test_bad_threshold_in_model_is_io_error(self, tmp_path, capsys, threshold):
        path = tmp_path / "m.model"
        save_model(path, random_model(), threshold=threshold, orders=(2,))
        code = main(["eval", "--model", str(path), "--grid", "4,4",
                     "--out", str(tmp_path / "v.csv")])
        err = capsys.readouterr().err.splitlines()
        assert code == 4
        assert len(err) == 1 and "line 8: threshold must be finite and >= 0" in err[0]


class TestReport:
    def _fitted(self, tmp_path):
        data = tmp_path / "d.csv"
        spline_csv(data, seed=33)
        out = tmp_path / "m.model"
        main(["fit", "--input", str(data), "--degree", "3", "--ctrl", "8,8",
              "--threshold", "0", "--out", str(out)])
        return out, data

    def test_self_comparison_is_zero(self, tmp_path, capsys):
        model_path, data = self._fitted(tmp_path)
        out = tmp_path / "r.csv"
        code = main(["report", "--model", str(model_path),
                     "--reference", str(data), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "max_error=" in printed
        rows = dict(
            line.split(",") for line in out.read_text().splitlines()[1:]
        )
        assert float(rows["max_error"]) < 1e-8
        assert float(rows["rms_error"]) <= float(rows["max_error"])
        assert int(rows["num_samples"]) == 900

    def test_roi_restricts_samples(self, tmp_path):
        model_path, data = self._fitted(tmp_path)
        out = tmp_path / "r.csv"
        code = main(["report", "--model", str(model_path),
                     "--reference", str(data),
                     "--roi=-1,1,2,3", "--out", str(out)])
        assert code == 0
        rows = dict(
            line.split(",") for line in out.read_text().splitlines()[1:]
        )
        assert 0 < int(rows["num_samples"]) < 900

    def test_roi_outside_domain_errors(self, tmp_path, capsys):
        model_path, data = self._fitted(tmp_path)
        code = main(["report", "--model", str(model_path),
                     "--reference", str(data), "--roi=-50,50,-50,50"])
        assert code == 2
        assert "outside" in capsys.readouterr().err

    def test_polysinc_reference(self, tmp_path, capsys):
        data = tmp_path / "p.csv"
        main(["synth", "--kind", "polysinc", "--count", "4000", "--seed", "11",
              "--out", str(data)])
        model_path = tmp_path / "m.model"
        main(["fit", "--input", str(data), "--degree", "3", "--ctrl", "14,14",
              "--threshold", "1", "--out", str(model_path)])
        code = main(["report", "--model", str(model_path),
                     "--reference", "polysinc",
                     "--roi=-2,2,-2,2", "--grid", "40,40"])
        assert code == 0
        printed = capsys.readouterr().out
        value = float(printed.split("max_error=")[1].splitlines()[0])
        assert 0 < value < 1.0

    def test_lambda_export_matches_assembly(self, tmp_path):
        data = tmp_path / "a.csv"
        main(["synth", "--kind", "annulus", "--count", "3000", "--seed", "5",
              "--out", str(data)])
        model_path = tmp_path / "m.model"
        main(["fit", "--input", str(data), "--degree", "2", "--ctrl", "12,12",
              "--threshold", "5", "--orders", "1,2", "--out", str(model_path)])
        lam_path = tmp_path / "lam.csv"
        code = main(["report", "--model", str(model_path),
                     "--reference", str(data), "--lambda-out", str(lam_path)])
        assert code == 0
        lines = lam_path.read_text().splitlines()
        assert lines[0] == "x1,x2,data_sum,penalty_sum,lambda"
        exported = np.array(
            [[float(f) for f in line.split(",")] for line in lines[1:]]
        )
        cloud = read_csv(data)
        config = FitConfig(degree=2, shape=(12, 12), threshold=5.0, orders=(1, 2))
        system = assemble_system(cloud, config)
        assert_array_equal(exported[:, 4], system.lambdas)
        assert_array_equal(exported[:, 2], system.data_col_sums)
        assert (exported[:, 4] > 0).any()

    def test_lambda_export_needs_cloud_reference(self, tmp_path, capsys):
        model_path, data = self._fitted(tmp_path)
        code = main(["report", "--model", str(model_path),
                     "--reference", "polysinc",
                     "--lambda-out", str(tmp_path / "lam.csv")])
        assert code == 2

    def test_lambda_export_needs_recorded_settings(self, tmp_path, capsys):
        model = random_model()
        model_path = tmp_path / "bare.model"
        save_model(model_path, model)  # no threshold/orders recorded
        data = tmp_path / "d.csv"
        spline_csv(data)
        code = main(["report", "--model", str(model_path),
                     "--reference", str(data),
                     "--lambda-out", str(tmp_path / "lam.csv")])
        assert code == 2
        assert "record" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", [math.nan, -1.0])
    def test_lambda_export_with_bad_threshold_is_io_error(self, tmp_path, capsys, threshold):
        model_path = tmp_path / "m.model"
        save_model(model_path, random_model(), threshold=threshold, orders=(2,))
        data = tmp_path / "d.csv"
        spline_csv(data)
        code = main(["report", "--model", str(model_path), "--reference", str(data),
                     "--lambda-out", str(tmp_path / "lam.csv")])
        err = capsys.readouterr().err.splitlines()
        assert code == 4
        assert len(err) == 1 and "threshold must be finite" in err[0]
        assert not (tmp_path / "lam.csv").exists()

    def test_nonexistent_reference_is_io_error(self, tmp_path, capsys):
        model_path, _ = self._fitted(tmp_path)
        code = main(["report", "--model", str(model_path),
                     "--reference", str(tmp_path / "nope.csv")])
        assert code == 4


def module_env():
    """Environment in which `python -m scatterspline.cli` finds the package
    these tests import, whether it is installed or only on pytest's path."""
    src = str(Path(scatterspline.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "c.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "scatterspline.cli",
                "synth", "--kind", "polysinc", "--count", "50",
                "--seed", "1", "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env=module_env(),
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_module_invocation_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "scatterspline.cli", "synth"],
            capture_output=True,
            text=True,
            env=module_env(),
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
