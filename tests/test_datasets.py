"""Synthetic generators, CSV round trips, and grid resampling."""

import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from scatterspline import PointCloud, SplineModel, datasets, uniform_clamped_knots
from scatterspline.datasets import (
    POLYSINC_BOX,
    CsvParseError,
    SynthConfig,
    VoidSpec,
    default_polysinc_voids,
    generate_annulus_cloud,
    generate_polysinc_cloud,
    grid_to_cloud,
    polysinc,
    read_csv,
    read_points,
    resample_grid,
    sinc,
    write_csv,
)


class TestPolysincFunction:
    def test_sinc_at_zero(self):
        assert sinc(0.0) == 1.0

    def test_sinc_is_unnormalized(self):
        # sin(x)/x, not numpy's sin(pi x)/(pi x)
        assert sinc(2.0) == pytest.approx(math.sin(2.0) / 2.0, rel=1e-15)
        assert sinc(math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_value_where_second_factor_degenerates(self):
        # at (2, -2) the second argument is exactly 0, the first is 8
        assert polysinc(2.0, -2.0) == pytest.approx(math.sin(8.0) / 8.0, rel=1e-14)

    def test_frozen_value_at_origin(self):
        # arguments are 0 and 12
        assert polysinc(0.0, 0.0) == pytest.approx(math.sin(12.0) / 12.0, rel=1e-14)

    def test_matches_factored_form_on_random_points(self):
        rng = np.random.default_rng(3)
        x, y = rng.uniform(-10, 10, size=(2, 200))
        a = x**2 + y**2
        b = 2 * (x - 2.0) ** 2 + (y + 2.0) ** 2
        expected = (np.sin(a) / a) * (np.sin(b) / b)
        assert_allclose(polysinc(x, y), expected, rtol=1e-13)

    def test_vectorized_shape(self):
        x = np.zeros((3, 4))
        assert polysinc(x, x).shape == (3, 4)


class TestVoidSpec:
    def test_rejects_zero_radius(self):
        with pytest.raises(ValueError, match="radius"):
            VoidSpec((0.0, 0.0), 0.0, 0.5)

    def test_rejects_zero_sparsity(self):
        with pytest.raises(ValueError, match="sparsity"):
            VoidSpec((0.0, 0.0), 1.0, 0.0)

    def test_rejects_sparsity_above_one(self):
        with pytest.raises(ValueError, match="sparsity"):
            VoidSpec((0.0, 0.0), 1.0, 1.5)

    def test_default_layout(self):
        voids = default_polysinc_voids()
        assert len(voids) == 4
        centers = sorted(v.center for v in voids)
        c = 2 * math.pi
        assert centers == [(-c, -c), (-c, c), (c, -c), (c, c)]
        assert all(v.radius == math.pi for v in voids)
        assert all(v.sparsity == 0.02 for v in voids)


class TestSynthConfig:
    def test_rejects_zero_count(self):
        with pytest.raises(ValueError, match="count"):
            SynthConfig(count=0, seed=1)

    def test_rejects_inverted_box(self):
        with pytest.raises(ValueError, match="box"):
            SynthConfig(count=10, seed=1, box=((1.0, 0.0), (0.0, 1.0)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_box(self, bad):
        with pytest.raises(ValueError, match="^box must be finite, got "):
            SynthConfig(count=10, seed=1, box=((0.0, 1.0), (bad, 1.0)))

    @pytest.mark.parametrize("center", [(0.0,), (0.0, 0.0, 0.0)])
    def test_polysinc_void_needs_a_2d_center(self, center):
        config = SynthConfig(count=10, seed=1, voids=(VoidSpec(center, 1.0, 0.5),))
        with pytest.raises(ValueError, match="^polysinc voids need a 2-D center, got VoidSpec"):
            generate_polysinc_cloud(config)

    def test_rejects_negative_hole(self):
        with pytest.raises(ValueError, match="hole"):
            SynthConfig(count=10, seed=1, hole_radius=-1.0)


class TestPolysincCloud:
    def test_bit_identical_for_same_seed(self):
        cfg = SynthConfig(count=500, seed=42)
        a = generate_polysinc_cloud(cfg)
        b = generate_polysinc_cloud(cfg)
        assert_array_equal(a.coords, b.coords)
        assert_array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = generate_polysinc_cloud(SynthConfig(count=500, seed=1))
        b = generate_polysinc_cloud(SynthConfig(count=500, seed=2))
        assert not np.array_equal(a.coords, b.coords)

    def test_exact_count_and_box(self):
        cloud = generate_polysinc_cloud(SynthConfig(count=1234, seed=9, voids=()))
        assert cloud.coords.shape == (1234, 2)
        lo = np.array([b[0] for b in POLYSINC_BOX])
        hi = np.array([b[1] for b in POLYSINC_BOX])
        assert np.all(cloud.coords >= lo) and np.all(cloud.coords <= hi)
        # box is the full domain even though samples rarely touch the edges
        assert_array_equal(cloud.bbox_min, lo)
        assert_array_equal(cloud.bbox_max, hi)

    def test_values_are_polysinc(self):
        cloud = generate_polysinc_cloud(SynthConfig(count=200, seed=5, voids=()))
        assert_allclose(
            cloud.values[:, 0],
            polysinc(cloud.coords[:, 0], cloud.coords[:, 1]),
            rtol=1e-15,
        )

    def test_uniform_without_voids(self):
        # chi-square on a 10x10 occupancy grid; a correct uniform sampler
        # fails this with probability 0.01 and the seed is pinned
        cloud = generate_polysinc_cloud(SynthConfig(count=20000, seed=4, voids=()))
        lo = np.array([b[0] for b in POLYSINC_BOX])
        hi = np.array([b[1] for b in POLYSINC_BOX])
        h, _, _ = np.histogram2d(
            cloud.coords[:, 0],
            cloud.coords[:, 1],
            bins=10,
            range=[[lo[0], hi[0]], [lo[1], hi[1]]],
        )
        chi2 = ((h - 200.0) ** 2 / 200.0).sum()
        assert stats.chi2.sf(chi2, 99) > 0.01

    def test_single_void_count_matches_binomial_law(self):
        # retention 0.02 inside a disk of radius pi: the in-void count is
        # binomial with p = s*A_v / (A_box - (1-s)*A_v); check within 3 sigma
        void = VoidSpec((0.0, 0.0), math.pi, 0.02)
        n = 20000
        cloud = generate_polysinc_cloud(SynthConfig(count=n, seed=1, voids=(void,)))
        area_box = (8 * math.pi) ** 2
        area_v = math.pi**3
        p = 0.02 * area_v / (area_box - (1 - 0.02) * area_v)
        inside = np.sum(np.sum(cloud.coords**2, axis=1) <= math.pi**2)
        sd = math.sqrt(n * p * (1 - p))
        assert abs(inside - n * p) < 3 * sd

    def test_default_voids_are_thinned(self):
        cloud = generate_polysinc_cloud(SynthConfig(count=20000, seed=4))
        c = 2 * math.pi
        inside = 0
        for sx in (-1, 1):
            for sy in (-1, 1):
                d2 = (cloud.coords[:, 0] - sx * c) ** 2 + (
                    cloud.coords[:, 1] - sy * c
                ) ** 2
                inside += int(np.sum(d2 <= math.pi**2))
        area_box = (8 * math.pi) ** 2
        area_v = 4 * math.pi**3
        p = 0.02 * area_v / (area_box - (1 - 0.02) * area_v)
        sd = math.sqrt(20000 * p * (1 - p))
        assert abs(inside - 20000 * p) < 3 * sd

    def test_full_sparsity_void_changes_nothing_statistically(self):
        # sparsity 1 keeps every candidate, so the stream matches void-free
        void = VoidSpec((0.0, 0.0), math.pi, 1.0)
        a = generate_polysinc_cloud(SynthConfig(count=800, seed=7, voids=(void,)))
        b = generate_polysinc_cloud(SynthConfig(count=800, seed=7, voids=()))
        assert_array_equal(a.coords, b.coords)

    def test_rejects_three_dimensional_box(self):
        cfg = SynthConfig(count=10, seed=1, box=((0, 1), (0, 1), (0, 1)))
        with pytest.raises(ValueError, match="two-dimensional"):
            generate_polysinc_cloud(cfg)


class TestAnnulusCloud:
    def test_hole_is_empty_and_count_exact(self):
        cloud = generate_annulus_cloud(SynthConfig(count=5000, seed=11))
        assert cloud.coords.shape == (5000, 2)
        r2 = np.sum(cloud.coords**2, axis=1)
        assert np.all(r2 >= 1.5**2)  # default hole: 0.375 * half-extent 4

    def test_custom_hole_radius(self):
        cloud = generate_annulus_cloud(
            SynthConfig(count=2000, seed=3, hole_radius=2.5)
        )
        assert np.all(np.sum(cloud.coords**2, axis=1) >= 2.5**2)

    def test_values_stay_in_band(self):
        cloud = generate_annulus_cloud(SynthConfig(count=5000, seed=11))
        assert np.all(cloud.values >= -2.0) and np.all(cloud.values <= 10.0)

    def test_values_formula(self):
        cloud = generate_annulus_cloud(SynthConfig(count=100, seed=2))
        x = cloud.coords[:, 0] / 4.0
        y = cloud.coords[:, 1] / 4.0
        expected = 4.0 + 6.0 * np.sin(math.pi * x) * np.cos(math.pi * y)
        assert_allclose(cloud.values[:, 0], expected, rtol=1e-15)

    def test_deterministic(self):
        a = generate_annulus_cloud(SynthConfig(count=300, seed=8))
        b = generate_annulus_cloud(SynthConfig(count=300, seed=8))
        assert_array_equal(a.coords, b.coords)

    def test_rejects_voids(self):
        void = VoidSpec((0.0, 0.0), 1.0, 0.5)
        with pytest.raises(ValueError, match="hole_radius"):
            generate_annulus_cloud(SynthConfig(count=10, seed=1, voids=(void,)))

    def test_rejects_hole_spanning_box(self):
        with pytest.raises(ValueError, match="hole radius"):
            generate_annulus_cloud(SynthConfig(count=10, seed=1, hole_radius=4.0))

    def test_box_is_full_domain(self):
        cloud = generate_annulus_cloud(SynthConfig(count=50, seed=1))
        assert_array_equal(cloud.bbox_min, [-4.0, -4.0])
        assert_array_equal(cloud.bbox_max, [4.0, 4.0])


class TestCsv:
    def test_round_trip_tight_box_cloud(self, tmp_path):
        rng = np.random.default_rng(17)
        from scatterspline import PointCloud

        cloud = PointCloud(rng.uniform(-3, 5, (40, 2)), rng.normal(size=(40, 2)))
        path = tmp_path / "c.csv"
        write_csv(cloud, path)
        back = read_csv(path)
        assert_array_equal(back.coords, cloud.coords)
        assert_array_equal(back.values, cloud.values)
        assert_array_equal(back.bbox_min, cloud.bbox_min)
        assert_array_equal(back.bbox_max, cloud.bbox_max)

    def test_two_point_round_trip(self, tmp_path):
        from scatterspline import PointCloud

        cloud = PointCloud([[0.0, 0.0], [1.0, 2.0]], [1.5, -0.25])
        path = tmp_path / "two.csv"
        write_csv(cloud, path)
        back = read_csv(path)
        assert_array_equal(back.coords, cloud.coords)
        assert_array_equal(back.values, cloud.values)

    def test_header_written(self, tmp_path):
        from scatterspline import PointCloud

        cloud = PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [[1.0, 2.0]] * 2)
        path = tmp_path / "h.csv"
        write_csv(cloud, path)
        assert path.read_text().splitlines()[0] == "x1,x2,x3,v1,v2"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvParseError, match="empty"):
            read_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "ho.csv"
        path.write_text("x1,x2,v1\n")
        with pytest.raises(CsvParseError, match="no data"):
            read_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bh.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(CsvParseError, match="line 1"):
            read_csv(path)

    def test_values_before_coords_rejected(self, tmp_path):
        path = tmp_path / "vb.csv"
        path.write_text("v1,x1\n1,2\n")
        with pytest.raises(CsvParseError, match="header"):
            read_csv(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "rag.csv"
        path.write_text("x1,x2,v1\n0,0,1\n0.5,1\n1,1,2\n")
        with pytest.raises(CsvParseError, match="line 3"):
            read_csv(path)

    def test_non_finite_value_reports_line(self, tmp_path):
        path = tmp_path / "nf.csv"
        for body, line in (("0,0,1\n0.5,1,nan\n", 3), ("0,0,1\n1,1,2\ninf,0,1\n", 4)):
            path.write_text("x1,x2,v1\n" + body)
            with pytest.raises(CsvParseError, match=f"line {line}: non-finite"):
                read_csv(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "nn.csv"
        path.write_text("x1,v1\n0,1\n0.5,oops\n")
        with pytest.raises(CsvParseError, match="line 3"):
            read_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "bl.csv"
        path.write_text("x1,v1\n0,1\n\n1,2\n\n")
        cloud = read_csv(path)
        assert cloud.coords.shape == (2, 1)

    def test_full_precision_survives(self, tmp_path):
        from scatterspline import PointCloud

        coords = np.array([[1 / 3, 2 / 7], [math.pi, math.e]])
        cloud = PointCloud(coords, [1e-300, 1e300])
        path = tmp_path / "fp.csv"
        write_csv(cloud, path)
        back = read_csv(path)
        assert_array_equal(back.coords, cloud.coords)
        assert_array_equal(back.values, cloud.values)


BLOCK = datasets._BLOCK_ROWS
FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


def bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def float_rows(text):
    """The reference grammar: float() on every field of every non-blank line."""
    lines = [line for line in text.splitlines()[1:] if line.strip()]
    return np.array([[float(f) for f in line.split(",")] for line in lines])


class TestCsvBlocks:
    """The block writer and the reader against per-value references.

    BLOCK is the writer's block of rows; the reader's blocks are
    datasets._BLOCK_CHARS characters of text (see TestCsvReader).
    """

    @staticmethod
    def formatted(header, table):
        rows = (",".join(format(v, ".17g") for v in row) for row in table)
        return ",".join(header) + "\n" + "".join(row + "\n" for row in rows)

    def test_bytes_match_per_value_format(self, tmp_path):
        special = np.array([-0.0, 5e-324, 1e300, 2.0, 0.1, -2.5e-310])
        rng = np.random.default_rng(41)
        scales = 10.0 ** rng.integers(-300, 300, (BLOCK + 1, 3))
        clouds = [
            PointCloud(np.column_stack([special, special[::-1]]), np.roll(special, 2)),
            PointCloud(
                rng.normal(size=(BLOCK + 1, 3)) * scales,
                rng.standard_cauchy((BLOCK + 1, 2)),
            ),
        ]
        path = tmp_path / "b.csv"
        for cloud in clouds:
            write_csv(cloud, path)
            header = [f"x{k + 1}" for k in range(cloud.d)]
            header += [f"v{k + 1}" for k in range(cloud.num_values)]
            expected = self.formatted(header, np.hstack([cloud.coords, cloud.values]))
            assert path.read_bytes() == expected.encode("utf-8")

    def test_model_bytes_match_per_value_format(self, tmp_path):
        def numbers(values):
            return " ".join(format(float(v), ".17g") for v in values)

        special = [-0.0, 5e-324, 1e300, 0.1, -2.5e-310, 2.0]
        kx, ky = uniform_clamped_knots(2, 1), uniform_clamped_knots(3, 1)
        rng = np.random.default_rng(44)
        long_1d = uniform_clamped_knots(BLOCK + 3, 2)  # controls cross a block seam
        scales = 10.0 ** rng.integers(-300, 300, BLOCK + 3)
        quadratic = uniform_clamped_knots(3, 2)  # degree 2 allows orders (1, 2)
        cases = [
            (SplineModel((quadratic, quadratic), np.reshape(special + special[:3], (9, 1)),
                         [-0.0, 5e-324], [0.1, 1e300]),
             0.1, (1, 2)),
            (SplineModel((kx, ky), np.column_stack([special, special[::-1]]), [0, 0], [1, 1]),
             None, None),
            (SplineModel((long_1d,), rng.normal(size=(BLOCK + 3, 1)) * scales[:, None],
                         [-1.0], [2.0]), 1e300, (2,)),
        ]
        path = tmp_path / "m.txt"
        for model, threshold, orders in cases:
            datasets.save_model(path, model, threshold=threshold, orders=orders)
            lines = [
                "spline-model 1",
                f"dim {model.d}",
                f"values {model.num_values}",
                f"degree {model.degree}",
                "shape " + " ".join(str(n) for n in model.shape),
                "bbox_min " + numbers(model.bbox_min),
                "bbox_max " + numbers(model.bbox_max),
            ]
            if threshold is not None:
                lines.append("threshold " + numbers([threshold]))
            if orders is not None:
                lines.append("orders " + " ".join(str(o) for o in orders))
            lines += ["knots " + numbers(kv.knots) for kv in model.knot_vectors]
            lines.append(f"controls {model.n_tot}")
            lines += [numbers(row) for row in model.controls]
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_reader_matches_float_on_whitespace_crlf_and_blank_lines(self, tmp_path):
        rng = np.random.default_rng(42)
        table = rng.normal(size=(2 * BLOCK + 5, 3))
        pads = [" ", "\t", "", "  ", "\u00a0"]
        lines = [
            ",".join(pads[(i + j) % 5] + repr(v) + pads[i * j % 5] for j, v in enumerate(row))
            for i, row in enumerate(table.tolist())
        ]
        for at in (BLOCK + 1, BLOCK - 1, 5):  # blank lines early and late in the file
            lines[at:at] = ["", "   "]
        text = "x1,x2,v1\r\n" + "\r\n".join(lines) + "\r\n\r\n"
        path = tmp_path / "w.csv"
        path.write_bytes(text.encode("utf-8"))
        cloud = read_csv(path)
        expected = float_rows(text)
        assert_array_equal(expected, table)
        assert_array_equal(bits(cloud.coords), bits(expected[:, :2]))
        assert_array_equal(bits(cloud.values), bits(expected[:, 2:]))

    def test_read_points_ignores_non_numeric_trailing_column(self, tmp_path):
        rng = np.random.default_rng(43)
        coords = rng.uniform(-1, 1, (BLOCK + 3, 2))
        body = "".join(
            f"{x!r},{y!r},label {i}\n" for i, (x, y) in enumerate(coords.tolist())
        )
        path = tmp_path / "p.csv"
        path.write_text("x1,x2,name\n" + body)
        assert_array_equal(bits(read_points(path, 2)), bits(coords))

    @pytest.mark.parametrize(
        "bad, message",
        [("0.5,1", "expected 3 fields, got 2"), ("0.5,oops,1", "could not convert"),
         ("0.5,1,nan", "non-finite value")],
    )
    def test_bad_line_in_second_block_named(self, tmp_path, bad, message):
        rows = ["0.25,0.5,1"] * (BLOCK + 20)
        rows[3:3] = ["", "  "]  # blank lines shift every later line number by 2
        at = BLOCK + 10
        rows[at] = bad
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,v1\n" + "\n".join(rows) + "\n")
        with pytest.raises(CsvParseError, match=f"line {at + 2}: {message}"):
            read_csv(path)

    @given(st.lists(st.tuples(FINITE, FINITE, FINITE, FINITE), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bit_identical(self, tmp_path_factory, rows):
        # two anchor rows keep the tight box non-degenerate
        table = np.array([(-1.0, -1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0)] + rows)
        cloud = PointCloud(table[:, :2], table[:, 2:])
        path = tmp_path_factory.mktemp("rt") / "rt.csv"
        write_csv(cloud, path)
        back = read_csv(path)
        assert_array_equal(bits(back.coords), bits(cloud.coords))
        assert_array_equal(bits(back.values), bits(cloud.values))


def float_path_refused(*args):
    raise AssertionError("read by the float() path")


class TestCsvReader:
    """The loadtxt block path and the float() line path give the same result."""

    PADS = ["", "", " ", "\t", "  ", "\u00a0 ", " \u00a0"]

    @given(
        st.lists(st.tuples(FINITE, FINITE, FINITE), min_size=1, max_size=12),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_padded_tables_read_as_float_reads_them(self, tmp_path_factory, rows, data):
        # two anchor rows keep the tight box non-degenerate
        table = np.array([(-1.0, -1.0, 0.0), (1.0, 1.0, 0.0)] + rows)
        path = tmp_path_factory.mktemp("pad") / "t.csv"
        datasets.write_table(path, ["x1", "x2", "v1"], table)
        header, *lines = path.read_text().splitlines()
        # a whitespace-only line sends the file to the float() path; without
        # one, the loadtxt path must read it alone
        whitespace_lines = data.draw(st.booleans())
        blank = st.sampled_from(["", "", " \t"] if whitespace_lines else [""])
        pad = st.sampled_from(self.PADS)
        out = [header]
        for line in lines:
            out += data.draw(st.lists(blank, max_size=2))
            out.append(",".join(data.draw(pad) + f + data.draw(pad) for f in line.split(",")))
        text = data.draw(st.sampled_from(["\n", "\r\n"])).join(out)
        text += data.draw(st.sampled_from(["", "\n", "\r\n\r\n"]))
        path.write_bytes(text.encode("utf-8"))
        block = data.draw(st.sampled_from([16, 64, datasets._BLOCK_CHARS]))
        with mock.patch.object(datasets, "_BLOCK_CHARS", block):
            if whitespace_lines:
                cloud = read_csv(path)
            else:
                with mock.patch.object(datasets, "_float_block", float_path_refused):
                    cloud = read_csv(path)
        expected = float_rows(text)
        assert_array_equal(expected, table)
        assert_array_equal(bits(cloud.coords), bits(expected[:, :2]))
        assert_array_equal(bits(cloud.values), bits(expected[:, 2:]))

    def test_loadtxt_path_reads_padded_crlf_across_a_seam(self, tmp_path):
        # write_csv output with CRLF endings, empty lines, padding that
        # includes \u00a0 and whitespace-only lines at the end, spanning
        # several text blocks
        rng = np.random.default_rng(45)
        count = datasets._BLOCK_CHARS // 20 + 2000
        coords = rng.uniform(-1, 1, (count, 2)) * 10.0 ** rng.integers(-300, 300, (count, 1))
        cloud = PointCloud(coords, rng.standard_normal((count, 1)))
        path = tmp_path / "c.csv"
        write_csv(cloud, path)
        header, *lines = path.read_text().splitlines()
        pads = ["", " ", "\t", "\u00a0", " \u00a0 "]
        out = [header]
        for i, line in enumerate(lines):
            if i % 97 == 0:
                out.append("")
            out.append(",".join(pads[(i + j) % 5] + f + pads[i * j % 5]
                                for j, f in enumerate(line.split(","))))
        path.write_bytes(("\r\n".join(out) + "\r\n\r\n \t\u00a0\r\n ").encode("utf-8"))
        assert path.stat().st_size > 2 * datasets._BLOCK_CHARS
        with mock.patch.object(datasets, "_float_block", float_path_refused):
            back = read_csv(path)
        assert_array_equal(bits(back.coords), bits(cloud.coords))
        assert_array_equal(bits(back.values), bits(cloud.values))

    @pytest.mark.parametrize(
        "body, expected",
        [
            ("1,2,3\n \t\n4,5,6\n", [[1, 2, 3], [4, 5, 6]]),
            ("1,2,3\v4,5,6\n", [[1, 2, 3], [4, 5, 6]]),
            ("1,2,3\f4,5,6\n", [[1, 2, 3], [4, 5, 6]]),
            ("1,2,3\x1c4,5,6\n", [[1, 2, 3], [4, 5, 6]]),
            ("1,2,3\x1d4,5,6\n", [[1, 2, 3], [4, 5, 6]]),
            ("1,2,3\x1e4,5,6\n", [[1, 2, 3], [4, 5, 6]]),
            ("1,2,3\x854,5,6\n", [[1, 2, 3], [4, 5, 6]]),
            ("1,2,3\u20284,5,6\n", [[1, 2, 3], [4, 5, 6]]),
            ("1,2,3\u20294,5,6\n", [[1, 2, 3], [4, 5, 6]]),
            ("1_0,2,3\n4,5,6\n", [[10, 2, 3], [4, 5, 6]]),
            ("\u0663,2,1\u0663\n4,5,6\n", [[3, 2, 13], [4, 5, 6]]),
            ("0x1p3,2,3\n", "line 2: could not convert string to float: '0x1p3'"),
            ("1,2\x1f,3\n", "line 2: could not convert string to float: '2\\x1f'"),
            ("1,2,3\n4,nan,6\n", "line 3: non-finite value"),
            ("1,2,3\n4,5,-inf\n", "line 3: non-finite value"),
            ("1,2,3\n4,5,1e999\n", "line 3: non-finite value"),
            ("1,2,3\n4,5\n", "line 3: expected 3 fields, got 2"),
            ("1,2,nan\n\n4,5\n", "line 4: expected 3 fields, got 2"),
            ("1,2,3\n\n4,5,6,7\n", "line 4: expected 3 fields, got 4"),
            ("1,2,3\n4,5,#6\n", "line 3: could not convert string to float: '#6'"),
            ("  \n\n", "no data rows"),
            ("1,2,3\r\n\f\r\n4,5,6", [[1, 2, 3], [4, 5, 6]]),
        ],
    )
    def test_reference_path_triggers(self, tmp_path, body, expected):
        path = tmp_path / "r.csv"
        path.write_bytes(("x1,x2,v1\n" + body).encode("utf-8"))
        if isinstance(expected, str):
            with pytest.raises(CsvParseError) as info:
                read_csv(path)
            assert str(info.value) == f"{path}: {expected}"
        else:
            cloud = read_csv(path)
            assert_array_equal(bits(np.hstack([cloud.coords, cloud.values])),
                               bits(np.array(expected, dtype=float)))

    @pytest.mark.parametrize(
        "header, expected",
        [("", "empty file (missing header)"), (" \n", "empty file (missing header)"),
         ("\n", "empty file (missing header)"), ("\nx1,v1\n1,2\n", "line 1: missing header"),
         (" \t\nx1,v1\n1,2\n", "line 1: missing header"),
         ("x1\fv1\n1,2\n", "line 1: header must be x1,..,xd,v1,..,vD (got 'x1')"),
         ("x1,v1", "no data rows"), ("x1,v1\n\n\n", "no data rows")],
    )
    def test_header_errors(self, tmp_path, header, expected):
        path = tmp_path / "h.csv"
        path.write_bytes(header.encode("utf-8"))
        with pytest.raises(CsvParseError) as info:
            read_csv(path)
        assert str(info.value) == f"{path}: {expected}"

    def test_undecodable_byte_named_by_its_file_offset(self, tmp_path):
        # past the first text block the reader reads, as when reading it whole
        path = tmp_path / "u.csv"
        path.write_bytes(b"x1,v1\n" + b"1,2\n" * 300_000 + b"\xff,3\n")
        with pytest.raises(UnicodeDecodeError, match="position 1200006: invalid start byte"):
            read_csv(path)
        with pytest.raises(UnicodeDecodeError, match="position 1200006: invalid start byte"):
            read_points(path, 1)

    @pytest.mark.parametrize("first", ["a,b,c\n", "x1,v1\n0.5\n", "x1,v1\n1,nan\n", "\n"])
    def test_undecodable_byte_wins_over_earlier_errors(self, tmp_path, first):
        # a bad header, a ragged row, a non-finite value or a missing header
        # in the first block, and an undecodable byte far past it
        path = tmp_path / "u.csv"
        path.write_bytes(first.encode() + b"1,2\n" * 300_000 + b"\xff,3\n")
        with mock.patch.object(datasets, "_BLOCK_CHARS", 64):
            with pytest.raises(UnicodeDecodeError) as info:
                read_csv(path)
        assert f"position {len(first) + 1_200_000}: invalid start byte" in str(info.value)

    def test_read_points_takes_non_numeric_columns_past_d(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x1,x2,name,v1\n1,2,a,nan\n3,4,1_0,\n5,6,,x\n")
        assert_array_equal(read_points(path, 2), [[1, 2], [3, 4], [5, 6]])
        path.write_text("x1,x2,name\n1,2,a\n3,oops,b\n")
        with pytest.raises(CsvParseError) as info:
            read_points(path, 2)
        assert str(info.value) == f"{path}: line 3: could not convert string to float: 'oops'"

    @pytest.mark.parametrize(
        "bad, message",
        [(None, None), ("0.5,1", "expected 3 fields, got 2"),
         ("0.5,0x1p3,1", "could not convert string to float: '0x1p3'"),
         ("0.5,inf,1", "non-finite value")],
    )
    def test_rows_straddle_a_text_block_seam(self, tmp_path, bad, message):
        # every row differs, so a row cut at the seam and joined wrongly shows
        count = datasets._BLOCK_CHARS // 20 + 2000
        table = np.column_stack([np.arange(count) / 7, -np.arange(count) / 3, np.ones(count)])
        lines = [",".join(repr(v) for v in row) for row in table.tolist()]
        header = "x1,x2,v1\n"
        seam = len(header) + datasets._BLOCK_CHARS
        lengths = np.cumsum([len(header)] + [len(line) + 1 for line in lines])
        straddling = int(np.searchsorted(lengths, seam, side="right")) - 1
        assert lengths[straddling] < seam < lengths[straddling + 1] - 1  # cut inside a row
        path = tmp_path / "seam.csv"
        if bad is None:
            path.write_text(header + "".join(line + "\n" for line in lines))
            cloud = read_csv(path)
            assert_array_equal(bits(np.hstack([cloud.coords, cloud.values])), bits(table))
            return
        at = straddling + 1000  # in the second block
        lines[at] = bad
        path.write_text(header + "".join(line + "\n" for line in lines))
        with pytest.raises(CsvParseError) as info:
            read_csv(path)
        assert str(info.value) == f"{path}: line {at + 2}: {message}"

    @staticmethod
    def small_blocks(rows):
        """The text blocks of 64 characters the reader cuts from the rows after the header."""
        with mock.patch.object(datasets, "_BLOCK_CHARS", 64):
            return list(datasets._text_blocks(io.StringIO("".join(r + "\n" for r in rows))))

    def test_only_the_block_leaving_the_subset_goes_to_float(self, tmp_path):
        rows = [f"{i:04}.5,{-i:03},1.25" for i in range(40)]  # 4 rows per block
        # a whitespace-only line before a row, which loadtxt refuses
        rows[9:9] = [" \t"]
        blocks = self.small_blocks(rows)
        assert len(blocks) > 4 and " \t\n0" in blocks[2] and all(
            " \t\n" not in block for block in blocks[:2] + blocks[3:])
        path = tmp_path / "late.csv"
        text = "x1,x2,v1\n" + "".join(r + "\n" for r in rows)
        path.write_text(text)
        with mock.patch.object(datasets, "_BLOCK_CHARS", 64), mock.patch.object(
            datasets, "_float_block", wraps=datasets._float_block
        ) as parse:
            cloud = read_csv(path)
        assert parse.call_count == 1
        assert parse.call_args.args[1] == blocks[2].splitlines()
        assert_array_equal(bits(np.hstack([cloud.coords, cloud.values])), bits(float_rows(text)))

    @pytest.mark.parametrize(
        "header, read, error, message",
        [("a,b,c", read_csv, CsvParseError, "line 1: header must be"),
         ("x1,x2,x3,v1", lambda path: read_points(path, 2), ValueError, "has 3-dimensional"),
         ("v1,x1,x2", lambda path: read_points(path, 2), CsvParseError, "header must start"),
         (" ", read_csv, CsvParseError, "line 1: missing header")],
    )
    def test_header_error_parses_no_data_block(self, tmp_path, header, read, error, message):
        path = tmp_path / "h.csv"
        path.write_text(header + "\n" + "1,2,3,4\n" * 200)
        refused = mock.Mock(side_effect=AssertionError("a data block was parsed"))
        with mock.patch.object(datasets, "_BLOCK_CHARS", 64), mock.patch.object(
            datasets, "_loadtxt_block", refused
        ), mock.patch.object(datasets, "_float_block", refused), mock.patch.object(
            datasets, "open", wraps=open, create=True
        ) as opened:
            with pytest.raises(error, match=message):
                read(path)
        assert opened.call_count == 1

    @pytest.mark.parametrize(
        "early, late, expected",
        [
            # non-finite in a block loadtxt refuses for it, ragged in block 3
            ((2, "1,2,nan"), (30, "4,5"), "line 32: expected 3 fields, got 2"),
            # non-finite beside a float()-only value, malformed block later
            ((2, "1_0,inf,3"), (30, "4\f5,6"), "line 32: expected 3 fields, got 1"),
            ((2, "1,-inf,3"), (30, "0x1p3,5,6"),
             "line 32: could not convert string to float: '0x1p3'"),
            # the first non-finite value is named, wherever the second is
            ((2, "1,2,inf"), (30, "4,1e999,6"), "line 4: non-finite value"),
            ((2, " \t"), (30, "4,nan,6"), "line 32: non-finite value"),
        ],
    )
    def test_errors_across_blocks(self, tmp_path, early, late, expected):
        rows = [f"{i / 7!r},{-i / 3!r},1" for i in range(40)]
        for at, row in (early, late):
            rows[at] = row
        blocks = self.small_blocks(rows)
        assert early[1] + "\n" in blocks[0] and late[1] + "\n" in "".join(blocks[2:])
        path = tmp_path / "x.csv"
        path.write_text("x1,x2,v1\n" + "".join(r + "\n" for r in rows))
        with mock.patch.object(datasets, "_BLOCK_CHARS", 64):
            with pytest.raises(CsvParseError) as info:
                read_csv(path)
        assert str(info.value) == f"{path}: {expected}"


class TestResampleGrid:
    def _model(self):
        kv = uniform_clamped_knots(4, 2)
        rng = np.random.default_rng(23)
        controls = rng.normal(size=(16, 1))
        return SplineModel((kv, kv), controls, (-1.0, 2.0), (3.0, 6.0))

    def test_constant_model(self):
        kv = uniform_clamped_knots(3, 1)
        model = SplineModel((kv, kv), np.full((9, 1), 2.5), (0, 0), (1, 1))
        axes, values = resample_grid(model, (5, 7))
        assert values.shape == (5, 7, 1)
        assert_allclose(values, 2.5, rtol=1e-14)

    def test_two_by_two_hits_corner_controls(self):
        model = self._model()
        axes, values = resample_grid(model, (2, 2))
        c = model.controls.reshape(4, 4)
        assert values[0, 0, 0] == pytest.approx(c[0, 0], rel=1e-14)
        assert values[0, 1, 0] == pytest.approx(c[0, 3], rel=1e-14)
        assert values[1, 0, 0] == pytest.approx(c[3, 0], rel=1e-14)
        assert values[1, 1, 0] == pytest.approx(c[3, 3], rel=1e-14)

    def test_axes_are_physical(self):
        model = self._model()
        axes, _ = resample_grid(model, (3, 5))
        assert_allclose(axes[0], [-1.0, 1.0, 3.0], rtol=1e-15)
        assert axes[1][0] == 2.0 and axes[1][-1] == 6.0

    def test_matches_pointwise_eval(self):
        from scatterspline import eval_model

        model = self._model()
        axes, values = resample_grid(model, (4, 6))
        for i, u in enumerate(np.linspace(0, 1, 4)):
            for j, v in enumerate(np.linspace(0, 1, 6)):
                assert values[i, j, 0] == pytest.approx(
                    eval_model(model, (u, v))[0], abs=1e-13
                )

    def test_rejects_single_point_axis(self):
        with pytest.raises(ValueError, match="at least 2"):
            resample_grid(self._model(), (1, 5))

    def test_rejects_wrong_dimension_count(self):
        with pytest.raises(ValueError, match="grid counts"):
            resample_grid(self._model(), (4,))

    def test_grid_to_cloud_round_trip(self, tmp_path):
        model = self._model()
        axes, values = resample_grid(model, (3, 4))
        cloud = grid_to_cloud(axes, values)
        assert cloud.coords.shape == (12, 2)
        # row-major: last axis fastest
        assert_allclose(cloud.coords[1], [axes[0][0], axes[1][1]], rtol=1e-15)
        assert cloud.values[5, 0] == values[1, 1, 0]
        path = tmp_path / "g.csv"
        write_csv(cloud, path)
        back = read_csv(path)
        assert_array_equal(back.values, cloud.values)
