"""End-to-end acceptance gate.

Nine numbered criteria, each printing one `[criterion N] PASS/FAIL` verdict
line (routed past pytest's capture so the gate is visible in any log).
"""

import math
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import linalg, sparse
from scipy.sparse import linalg as sparse_linalg

from scatterspline import (
    FitConfig,
    KnotVector,
    PointCloud,
    RankDeficientError,
    RegionOfInterest,
    SolveOptions,
    SplineModel,
    assemble_system,
    basis_derivatives,
    basis_values,
    condition_number,
    eval_model_grid,
    pointwise_errors,
    polysinc,
    resample_grid,
    solve,
    uniform_clamped_knots,
)
from scatterspline.bsplines import basis_value_single
from scatterspline.datasets import (
    SynthConfig,
    VoidSpec,
    generate_annulus_cloud,
    generate_polysinc_cloud,
    grid_to_cloud,
)

NO_COND = SolveOptions(estimate_condition=False)

# verdict lines; conftest replays these in the terminal summary, where
# pytest's fd capture no longer swallows them
VERDICTS = []


def _verdict(line):
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(number, label):
    """Collects named boolean checks; prints the verdict before asserting."""
    checks = {}
    note = [""]
    try:
        yield checks, note
    except BaseException:
        _verdict(f"[criterion {number}] FAIL {label} (exception)")
        raise
    ok = all(checks.values())
    verdict = "PASS" if ok else "FAIL"
    _verdict(f"[criterion {number}] {verdict} {label}{note[0]}")
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"failed checks: {failed}"


def random_knot_vector(rng, min_gap_ticks=1):
    """Clamped knot vector with degree 1-5 and distinct interior knots."""
    p = int(rng.integers(1, 6))
    n = p + 1 + int(rng.integers(0, 7))
    interior = n - p - 1
    if interior and rng.random() < 0.5:
        ticks = rng.choice(
            np.arange(min_gap_ticks, 1000, min_gap_ticks),
            size=interior,
            replace=False,
        )
        inner = np.sort(ticks) / 1000.0
    else:
        inner = np.linspace(0.0, 1.0, interior + 2)[1:-1]
    knots = np.concatenate([np.zeros(p + 1), inner, np.ones(p + 1)])
    return KnotVector(p, knots)


def random_cloud(rng, count, box):
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    coords = rng.uniform(lo, hi, size=(count, lo.size))
    values = np.sin(coords).sum(axis=1) + 0.1 * rng.normal(size=count)
    return PointCloud(coords, values, lo, hi)


def test_criterion_1_basis_partition_support_and_derivative_sums():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst_partition = 0.0
    worst_derivative_sum = 0.0
    nonnegative = True
    support_zero = True
    for _ in range(10_000):
        d = int(rng.integers(1, 4))
        for _ in range(d):
            # interior gaps of at least 0.1: second-derivative rows stay
            # below ~2.5e3, keeping the cancellation in their zero sums
            # well under the absolute 1e-10 budget
            kv = random_knot_vector(rng, min_gap_ticks=100)
            u = float(rng.uniform())
            row, first = basis_values(kv, u)
            worst_partition = max(worst_partition, abs(row.sum() - 1.0))
            nonnegative = nonnegative and bool((row >= 0.0).all())
            for j in (first - 1, first + kv.degree + 1):
                if 0 <= j < kv.n:
                    support_zero = (
                        support_zero and basis_value_single(kv, j, u) == 0.0
                    )
            ders, _ = basis_derivatives(kv, u, min(kv.degree, 2))
            worst_derivative_sum = max(
                worst_derivative_sum, float(np.abs(ders[1:].sum(axis=1)).max())
            )
    elapsed = time.perf_counter() - start
    with criterion(1, "basis partition/support/derivative sums") as (checks, note):
        checks["partition of unity within 1e-12"] = worst_partition <= 1e-12
        checks["nonnegative"] = nonnegative
        checks["zero outside support"] = support_zero
        checks["derivative rows sum to 0 within 1e-10"] = (
            worst_derivative_sum <= 1e-10
        )
        checks["under 10 s"] = elapsed < 10.0
        note[0] = (
            f" (10000 cases, partition {worst_partition:.1e}, "
            f"deriv sum {worst_derivative_sum:.1e}, {elapsed:.1f}s)"
        )


def test_criterion_2_derivatives_match_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-5
    worst = 0.0
    done = 0
    while done < 1000:
        # degree 2-5 with interior gaps of at least 1/8 keeps the truncation
        # error of the h^2 stencil below the required relative 1e-6
        p = int(rng.integers(2, 6))
        n = p + 1 + int(rng.integers(0, 5))
        interior = n - p - 1
        if interior:
            ticks = rng.choice(np.arange(1, 8), size=interior, replace=False)
            inner = np.sort(ticks) / 8.0
        else:
            inner = np.empty(0)
        kv = KnotVector(
            p, np.concatenate([np.zeros(p + 1), inner, np.ones(p + 1)])
        )
        u = float(rng.uniform(0.01, 0.99))
        if np.abs(kv.knots - u).min() < 1e-3:
            continue
        row_lo, first_lo = basis_values(kv, u - h)
        row_hi, first_hi = basis_values(kv, u + h)
        _, first = basis_values(kv, u)
        if not (first_lo == first == first_hi):
            continue
        ders, _ = basis_derivatives(kv, u, 2)
        fd_first = (row_hi - row_lo) / (2 * h)
        rel = np.abs(fd_first - ders[1]).max() / max(1.0, np.abs(ders[1]).max())
        worst = max(worst, rel)
        d_lo = basis_derivatives(kv, u - h, 1)[0][1]
        d_hi = basis_derivatives(kv, u + h, 1)[0][1]
        fd_second = (d_hi - d_lo) / (2 * h)
        rel = np.abs(fd_second - ders[2]).max() / max(1.0, np.abs(ders[2]).max())
        worst = max(worst, rel)
        done += 1
    with criterion(2, "analytic derivatives vs central differences") as (
        checks,
        note,
    ):
        checks["relative 1e-6 at 1000 points"] = worst <= 1e-6
        note[0] = f" (worst relative {worst:.1e})"


def test_criterion_3_exact_recovery_of_sampled_spline():
    rng = np.random.default_rng(3)
    kv = uniform_clamped_knots(10, 3)
    source = SplineModel(
        (kv, kv), rng.normal(size=(100, 1)), (-2.0, 1.0), (3.0, 4.0)
    )
    axes, values = resample_grid(source, (60, 60))
    cloud = grid_to_cloud(axes, values)
    config = FitConfig(degree=3, shape=(10, 10), threshold=0.0, orders=(2,))
    controls, _ = solve(assemble_system(cloud, config), NO_COND)
    deviation = float(np.abs(controls - source.controls).max())
    with criterion(3, "exact recovery of a sampled spline") as (checks, note):
        checks["max control deviation <= 1e-8"] = deviation <= 1e-8
        note[0] = f" (deviation {deviation:.1e})"


def test_criterion_4_zero_threshold_degenerates_to_least_squares():
    rng = np.random.default_rng(4)
    cloud = random_cloud(rng, 2000, ((-1.0, 2.0), (0.0, 3.0)))
    config = FitConfig(degree=3, shape=(12, 12), threshold=0.0, orders=(1, 2))
    system = assemble_system(cloud, config)
    n = system.collocation
    plain_normal = (n.T @ n).tocsr()
    scaled = system.penalty @ sparse.diags(system.lambdas)
    with_penalty = (plain_normal + (scaled.T @ scaled).tocsr()).tocsr()
    difference = with_penalty - plain_normal
    max_diff = abs(difference.data).max() if difference.nnz else 0.0
    controls, _ = solve(system, NO_COND)
    # reference: LAPACK's banded SPD solve on the lower band of plain_normal
    dense = plain_normal.toarray()
    rows, cols = plain_normal.nonzero()
    width = int((rows - cols).max())
    band = np.array([np.pad(np.diag(dense, -k), (0, k)) for k in range(width + 1)])
    direct = linalg.solveh_banded(band, system.rhs, lower=True)
    lu = sparse_linalg.splu(plain_normal.tocsc())
    via_lu = np.column_stack(
        [lu.solve(system.rhs[:, k]) for k in range(system.rhs.shape[1])]
    )
    lu_gap = float(np.abs(via_lu - direct).max() / np.abs(direct).max())
    with criterion(4, "zero threshold equals plain least squares") as (
        checks,
        note,
    ):
        checks["all lambdas zero"] = not np.any(system.lambdas)
        checks["normal system element-identical"] = max_diff == 0.0
        checks["solutions identical"] = np.array_equal(controls, direct)
        checks["sparse LU agrees within 1e-10"] = lu_gap <= 1e-10
        note[0] = f" (penalty contribution {max_diff:.1e})"


def test_criterion_5_column_sum_law():
    worst = 0.0
    zero_iff_satisfied = True
    law_applies_everywhere = True
    for seed, count, box, orders in (
        (50, 1500, ((-1.0, 2.0), (0.0, 3.0)), (2,)),
        (51, 3000, ((0.0, 1.0), (0.0, 1.0)), (1, 2)),
        (52, 800, ((-5.0, 5.0), (-5.0, 5.0)), (2,)),
    ):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, count, box)
        for threshold in (1.0, 6.0, 10.0):
            config = FitConfig(
                degree=3, shape=(9, 9), threshold=threshold, orders=orders
            )
            system = assemble_system(cloud, config)
            s = system.data_col_sums
            s_tilde = system.penalty_col_sums
            lam = system.lambdas
            law_applies_everywhere = law_applies_everywhere and bool(
                (s_tilde > 0).all()
            )
            achieved = s + lam * s_tilde
            target = np.maximum(s, threshold)
            worst = max(worst, float(np.abs(achieved - target).max()))
            zero_iff_satisfied = zero_iff_satisfied and bool(
                np.array_equal(lam == 0.0, s >= threshold)
            )
    with criterion(5, "column sums raised exactly to the threshold") as (
        checks,
        note,
    ):
        checks["law within 1e-12"] = worst <= 1e-12
        checks["penalty sees every column"] = law_applies_everywhere
        checks["lambda zero iff column already satisfied"] = zero_iff_satisfied
        note[0] = f" (worst law residual {worst:.1e})"


def _two_void_fit(sparsity, threshold):
    """One cell of the sparsity study; returns (failed, max_err, cond_inf)."""
    pi = math.pi
    voids = tuple(
        VoidSpec(center, 1.5 * pi, sparsity)
        for center in ((-2 * pi, -2 * pi), (2 * pi, 2 * pi))
    )
    cloud = generate_polysinc_cloud(
        SynthConfig(count=40_000, seed=20260822, voids=voids)
    )
    config = FitConfig(degree=4, shape=(60, 60), threshold=threshold, orders=(2,))
    system = assemble_system(cloud, config)
    try:
        controls, report = solve(system, SolveOptions())
    except RankDeficientError:
        cond = condition_number(system.collocation, "estimate")
        return True, math.inf, math.isinf(cond)
    model = SplineModel(system.knots, controls, cloud.bbox_min, cloud.bbox_max)
    roi = RegionOfInterest((-3.5 * pi, -3.5 * pi), (3.5 * pi, 3.5 * pi))
    stats = pointwise_errors(
        model, lambda c: polysinc(c[:, 0], c[:, 1]), roi=roi
    )
    return False, stats.max_error, math.isinf(report.cond_stacked)


def test_criterion_6_sparsity_study_two_voids():
    start = time.perf_counter()
    sparsities = (0.02, 0.32, 1.00)
    reg = {sp: _two_void_fit(sp, 1.0) for sp in sparsities}
    unreg = {sp: _two_void_fit(sp, 0.0) for sp in sparsities}
    elapsed = time.perf_counter() - start

    reg_errors = [reg[sp][1] for sp in sparsities]
    reg_ratio = max(reg_errors) / min(reg_errors)
    unreg_failed = any(unreg[sp][0] for sp in sparsities)
    unreg_errors = [unreg[sp][1] for sp in sparsities if not unreg[sp][0]]
    unreg_ratio = (
        max(unreg_errors) / min(unreg_errors) if len(unreg_errors) > 1 else math.inf
    )
    with criterion(6, "sparsity study over two data voids") as (checks, note):
        checks["regularized fits all solve"] = not any(
            reg[sp][0] for sp in sparsities
        )
        checks["regularized error varies < 10x"] = reg_ratio < 10.0
        checks["unregularized varies > 1000x or fails"] = (
            unreg_failed or unreg_ratio > 1e3
        )
        checks["regularized condition finite everywhere"] = not any(
            reg[sp][2] for sp in sparsities
        )
        checks["unregularized condition infinite at 0.02"] = unreg[0.02][2]
        checks["under 2 min"] = elapsed < 120.0
        note[0] = (
            f" (reg ratio {reg_ratio:.2f}, unreg ratio {unreg_ratio:.1e}, "
            f"{elapsed:.0f}s)"
        )


def test_criterion_7_condition_estimates_match_dense_svd():
    rng = np.random.default_rng(0xACCE7)
    worst = 0.0
    for i in range(20):
        rows = int(rng.integers(40, 501))
        cols = int(rng.integers(20, min(rows, 300) + 1))
        density = float(rng.uniform(0.02, 0.15))
        mat = sparse.random(
            rows,
            cols,
            density=density,
            random_state=np.random.RandomState(i),
            format="csr",
        )
        # a diagonal shift keeps every column structurally occupied
        mat = mat + sparse.diags(np.full(cols, 0.5), shape=(rows, cols))
        estimated = condition_number(mat, "estimate")
        exact = condition_number(mat, "exact")
        worst = max(worst, abs(estimated - exact) / exact)
    with criterion(7, "condition estimates vs dense singular values") as (
        checks,
        note,
    ):
        checks["within 5% on 20 matrices"] = worst <= 0.05
        note[0] = f" (worst relative {worst:.1e})"


def test_criterion_8_hole_extrapolation_stays_bounded():
    start = time.perf_counter()
    cloud = generate_annulus_cloud(SynthConfig(count=20_000, seed=4242))
    data_range = float(cloud.values.max() - cloud.values.min())

    unregularized = FitConfig(
        degree=2, shape=(40, 40), threshold=0.0, orders=(1, 2)
    )
    raised = False
    try:
        solve(assemble_system(cloud, unregularized), NO_COND)
    except RankDeficientError:
        raised = True

    regularized = FitConfig(
        degree=2, shape=(40, 40), threshold=5.0, orders=(1, 2)
    )
    system = assemble_system(cloud, regularized)
    controls, report = solve(system, SolveOptions())
    model = SplineModel(system.knots, controls, cloud.bbox_min, cloud.bbox_max)

    # dense parametric grid over the hole's bounding square, masked to the disk
    half_param = 1.5 / 8.0
    axes = [np.linspace(0.5 - half_param, 0.5 + half_param, 201)] * 2
    values = eval_model_grid(model, axes)[..., 0]
    phys = np.linspace(-1.5, 1.5, 201)
    xx, yy = np.meshgrid(phys, phys, indexing="ij")
    in_hole = xx**2 + yy**2 <= 1.5**2
    hole_max = float(np.abs(values[in_hole]).max())
    elapsed = time.perf_counter() - start
    with criterion(8, "bounded extrapolation across a data hole") as (
        checks,
        note,
    ):
        checks["unregularized fit raises rank deficiency"] = raised
        checks["regularized condition finite"] = math.isfinite(
            report.cond_stacked
        )
        checks["hole values within 2x data range"] = hole_max <= 2 * data_range
        checks["under 30 s"] = elapsed < 30.0
        note[0] = f" (hole max {hole_max:.2f} vs limit {2 * data_range:.1f})"


def test_criterion_9_lambdas_nondecreasing_in_threshold():
    rng = np.random.default_rng(9)
    kept = rng.uniform(size=(4000, 2))
    outside_void = ~(
        (kept[:, 0] > 0.55)
        & (kept[:, 0] < 0.95)
        & (kept[:, 1] > 0.55)
        & (kept[:, 1] < 0.95)
    )
    coords = kept[outside_void]
    cloud = PointCloud(
        coords, np.cos(3 * coords[:, 0]) + coords[:, 1], (0.0, 0.0), (1.0, 1.0)
    )
    fields = []
    for threshold in (0.0, 1.0, 2.0, 4.0, 8.0):
        config = FitConfig(
            degree=3, shape=(14, 14), threshold=threshold, orders=(2,)
        )
        fields.append(assemble_system(cloud, config).lambdas)
    monotone = all(
        bool((b >= a).all()) for a, b in zip(fields, fields[1:])
    )
    grows = bool((fields[-1] > fields[0]).any())
    with criterion(9, "penalty weights nondecreasing in the threshold") as (
        checks,
        note,
    ):
        checks["elementwise nondecreasing"] = monotone
        checks["largest threshold strictly increases some weight"] = grows
        note[0] = f" (final positive weights {int((fields[-1] > 0).sum())})"
