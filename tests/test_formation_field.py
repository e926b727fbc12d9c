import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from herdsim.environment import (Disc, contour_offsets, derive_obstacle,
                                 superelliptic_distance, tangent_angle_at)
from herdsim.errors import DomainError
from herdsim.formation_field import (SWEEP_BLOCK_ROWS, SWEEP_SUBSAMPLES, SweepReport,
                                     _cell_extrema, _field_angle_np, _gap_lattice,
                                     _tangent_angle_np, _wrap_angle_np, combined_field,
                                     follow_field, follow_obstacles, repulsive_angle,
                                     singularity_sweep)
from herdsim.geom import Vec2, blend_weight, wrap_angle
from herdsim.svg import _fmt, sweep_heatmap_svg

from conftest import component_angle_gap, contour_point, written

# sha256 of the bundled obstacle 0's sweep artifacts (resolution 128, and
# the CSV at 64)
GOLDEN_SWEEP_SHA256 = {
    ("sweep.csv", 128): "be219f8981b297b1d9127d560dba2f74d2d3e651883c5315e14dc98c3d8947e8",
    ("sweep.svg", 128): "4051221e9214d32410f6b5669006ba1fcb7ac8782a410a536bc90cf99b3a7948",
    ("sweep.csv", 64): "04ec74e1500043d8215e8264432fd00e10b45795971865c1dd1291497e725b34",
}


def field_angle_np(beta_f, beta_s, ob):
    return _field_angle_np(beta_f, _tangent_angle_np(np.cos(beta_f), np.sin(beta_f), ob),
                           beta_s, ob)


@pytest.fixture()
def square(derivation):
    return derive_obstacle(Vec2(0.0, 0.0), 2.0, 2.0, derivation)


def test_angle_on_target_ray_points_outward(square):
    # with the target due north, a point due north sees a purely radial field
    safe = Vec2(0.0, 10.0)
    assert repulsive_angle(Vec2(0.0, 3.0), square, safe) == pytest.approx(math.pi / 2.0)


def test_watershed_uses_reversed_tangent_branch(square):
    safe = Vec2(0.0, 10.0)
    phi = repulsive_angle(Vec2(0.0, -3.0), square, safe)
    assert phi == pytest.approx(wrap_angle(tangent_angle_at(-math.pi / 2.0, square)),
                                abs=1e-12)


def test_angle_continuous_across_target_ray(square):
    # the two formula branches must agree through the full-turn seam
    safe = Vec2(0.0, 10.0)
    level = square.formation_band.hi
    eps = 1e-10
    ahead = contour_point(square, math.pi / 2.0 + eps, level)
    behind = contour_point(square, math.pi / 2.0 - eps, level)
    gap = wrap_angle(repulsive_angle(ahead, square, safe)
                     - repulsive_angle(behind, square, safe))
    assert abs(gap) < 1e-9


def test_angle_depends_only_on_sector_angle(square):
    safe = Vec2(3.0, 9.0)
    beta = 0.9
    near = Vec2(2.0 * math.cos(beta), 2.0 * math.sin(beta))
    far = Vec2(7.0 * math.cos(beta), 7.0 * math.sin(beta))
    assert repulsive_angle(near, square, safe) == \
        pytest.approx(repulsive_angle(far, square, safe), abs=1e-12)


def test_angle_rejects_degenerate_points(square):
    with pytest.raises(DomainError):
        repulsive_angle(square.center, square, Vec2(0.0, 10.0))
    with pytest.raises(DomainError):
        repulsive_angle(Vec2(0.0, 3.0), square, square.center)


def test_combined_field_far_is_pure_attraction(square):
    safe = Vec2(0.0, 30.0)
    p = Vec2(20.0, -5.0)
    prod, _, _, hit = follow_obstacles(p, [square], safe, False)
    assert prod == 1.0 and not hit
    assert abs(math.hypot(*combined_field(p, [square], safe)) - 1.0) < 1e-15


def test_combined_field_saturated_is_pure_following(square):
    safe = Vec2(0.0, 30.0)
    p = contour_point(square, 0.3, square.formation_band.lo)  # weight saturates at 1
    prod, _, _, hit = follow_obstacles(p, [square], safe, False)
    assert prod == 0.0 and hit
    fx, fy = combined_field(p, [square], safe)
    assert abs(math.hypot(fx, fy) - 1.0) < 1e-15
    phi = repulsive_angle(p, square, safe)
    assert fx == pytest.approx(math.cos(phi))
    assert fy == pytest.approx(math.sin(phi))


def test_blend_norm_identity():
    # two unit components at sigma 1/2 and a right angle compose to sqrt(1/2)
    fx, fy = 0.5 * 1.0 + 0.5 * 0.0, 0.5 * 0.0 + 0.5 * 1.0
    assert math.hypot(fx, fy) == pytest.approx(math.sqrt(0.5))


def test_combined_norm_matches_composition_formula(square):
    """In the partial-blend zone the norm must follow
    sqrt(1 + 2*s*(1-s)*(cos(gap) - 1)) with gap the component angle."""
    safe = Vec2(1.0, 24.0)
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 40:
        beta = rng.uniform(0.0, 2.0 * math.pi)
        level = rng.uniform(square.formation_band.mid, square.formation_band.hi)
        p = contour_point(square, beta, level)
        s = blend_weight(superelliptic_distance(p, square), square.formation_band)
        if not (0.0 < s < 1.0):
            continue
        field = combined_field(p, [square], safe)
        gap = component_angle_gap(p, square, safe)
        expect = math.sqrt(1.0 + 2.0 * s * (1.0 - s) * (math.cos(gap) - 1.0))
        assert math.hypot(*field) == pytest.approx(expect, abs=1e-12)
        checked += 1


def test_component_gap_zero_at_coincidence(square):
    p = contour_point(square, math.pi / 4.0, square.formation_band.hi)
    assert component_angle_gap(p, square, p) == 0.0


def test_scalar_and_vector_angle_paths_agree(square):
    rng = np.random.default_rng(5)
    beta_f = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=200)
    beta_s = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=200)
    vec = field_angle_np(beta_f, beta_s, square)
    for bf, bs, v in zip(beta_f, beta_s, vec):
        p = Vec2(3.0 * math.cos(bf), 3.0 * math.sin(bf))
        s = Vec2(5.0 * math.cos(bs), 5.0 * math.sin(bs))
        assert abs(wrap_angle(repulsive_angle(p, square, s) - v)) < 1e-9


def test_contour_point_lies_on_level_and_ray(square):
    rng = np.random.default_rng(2)
    for _ in range(50):
        beta = rng.uniform(0.0, 2.0 * math.pi)
        level = rng.uniform(0.0, square.formation_band.hi)
        p = contour_point(square, beta, level)
        assert superelliptic_distance(p, square) == pytest.approx(level, abs=1e-9)
        assert wrap_angle(math.atan2(p.y - square.center.y,
                                     p.x - square.center.x) - beta) \
            == pytest.approx(0.0, abs=1e-9)


def test_sweep_rejects_low_resolution(square):
    with pytest.raises(ValueError):
        singularity_sweep(square, resolution=16)


def test_sweep_reference_obstacle_passes(derivation):
    ob = derive_obstacle(Vec2(10.0, 23.0), 2.0, 3.0, derivation)
    report = singularity_sweep(ob, resolution=128)
    assert report.passed
    assert -math.pi < report.min_value <= report.max_value < math.pi
    assert report.max_abs < math.pi - 0.1
    summary = report.summary()
    assert summary["passed"] is True
    assert summary["cells"] == 128
    csv = written(report.to_csv)
    assert csv.startswith("target_angle_rad,span_rad,gap_min_rad,gap_max_rad")
    assert len(csv.splitlines()) == 128 * 128 + 1


def test_sweep_report_compares_by_identity(square):
    # a report holds arrays: value equality would ask numpy for the truth
    # value of an array, so two equal sweeps are two distinct reports
    a = singularity_sweep(square, resolution=64)
    b = singularity_sweep(square, resolution=64)
    assert hash(a) == hash(a)
    assert a == a and a != b
    assert written(a.to_csv) == written(b.to_csv)


def test_sweep_rejects_resolution_above_the_limit(square, monkeypatch):
    # refused before the lattice (the (3r + 1)^2 arrays) is built
    def no_lattice(*args):
        raise AssertionError("lattice built")
    monkeypatch.setattr("herdsim.formation_field._gap_lattice", no_lattice)
    for resolution in (769, 20000):
        with pytest.raises(ValueError, match="64 to 768"):
            singularity_sweep(square, resolution=resolution)


@pytest.mark.parametrize("margin", [-5.0, -1e-12, math.pi, 4.0, math.inf, -math.inf, math.nan])
def test_sweep_rejects_a_margin_outside_zero_to_pi(square, margin):
    with pytest.raises(ValueError, match="margin"):
        singularity_sweep(square, resolution=64, margin=margin)


def per_cell_csv(report):
    """SweepReport.to_csv as first written, formatting every field of every
    cell; reference for the writer."""
    lines = ["target_angle_rad,span_rad,gap_min_rad,gap_max_rad"]
    bc = (0.5 * (report.target_angles[:-1] + report.target_angles[1:])).tolist()
    sc = (0.5 * (report.span_angles[:-1] + report.span_angles[1:])).tolist()
    lo = report.cell_min.tolist()
    hi = report.cell_max.tolist()
    for i, b in enumerate(bc):
        for j, s in enumerate(sc):
            lines.append(f"{b!r},{s!r},{lo[i][j]!r},{hi[i][j]!r}")
    return "\n".join(lines) + "\n"


def per_cell_heatmap(report):
    """sweep_heatmap_svg as first written, indexing the arrays and formatting
    every attribute of every cell; reference for the writer."""
    cells = report.cell_min.shape[0]
    size = max(256, min(768, 4 * cells))
    px = size / cells
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size + 40}" '
             f'viewBox="0 0 {size} {size + 40}">',
             f'<rect x="0" y="0" width="{size}" height="{size + 40}" fill="white"/>']
    for i in range(cells):
        for j in range(cells):
            worst = max(abs(report.cell_min[i, j]), abs(report.cell_max[i, j]))
            shade = int(255 * (1.0 - min(worst / math.pi, 1.0)))
            parts.append(f'<rect x="{_fmt(j * px)}" y="{_fmt(size - (i + 1) * px)}" '
                         f'width="{_fmt(px)}" height="{_fmt(px)}" '
                         f'fill="rgb({shade},{shade},255)"/>')
    parts.append(f'<text x="4" y="{size + 16}" font-size="12" font-family="sans-serif">'
                 f'max |gap| = {report.max_abs:.4f} rad '
                 f'(limit {math.pi - report.margin:.4f})</text>')
    parts.append(f'<text x="4" y="{size + 32}" font-size="12" font-family="sans-serif">'
                 f'x: span over [0, 2pi), y: target angle over [0, pi/2]</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@pytest.mark.parametrize("which, resolution", [("bundled-0", 128), ("square", 64)])
def test_sweep_writers_match_the_per_cell_loops(which, resolution, reference_cfg, square):
    ob = reference_cfg.obstacles[0] if which == "bundled-0" else square
    report = singularity_sweep(ob, resolution=resolution)
    assert written(report.to_csv) == per_cell_csv(report)
    assert written(sweep_heatmap_svg, report) == per_cell_heatmap(report)


@pytest.mark.parametrize("name, resolution", sorted(GOLDEN_SWEEP_SHA256))
def test_sweep_artifacts_match_golden_hash(reference_cfg, name, resolution):
    report = singularity_sweep(reference_cfg.obstacles[0], resolution=resolution)
    text = (written(report.to_csv) if name == "sweep.csv"
            else written(sweep_heatmap_svg, report))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SWEEP_SHA256[name, resolution]


def test_sweep_csv_holds_plain_numbers(square):
    report = singularity_sweep(square, resolution=64)
    header, *rows = written(report.to_csv).splitlines()
    cells = np.array([[float(x) for x in row.split(",")] for row in rows])
    assert cells.shape == (64 * 64, 4)
    centers_b = 0.5 * (report.target_angles[:-1] + report.target_angles[1:])
    centers_s = 0.5 * (report.span_angles[:-1] + report.span_angles[1:])
    assert np.array_equal(cells[:, 0], np.repeat(centers_b, 64))
    assert np.array_equal(cells[:, 1], np.tile(centers_s, 64))
    assert np.array_equal(cells[:, 2], report.cell_min.ravel())
    assert np.array_equal(cells[:, 3], report.cell_max.ravel())


def nudged_gap_lattice(ob, level, fine):
    """The sweep lattice as first written: the end columns sat 1e-9 rad off
    the coincidence point, where the chord direction carries ~3e-7 rad of
    rounding error.  Reference for every other column."""
    beta_s = np.linspace(0.0, math.pi / 2.0, fine)
    span = np.linspace(0.0, 2.0 * math.pi, fine)
    span[0] = 1e-9
    span[-1] = 2.0 * math.pi - 1e-9
    bs = beta_s[:, None]
    bf = bs + span[None, :]
    sx, sy = contour_offsets(ob, np.cos(bs), np.sin(bs), level)
    fx, fy = contour_offsets(ob, np.cos(bf), np.sin(bf), level)
    phi = field_angle_np(bf, bs, ob)
    return _wrap_angle_np(np.arctan2(sy - fy, sx - fx) - phi)


def test_sweep_cells_off_the_end_columns_unchanged(reference_cfg):
    resolution, sub = 128, SWEEP_SUBSAMPLES
    for ob in reference_cfg.obstacles:
        report = singularity_sweep(ob, resolution=resolution)
        old = nudged_gap_lattice(ob, ob.formation_band.hi, sub * resolution + 1)
        old_min, old_max = _cell_extrema(old, sub)
        assert np.array_equal(report.cell_min[:, 1:-1], old_min[:, 1:-1])
        assert np.array_equal(report.cell_max[:, 1:-1], old_max[:, 1:-1])



def test_sweep_end_columns_hold_the_coincidence_limit(reference_cfg):
    # at the coincidence point the field angle is radial (beta) and the chord
    # toward the target is the contour tangent, reversed when the sample
    # leads the target; the tangent here comes from the gradient of E at the
    # contour point, independent of tangent_angle_at
    fine = 3 * 128 + 1
    betas = np.linspace(0.0, math.pi / 2.0, fine)
    spans = np.linspace(0.0, 2.0 * math.pi, fine)
    for ob in reference_cfg.obstacles:
        level = ob.formation_band.hi
        gap = _gap_lattice(ob, level, betas, spans)
        two_n = 2.0 * ob.exponent
        for i, beta in enumerate(betas.tolist()):
            x, y = (float(v) for v in contour_offsets(ob, np.cos(beta), np.sin(beta), level))
            gx = (x / ob.semi_x) ** (two_n - 1.0) / ob.semi_x
            gy = (y / ob.semi_y) ** (two_n - 1.0) / ob.semi_y
            lead = math.atan2(gx, -gy) - beta
            assert abs(wrap_angle(gap[i, -1] - lead)) <= 1e-12
            assert abs(wrap_angle(gap[i, 0] - (lead - math.pi))) <= 1e-12
            # and it is the limit from each side: a sample 1e-5 rad away
            for col, span in ((0, 1e-5), (-1, 2.0 * math.pi - 1e-5)):
                fx, fy = contour_offsets(ob, np.cos(beta + span), np.sin(beta + span), level)
                phi = field_angle_np(beta + span, beta, ob)
                near = math.atan2(y - fy, x - fx) - phi
                assert abs(wrap_angle(near - gap[i, col])) < 1e-4


@pytest.mark.parametrize("resolution", [128, 100])
def test_blocked_sweep_equals_the_whole_lattice(reference_cfg, resolution):
    # 100 is no multiple of the block size, so its last block is short;
    # every block shares its edge fine row with the next
    assert (resolution % SWEEP_BLOCK_ROWS != 0) == (resolution == 100)
    sub = SWEEP_SUBSAMPLES
    fine = sub * resolution + 1
    betas = np.linspace(0.0, math.pi / 2.0, fine)
    spans = np.linspace(0.0, 2.0 * math.pi, fine)
    for ob in reference_cfg.obstacles:
        report = singularity_sweep(ob, resolution=resolution)
        whole_min, whole_max = _cell_extrema(
            _gap_lattice(ob, ob.formation_band.hi, betas, spans), sub)
        # bit for bit, signed zeros included
        assert report.cell_min.tobytes() == whole_min.tobytes()
        assert report.cell_max.tobytes() == whole_max.tobytes()


def test_sweep_peak_memory_stays_blocked(reference_cfg):
    # the whole (3r + 1)^2 lattice at r = 384 peaked at 107.7 MB (10^6
    # bytes); blocks of SWEEP_BLOCK_ROWS cell rows stay far below the pin
    tracemalloc.start()
    try:
        singularity_sweep(reference_cfg.obstacles[0], resolution=384)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["cell_min", "cell_max"])
def test_heatmap_refuses_a_non_finite_gap(square, which, bad):
    # a gap with no shade, verdict or summary is refused where the report is
    # built, so no writer ever sees one
    report = singularity_sweep(square, resolution=64)
    cells = {"cell_min": report.cell_min.copy(), "cell_max": report.cell_max.copy()}
    cells[which][5, 7] = bad
    with pytest.raises(DomainError, match=r"not finite in cell \(5, 7\)"):
        SweepReport(report.target_angles, report.span_angles, cells["cell_min"],
                    cells["cell_max"], report.margin)


def test_streamlines_reach_safe_area(derivation):
    obstacles = [derive_obstacle(Vec2(0.0, 12.0), 3.0, 3.0, derivation),
                 derive_obstacle(Vec2(-6.0, 28.0), 2.0, 4.0, derivation)]
    safe = Disc(Vec2(0.0, 40.0), 4.0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        while True:
            p = Vec2(rng.uniform(-12.0, 12.0), rng.uniform(-5.0, 45.0))
            if all(superelliptic_distance(p, ob) > ob.formation_band.hi
                   for ob in obstacles):
                break
        _, converged, min_norm, min_slack = follow_field(p, obstacles, safe)
        assert converged
        assert min_norm >= 1e-3
        assert min_slack > 0.0
