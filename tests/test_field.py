import collections
import os
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest

from heatinfer import field as fieldmod
from heatinfer.field import (FieldEvaluationError, SensorArray, Wall,
                             WallGeometryError, field_grid, jacobian_multipole,
                             observe, stack_rows, temp_multipole, temperatures)
from heatinfer.harness import load_config
from heatinfer.shapes import HeaterShape, curve_moments, node_rows

from oracles import fan_quadrature_temp, point_source_temp, quadrature_rows

# fan-quadrature ground value (1.15e6 points) for the heater below at the origin
HEART_T_ORIGIN = 3.4294837696656255e-4
HEART = HeaterShape((0.28, 0.14), (0.5, 0.8))
DISK = HeaterShape((0.5, 0.0), (0.0, 0.0))


def test_disk_exterior_mean_value():
    # outside a circle the field is that of a point source of strength q*A
    exact = -(np.pi / 4.0) / (2.0 * np.pi) * np.log(2.0)
    got = temperatures([(DISK, 1.0)], [(2.0, 0.0)])[0]
    assert got == pytest.approx(exact, rel=1e-10)


def test_mean_value_random_circles():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.uniform(0.1, 0.8)
        ctr = rng.uniform(-1, 1, 2)
        q = rng.uniform(0.2, 3.0)
        ang = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(a * 1.5, 5.0)
        pt = ctr + r * np.array([np.cos(ang), np.sin(ang)])
        exact = point_source_temp(q * np.pi * a * a, ctr, pt)
        got = temperatures([(HeaterShape((a,), ctr), q)], [pt])[0]
        assert got == pytest.approx(exact, rel=1e-4)


def test_disk_center_value():
    # analytic potential at the center: -q a^2 (2 ln a - 1) / 4
    a = 0.5
    exact = -a * a * (2.0 * np.log(a) - 1.0) / 4.0
    assert exact == pytest.approx(0.14914339756999317, abs=1e-14)
    assert temperatures([(DISK, 1.0)], [(0.0, 0.0)])[0] == pytest.approx(exact, rel=1e-10)
    # the blunt area-quadrature oracle agrees despite the integrable singularity
    oracle = fan_quadrature_temp((0.5, 0.0), (0.0, 0.0), 1.0, (0.0, 0.0))
    assert oracle == pytest.approx(exact, abs=1e-3)


def test_heart_origin_against_quadrature_oracle():
    got = temperatures([(HEART, 1.0)], [(0.0, 0.0)])[0]
    assert got == pytest.approx(HEART_T_ORIGIN, abs=2e-9)
    live = fan_quadrature_temp((0.28, 0.14), (0.5, 0.8), 1.0, (0.0, 0.0))
    assert got == pytest.approx(live, abs=1e-8)


def test_linearity_in_strength():
    pt = (1.5, -0.3)
    ta = temperatures([(HEART, 0.7)], [pt])[0]
    tb = temperatures([(HEART, 1.8)], [pt])[0]
    tab = temperatures([(HEART, 2.5)], [pt])[0]
    assert tab == pytest.approx(ta + tb, rel=1e-12)


def test_superposition_over_heaters():
    h1 = (HeaterShape((0.3, 0.1), (-0.5, 0.6)), 1.2)
    h2 = (HeaterShape((0.2,), (0.7, 1.0)), 2.0)
    sensors = SensorArray([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.3, -0.5]])
    both = observe([h1, h2], sensors)
    single = observe([h1], sensors) + observe([h2], sensors)
    np.testing.assert_allclose(both, single, rtol=1e-12)
    # the one-coefficient heater is padded with c2 = 0, which changes no byte
    padded = (HeaterShape((0.2, 0.0), (0.7, 1.0)), 2.0)
    assert both.tobytes() == observe([h1, padded], sensors).tobytes()


def test_observe_zero_heaters():
    sensors = SensorArray([[-1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(observe([], sensors), [0.0, 0.0])


def test_observe_point_source_closed_form():
    heater = (HeaterShape((0.5,), (0.5, 0.8)), 1.0)
    sensors = SensorArray([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    got = observe([heater], sensors)
    exact = [point_source_temp(np.pi / 4.0, (0.5, 0.8), p) for p in sensors.points]
    np.testing.assert_allclose(got, exact, rtol=1e-10)


def test_observe_three_sensor_pattern():
    # nearest sensors read warmest; the far sensor sits below the reference
    heater = (HeaterShape((0.5, 0.25), (0.5, 0.8)), 1.0)
    sensors = SensorArray([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    t = observe([heater], sensors)
    assert t[2] > t[1] > t[0]
    assert np.all(np.abs(t) < 0.2)


def test_wall_doubles_on_wall_sensors():
    heater = (HeaterShape((0.5, 0.25), (0.5, 0.8)), 1.0)
    pts = [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    free = observe([heater], SensorArray(pts, Wall.UNBOUNDED))
    walled = observe([heater], SensorArray(pts, Wall.ADIABATIC_Y0))
    np.testing.assert_allclose(walled, 2.0 * free, rtol=1e-10)


def test_wall_disk_value():
    # image symmetry doubles the free-space point-source value at the wall
    heater = (HeaterShape((0.5, 0.0), (0.5, 0.8)), 1.0)
    got = temperatures([heater], [(0.5, 0.0)], Wall.ADIABATIC_Y0)[0]
    assert got == pytest.approx(2.0 * 0.125 * -np.log(0.8), rel=1e-10)
    assert got == pytest.approx(0.0557858878, abs=1e-9)


def test_wall_field_even_in_y():
    heater = (HeaterShape((0.3, 0.1), (0.4, 0.9)), 1.5)
    mirrored = [(heater[0], heater[1]), (HeaterShape(heater[0].c, (0.4, -0.9)), heater[1])]
    for x, dy in ((0.1, 0.25), (-0.8, 0.6), (1.4, 0.05)):
        above = temperatures(mirrored, [(x, dy)])[0]
        below = temperatures(mirrored, [(x, -dy)])[0]
        assert above == pytest.approx(below, rel=1e-12)


def test_wall_normal_derivative_vanishes():
    heater = (HeaterShape((0.25, -0.05), (0.2, 0.7)), 2.0)
    d = 1e-5
    up = temperatures([heater], [(0.3, d)], Wall.ADIABATIC_Y0)[0]
    # central difference across the wall via the even extension
    mirrored = [(heater[0], heater[1]), (HeaterShape(heater[0].c, (0.2, -0.7)), heater[1])]
    down = temperatures(mirrored, [(0.3, -d)])[0]
    assert (up - down) / (2 * d) == pytest.approx(0.0, abs=1e-9)


def test_wall_rejects_crossing_heater():
    low = (HeaterShape((0.5, 0.0), (0.0, 0.3)), 1.0)
    with pytest.raises(WallGeometryError):
        temperatures([low], [(0.0, 0.0)], Wall.ADIABATIC_Y0)
    # only the second heater crosses: both entry points name it
    high = (HeaterShape((0.2, 0.0), (0.5, 0.8)), 1.0)
    low = (HeaterShape((0.5, 0.0), (-0.4, 0.3)), 1.0)
    with pytest.raises(WallGeometryError, match=r"heater at \(-0\.4, 0\.3\)"):
        temperatures([high, low], [(0.0, 0.0)], Wall.ADIABATIC_Y0)
    with pytest.raises(WallGeometryError, match=r"heater at \(-0\.4, 0\.3\)"):
        field_grid([high, low], (-1, 1, 0, 1), (4, 4), Wall.ADIABATIC_Y0)


def test_sensor_array_validation():
    with pytest.raises(ValueError):
        SensorArray([[0.0, 0.1]], Wall.ADIABATIC_Y0)
    with pytest.raises(ValueError):
        SensorArray(np.empty((0, 2)))
    with pytest.raises(ValueError):
        SensorArray([[np.inf, 0.0]])


def test_point_on_quadrature_node_is_finite():
    x, y, _, _ = node_rows(np.array([HEART.c]), np.array([HEART.center]), 512)
    val = temperatures([(HEART, 1.0)], [(x[0, 8], y[0, 8])])[0]
    assert np.isfinite(val)


def test_multipole_circle_equals_point_source():
    heater = (HeaterShape((0.4, 0.0), (0.3, 0.7)), 2.0)
    q_total = 2.0 * np.pi * 0.4 ** 2
    for pt in ((2.0, 0.0), (-1.0, 3.0), (0.3, -2.0)):
        exact = point_source_temp(q_total, (0.3, 0.7), pt)
        assert temp_multipole(heater, pt) == pytest.approx(exact, rel=1e-13)


def test_multipole_recorded_value():
    # recorded from the dense-moment expansion for (0.5, 0.25), point
    # (0, -0.8) relative to the center
    heater = (HeaterShape((0.5, 0.25), (0.0, 0.0)), 1.0)
    assert temp_multipole(heater, (0.0, -0.8)) == pytest.approx(0.041431545894404925,
                                                                abs=1e-9)


def test_multipole_far_field_decay():
    # two-term error falls at least eightfold when the distance doubles
    heater = (HEART, 1.0)
    errs = {}
    for radius in (2.5, 5.0):
        worst = 0.0
        for ang in np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False):
            pt = (0.5 + radius * np.cos(ang), 0.8 + radius * np.sin(ang))
            worst = max(worst, abs(temp_multipole(heater, pt)
                                   - temperatures([heater], [pt], quad_n=512)[0]))
        errs[radius] = worst
    assert errs[5.0] < errs[2.5] / 8.0 * 1.05


def test_multipole_singular_point():
    heater = (HeaterShape((0.5, 0.25), (0.0, 0.0)), 1.0)
    center_of_mass = np.asarray([0.0, 0.0]) + curve_moments(heater[0]).centroid_offset
    with pytest.raises(FieldEvaluationError):
        temp_multipole(heater, center_of_mass)


def _fd_jacobian(c, center, q, sensors, h=1e-6):
    fd = np.zeros((len(sensors.points), 3))
    for a, pt in enumerate(sensors.points):
        for j in range(3):
            dv = np.zeros(3)
            dv[j] = h
            plus = (HeaterShape(c, (center[0] + dv[0], center[1] + dv[1])), q + dv[2])
            minus = (HeaterShape(c, (center[0] - dv[0], center[1] - dv[1])), q - dv[2])
            fd[a, j] = (temp_multipole(plus, pt) - temp_multipole(minus, pt)) / (2 * h)
    return fd


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(10):
        c = (rng.uniform(0.1, 0.6), rng.uniform(-0.25, 0.25))
        center = rng.uniform(-1, 1, 2)
        q = rng.uniform(0.2, 3.0)
        pts = center + rng.uniform(0.8, 4.0, (4, 1)) * _unit_dirs(rng, 4)
        sensors = SensorArray(pts)
        jac = jacobian_multipole((HeaterShape(c, center), q), sensors)
        fd = _fd_jacobian(c, center, q, sensors)
        np.testing.assert_allclose(jac, fd, rtol=1e-5, atol=1e-10)


def _unit_dirs(rng, m):
    ang = rng.uniform(0, 2 * np.pi, m)
    return np.column_stack([np.cos(ang), np.sin(ang)])


def test_jacobian_circle_strength_column():
    heater = (HeaterShape((0.35, 0.0), (0.2, 0.9)), 1.7)
    sensors = SensorArray([[-1.0, 0.0], [0.5, 0.0], [2.0, 1.0]])
    jac = jacobian_multipole(heater, sensors)
    area = np.pi * 0.35 ** 2
    r = np.hypot(sensors.points[:, 0] - 0.2, sensors.points[:, 1] - 0.9)
    np.testing.assert_allclose(jac[:, 2], -area / (2 * np.pi) * np.log(r), rtol=1e-13)


def test_jacobian_svd_strength_dominates():
    # with three in-line sensors the softest direction is mostly strength
    heater = (HeaterShape((0.5, 0.25), (0.5, 0.8)), 1.0)
    sensors = SensorArray([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    jac = jacobian_multipole(heater, sensors)
    v = np.linalg.svd(jac)[2][-1]
    assert np.argmax(np.abs(v)) == 2
    assert abs(v[2]) > 0.8


def test_field_grid_zero_heaters():
    g = field_grid([], (-1, 1, -1, 1), (4, 6))
    assert g.values.shape == (6, 4)
    assert not g.values.any()


def test_field_grid_radial_symmetry():
    # cell centers at the four compass points of a radius-2 ring
    g = field_grid([(DISK, 1.0)], (-2.5, 2.5, -2.5, 2.5), (5, 5))
    ring = [g.values[2, 0], g.values[2, 4], g.values[0, 2], g.values[4, 2]]
    assert max(ring) - min(ring) < 1e-6


def test_far_field_circularizes():
    # away from a deformed source the contours approach circles about the
    # centroid: ring values agree to a fraction of a percent at r = 3
    heater = (HeaterShape((0.5, 0.25), (0.0, 0.0)), 1.0)
    centroid = curve_moments(heater[0]).centroid_offset
    vals = []
    for ang in np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False):
        pt = centroid + 3.0 * np.array([np.cos(ang), np.sin(ang)])
        vals.append(temperatures([heater], [pt])[0])
    vals = np.asarray(vals)
    assert np.ptp(vals) < 0.01 * np.abs(vals).mean()


def test_field_grid_wall_clips():
    heater = (HeaterShape((0.2,), (0.0, 0.8)), 1.0)
    g = field_grid([heater], (-1, 1, -1, 1), (4, 4), wall=Wall.ADIABATIC_Y0)
    assert g.region[2] == 0.0
    assert g.values.shape == (4, 4)


def test_runtime_under_a_millisecond():
    heater = [(DISK, 1.0)]
    temperatures(heater, [(2.0, 0.0)])  # warm the trig table cache
    n = 200
    start = time.perf_counter()
    for _ in range(n):
        temperatures(heater, [(2.0, 0.0)])
    per_eval = (time.perf_counter() - start) / n
    assert per_eval < 1e-3


# --- point blocks: the kernel's block budget must not change a byte ---

def _count_kernel_work(monkeypatch):
    """Count boundary-node draws per node count, and offset-block computations."""
    counts = collections.Counter()

    def counted(name, key):
        real = getattr(fieldmod, name)

        def wrapper(*a):
            counts[key(a)] += 1
            return real(*a)
        monkeypatch.setattr(fieldmod, name, wrapper)

    counted("boundary_nodes", lambda a: a[-1])
    counted("_offsets", lambda a: "offsets")
    return counts


def _assert_blocking_changes_no_byte(monkeypatch, evaluate, budgets=(1, 300)):
    """evaluate() at each tiny budget equals the default-budget result bytewise.

    Returns the default-budget result and its work counts. The node sources
    must run as often at every budget: at most once per node count per
    kernel call.
    """
    counts = _count_kernel_work(monkeypatch)
    ref = evaluate()
    ref_counts = dict(counts)
    for budget in budgets:
        monkeypatch.setattr(fieldmod, "_BLOCK_ELEMS", budget)
        counts.clear()
        got = evaluate()
        assert got.tobytes() == ref.tobytes()
        assert {k: v for k, v in counts.items() if k != "offsets"} == \
            {k: v for k, v in ref_counts.items() if k != "offsets"}
        assert counts["offsets"] > ref_counts["offsets"]  # the budget did split the points
    return ref, ref_counts


@pytest.mark.parametrize("wall", [Wall.UNBOUNDED, Wall.ADIABATIC_Y0])
def test_blocked_grid_next_to_a_heater_is_bit_identical(monkeypatch, wall):
    heaters = [(HEART, 1.0), (HeaterShape((0.2, 0.0), (-0.6, 0.6)), 2.0)]
    grid, counts = _assert_blocking_changes_no_byte(
        monkeypatch, lambda: field_grid(heaters, (-1, 1, -0.5, 1.5), (14, 11), wall, 64).values)
    # one coarse node set for all heaters and images, and one doubled set:
    # cells next to both heaters double theirs, while the images sit below
    # every cell
    assert counts[64] == counts[128] == 1
    assert np.isfinite(grid).all()


def _ladder(y0s, q=(1.0, 2.0)):
    """Two-heater configurations (C, centers, q): a heart at (0.5, y0) and a
    disk at (-0.6, 0.6) for each y0."""
    m = len(y0s)
    C = np.tile([[0.28, 0.14], [0.2, 0.0]], (m, 1, 1))
    centers = np.array([[[0.5, y0], [-0.6, 0.6]] for y0 in y0s])
    return C, centers, np.tile(q, (m, 1))


SENSOR_LINE = np.column_stack([np.linspace(-1, 1, 12), np.zeros(12)])
# The sensor line plus one point inside the reach of every _ladder heater, so
# that every row has an in-reach pair: (0.57, 0.25) lies inside the reach of
# the heart at y0 = 0.43, (0.57, 0.98) inside those of the hearts at y0 = 0.8,
# 0.9 and 1.1, and (-0.6, 0.6) is the disk's center. Each lies at least 0.18
# from every boundary, beyond two node spacings (0.11 at 64 nodes).
INSIDE = np.vstack([SENSOR_LINE, [[0.57, 0.25], [0.57, 0.98], [-0.6, 0.6]]])


def _stack_rows(C, centers, q, pts, wall=Wall.UNBOUNDED, quad_n=256):
    """stack_rows of configurations given as C (m, h, 2), centers (m, h, 2)
    and q (m, h)."""
    m, h = q.shape
    return stack_rows(C.reshape(m * h, 2), centers.reshape(m * h, 2), q.reshape(m * h), h, pts,
                      wall, quad_n)


def _pair_kernel_rows(C, centers, q, pts, wall=Wall.UNBOUNDED, quad_n=64):
    """_stack_rows through the grids' kernel, whose in-reach pairs run the
    quadrature."""
    m, h = q.shape
    return fieldmod._stack(C.reshape(m * h, 2), centers.reshape(m * h, 2), q.reshape(m * h), m,
                           h, pts, wall, quad_n, fieldmod._pair_rows)


def _assert_exact_rows(monkeypatch, C, centers, q, pts, wall=Wall.UNBOUNDED):
    """The stack's rows draw no boundary node and run no offsets, and each
    finite row is the sum of its heaters' _exact_pairs, originals before
    images; returns the rows."""
    counts = _count_kernel_work(monkeypatch)
    rows = _stack_rows(C, centers, q, pts, wall)
    assert not counts
    monkeypatch.undo()
    if wall is Wall.ADIABATIC_Y0:
        C, centers, q = _with_images(C, centers, q)
    m, h = q.shape
    each = _exact_pairs(C.reshape(m * h, -1), centers.reshape(m * h, 2), q.reshape(-1),
                        pts).reshape(m, h, -1)
    total = np.zeros(rows.shape)
    for k in range(h):
        total += each[:, k]
    clear = np.isfinite(rows).all(axis=1)
    assert rows[clear].tobytes() == total[clear].tobytes()
    return rows


def test_blocked_ladder_batch_is_bit_identical(monkeypatch):
    # in the first two rows the heart reaches down to 0.066 above the sensor
    # line, inside two node spacings (0.11 at 64 nodes): doubled; the other
    # rows stay far. The grids' kernel runs the quadrature on the in-reach
    # pairs
    C, centers, q = _ladder([0.43, 0.43, 0.8, 1.1, 0.9])
    rows, counts = _assert_blocking_changes_no_byte(
        monkeypatch, lambda: _pair_kernel_rows(C, centers, q, INSIDE, quad_n=64))
    assert counts[64] == counts[128] == 1
    # a sweep-sized call screens its points in one block, then each of its
    # ten rows integrates its marked points in one block
    assert counts["offsets"] == 11
    for i in range(len(q)):
        heaters = [(HeaterShape(c, ctr), s) for c, ctr, s in zip(C[i], centers[i], q[i])]
        alone = fieldmod._configuration(heaters, INSIDE, Wall.UNBOUNDED, 64, fieldmod._pair_rows)
        assert rows[i].tobytes() == alone.tobytes()
    # every heater has a point in its reach: its in-reach pairs are the
    # quadrature's bit for bit, its others the closed form's, and the rows
    # their sums
    Cr, cr, qr = C.reshape(-1, 2), centers.reshape(-1, 2), q.reshape(-1)
    assert _in_reach(Cr, cr, qr, INSIDE)[0].any(axis=1).all()
    each = _per_pair(Cr, cr, qr, INSIDE, 64).reshape(len(rows), 2, -1)
    assert rows.tobytes() == (np.zeros(rows.shape) + each[:, 0] + each[:, 1]).tobytes()
    monkeypatch.undo()
    # the stack itself takes the root form at its in-reach pairs
    _assert_exact_rows(monkeypatch, C, centers, q, INSIDE)


def _per_pair(C, centers, q, pts, quad_n):
    """The per-pair rule (m, p): quadrature_rows at the pairs in a row's
    reach, the closed form at the others."""
    inside, closed = _in_reach(C, centers, q, pts)
    return np.where(inside, quadrature_rows(C, centers, q, pts, quad_n), closed)


def _exact_pairs(C, centers, q, pts):
    """The stack's rule (m, p): the root form at the pairs in a row's reach,
    each evaluated on its own, and the closed form at the others."""
    inside, out = _in_reach(C, centers, q, pts)
    for i, j in zip(*np.nonzero(inside)):
        dx, dy = pts[j] - centers[i]
        out[i, j] = fieldmod._root_rows(C[i, :1], C[i, 1:], q[i:i + 1], np.array([dx]),
                                        np.array([dy]), np.array([dx * dx + dy * dy]),
                                        out[i, j:j + 1].copy())[0]
    return out


@pytest.mark.parametrize("budget", [1 << 16, 1 << 12, 1])
def test_masked_quadrature_writes_only_the_marked_pairs(monkeypatch, budget):
    # row 0 is the heart at (0.5, 0.43), whose only points within two node
    # spacings (0.11 at 64 nodes) are two sensors, both unmarked; row 1 has
    # no marked pair; every other point lies at least 0.14 from every boundary
    C = np.array([[0.28, 0.14], [0.28, 0.14], [0.2, 0.0], [0.28, 0.14]])
    centers = np.array([[0.5, 0.43], [-0.3, 0.9], [-0.6, 0.6], [0.5, 0.9]])
    q = np.array([1.0, 1.5, 2.0, 2.5])
    full = quadrature_rows(C, centers, q, INSIDE, 64)
    x, y, _, _ = node_rows(C, centers, 64)
    gap = np.hypot(x[:, :, None] - INSIDE[:, 0], y[:, :, None] - INSIDE[:, 1]).min(axis=1)
    close = gap[0] < 0.11
    assert np.count_nonzero(close) == 2 and gap[1:].min() > 0.13
    cells = np.random.default_rng(25).random(full.shape) < 0.6
    cells[0], cells[1] = ~close, False
    out = np.random.default_rng(26).standard_normal(full.shape)
    before = out.copy()
    asked = []
    monkeypatch.setattr(fieldmod, "_BLOCK_ELEMS", budget)
    real = fieldmod.boundary_nodes

    def recorded(rows, n):
        asked.append(n)
        return real(rows, n)
    monkeypatch.setattr(fieldmod, "boundary_nodes", recorded)
    got = fieldmod._heater_rows(C, centers, q, INSIDE, 64, cells, out)
    assert got is out
    # the marked pairs are the every-pair call's bit for bit, row 0 doubled
    # although none of its marked points is near; the others, row 1 whole,
    # keep their values
    assert out[cells].tobytes() == full[cells].tobytes()
    assert out[~cells].tobytes() == before[~cells].tobytes()
    assert asked == [64, 128]


def test_blocked_exact_node_hit_is_bit_identical(monkeypatch):
    # a point on the heart's doubled-node boundary of the first row, with
    # INSIDE's points in the reach of every heater, so that each integrates
    # enough pairs for the tiny budgets to split them
    C, centers, q = _ladder([0.8, 0.9])
    x, y, _, _ = node_rows(C[0, :1], centers[0, :1], 128)
    pts = np.vstack([INSIDE, [[x[0, 5], y[0, 5]]]])
    rows, _ = _assert_blocking_changes_no_byte(
        monkeypatch, lambda: _pair_kernel_rows(C, centers, q, pts, quad_n=64))
    assert np.isfinite(rows).all()
    # the node hit's pair too is the quadrature's bit for bit
    Cr, cr, qr = C.reshape(-1, 2), centers.reshape(-1, 2), q.reshape(-1)
    assert _in_reach(Cr, cr, qr, pts)[0][0, -1]
    each = _per_pair(Cr, cr, qr, pts, 64).reshape(len(rows), 2, -1)
    assert rows.tobytes() == (np.zeros(rows.shape) + each[:, 0] + each[:, 1]).tobytes()
    monkeypatch.undo()
    # the root form needs no shift on the boundary: the point takes it as is
    assert np.isfinite(_assert_exact_rows(monkeypatch, C, centers, q, pts)).all()


def test_blocked_wall_rows_are_bit_identical(monkeypatch):
    # row 1 crosses the wall (NaN row); the others gain mirror-image rows,
    # which lie below every point and so take the closed form
    C, centers, q = _ladder([0.43, 0.3, 0.8])
    rows, counts = _assert_blocking_changes_no_byte(
        monkeypatch, lambda: _pair_kernel_rows(C, centers, q, INSIDE, Wall.ADIABATIC_Y0, 64))
    assert np.isnan(rows[1]).all() and np.isfinite(rows[[0, 2]]).all()
    # the heart of row 1 is the only heater whose reach (0.42) touches the
    # wall, and its check is exact; then one kernel call on the clear rows
    assert counts[64] == counts[128] == 1
    monkeypatch.undo()
    rows = _assert_exact_rows(monkeypatch, C, centers, q, INSIDE, Wall.ADIABATIC_Y0)
    assert np.isnan(rows[1]).all() and np.isfinite(rows[[0, 2]]).all()


def _with_images(C, centers, q):
    """The stack (C, centers, q) with each configuration's wall images appended."""
    return (np.concatenate([C, C], axis=1),
            np.concatenate([centers, centers * [1.0, -1.0]], axis=1),
            np.concatenate([q, q], axis=1))


def test_wall_check_runs_only_where_the_reach_touches_the_wall(monkeypatch):
    # every heater's center lies above its reach: no boundary node is drawn,
    # and the rows are the unbounded rows of the stack with its images
    C, centers, q = _ladder([0.43, 0.8, 1.1])
    counts = _count_kernel_work(monkeypatch)
    rows = _stack_rows(C, centers, q, SENSOR_LINE, Wall.ADIABATIC_Y0)
    alone = temperatures([(HeaterShape(c, ctr), s) for c, ctr, s in zip(C[0], centers[0], q[0])],
                         SENSOR_LINE, Wall.ADIABATIC_Y0)
    assert not counts
    assert rows.tobytes() == _stack_rows(*_with_images(C, centers, q), SENSOR_LINE).tobytes()
    assert alone.tobytes() == rows[0].tobytes()
    # the heart at y0 = 0.4 lies within its reach (0.42) of the wall yet
    # clears it (lowest point 0.036), the one at 0.3 crosses it: both get
    # the exact check, and only they; no check draws a node
    monkeypatch.undo()
    C, centers, q = _ladder([0.4, 0.3, 0.8])
    checked = []
    real = fieldmod._lowest_j2

    def recorded(C, ctr):
        checked.append(ctr.copy())
        low = real(C, ctr)
        checked.append(low)
        return low
    monkeypatch.setattr(fieldmod, "_lowest_j2", recorded)
    counts = _count_kernel_work(monkeypatch)
    rows = _stack_rows(C, centers, q, SENSOR_LINE, Wall.ADIABATIC_Y0, 64)
    assert not counts
    assert len(checked) == 2 and checked[0].tolist() == [[0.5, 0.4], [0.5, 0.3]]
    # the exact lowest points sit at or below the lowest of 65,536 nodes,
    # by less than that node rule's own error
    dense = node_rows(C[:2, 0], checked[0], 1 << 16)[1].min(axis=1)
    assert np.all(checked[1] <= dense) and np.all(dense - checked[1] < 1e-9)
    np.testing.assert_allclose(checked[1], [0.0363, -0.0637], atol=1e-4)
    assert np.isnan(rows[1]).all()
    clear = _stack_rows(*(a[[0, 2]] for a in _with_images(C, centers, q)), SENSOR_LINE,
                        quad_n=64)
    assert rows[[0, 2]].tobytes() == clear.tobytes()


def test_exact_wall_clearance_is_the_dense_node_limit():
    # shapes with c2 at and near zero, cusps and self-overlaps: the
    # exact lowest point lies at or below the lowest of 65,536 nodes, by
    # less than that rule's own error (the node spacing squared)
    rng = np.random.default_rng(29)
    c1 = rng.uniform(0.02, 1.0, 400)
    c2 = np.concatenate([[0.0, 1e-12, -1e-9], 0.5 * c1[3:8], -0.5 * c1[8:13],
                         rng.uniform(-1.0, 1.0, 387)])
    C, centers = np.column_stack([c1, c2]), rng.uniform(-1.0, 1.0, (400, 2))
    low = fieldmod._lowest_j2(C, centers)
    dense = np.concatenate([node_rows(C[i:i + 50], centers[i:i + 50], 1 << 16)[1].min(axis=1)
                            for i in range(0, 400, 50)])
    reach = np.abs(C).sum(axis=1)
    assert np.all(low <= dense) and np.all(dense - low <= 1e-8 * reach)
    np.testing.assert_array_equal(low[:3], centers[:3, 1] - c1[:3])


def test_heater_sum_matches_the_ordered_loop():
    # _stack adds each configuration's heaters (and images) in order, as a
    # loop from zeros does, signed zeros included: -0.0 terms sum to +0.0
    rng = np.random.default_rng(30)
    for h in range(1, 7):
        for p in (1, 12):
            each = rng.standard_normal((5, h, p)) * 10.0 ** rng.uniform(-8, 8, (5, h, p))
            each[0] = -0.0
            each[1, 0] = -0.0
            loop = np.zeros((5, p))
            for k in range(h):
                loop += each[:, k]
            got = fieldmod._stack(np.ones((5 * h, 2)), np.zeros((5 * h, 2)), np.ones(5 * h), 5,
                                  h, np.zeros((p, 2)), Wall.UNBOUNDED, 256,
                                  lambda *a: each.reshape(5 * h, p))
            assert got.tobytes() == loop.tobytes()
            assert not np.signbit(got[0]).any()


def test_blocked_zero_rows(monkeypatch):
    # no row has a point inside its reach, so zero rows take the closed form
    # and no block is ever formed
    C, centers, q = _ladder([])
    centers = centers.reshape(0, 2, 2)
    counts = _count_kernel_work(monkeypatch)
    monkeypatch.setattr(fieldmod, "_BLOCK_ELEMS", 1)
    rows = _stack_rows(C, centers, q, INSIDE, quad_n=64)
    assert rows.shape == (0, len(INSIDE))
    assert not counts


def test_grid_working_set_is_bounded():
    # in one block, this grid's four (1, 10800, 512) work arrays took 177 MB
    heaters = [(HEART, 1.0), (HeaterShape((0.2, 0.0), (-0.6, 0.6)), 2.0)]
    field_grid(heaters, (-2, 2, -1, 2), (12, 9))  # warm the trig tables
    tracemalloc.start()
    try:
        field_grid(heaters, (-2, 2, -1, 2), (120, 90), quad_n=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6



def _full_pass_heater_rows(nodes, q, pts, quad_n):
    """The quadrature kernel as it was before near points were screened:
    the closest approach of every point to every row is measured, block by
    block, before any row is integrated."""
    m = len(q)
    out = np.empty((m, len(pts)))
    x, y, dx, dy = nodes(quad_n)
    spacing = np.sqrt(np.max(dx * dx + dy * dy, axis=1)) * (2.0 * np.pi / quad_n)
    blocks, buf = fieldmod._point_blocks(len(pts), m, quad_n)
    closest = np.empty((len(blocks), m))
    for i, b in enumerate(blocks):
        kept = fieldmod._offsets(x, y, pts[b], buf)
        closest[i] = kept[2].min(axis=(1, 2))
    near = closest.min(axis=0) < (2.0 * spacing) ** 2
    if not near.all():
        far = ~near if near.any() else slice(None)
        x, y, dx, dy, qf = (a[far] for a in (x, y, dx, dy, q))
        work = tuple(a[far] for a in kept)
        for i in reversed(range(len(blocks))):
            if i < len(blocks) - 1:
                work = fieldmod._offsets(x, y, pts[blocks[i]], buf)
            out[far, blocks[i]] = fieldmod._integrate(*work, dx, dy, qf, quad_n)
    if near.any():
        x, y, dx, dy = (a[near] for a in nodes(2 * quad_n))
        blocks, buf = fieldmod._point_blocks(len(pts), len(x), 2 * quad_n)
        for b in blocks:
            rhox, rhoy, r2 = fieldmod._offsets(x, y, pts[b], buf)
            out[near, b] = fieldmod._integrate(rhox, rhoy, r2, dx, dy, q[near], 2 * quad_n)
    return out


@pytest.mark.parametrize("budget", [fieldmod._BLOCK_ELEMS, 1 << 12])
def test_grid_measures_only_the_points_that_may_be_near(monkeypatch, budget):
    # the two-heater truth on the desk grid, in both wall modes: only the
    # cells within a heater's node radius plus two spacings get coarse
    # offsets, only the in-reach pairs are integrated, and those stay
    # bitwise the full pass's
    heaters = [(HEART, 1.0), (HeaterShape((0.2, 0.0), (-0.6, 0.6)), 2.0)]
    monkeypatch.setattr(fieldmod, "_BLOCK_ELEMS", budget)
    elems = collections.Counter()  # offset elements computed, per node count
    highest = []  # the highest node of each row that got offsets
    real = fieldmod._offsets

    def counted(x, y, pts, buf):
        elems[x.shape[1]] += x.size * len(pts)
        highest.extend(y.max(axis=1))
        return real(x, y, pts, buf)
    monkeypatch.setattr(fieldmod, "_offsets", counted)
    calls = []
    real_rows = fieldmod._pair_rows

    def recorded(*args):
        calls.append(args + (real_rows(*args),))
        return calls[-1][-1]
    monkeypatch.setattr(fieldmod, "_pair_rows", recorded)
    for wall in (Wall.UNBOUNDED, Wall.ADIABATIC_Y0):
        elems.clear()
        highest.clear()
        field_grid(heaters, (-2, 2, -1, 2), (120, 90), wall, 256)
        C, centers, q, pts, quad_n, got = calls.pop()
        got_elems = dict(elems)
        inside, _ = _in_reach(C, centers, q, pts)
        # the images lie below the wall, so none of their rows reaches _offsets
        assert min(highest) > 0.0
        elems.clear()
        full = _full_pass_heater_rows(partial(node_rows, C, centers), q, pts, quad_n)
        assert got[inside].tobytes() == full[inside].tobytes()
        # both heaters have cells within two node spacings and double their
        # nodes, but only for their in-reach pairs (313,344 elements
        # unbounded, against 2 * 10,800 * 512 when every cell was doubled)
        assert got_elems[512] == 512 * np.count_nonzero(inside)
        assert elems[512] == 2 * 10800 * 512
        assert inside[:2].mean() < 0.05 and not inside[2:].any()
        # the doubling decision measures the same cells near each heater as
        # the kernel that integrated every pair (on the heaters alone, both
        # doubled, its 256-node offsets are that decision's), a tenth of the
        # full pass's
        elems.clear()
        quadrature_rows(C[:2], centers[:2], q[:2], pts, quad_n)
        assert got_elems[256] == elems[256] < 0.1 * 2 * 10800 * 256


@pytest.mark.parametrize("budget", [fieldmod._BLOCK_ELEMS, 1])
def test_point_just_outside_the_reach_doubles_its_row(monkeypatch, budget):
    # a circle's boundary lies on its reach; the second point, 0.03 beyond
    # the node at t = 0, lies outside the reach but within two node spacings
    # (0.059 at 64 nodes) of it. At either budget the screen must keep it,
    # which a bound of the reach alone would not
    C, centers, q = np.array([[0.3, 0.0]]), np.array([[0.2, 0.5]]), np.array([1.5])
    pts = np.array([[0.2, 0.5], [0.53, 0.5]])
    monkeypatch.setattr(fieldmod, "_BLOCK_ELEMS", budget)
    asked = []
    real = fieldmod.boundary_nodes

    def recorded(rows, n):
        asked.append(n)
        return real(rows, n)
    monkeypatch.setattr(fieldmod, "boundary_nodes", recorded)
    got = quadrature_rows(C, centers, q, pts, 64)
    assert asked == [64, 128]
    full = _full_pass_heater_rows(partial(node_rows, C, centers), q, pts, 64)
    assert got.tobytes() == full.tobytes()
    # the centre, in reach, gets the doubled value through the grids' kernel
    assert fieldmod._pair_rows(C, centers, q, pts, 64)[0, 0] == full[0, 0]


# --- closed form outside the reach: exact, and the sweep's fast path ---

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


def _exterior_points(rng, C, center, wall):
    """Points from just outside the reach sum_k |c_k| out to the far field:
    the first toward the boundary point at t = 0, which touches the reach
    when every c_k >= 0, the rest at random angles; in wall mode only those
    with y >= 0."""
    reach = np.abs(C).sum()
    radii = reach * np.array([1.01, 1.01, 1.03, 1.1, 1.5, 3.0, 10.0, 100.0])
    ang = np.concatenate([[0.0], rng.uniform(0.0, 2.0 * np.pi, len(radii) - 1)])
    pts = center + radii[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    return pts[pts[:, 1] >= 0.0] if wall is Wall.ADIABATIC_Y0 else pts


# the first two have a cusp (c1 = 2 c2, the configs' shapes) and the last
# two loop over themselves (c1 < 2|c2|)
EXTERIOR_SHAPES = [(0.5, 0.25), (0.28, 0.14), (0.2, 0.3), (0.3, -0.4)]


@pytest.mark.parametrize("wall", [Wall.UNBOUNDED, Wall.ADIABATIC_Y0])
def test_closed_form_matches_dense_quadrature(monkeypatch, wall):
    rng = np.random.default_rng(21)
    for c in EXTERIOR_SHAPES:
        C = np.array([c])
        reach = np.abs(C).sum()
        center = np.array([rng.uniform(-1.0, 1.0), reach + rng.uniform(0.05, 1.0)])
        q = np.array([rng.uniform(0.2, 3.0)])
        pts = _exterior_points(rng, C, center, wall)
        ref = quadrature_rows(C, center[None], q, pts, 4096)[0]
        if wall is Wall.ADIABATIC_Y0:
            ref = ref + quadrature_rows(C, center[None] * [1.0, -1.0], q, pts, 4096)[0]
        counts = _count_kernel_work(monkeypatch)
        got = _stack_rows(C[None], center[None, None], q[None], pts, wall)[0]
        # no quadrature, and no wall check: the center lies above the reach
        assert not counts
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), c
        monkeypatch.undo()


def test_closed_form_of_a_circle_is_the_exact_monopole():
    # a one-coefficient shape, padded to (c1, 0.0), gives the monopole
    # written out below bit for bit: the bytes of the one-term closed form.
    # The dense quadrature is itself off by up to 7e-10 near a circle
    rng = np.random.default_rng(22)
    for _ in range(20):
        C = np.array([[rng.uniform(0.05, 0.8)]])
        center, q = rng.uniform(-1.0, 1.0, 2), rng.uniform(0.2, 3.0)
        pts = _exterior_points(rng, C, center, Wall.UNBOUNDED)
        exact = np.array([point_source_temp(q * np.pi * C[0, 0] ** 2, center, p) for p in pts])
        got = temperatures([(HeaterShape(C[0], center), q)], pts)
        assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()
        dx, dy = pts[:, 0] - center[0], pts[:, 1] - center[1]
        monopole = -0.5 * q * (C[0, 0] * C[0, 0] * (0.5 * np.log(dx * dx + dy * dy))) + 0.0
        assert got.tobytes() == monopole.tobytes()


def test_more_than_two_coefficients_fail_early():
    # the forward model takes (c1, c2) only: each entry point raises one
    # ValueError naming the count; the moments and the multipole expansion
    # stay general
    three = HeaterShape((0.3, 0.1, 0.05), (0.5, 0.8))
    heaters = [(HEART, 1.0), (three, 1.0)]
    sensors = SensorArray([[-1.0, 0.0], [1.0, 0.0]])
    for call in (lambda: temperatures(heaters, sensors.points),
                 lambda: observe(heaters, sensors),
                 lambda: field_grid(heaters, (-1, 1, 0, 2), (4, 4))):
        with pytest.raises(ValueError, match=r"at most two coefficients \(c1, c2\), got 3"):
            call()
    assert np.isfinite(temp_multipole((three, 1.0), (3.0, 3.0)))


# --- root form inside the reach: exact at every point off the boundary ---

# c2 at and next to zero, univalent shapes, the cusps c1 = 2|c2| (the
# configs' shapes), and self-overlaps c1 < 2|c2| that cover points twice
ROOT_SHAPES = [(0.3, 0.0), (0.3, 1e-12), (0.3, -1e-12), (0.3, 1e-9), (0.3, -1e-9),
               (0.5, 0.1), (0.28, 0.14), (0.5, -0.25), (0.2, 0.3), (0.05, -0.4)]


def _boundary_gap(C, center, pts, n=4096):
    """Distance (p,) of each point from the boundary of the heater C (J,) at
    center, and how many times the boundary winds around it: the number of
    times the heater covers the point."""
    x, y, _, _ = node_rows(C[None], center[None], n)
    ox, oy = x[0][:, None] - pts[:, 0], y[0][:, None] - pts[:, 1]
    turn = np.diff(np.arctan2(oy, ox), axis=0, append=np.arctan2(oy[:1], ox[:1]))
    winding = ((turn + np.pi) % (2.0 * np.pi) - np.pi).sum(axis=0) / (2.0 * np.pi)
    return np.hypot(ox, oy).min(axis=0), np.rint(winding).astype(int)


@pytest.mark.parametrize("c", ROOT_SHAPES)
def test_root_form_matches_dense_quadrature(monkeypatch, c):
    # the center and random points of the reach more than 0.02 from the
    # boundary: stack_rows draws no node, and agrees with the 4,096-node
    # quadrature to 1e-15 of max|T|
    C, center, q = np.array(c), np.array([0.1, -0.2]), np.array([1.3])
    reach = np.abs(C).sum()
    pts = np.vstack([center, center + reach * np.random.default_rng(28).uniform(-1, 1, (300, 2))])
    gap, cover = _boundary_gap(C, center, pts)
    keep = gap > 0.02
    assert keep[0] and cover[0] >= 1
    pts, cover = pts[keep], cover[keep]
    # some points are uncovered, some covered once, and in a self-overlap
    # some twice
    assert (cover == 0).any() and (cover == 1).any()
    assert (cover == 2).any() == (c[0] < 2.0 * abs(c[1]))
    counts = _count_kernel_work(monkeypatch)
    got = _stack_rows(C[None, None], center[None, None], q[None], pts)[0]
    assert not counts
    ref = quadrature_rows(C[None], center[None], q, pts, 4096)[0]
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max(), c


@pytest.mark.parametrize("c", [(0.5, 0.1), (0.28, 0.14), (0.3, 1e-12), (0.2, 0.3)])
def test_root_form_is_smooth_across_the_boundary(c):
    # the field is continuously differentiable across the boundary, where a
    # root crosses the unit circle and the root form changes branch: at
    # points 1e-9 and 2e-9 either side of the boundary along its normal,
    # the step across equals twice the steps on each side, to rounding. A
    # branch whose constant were off would jump. Boundary points near a
    # cusp or a self-crossing are skipped
    C, center, q = np.array(c), np.array([0.1, -0.2]), np.array([[1.3]])
    theta = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False) + 0.01
    k = np.arange(1.0, 3.0)
    ct, st = np.cos(np.outer(theta, k)), np.sin(np.outer(theta, k))
    bx, by = center[0] + ct @ C, center[1] + st @ C
    tx, ty = -(st * k) @ C, (ct * k) @ C
    speed = np.hypot(tx, ty)
    nx, ny = ty / speed, -tx / speed  # outward, with the region on the left
    gap, _ = _boundary_gap(C, center, np.column_stack([bx, by]) + 0.01 * np.column_stack([nx, ny]))
    gap_in, _ = _boundary_gap(C, center, np.column_stack([bx, by]) - 0.01 * np.column_stack([nx, ny]))
    fine = (speed > 0.05) & (gap > 0.009) & (gap_in > 0.009)
    assert fine.sum() >= 24
    steps = np.array([-2e-9, -1e-9, 1e-9, 2e-9])
    pts = np.stack([bx[fine, None] + steps * nx[fine, None],
                    by[fine, None] + steps * ny[fine, None]], axis=2).reshape(-1, 2)
    T = _stack_rows(C[None, None], center[None, None], q, pts)[0].reshape(-1, 4)
    across = 0.5 * (T[:, 2] - T[:, 1])
    tol = 64 * np.finfo(float).eps * np.abs(T).max()
    assert np.abs(across - (T[:, 3] - T[:, 2])).max() <= tol
    assert np.abs(across - (T[:, 1] - T[:, 0])).max() <= tol


def test_root_form_at_wall_images():
    # the heart clears the wall by 0.026, so its image reaches above it:
    # points on and just above the wall lie in the reach of both, more than
    # 0.02 from either boundary, and the two rows sum to the 4,096-node
    # quadrature of heater and image
    C, centers, q = _ladder([0.39], q=(1.5,))
    C, centers = C[:, :1], centers[:, :1]
    pts = np.column_stack([np.linspace(0.4, 0.6, 21), np.tile([0.0, 0.003], 11)[:21]])
    both = _with_images(C, centers, q)
    flat = tuple(a.reshape(2, *a.shape[2:]) for a in both)
    inside = _in_reach(*flat, pts)[0]
    assert inside.all()
    for row in range(2):
        assert _boundary_gap(flat[0][row], flat[1][row], pts)[0].min() > 0.02
    got = _stack_rows(C, centers, q, pts, Wall.ADIABATIC_Y0)[0]
    ref = quadrature_rows(*flat, pts, 4096).sum(axis=0)
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


def _prior_box(name, n=2000, seed=23):
    """n heaters drawn across the config's estimator prior box, one per row
    (C, centers, q), and the config."""
    config = load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
    bounds = config.spec.bounds
    heaters = np.random.default_rng(seed).uniform(bounds[:, 0], bounds[:, 1],
                                                  (n, len(bounds))).reshape(-1, 5)
    return heaters[:, 3:], heaters[:, :2], heaters[:, 2], config


@pytest.mark.parametrize("name", ["single_heater", "two_heaters"])
def test_prior_box_rows_are_no_less_accurate_than_the_quadrature(name):
    # 2,000 draws across the estimator's prior box, on the config's sensors,
    # one heater per configuration: no row moves further from the 4,096-node
    # reference than the 256-node quadrature every pair ran before the closed
    # form. Summed over two heaters, one heater's quadrature error can cancel
    # part of the other's, so the rows hold one heater each. Both the 256-node
    # sums and the reference round at a few ulp of max|T| (the 4,096- and
    # 8,192-node references differ by up to 7 ulp on these rows), which the
    # comparison allows: 16 ulp of the row's max|T|.
    C, centers, q, config = _prior_box(name)
    pts = config.sensors.points
    got = _stack_rows(C[:, None], centers[:, None], q[:, None], pts, quad_n=256)
    ref = quadrature_rows(C, centers, q, pts, 4096)
    before = quadrature_rows(C, centers, q, pts, 256)
    # the in-reach pairs are the root form's bit for bit, each pair on its
    # own, the others the closed form's; about 30 % of the rows hold an
    # in-reach pair
    inside = _in_reach(C, centers, q, pts)[0]
    assert 0.2 < inside.any(axis=1).mean() < 0.5
    assert got.tobytes() == _exact_pairs(C, centers, q, pts).tobytes()
    slack = 16 * np.finfo(float).eps * np.abs(ref).max(axis=1)
    assert np.all(np.abs(got - ref).max(axis=1) <= np.abs(before - ref).max(axis=1) + slack)


@pytest.mark.parametrize("wall", [Wall.UNBOUNDED, Wall.ADIABATIC_Y0])
def test_prior_box_stacks_draw_no_boundary_node(monkeypatch, wall):
    # 2,000 two-heater stacks across the prior box: the rows with a sensor in
    # some heater's (or image's) reach take the root form, and in wall mode
    # the heaters whose reach touches the wall take the exact check, so no
    # call draws a node or measures an offset
    C, centers, q, config = _prior_box("two_heaters", 4000, seed=27)
    C, centers, q = C.reshape(-1, 2, 2), centers.reshape(-1, 2, 2), q.reshape(-1, 2)
    pts = config.sensors.points
    checked = []
    real = fieldmod._lowest_j2
    monkeypatch.setattr(fieldmod, "_lowest_j2", lambda *a: checked.append(len(a[0])) or real(*a))
    counts = _count_kernel_work(monkeypatch)
    rows = _stack_rows(C, centers, q, pts, wall)
    assert not counts
    if wall is Wall.ADIABATIC_Y0:
        # a third to two thirds of the stacks cross the wall; every heater
        # within its reach of the wall was checked
        reaching = centers[:, :, 1] <= np.abs(C).sum(axis=2) * (1.0 + 1e-12)
        assert 0.3 < np.isnan(rows).all(axis=1).mean() < 0.7
        assert sum(checked) == np.count_nonzero(reaching)
        C, centers, q = _with_images(C, centers, q)
    assert np.isfinite(rows).all(axis=1).sum() + np.isnan(rows).all(axis=1).sum() == len(rows)
    inside = _in_reach(C.reshape(-1, 2), centers.reshape(-1, 2), q.reshape(-1), pts)[0]
    assert inside.any(axis=1).mean() > 0.2


def _grid_case(name, wall):
    """One heater per row (C, centers, q), wall images included, and the
    cell centres of the desk grid, clipped to y >= 0 in wall mode."""
    config = load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
    C, centers, q = config.truth[:, 3:], config.truth[:, :2], config.truth[:, 2]
    xmin, xmax, ymin, ymax = config.grid.region
    if wall is Wall.ADIABATIC_Y0:
        ymin = 0.0
        C, q = np.concatenate([C, C]), np.concatenate([q, q])
        centers = np.concatenate([centers, centers * [1.0, -1.0]])
    nx, ny = config.grid.resolution
    gx, gy = np.meshgrid(xmin + (np.arange(nx) + 0.5) * (xmax - xmin) / nx,
                         ymin + (np.arange(ny) + 0.5) * (ymax - ymin) / ny)
    return C, centers, q, np.column_stack([gx.ravel(), gy.ravel()])


def _in_reach(C, centers, q, pts):
    """The (row, point) pairs (m, p) not strictly outside the row's reach,
    and the closed form (m, p) at every pair."""
    dx = pts[:, 0] - centers[:, 0:1]
    dy = pts[:, 1] - centers[:, 1:2]
    r2 = dx * dx + dy * dy
    reach = np.abs(C).sum(axis=1)
    with np.errstate(all="ignore"):
        return ~(r2 > (reach * reach)[:, None]), fieldmod._exterior_j2(C[:, 0], C[:, 1], q, dx,
                                                                        dy, r2)


@pytest.mark.parametrize("wall", [Wall.UNBOUNDED, Wall.ADIABATIC_Y0])
@pytest.mark.parametrize("name", ["single_heater", "two_heaters"])
def test_grid_pairs_are_no_less_accurate_than_the_quadrature(name, wall):
    # every cell of the desk grid, one heater (or image) per row: no pair
    # moves further from the 4,096-node reference than the quadrature every
    # pair ran before, plus 16 ulp of the row's max|T| for the rounding of
    # the reference (see the prior-box test above). Where the boundary
    # touches the reach, the old quadrature is itself off by up to 3.4e-6 of
    # max|T| (single_heater's cell at (1.25, 0.75), 0.0019 from the boundary
    # and just outside the reach), which the closed form now gets right.
    C, centers, q, pts = _grid_case(name, wall)
    got = fieldmod._pair_rows(C, centers, q, pts, 256)
    before = quadrature_rows(C, centers, q, pts, 256)
    ref = quadrature_rows(C, centers, q, pts, 4096)
    slack = 16 * np.finfo(float).eps * np.abs(ref).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - ref) <= np.abs(before - ref) + slack)
    # in-reach pairs are the old quadrature bit for bit, the others the closed form
    inside, closed = _in_reach(C, centers, q, pts)
    heaters = len(q) // 2 if wall is Wall.ADIABATIC_Y0 else len(q)
    assert 0 < inside[:heaters].mean() < 0.3
    assert not inside[heaters:].any()  # every image lies below every cell
    assert got[inside].tobytes() == before[inside].tobytes()
    assert got[~inside].tobytes() == closed[~inside].tobytes()


def _near_truth(config, rng, m=5):
    """A sweep-sized stack (C, centers, q) of the truth moved by proposal-sized steps."""
    X = config.truth[None] + 0.005 * rng.standard_normal((m,) + config.truth.shape)
    return X[:, :, 3:], X[:, :, :2], X[:, :, 2]


@pytest.mark.parametrize("name", ["single_heater", "two_heaters"])
def test_sweep_near_the_truth_runs_no_quadrature(monkeypatch, name):
    config = load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
    C, centers, q = _near_truth(config, np.random.default_rng(24))
    counts = _count_kernel_work(monkeypatch)
    rows = _stack_rows(C, centers, q, config.sensors.points, config.sensors.wall)
    assert not counts  # no boundary_nodes or _offsets call
    assert np.isfinite(rows).all()


def test_row_with_a_sensor_inside_its_reach_runs_no_quadrature(monkeypatch):
    # the heart at y0 = 0.3 reaches some of the sensors (reach 0.42) and
    # covers the one nearest below it, the one at y0 = 0.8 reaches none; each
    # configuration holds one heater. The in-reach sensors of the first take
    # the root form, and no call draws a node or measures an offset
    C, centers, q = _ladder([0.3, 0.8], q=(1.5,))
    C, centers = C[:, :1], centers[:, :1]
    rows = _assert_exact_rows(monkeypatch, C, centers, q, SENSOR_LINE)
    inside, closed = _in_reach(C[:, 0], centers[:, 0], q[:, 0], SENSOR_LINE)
    assert 0 < np.count_nonzero(inside[0]) < len(SENSOR_LINE) and not inside[1].any()
    assert rows[~inside].tobytes() == closed[~inside].tobytes()
    # every sensor lies at least 0.032 from the boundary, where the root form
    # and the 4,096-node quadrature agree to rounding
    ref = quadrature_rows(C[:, 0], centers[:, 0], q[:, 0], SENSOR_LINE, 4096)
    assert np.abs(rows - ref).max() <= 1e-15 * np.abs(ref).max()
    quad = quadrature_rows(C[:, 0], centers[:, 0], q[:, 0], SENSOR_LINE, 256)
    np.testing.assert_allclose(rows[1], quad[1], rtol=1e-13)


# the hearts at these heights reach some of the twelve sensors; in wall mode
# they also clear the wall (the heart's lowest point lies 0.3637 below its
# center), and their images reach the same sensors
REACHING = {Wall.UNBOUNDED: [0.3, 0.35, 0.4, 0.415], Wall.ADIABATIC_Y0: [0.37, 0.39, 0.415]}


@pytest.mark.parametrize("wall", [Wall.UNBOUNDED, Wall.ADIABATIC_Y0])
def test_sensor_outside_the_reach_equals_the_point_alone(wall):
    # a sensor outside the heater's reach takes the closed form whatever
    # other sensors share the call: evaluated alone it takes the kernel's
    # all-exterior return, and the two agree bit for bit
    C, centers, q = _ladder(REACHING[wall], q=(1.5,))
    C, centers = C[:, :1], centers[:, :1]
    rows = _stack_rows(C, centers, q, SENSOR_LINE, wall)
    inside = _in_reach(C[:, 0], centers[:, 0], q[:, 0], SENSOR_LINE)[0]
    assert inside.any(axis=1).all() and not inside.all(axis=1).any()
    for i, j in zip(*np.nonzero(~inside)):
        alone = _stack_rows(C[i:i + 1], centers[i:i + 1], q[i:i + 1], SENSOR_LINE[j:j + 1],
                            wall)
        assert alone.tobytes() == rows[i, j].tobytes()
