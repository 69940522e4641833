import numpy as np
import pytest

from heatinfer.shapes import DegenerateShapeError, HeaterShape, curve_moments, node_rows

from oracles import shoelace_moments


def _vertices(shape, n):
    x, y, _, _ = node_rows(np.array([shape.c]), np.array([shape.center]), n)
    return np.column_stack([x[0], y[0]])


def test_shape_validation():
    with pytest.raises(ValueError):
        HeaterShape((), (0.0, 0.0))
    with pytest.raises(ValueError):
        HeaterShape((0.0, 0.1), (0.0, 0.0))
    with pytest.raises(ValueError):
        HeaterShape((-0.5,), (0.0, 0.0))
    with pytest.raises(DegenerateShapeError):
        HeaterShape((0.0, 0.1), (0.0, 0.0))
    with pytest.raises(ValueError):
        HeaterShape((np.nan, 0.1), (0.0, 0.0))


def test_boundary_circle_cardinal_vertices():
    # the four cardinal samples of a radius-0.5 circle, read off n = 8 nodes
    vertices = _vertices(HeaterShape((0.5, 0.0), (0.0, 0.0)), 8)
    expect = {0: (0.5, 0.0), 2: (0.0, 0.5), 4: (-0.5, 0.0), 6: (0.0, -0.5)}
    for j, (ex, ey) in expect.items():
        assert vertices[j] == pytest.approx((ex, ey), abs=1e-15)


def test_boundary_vertex_at_theta_zero():
    vertices = _vertices(HeaterShape((0.5, 0.25), (0.5, 0.8)), 64)
    assert vertices[0] == pytest.approx((1.25, 0.8), abs=1e-15)


def test_boundary_matches_parameterization():
    shape = HeaterShape((0.28, 0.14), (0.5, 0.8))
    v = _vertices(shape, 128)
    assert v.shape == (128, 2)
    theta = 2.0 * np.pi * np.arange(128) / 128
    x = 0.5 + 0.28 * np.cos(theta) + 0.14 * np.cos(2 * theta)
    y = 0.8 + 0.28 * np.sin(theta) + 0.14 * np.sin(2 * theta)
    np.testing.assert_allclose(v[:, 0], x, atol=1e-14)
    np.testing.assert_allclose(v[:, 1], y, atol=1e-14)
    # closed, counterclockwise curve: positive shoelace area
    cr = v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]
    assert 0.5 * cr.sum() > 0.0


def test_boundary_pure_function():
    shape = HeaterShape((0.3, -0.1), (0.2, 0.9))
    a = _vertices(shape, 64)
    b = _vertices(shape, 64)
    assert np.array_equal(a, b)


def test_moments_disk():
    md = curve_moments(HeaterShape((0.5, 0.0), (0.0, 0.0)))
    assert md.area == pytest.approx(np.pi * 0.25, rel=1e-3)
    m_exact = np.pi * 0.5 ** 4 / 4.0
    assert md.second_moment[0, 0] == pytest.approx(m_exact, rel=5e-3)
    assert md.second_moment[1, 1] == pytest.approx(m_exact, rel=5e-3)

    small = curve_moments(HeaterShape((0.2, 0.0), (0.0, 0.0)))
    assert small.area == pytest.approx(np.pi * 0.04, rel=1e-3)


def test_moments_disk_isotropy():
    md = curve_moments(HeaterShape((0.5, 0.0), (0.3, 1.1)))
    mxx = md.second_moment[0, 0]
    assert abs(md.second_moment[0, 0] - md.second_moment[1, 1]) < 1e-6 * mxx
    assert abs(md.second_moment[0, 1]) < 1e-6 * mxx


def test_moments_translation_invariant():
    a = curve_moments(HeaterShape((0.4, 0.15), (0.0, 0.0)))
    b = curve_moments(HeaterShape((0.4, 0.15), (-1.3, 0.7)))
    assert a.area == pytest.approx(b.area, rel=1e-12)
    np.testing.assert_allclose(a.second_moment, b.second_moment, atol=1e-12)
    np.testing.assert_allclose(a.first_moment, b.first_moment, atol=1e-12)


@pytest.mark.parametrize("c1", [0.1, 0.35, 0.8])
def test_disk_area_convergence(c1):
    md = curve_moments(HeaterShape((c1, 0.0), (0.0, 0.0)))
    assert abs(md.area - np.pi * c1 ** 2) < 1e-3 * np.pi * c1 ** 2


def test_curve_moments_analytic():
    # continuous-curve values: A = pi (c1^2 + 2 c2^2), Fx = pi c1^2 c2
    md = curve_moments(HeaterShape((0.5, 0.25), (0.2, -0.4)))
    assert md.area == pytest.approx(np.pi * (0.5 ** 2 + 2 * 0.25 ** 2), rel=1e-14)
    assert md.first_moment[0] == pytest.approx(np.pi * 0.5 ** 2 * 0.25, rel=1e-13)
    assert md.first_moment[1] == pytest.approx(0.0, abs=1e-15)
    assert md.centroid_offset[0] == pytest.approx(1.0 / 6.0, rel=1e-13)

    disk = curve_moments(HeaterShape((0.5,), (0.0, 0.0)))
    assert disk.area == pytest.approx(np.pi * 0.25, rel=1e-14)
    np.testing.assert_allclose(disk.second_moment,
                               np.pi * 0.5 ** 4 / 4.0 * np.eye(2), atol=1e-15)


def test_curve_moments_match_dense_polygon():
    # (0.05, -0.4) overlaps itself: both count its doubly covered part twice
    for c in ((0.28, 0.14), (0.05, -0.4), (0.3, -0.1)):
        area, first, second = shoelace_moments(c, 8192)
        md = curve_moments(HeaterShape(c, (0.0, 0.0)))
        assert md.area == pytest.approx(area, rel=1e-6)
        np.testing.assert_allclose(md.first_moment, first, atol=1e-6)
        np.testing.assert_allclose(md.second_moment, second, atol=1e-6)
