"""Steady temperatures induced by uniform heaters in the plane.

The temperature at r due to a heater region of uniform strength q is

    T(r) = -(q / 2*pi) * integral over the region of log|r - eta| dA(eta).

The area integral reduces to a boundary integral through the divergence
identity div F = log|rho| with F(rho) = rho * (2*log|rho| - 1) / 4, and
is evaluated by the trapezoidal rule on the Fourier parameterization of
the boundary. For a closed smooth boundary and an evaluation point off
the curve the rule converges spectrally, so quad_n = 256 already gives
near machine accuracy away from the boundary.

An adiabatic wall along y = 0 is handled by the method of images, which
is exact for an infinite straight wall: every heater gains a mirror copy
below the wall, making the field even in y and its normal derivative
zero on the wall.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .shapes import HeaterShape, boundary_nodes, curve_moments


class WallGeometryError(ValueError):
    """Raised when a heater boundary crosses the wall line y = 0."""


class FieldEvaluationError(RuntimeError):
    """Raised when an evaluation produces a non-finite temperature."""


class Wall(enum.Enum):
    UNBOUNDED = "unbounded"
    ADIABATIC_Y0 = "adiabatic_y0"


@dataclass(frozen=True)
class SensorArray:
    """Measurement points, optionally sitting on an adiabatic wall at y = 0."""

    points: np.ndarray  # (d, 2)
    wall: Wall = Wall.UNBOUNDED

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a (d, 2) array with d >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("sensor positions must be finite")
        if self.wall is Wall.ADIABATIC_Y0 and np.any(pts[:, 1] != 0.0):
            raise ValueError("wall-mounted sensors must have y = 0 exactly")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class FieldGrid:
    """Temperatures at the cell centers of a regular grid."""

    values: np.ndarray  # (ny, nx), values[iy, ix]
    region: tuple  # (xmin, xmax, ymin, ymax) actually covered
    wall: Wall = Wall.UNBOUNDED


_NODE_SHIFT = 1e-9  # outward offset applied when a point hits a quadrature node


def _offsets(shape: HeaterShape, pts: np.ndarray, n: int):
    """Node-minus-point offsets, their squared lengths, and the tangents."""
    x, y, dx, dy = boundary_nodes(shape, n)
    rhox = x[None, :] - pts[:, 0:1]
    rhoy = y[None, :] - pts[:, 1:2]
    return rhox, rhoy, rhox * rhox + rhoy * rhoy, dx, dy


def _one_heater(shape: HeaterShape, q: float, pts: np.ndarray, quad_n: int) -> np.ndarray:
    """Boundary-integral temperatures of a single heater at pts (m, 2).

    Accuracy near the boundary degrades with node spacing, so the nodes
    are doubled once when any point lies within two node spacings of
    the boundary.
    """
    rhox, rhoy, r2, dx, dy = _offsets(shape, pts, quad_n)
    # node spacing bounded by max parameterization speed times step
    spacing = np.sqrt(float(np.max(dx * dx + dy * dy))) * (2.0 * np.pi / quad_n)
    r2_min = float(r2.min())
    if r2_min < (2.0 * spacing) ** 2:
        quad_n *= 2
        rhox, rhoy, r2, dx, dy = _offsets(shape, pts, quad_n)
        r2_min = float(r2.min())

    if r2_min == 0.0:
        # shift the offending nodes outward along the boundary normal
        nrm = np.maximum(np.hypot(dx, dy), 1e-300)
        rows, cols = np.nonzero(r2 == 0.0)
        rhox = rhox.copy()
        rhoy = rhoy.copy()
        rhox[rows, cols] = _NODE_SHIFT * (dy / nrm)[cols]
        rhoy[rows, cols] = _NODE_SHIFT * (-dx / nrm)[cols]
        r2 = rhox * rhox + rhoy * rhoy

    cross = rhox * dy[None, :] - rhoy * dx[None, :]
    vals = cross * (np.log(r2) - 1.0)
    return -q / (8.0 * np.pi) * vals.sum(axis=1) * (2.0 * np.pi / quad_n)


def temperatures(heaters, points, wall: Wall = Wall.UNBOUNDED,
                 quad_n: int = 256) -> np.ndarray:
    """Superposed heater temperatures at points (m, 2), relative to T_ref = 0.

    heaters is a sequence of (HeaterShape, strength) pairs; overlapping
    regions superpose additively. With an adiabatic wall every heater
    gains its mirror image below y = 0, and all heater regions must lie
    strictly in y > 0.
    """
    if quad_n < 32:
        raise ValueError(f"quad_n must be at least 32, got {quad_n}")
    if wall is Wall.ADIABATIC_Y0:
        mirrored = []
        for shape, q in heaters:
            _, y, _, _ = boundary_nodes(shape, 256)
            if float(y.min()) <= 0.0:
                raise WallGeometryError(
                    f"heater at {shape.center} crosses the wall y = 0 (min y = {y.min():.4g})"
                )
            mirrored.append((shape.mirrored(), q))
        heaters = list(heaters) + mirrored
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(pts.shape[0])
    for shape, q in heaters:
        out = out + _one_heater(shape, q, pts, quad_n)
    if not np.all(np.isfinite(out)):
        raise FieldEvaluationError("non-finite temperature; point on a quadrature node?")
    return out


def observe(heaters, sensors: SensorArray, quad_n: int = 256) -> np.ndarray:
    """Noiseless sensor temperatures (d,) for the given heater configuration."""
    return temperatures(heaters, sensors.points, sensors.wall, quad_n)


def _expansion_data(shape: HeaterShape, q: float, moment_n: int):
    """Total heat, expansion point, and second moment about the centroid.

    The far-field expansion is taken about the area centroid so that the
    first-moment term vanishes identically and the remainder is O(1/r^3).
    """
    md = curve_moments(shape, moment_n)
    d = md.centroid_offset
    m_c = md.second_moment - md.area * np.outer(d, d)
    expansion_pt = np.asarray(shape.center) + d
    return q * md.area, md.area, expansion_pt, m_c


def temp_multipole(heater, point, moment_n: int = 64) -> float:
    """Two-term far-field temperature of a single heater.

    T = -(Q / 2*pi) log r - (q / 4*pi) M_ij (delta_ij / r^2 - 2 r_i r_j / r^4)

    with Q the total heat, M the second moment tensor about the heater
    centroid, and r the position relative to the centroid. Exact
    monopole behaviour for circles; O(1/r^3) error otherwise.
    """
    shape, q = heater
    Q, _, xp, m_c = _expansion_data(shape, q, moment_n)
    r = np.asarray(point, dtype=float) - xp
    r2 = float(r @ r)
    if r2 == 0.0:
        raise FieldEvaluationError("singular evaluation at the expansion point")
    bracket = np.trace(m_c) / r2 - 2.0 * float(r @ m_c @ r) / r2 ** 2
    return float(-Q / (4.0 * np.pi) * np.log(r2) - q / (4.0 * np.pi) * bracket)


def jacobian_multipole(heater, sensors: SensorArray, moment_n: int = 64) -> np.ndarray:
    """Sensitivities d T / d (x0, y0, q) of the two-term expansion.

    Row alpha holds the derivatives at sensor alpha with the shape held
    fixed; translating the center translates the expansion point, so
    d/dx0 = -d/dr_x.
    """
    shape, q = heater
    Q, area, xp, m_c = _expansion_data(shape, q, moment_n)
    pts = sensors.points
    r = pts - xp[None, :]
    r2 = np.sum(r * r, axis=1)
    if np.any(r2 == 0.0):
        raise FieldEvaluationError("singular evaluation at the expansion point")
    tr = np.trace(m_c)
    mr = r @ m_c  # (d, 2)
    rmr = np.sum(r * mr, axis=1)
    bracket = tr / r2 - 2.0 * rmr / r2 ** 2
    # d bracket / d r_i = -2 tr r_i / r^4 - 4 (M r)_i / r^4 + 8 (r.M.r) r_i / r^6
    dbr = (-2.0 * tr / r2 ** 2 + 8.0 * rmr / r2 ** 3)[:, None] * r - 4.0 * mr / r2[:, None] ** 2
    jac = np.empty((pts.shape[0], 3))
    # dT/dx0 = +(Q/2pi) r_x / r^2 + (q/4pi) dbracket/dr_x, likewise for y0
    jac[:, 0:2] = Q / (2.0 * np.pi) * r / r2[:, None] + q / (4.0 * np.pi) * dbr
    jac[:, 2] = -area / (4.0 * np.pi) * np.log(r2) - bracket / (4.0 * np.pi)
    return jac


def field_grid(heaters, region, resolution, wall: Wall = Wall.UNBOUNDED,
               quad_n: int = 256) -> FieldGrid:
    """Temperatures on a regular grid of cell centers over region.

    region is (xmin, xmax, ymin, ymax) and resolution is (nx, ny). In
    wall mode the region is clipped to y >= 0 before gridding.
    """
    xmin, xmax, ymin, ymax = (float(v) for v in region)
    nx, ny = int(resolution[0]), int(resolution[1])
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2 in each direction")
    if wall is Wall.ADIABATIC_Y0:
        ymin = max(ymin, 0.0)
    if not (xmin < xmax and ymin < ymax):
        raise ValueError(f"empty region {(xmin, xmax, ymin, ymax)}")
    xs = xmin + (np.arange(nx) + 0.5) * (xmax - xmin) / nx
    ys = ymin + (np.arange(ny) + 0.5) * (ymax - ymin) / ny
    gx, gy = np.meshgrid(xs, ys)
    vals = temperatures(heaters, np.column_stack([gx.ravel(), gy.ravel()]), wall, quad_n)
    return FieldGrid(vals.reshape(ny, nx), (xmin, xmax, ymin, ymax), wall)
