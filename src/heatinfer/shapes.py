"""Heater regions bounded by truncated Fourier series.

A heater boundary is traced by

    x(t) = x0 + sum_k c_k cos(k t),    y(t) = y0 + sum_k c_k sin(k t)

for t in [0, 2*pi), with real coefficients c_k. c_1 plays the role of a
basic radius; higher coefficients deform the circle. All geometric
quantities (boundary nodes, area, first/second moments) derive from
this parameterization.
"""

import math
from dataclasses import dataclass

import numpy as np


class DegenerateShapeError(ValueError):
    """Raised when a boundary has no positive radius or net area."""


@dataclass(frozen=True)
class HeaterShape:
    """Fourier-parameterized heater region.

    c       : real Fourier coefficients (c_1, c_2, ...); c_1 > 0
    center  : (x0, y0) position of the parameterization center
    """

    c: tuple
    center: tuple

    def __post_init__(self):
        c = tuple(float(v) for v in self.c)
        center = (float(self.center[0]), float(self.center[1]))
        if len(c) == 0:
            raise ValueError("coefficient sequence must be non-empty")
        if not all(math.isfinite(v) for v in c + center):
            raise ValueError("coefficients and center must be finite")
        if c[0] <= 0.0:
            raise DegenerateShapeError(f"c_1 must be positive, got {c[0]}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "center", center)


@dataclass(frozen=True)
class MomentData:
    """Area and moments of a heater region, taken about its center.

    area          : enclosed area A
    first_moment  : (Fx, Fy), integral of the position over the region
    second_moment : 2x2 tensor M_ij, integral of eta_i * eta_j
    """

    area: float
    first_moment: np.ndarray  # (2,)
    second_moment: np.ndarray  # (2, 2)

    @property
    def centroid_offset(self) -> np.ndarray:
        """Centroid position relative to the parameterization center."""
        return self.first_moment / self.area


# cos/sin tables keyed by (n, number of coefficients); shared across calls
_TRIG_TABLES: dict = {}


def _tables(n: int, n_coef: int):
    key = (n, n_coef)
    tab = _TRIG_TABLES.get(key)
    if tab is None:
        theta = 2.0 * np.pi * np.arange(n) / n
        ks = np.arange(1.0, n_coef + 1.0)
        tab = (np.cos(np.outer(theta, ks)), np.sin(np.outer(theta, ks)), ks)
        _TRIG_TABLES[key] = tab
    return tab


def node_rows(C: np.ndarray, centers: np.ndarray, n: int):
    """Boundary samples and analytic tangents of m shapes at t_j = 2*pi*j/n.

    C holds the shapes' coefficients (m, J) and centers their centers
    (m, 2). Returns (x, y, dx, dy), each (m, n), where (dx, dy) is the
    derivative of the parameterization with respect to t. Each row is a
    stacked matrix-vector product, so it matches the one-shape product
    bit for bit.
    """
    ct, st, ks = _tables(n, C.shape[1])
    c = C[:, :, None]
    kc = (ks * C)[:, :, None]
    x = centers[:, 0:1] + (ct @ c)[:, :, 0]
    y = centers[:, 1:2] + (st @ c)[:, :, 0]
    dx = -(st @ kc)[:, :, 0]
    dy = (ct @ kc)[:, :, 0]
    return x, y, dx, dy


def curve_moments(shape: HeaterShape, n: int = 64) -> MomentData:
    """Moments of the continuous Fourier region, about (x0, y0).

    Green's theorem turns each area integral into a closed boundary
    integral whose integrand is a trigonometric polynomial; the
    trapezoidal rule is then exact once n exceeds its degree (4J + 1
    for the second moments). Used by the far-field expansion, which
    needs moments free of polygon discretization error.
    """
    c = np.asarray(shape.c)
    if n <= 4 * len(c):
        raise ValueError(f"n must exceed 4*len(c) = {4 * len(c)}")
    x, y, dx, dy = (a[0] for a in node_rows(c[None], np.zeros((1, 2)), n))
    w = 2.0 * np.pi / n
    area = 0.5 * float(np.sum(x * dy - y * dx)) * w
    if area <= 0.0:
        raise DegenerateShapeError(f"boundary encloses non-positive area {area}")
    fx = 0.5 * float(np.sum(x * x * dy)) * w
    fy = -0.5 * float(np.sum(y * y * dx)) * w
    mxx = float(np.sum(x ** 3 * dy)) / 3.0 * w
    myy = -float(np.sum(y ** 3 * dx)) / 3.0 * w
    mxy = 0.5 * float(np.sum(x * x * y * dy)) * w
    return MomentData(area, np.array([fx, fy]), np.array([[mxx, mxy], [mxy, myy]]))
