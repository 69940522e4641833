"""Heater regions bounded by two-term Fourier series.

A heater boundary is traced by

    x(t) = x0 + c1 cos(t) + c2 cos(2t),    y(t) = y0 + c1 sin(t) + c2 sin(2t)

for t in [0, 2*pi): the image of the unit circle under
z(w) = center + c1 w + c2 w^2, with c1 > 0 a basic radius and c2 its
deformation. The boundary nodes feed the grid quadrature; the area and
moments are closed forms of (c1, c2).
"""

import math
from dataclasses import dataclass

import numpy as np


class DegenerateShapeError(ValueError):
    """Raised when a boundary has no positive radius."""


@dataclass(frozen=True)
class HeaterShape:
    """Fourier-parameterized heater region.

    c       : Fourier coefficients (c1, c2) with c1 > 0; (c1,) is the disk (c1, 0.0)
    center  : (x0, y0) position of the parameterization center
    """

    c: tuple
    center: tuple

    def __post_init__(self):
        c = tuple(float(v) for v in self.c)
        center = (float(self.center[0]), float(self.center[1]))
        if len(c) == 0:
            raise ValueError("coefficient sequence must be non-empty")
        if len(c) > 2:
            raise ValueError(f"a heater shape has at most two coefficients (c1, c2), got {len(c)}")
        if not all(math.isfinite(v) for v in c + center):
            raise ValueError("coefficients and center must be finite")
        if c[0] <= 0.0:
            raise DegenerateShapeError(f"c_1 must be positive, got {c[0]}")
        object.__setattr__(self, "c", (c + (0.0,))[:2])
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


# cos/sin tables of (t_j, 2 t_j) keyed by n; shared across calls
_TRIG_TABLES: dict = {}


def _tables(n: int):
    tab = _TRIG_TABLES.get(n)
    if tab is None:
        theta = 2.0 * np.pi * np.arange(n) / n
        ks = np.array([1.0, 2.0])
        tab = (np.cos(np.outer(theta, ks)), np.sin(np.outer(theta, ks)), ks)
        _TRIG_TABLES[n] = tab
    return tab


def node_rows(C: np.ndarray, centers: np.ndarray, n: int):
    """Boundary samples and analytic tangents of m shapes at t_j = 2*pi*j/n.

    C holds the shapes' coefficients (m, 2) and centers their centers
    (m, 2). Returns (x, y, dx, dy), each (m, n), where (dx, dy) is the
    derivative of the parameterization with respect to t. Each row is a
    stacked matrix-vector product, so it matches the one-shape product
    bit for bit.
    """
    ct, st, ks = _tables(n)
    c = C[:, :, None]
    kc = (ks * C)[:, :, None]
    x = centers[:, 0:1] + (ct @ c)[:, :, 0]
    y = centers[:, 1:2] + (st @ c)[:, :, 0]
    dx = -(st @ kc)[:, :, 0]
    dy = (ct @ kc)[:, :, 0]
    return x, y, dx, dy


def curve_moments(shape: HeaterShape) -> MomentData:
    """Moments of the continuous Fourier region, about (x0, y0).

    Pulled back to the unit disk by z = c1 w + c2 w^2, each is the disk
    integral of a polynomial in w and conj(w) times |c1 + 2 c2 w|^2, and
    the disk integral of w^n conj(w)^m is pi delta_nm / (n + 1). So

        A = pi (c1^2 + 2 c2^2),    F = (pi c1^2 c2, 0),
        M = (pi / 2) (c1^4 / 2 + 3 c1^2 c2^2 + c2^4) I,

    with no discretization; a self-overlap (c1 < 2|c2|) counts its doubly
    covered part twice, as its boundary integral does.
    """
    c1, c2 = shape.c
    c11, c22 = c1 * c1, c2 * c2
    m = 0.5 * np.pi * (0.5 * c11 * c11 + 3.0 * c11 * c22 + c22 * c22)
    return MomentData(np.pi * (c11 + 2.0 * c22), np.array([np.pi * c11 * c2, 0.0]),
                      m * np.eye(2))
