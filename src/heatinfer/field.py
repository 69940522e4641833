"""Steady temperatures induced by uniform heaters in the plane.

The temperature at r due to a heater region of uniform strength q is

    T(r) = -(q / 2*pi) * integral over the region of log|r - eta| dA(eta).

The boundary is z(w) = center + f(w), f(w) = c1 w + c2 w^2, on the unit
circle |w| = 1, with c1 > 0: the paper's two-term Fourier shape, and the
forward model's only one. temperatures, observe and field_grid pad a
one-coefficient shape (a disk) to (c1, 0), which gives the same bytes at
every point outside its reach, and raise ValueError for more than two
coefficients. HeaterShape, curve_moments and the multipole expansion
stay general.

The reach is R = c1 + |c2|: no boundary point lies further than R from
the center. For a point p outside the reach, p' = p - center has
|p'| > R, so p' - f(w) has no zero on the closed unit disk. Pulling the
area integral back to the disk, where the integral of w^n conj(w)^m is
pi delta_nm / (n + 1), then gives the exact monopole plus dipole about
the center,

    T(p) = -(q / 2) [(c1^2 + 2 c2^2) log|p'| - c1^2 c2 Re(1/p')],

one log and one division per point. A polynomial map counts overlap
multiplicity the way the boundary integral counts winding number, so
self-overlapping shapes (c1 < 2|c2|) agree too. Every (heater, point)
pair whose point lies outside the heater's reach takes this closed form,
whatever other points are evaluated with it.

Inside the reach there is a root form, exact at every point off the
boundary. Write p' - f(w) = -c2 (w - a)(w - b), with a and b the roots of
c2 w^2 + c1 w - p' = 0 (|b| <= |a|), and w0 = c1^2 + 2 c2^2. Then

    T(p) = -(q / 2 pi) [pi w0 log|c2| + I(a) + I(b)],

where I(r), the unit-disk integral of log|w - r| |f'(w)|^2, is
pi [w0 log|r| - c1 c2 Re(1/r)] for |r| >= 1 and
pi [c1^2 (|r|^2 - 1)/2 + c1 c2 Re r (|r|^2 - 2) + c2^2 (|r|^4 - 1)/2]
for |r| < 1. The two pieces agree at |r| = 1. Since r (c1 + c2 r) = p',
the inside piece is also pi [|p'|^2/2 - (c1^2 + c2^2)/2 - 2 c1 c2 Re r].
A root inside the disk means the heater covers p, and a self-overlap
(c1 < 2|c2|) has both roots inside, counting twice as the boundary
integral does. With both roots outside, the sum is the closed form
above, so _root_rows computes only the covered pairs.

Only a grid cell in a heater's reach goes through the quadrature: the
area integral reduces to a boundary integral through the divergence
identity div F = log|rho| with F(rho) = rho * (2*log|rho| - 1) / 4,
evaluated by the trapezoidal rule on the Fourier parameterization of the
boundary. For a closed smooth boundary and an evaluation point off the
curve the rule converges spectrally, so quad_n = 256 nodes, the public
functions' default (no config sets it), already give near machine
accuracy away from the boundary.

An adiabatic wall along y = 0 is handled by the method of images, which
is exact for an infinite straight wall: every heater gains a mirror copy
below the wall, making the field even in y and its normal derivative
zero on the wall. Image rows choose their form by the same per-pair rule.
A heater must clear the wall; its lowest boundary point is found exactly
(_lowest_j2).

Memory: the quadrature walks the points in blocks whose (rows, points,
nodes) work arrays hold at most _BLOCK_ELEMS elements each, so its four
work arrays take at most 4 * _BLOCK_ELEMS * 8 bytes (2 MB) whatever the
number of points, unless a single point times the rows times the nodes
already exceeds the budget. The closed form of a grid walks (rows,
points) blocks of at most _BLOCK_ELEMS / 8 elements (64 kB). No block
changes a value.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import shapes
from .shapes import HeaterShape, curve_moments


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
_BLOCK_ELEMS = 1 << 16  # elements per kernel work array: the four take 2 MB


def _point_blocks(p: int, rows: int, n: int, buf=None):
    """Slices over p points whose (rows, block, n) work arrays hold at most
    _BLOCK_ELEMS elements (at least one point each), and one flat buffer
    for the four work arrays of any of those blocks: buf, if it is large
    enough.

    One buffer serves every block: allocated and freed block by block,
    arrays of a few hundred kB make the C allocator return memory to the
    system and fault it back in each time, tripling their cost.
    """
    step = max(1, _BLOCK_ELEMS // max(rows * n, 1))
    blocks = [slice(i, min(i + step, p)) for i in range(0, p, step)]
    size = 4 * rows * min(step, p) * n
    return blocks, buf if buf is not None and buf.size >= size else np.empty(size)


def _offsets(x, y, pts, buf):
    """Node-minus-point offsets (m, p, n) and their squared lengths, in buf."""
    rhox, rhoy, r2, sq = buf[:4 * x.size * len(pts)].reshape(4, len(x), len(pts), x.shape[1])
    np.subtract(x[:, None, :], pts[None, :, 0:1], out=rhox)
    np.subtract(y[:, None, :], pts[None, :, 1:2], out=rhoy)
    np.multiply(rhox, rhox, out=r2)
    r2 += np.multiply(rhoy, rhoy, out=sq)
    return rhox, rhoy, r2


def _integrate(rhox, rhoy, r2, dx, dy, q, n):
    """Trapezoidal boundary integral (m, p); overwrites its offset arrays.
    Only the entries of a point exactly on a node (r2 == 0) are shifted."""
    if r2.min() == 0.0:
        # shift the offending nodes outward along the boundary normal
        nrm = np.maximum(np.hypot(dx, dy), 1e-300)
        hit = np.nonzero(r2 == 0.0)
        node = hit[0], hit[2]
        rhox[hit] = _NODE_SHIFT * (dy / nrm)[node]
        rhoy[hit] = _NODE_SHIFT * (-dx / nrm)[node]
        r2[hit] = rhox[hit] * rhox[hit] + rhoy[hit] * rhoy[hit]
    rhox *= dy[:, None, :]
    rhoy *= dx[:, None, :]
    rhox -= rhoy  # cross product of offset and tangent
    np.log(r2, out=r2)
    r2 -= 1.0
    rhox *= r2
    return -q[:, None] / (8.0 * np.pi) * rhox.sum(axis=2) * (2.0 * np.pi / n)


def _heater_rows(C, centers, q, pts: np.ndarray, quad_n: int, cells, out) -> np.ndarray:
    """Boundary-integral temperatures of one heater per row at pts (p, 2),
    written into out (m, p) at the pairs that cells (m, p) marks; returns out.

    Row i is the heater with coefficients C[i] (J,), center centers[i] and
    strength q[i]; its nodes come from boundary_nodes. Accuracy near the
    boundary degrades with node spacing, so a row's nodes are doubled once
    when any point lies within two node spacings of them. Doubling looks
    at every point, marked or not, so a marked pair's value does not
    depend on which other pairs are marked.

    Offsets are measured only for the points that may be near a row: a
    row's nodes lie within its reach sum_k |c_k| of its center, so only
    the points within the reach plus two node spacings (plus a margin of
    1e-12 of the lengths involved, far above their rounding) can be. Each
    row then walks its marked points on its own, block by block in one
    buffer. No block changes a value.
    """
    m, p = len(q), len(pts)
    x, y, dx, dy = boundary_nodes((C, centers), quad_n)
    # node spacing bounded by max parameterization speed times step
    spacing = np.sqrt(np.max(dx * dx + dy * dy, axis=1)) * (2.0 * np.pi / quad_n)
    radius = np.abs(C).sum(axis=1) + 2.0 * spacing
    radius += 1e-12 * (radius + np.abs(centers).sum(axis=1) + max(pts.max(), -pts.min()))
    closest = np.full(m, np.inf)
    blocks, buf = _point_blocks(p, m, quad_n)
    for b in blocks:
        d = pts[b] - centers[:, None, :]
        # a NaN distance keeps its point, as the offsets would have seen it
        sub = pts[b][~((d * d).sum(axis=2) > (radius * radius)[:, None]).all(axis=0)]
        if len(sub):
            np.minimum(closest, _offsets(x, y, sub, buf)[2].min(axis=(1, 2)), out=closest)
    near = closest < (2.0 * spacing) ** 2
    groups = [(quad_n, np.flatnonzero(~near), (x, y, dx, dy))]
    if near.any():
        groups.append((2 * quad_n, np.flatnonzero(near), boundary_nodes((C, centers), 2 * quad_n)))
    for n, rows, (x, y, dx, dy) in groups:
        for i in rows:
            cols = np.flatnonzero(cells[i])
            blocks, buf = _point_blocks(len(cols), 1, n, buf)
            for b in blocks:
                work = _offsets(x[i:i + 1], y[i:i + 1], pts[cols[b]], buf)
                out[i, cols[b]] = _integrate(*work, dx[i:i + 1], dy[i:i + 1], q[i:i + 1], n)[0]
    return out


def _exterior_j2(c1, c2, q, dx, dy, r2) -> np.ndarray:
    """Closed-form temperatures (m, p) of one heater per row, with
    coefficients c1, c2 and strength q (m,), at points whose offsets
    p' = dx + i dy (m, p) from the row's center, of squared length r2, all
    lie outside the row's reach: the module docstring's monopole plus
    dipole, one log and one division per pair."""
    acc = (c1 * c1 + c2 * 2.0 * c2)[:, None] * (0.5 * np.log(r2))
    acc -= (c1 * c2 * c1)[:, None] * (dx / r2)  # adding -(a b) is subtracting a b, bit for bit
    return -0.5 * q[:, None] * acc


def _root_rows(c1, c2, q, dx, dy, r2, closed) -> np.ndarray:
    """Temperatures at pairs given as equal-shape arrays: coefficients
    c1, c2 and strength q of the pair's heater, offset p' = dx + i dy of
    the point from its center, r2 = |p'|^2, and the closed form's value
    closed, which holds wherever both roots lie outside the unit disk.
    Exact at every point off the boundary: the module docstring's root
    form, written into closed, which is returned.

    t = c1 + sqrt(c1^2 + 4 c2 p') has Re t >= c1 > 0, so neither root
    loses digits: the large root is a = -t / (2 c2) and the small one
    b = 2 p' / t, with |b| <= |a|. A point is covered when |b| < 1, that
    is 4 r2 < |t|^2; then |a| >= 1 unless c1 < 2|c2|, and a's term takes
    log|c2| in as w0 log(|t|/2) + 2 c1 c2^2 Re(1/t), finite at c2 = 0.
    """
    p = np.empty(dx.shape, complex)
    p.real = dx
    p.imag = dy
    c11, c22 = c1 * c1, c2 * c2
    t = np.sqrt(c2 * 4.0 * p + c11) + c1
    t2 = t.real * t.real + t.imag * t.imag
    covered = 4.0 * r2 < t2
    if not np.count_nonzero(covered):
        return closed
    w0 = c11 + 2.0 * c22
    # an inside root r adds |p'|^2/2 - (c1^2 + c2^2)/2 - 2 c1 c2 Re r
    half = 0.5 * (r2 - c11 - c22)
    # b inside plus a's folded term, with Re b = Re(2 p' / t) and Re(c2 / t) in one
    acc = 0.5 * w0 * np.log(0.25 * t2) + half
    acc += c1 * c2 * 2.0 * ((c2 - 2.0 * p) / t).real
    twice = np.flatnonzero(t2 < 4.0 * c22)  # |a| < 1, so |b| < 1 too: a self-overlap
    if len(twice):
        # a inside, w0 log|c2| + half + c1 Re t, in place of its folded term
        a1, tr, at2 = c1[twice], t.real[twice], t2[twice]
        acc[twice] += (w0[twice] * (np.log(np.abs(c2[twice])) - 0.5 * np.log(0.25 * at2))
                       - 2.0 * a1 * c22[twice] * tr / at2 + half[twice] + a1 * tr)
    np.copyto(closed, -0.5 * q * acc, where=covered)
    return closed


def _heater_field(C, centers, q, pts: np.ndarray, quad_n: int) -> np.ndarray:
    """Temperatures (m, p) of one heater per row at pts (p, 2).

    Row i is the heater with coefficients C[i] = (c1, c2), center
    centers[i] and strength q[i]. When every point lies strictly outside
    every row's reach c1 + |c2|, as in almost every sampler sweep, the
    closed form runs on all pairs at once with no mask or copy. Otherwise
    the pairs outside the reach still take it and those inside take the
    root form (_root_rows). Either way a pair's value depends on no other
    row or point, and no pair runs the quadrature: quad_n goes unused.
    """
    dx = pts[:, 0] - centers[:, 0:1]
    dy = pts[:, 1] - centers[:, 1:2]
    r2 = dx * dx + dy * dy
    c1, c2 = C[:, 0], C[:, 1]
    reach = c1 + np.abs(c2)  # sum_k |c_k| bit for bit, since c_1 > 0
    outside = r2 > (reach * reach)[:, None]
    if np.count_nonzero(outside) == outside.size:
        return _exterior_j2(c1, c2, q, dx, dy, r2)
    with np.errstate(all="ignore"):  # the in-reach pairs are overwritten below
        out = _exterior_j2(c1, c2, q, dx, dy, r2)
    inside = ~outside
    rows = np.nonzero(inside)[0]
    out[inside] = _root_rows(c1[rows], c2[rows], q[rows], dx[inside], dy[inside], r2[inside],
                             out[inside])
    return out


def _lowest_j2(C, centers) -> np.ndarray:
    """Exact lowest boundary point (m,) of the heaters C (m, 2) at centers (m, 2).

    y(theta) = y0 + sin(theta) (c1 + 2 c2 cos(theta)), so the lowest point
    lies g(u) = sqrt(1 - u^2) |c1 + 2 c2 u| below y0 for the u = cos(theta)
    in [-1, 1] that maximizes g. For c2 >= 0, g(-u) <= g(u) at u >= 0, and
    g^2 rises from u = 0 (likewise mirrored for c2 < 0), so the maximum sits
    where 4 c2 u^2 + c1 u - 2 c2 = 0 has the sign of c2: at the root
    u = 4 c2 / (c1 + sqrt(c1^2 + 32 c2^2)), which has |u| < 1/sqrt(2) and
    c1 + 2 c2 u >= c1 > 0.
    """
    c1, c2 = C[:, 0], C[:, 1]
    u = 4.0 * c2 / (c1 + np.sqrt(c1 * c1 + 32.0 * c2 * c2))
    return centers[:, 1] - np.sqrt(1.0 - u * u) * (c1 + 2.0 * c2 * u)


def _wall_clearance(C, centers) -> np.ndarray:
    """Lowest boundary point (m,) of the heaters C (m, 2) at centers (m, 2);
    the wall needs it above y = 0.

    A heater whose center lies above its reach c1 + |c2|, with a relative
    margin of 1e-12, clears the wall without a check and reports +inf. The
    others take the exact check (_lowest_j2).
    """
    low = np.full(len(C), np.inf)
    near = ~(centers[:, 1] > np.abs(C).sum(axis=1) * (1.0 + 1e-12))
    if near.any():
        low[near] = _lowest_j2(C[near], centers[near])
    return low


def _stack(C, centers, q, m: int, h: int, points, wall: Wall, quad_n: int,
           kernel) -> np.ndarray:
    """stack_rows of m configurations, with kernel(C, centers, q, pts,
    quad_n) giving the field (rows, p) of one heater per row for all
    heaters and images."""
    if quad_n < 32:
        raise ValueError(f"quad_n must be at least 32, got {quad_n}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:  # one point
        pts = pts[None]
    n, p = m, len(pts)  # the configurations the kernel scores, and the points
    if wall is Wall.ADIABATIC_Y0:
        clear = np.all((_wall_clearance(C, centers) > 0.0).reshape(m, h), axis=1)
        C, centers = C.reshape(m, h, 2)[clear], centers.reshape(m, h, 2)[clear]
        q = q.reshape(m, h)[clear]
        n, h = len(q), 2 * h
        C = np.concatenate([C, C], axis=1).reshape(n * h, 2)
        centers = np.concatenate([centers, centers * [1.0, -1.0]], axis=1).reshape(n * h, 2)
        q = np.concatenate([q, q], axis=1).reshape(n * h)
    each = kernel(C, centers, q, pts, quad_n)
    # heaters add in order from +0.0, originals before mirror images (numpy
    # pairs the terms instead only for a single point and more than eight rows)
    total = each + 0.0 if h == 1 else each.reshape(n, h, p).sum(axis=1)
    if wall is Wall.UNBOUNDED:
        return total
    out = np.full((m, p), np.nan)
    out[clear] = total
    return out


def _configuration(heaters, points, wall: Wall, quad_n: int, kernel) -> np.ndarray:
    """The (p,) row of _stack for one configuration of (HeaterShape, q)
    pairs; a rejected row raises. A one-coefficient shape is padded to
    (c1, 0.0); more than two coefficients raise ValueError."""
    heaters = list(heaters)
    C = np.zeros((len(heaters), 2))
    for k, (shape, _) in enumerate(heaters):
        if len(shape.c) > 2:
            raise ValueError("a heater shape has at most two coefficients (c1, c2), "
                             f"got {len(shape.c)}")
        C[k, :len(shape.c)] = shape.c
    centers = np.array([s.center for s, _ in heaters], dtype=float).reshape(-1, 2)
    q = np.array([v for _, v in heaters], dtype=float)
    out = _stack(C, centers, q, 1, len(heaters), points, wall, quad_n, kernel)[0]
    if np.all(np.isfinite(out)):
        return out
    if wall is Wall.ADIABATIC_Y0:
        low = _wall_clearance(C, centers)
        k = np.argmax(low <= 0.0)  # the first heater that crosses, if any
        if low[k] <= 0.0:
            raise WallGeometryError(f"heater at {heaters[k][0].center} crosses the wall "
                                    f"y = 0 (min y = {low[k]:.4g})")
    raise FieldEvaluationError("non-finite temperature; point on a quadrature node?")


def temperatures(heaters, points, wall: Wall = Wall.UNBOUNDED,
                 quad_n: int = 256) -> np.ndarray:
    """Superposed heater temperatures at points (m, 2), relative to T_ref = 0.

    heaters is a sequence of (HeaterShape, strength) pairs; overlapping
    regions superpose additively. This is stack_rows' row for the one
    configuration, bit for bit. A shape with more than two coefficients
    raises ValueError. With an adiabatic wall all heater regions must lie
    strictly in y > 0: a heater crossing the wall raises
    WallGeometryError, a non-finite temperature FieldEvaluationError.
    """
    return _configuration(heaters, points, wall, quad_n, _heater_field)


def stack_rows(C, centers, q, h: int, points, wall: Wall = Wall.UNBOUNDED,
               quad_n: int = 256) -> np.ndarray:
    """Temperatures (m, p) of m configurations of h heaters each at points
    (p, 2), given as m * h heater rows: C (m * h, 2) of (c1, c2) with
    c1 > 0, centers (m * h, 2) and q (m * h,), configuration i's heaters at
    rows i * h to i * h + h - 1, the layout of the sampler's stack.

    Each (row, point) pair, wall images included, takes the exact closed
    form outside the heater's reach c1 + |c2| and the exact root form
    inside it, so no call draws a boundary node, and a pair's value
    depends on no other row or point. Rejected configurations come back as
    non-finite rows: NaN when a heater crosses the wall, otherwise wherever
    the field is not finite.
    """
    return _stack(C, centers, q, len(q) // h, h, points, wall, quad_n, _heater_field)


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
    wall mode the region is clipped to y >= 0 before gridding. The cells go
    through _stack, as the points of temperatures do, but to the
    _pair_rows kernel: a cell outside a heater's (or image's) reach takes
    the closed form for that heater, and only the few cells inside it run
    the quadrature.
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
    vals = _configuration(heaters, np.column_stack([gx.ravel(), gy.ravel()]), wall, quad_n,
                          _pair_rows)
    return FieldGrid(vals.reshape(ny, nx), (xmin, xmax, ymin, ymax), wall)


def boundary_nodes(rows, n: int):
    """The quadrature's node source: shapes.node_rows(C, centers, n) of rows = (C, centers)."""
    return shapes.node_rows(*rows, n)


def _pair_rows(C, centers, q, pts: np.ndarray, quad_n: int) -> np.ndarray:
    """Temperatures (m, p) of one heater per row at pts (p, 2), chosen per
    (row, point) pair: the grids' kernel.

    Row i has coefficients C[i] = (c1, c2). A pair strictly outside the
    row's reach takes the closed form, computed for every pair in blocks of
    _BLOCK_ELEMS // (8 m) points (64 kB arrays, which raise a desk grid's
    peak memory less than larger ones). _heater_rows then overwrites the
    in-reach pairs, given as its mask, for the rows that hold one. The
    coarse nodes are drawn once per call, for no row when no pair is in
    reach: the traced benchmark counts that draw on every grid, so this
    kernel stays apart from _heater_field.
    """
    m, p = len(q), len(pts)
    reach = np.abs(C).sum(axis=1)
    out = np.empty((m, p))
    inside = np.empty((m, p), dtype=bool)
    step = max(1, _BLOCK_ELEMS // (8 * max(m, 1)))
    for i in range(0, p, step):
        b = slice(i, i + step)
        ox = pts[b, 0] - centers[:, 0:1]
        oy = pts[b, 1] - centers[:, 1:2]
        r2 = ox * ox + oy * oy
        np.logical_not(r2 > (reach * reach)[:, None], out=inside[:, b])
        with np.errstate(all="ignore"):  # the in-reach pairs are overwritten below
            out[:, b] = _exterior_j2(C[:, 0], C[:, 1], q, ox, oy, r2)
    rows = inside.any(axis=1)
    out[rows] = _heater_rows(C[rows], centers[rows], q[rows], pts, quad_n, inside[rows],
                             out[rows])
    return out
