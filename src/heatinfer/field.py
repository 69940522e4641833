"""Steady temperatures induced by uniform heaters in the plane.

The temperature at r due to a heater region of uniform strength q is

    T(r) = -(q / 2*pi) * integral over the region of log|r - eta| dA(eta).

The boundary is z(w) = center + sum_k c_k w^k on the unit circle |w| = 1.
Its reach is R = sum_k |c_k|: no boundary point lies further than R from
the center. For a point p outside the reach, p' = p - center has
|p'| > R, so p' - z(w) has no zero on the closed unit disk. Pulling the
area integral back to the disk, where the integral of w^n conj(w)^m is
pi delta_nm / (n + 1), then gives the exact closed form

    T(p) = -(q / 2) * sum_{d=0}^{J-1} w_d Re g_d,
    w_d = sum_j j c_j c_{j+d},
    g_0 = log|p'|,
    g_n = (sum_{k=1}^{n-1} (n-k) c_k g_{n-k} - n c_n) / (n p').

For J = 2 this is the exact monopole plus dipole about the center,
-(q/2) [(c1^2 + 2 c2^2) log|p'| - c1^2 c2 Re(1/p')]: one log and one
division per point, and the only J a config can state. Any other J runs
the recursion in complex arithmetic from 1/p' = conj(p') / |p'|^2: one
log, one complex division and O(J^2) complex products per point. A
polynomial map counts overlap multiplicity the way the boundary integral
counts winding number, so self-overlapping shapes (c1 < 2|c2|) agree too.

Every (heater, point) pair whose point lies outside the heater's reach
takes the closed form, whatever other points are evaluated with it; only
the pairs inside the reach go through the quadrature. The area integral
reduces to a boundary integral through the divergence identity
div F = log|rho| with F(rho) = rho * (2*log|rho| - 1) / 4, evaluated by
the trapezoidal rule on the Fourier parameterization of the boundary.
For a closed smooth boundary and an evaluation point off the curve the
rule converges spectrally, so quad_n = 256 nodes, the public functions'
default (no config sets it), already give near machine accuracy away
from the boundary.

An adiabatic wall along y = 0 is handled by the method of images, which
is exact for an infinite straight wall: every heater gains a mirror copy
below the wall, making the field even in y and its normal derivative
zero on the wall. Image rows choose between the closed form and the
quadrature by the same per-pair rule.

Memory: the quadrature walks the points in blocks whose (rows, points,
nodes) work arrays hold at most _BLOCK_ELEMS elements each, so its four
work arrays take at most 4 * _BLOCK_ELEMS * 8 bytes (2 MB) whatever the
number of points, unless a single point times the rows times the nodes
already exceeds the budget. The closed form of a call with an in-reach
pair walks (rows, points) blocks of at most _BLOCK_ELEMS / 8 elements
(64 kB), one block for every sweep call. No block changes a value.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import shapes
from .shapes import HeaterShape, curve_moments, node_rows


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
_WALL_CHECK_N = 256  # boundary nodes tested against the wall
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


def _integrate(rhox, rhoy, r2, dx, dy, q, n, on_node):
    """Trapezoidal boundary integral (m, p); overwrites its offset arrays.

    on_node says whether some point may sit exactly on a node (r2 == 0);
    only the entries that do are changed.
    """
    if on_node:
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

    A call that fits in one block of at most _BLOCK_ELEMS elements per
    work array computes its offsets once: they decide the doubling and
    integrate the rows that keep quad_n nodes. A larger call measures
    offsets only for the points that may be near a row: a row's nodes lie
    within its reach sum_k |c_k| of its center, so only the points within
    the reach plus two node spacings (plus a margin of 1e-12 of the
    lengths involved, far above their rounding) can be. Each doubled row
    (and, in the larger call, every row) then walks its marked points on
    its own, block by block in one buffer. No path changes a value.
    """
    m, p = len(q), len(pts)
    x, y, dx, dy = boundary_nodes((C, centers), quad_n)
    # node spacing bounded by max parameterization speed times step
    spacing = np.sqrt(np.max(dx * dx + dy * dy, axis=1)) * (2.0 * np.pi / quad_n)
    limit = (2.0 * spacing) ** 2
    blocks, buf = _point_blocks(p, m, quad_n)
    if len(blocks) == 1:
        work = _offsets(x, y, pts, buf)
        closest = work[2].min(axis=(1, 2))
        near = closest < limit
        if not near.all():
            np.copyto(out, _integrate(*work, dx, dy, q, quad_n, closest.min() == 0.0),
                      where=cells & ~near[:, None])
        coarse = ()
    else:
        radius = np.abs(C).sum(axis=1) + 2.0 * spacing
        radius += 1e-12 * (radius + np.abs(centers).sum(axis=1) + max(pts.max(), -pts.min()))
        closest = np.full(m, np.inf)
        for b in blocks:
            d = pts[b] - centers[:, None, :]
            # a NaN distance keeps its point, as the offsets would have seen it
            sub = pts[b][~((d * d).sum(axis=2) > (radius * radius)[:, None]).all(axis=0)]
            if len(sub):
                np.minimum(closest, _offsets(x, y, sub, buf)[2].min(axis=(1, 2)), out=closest)
        near = closest < limit
        coarse = np.flatnonzero(~near)
    groups = [(quad_n, coarse, (x, y, dx, dy))]
    if near.any():
        groups.append((2 * quad_n, np.flatnonzero(near), boundary_nodes((C, centers), 2 * quad_n)))
    for n, rows, (x, y, dx, dy) in groups:
        for i in rows:
            cols = np.flatnonzero(cells[i])
            blocks, buf = _point_blocks(len(cols), 1, n, buf)
            for b in blocks:
                work = _offsets(x[i:i + 1], y[i:i + 1], pts[cols[b]], buf)
                out[i, cols[b]] = _integrate(*work, dx[i:i + 1], dy[i:i + 1], q[i:i + 1], n,
                                              work[2].min() == 0.0)[0]
    return out


def _exterior_rows(C, q, dx, dy, r2) -> np.ndarray:
    """Closed-form temperatures (m, p) of one heater per row, at points
    whose offsets p' = dx + i dy (m, p) from the row's center, of squared
    length r2, all lie outside the row's reach: the module docstring's sum."""
    J = C.shape[1]
    if J == 2:  # the sampler's every row: w_0 = c1^2 + 2 c2^2, w_1 Re g_1 = -c1^2 c2 Re(1/p')
        c1, c2 = C[:, 0], C[:, 1]
        acc = (c1 * c1 + c2 * 2.0 * c2)[:, None] * (0.5 * np.log(r2))
        acc += (-(c1 * c2 * c1))[:, None] * (dx / r2)
        return -0.5 * q[:, None] * acc
    c = C.T  # c[k - 1] is c_k
    kc = c * np.arange(1.0, J + 1.0)[:, None]
    w = kc[0] * c  # w[d] = sum_j j c_j c_{j+d}, accumulated over j
    for j in range(1, J):
        w[:J - j] += kc[j] * c[j:]
    s = (dx - 1j * dy) / r2  # 1/p'
    g = [0.5 * np.log(r2)]
    acc = w[0][:, None] * g[0]
    for n in range(1, J):
        gn = -n * c[n - 1][:, None]
        for k in range(1, n):
            gn = gn + (n - k) * c[k - 1][:, None] * g[n - k]
        g.append(gn * s / n)
        acc += w[n][:, None] * g[n].real
    return -0.5 * q[:, None] * acc


def _heater_field(C, centers, q, pts: np.ndarray, quad_n: int) -> np.ndarray:
    """Temperatures (m, p) of one heater per row at pts (p, 2).

    Row i is the heater with coefficients C[i] (J,), center centers[i]
    and strength q[i]. When every point lies strictly outside every row's
    reach sum_k |c_k|, as in almost every sampler sweep, the closed form
    runs on all pairs at once with no mask or copy; any other call goes to
    _pair_rows, which chooses per (row, point) pair. Either way an
    out-of-reach pair's value depends on no other row or point, and an
    in-reach pair's only through its row's node doubling.
    """
    dx = pts[:, 0] - centers[:, 0:1]
    dy = pts[:, 1] - centers[:, 1:2]
    r2 = dx * dx + dy * dy
    reach = np.abs(C).sum(axis=1)
    outside = r2 > (reach * reach)[:, None]
    if np.count_nonzero(outside) == outside.size:
        return _exterior_rows(C, q, dx, dy, r2)
    return _pair_rows(C, centers, q, pts, quad_n)


def _wall_clearance(C, centers) -> np.ndarray:
    """Lowest boundary point (m,) of the heaters C (m, J) at centers (m, 2);
    the wall needs it above y = 0.

    A heater whose center lies above its reach sum_k |c_k| clears the wall
    without a node check and reports +inf. The relative margin of 1e-12
    lies far above the rounding of the nodes' y, so every heater the node
    check would reject still gets it.
    """
    low = np.full(len(C), np.inf)
    near = ~(centers[:, 1] > np.abs(C).sum(axis=1) * (1.0 + 1e-12))
    if near.any():
        low[near] = node_rows(C[near], centers[near], _WALL_CHECK_N)[1].min(axis=1)
    return low


def _rows(C, centers, q, points, wall: Wall, quad_n: int, kernel) -> np.ndarray:
    """temperature_rows, with kernel(C, centers, q, pts, quad_n) giving the
    field (rows, p) of one heater per row for all heaters and images."""
    if quad_n < 32:
        raise ValueError(f"quad_n must be at least 32, got {quad_n}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, h = q.shape
    if wall is Wall.ADIABATIC_Y0:
        low = _wall_clearance(C.reshape(m * h, C.shape[2]), centers.reshape(m * h, 2))
        clear = np.all(low.reshape(m, h) > 0.0, axis=1)
        C, centers, q = C[clear], centers[clear], q[clear]
        C = np.concatenate([C, C], axis=1)
        centers = np.concatenate([centers, centers * [1.0, -1.0]], axis=1)
        q = np.concatenate([q, q], axis=1)
    rows = q.size
    each = kernel(C.reshape(rows, C.shape[2]), centers.reshape(rows, 2), q.reshape(rows),
                  pts, quad_n).reshape(q.shape + (pts.shape[0],))
    # heaters add in order, originals before mirror images
    total = np.zeros((q.shape[0], pts.shape[0]))
    for k in range(each.shape[1]):
        total += each[:, k]
    if wall is Wall.UNBOUNDED:
        return total
    out = np.full((m, pts.shape[0]), np.nan)
    out[clear] = total
    return out


def _configuration(heaters, points, wall: Wall, quad_n: int, kernel) -> np.ndarray:
    """The (p,) row of _rows for one configuration of (HeaterShape, q) pairs,
    zero-padding shorter coefficient lists; a rejected row raises."""
    heaters = list(heaters)
    C = np.zeros((1, len(heaters), max((len(s.c) for s, _ in heaters), default=1)))
    for k, (shape, _) in enumerate(heaters):
        C[0, k, :len(shape.c)] = shape.c
    centers = np.array([s.center for s, _ in heaters], dtype=float).reshape(1, -1, 2)
    q = np.array([[v for _, v in heaters]], dtype=float)
    out = _rows(C, centers, q, points, wall, quad_n, kernel)[0]
    if np.all(np.isfinite(out)):
        return out
    if wall is Wall.ADIABATIC_Y0:
        low = _wall_clearance(C[0], centers[0])
        k = np.argmax(low <= 0.0)  # the first heater that crosses, if any
        if low[k] <= 0.0:
            raise WallGeometryError(f"heater at {heaters[k][0].center} crosses the wall "
                                    f"y = 0 (min y = {low[k]:.4g})")
    raise FieldEvaluationError("non-finite temperature; point on a quadrature node?")


def temperatures(heaters, points, wall: Wall = Wall.UNBOUNDED,
                 quad_n: int = 256) -> np.ndarray:
    """Superposed heater temperatures at points (m, 2), relative to T_ref = 0.

    heaters is a sequence of (HeaterShape, strength) pairs; overlapping
    regions superpose additively. This is temperature_rows' row for the
    one configuration, bit for bit. With an adiabatic wall all heater
    regions must lie strictly in y > 0: a heater crossing the wall raises
    WallGeometryError, a non-finite temperature FieldEvaluationError.
    """
    return _configuration(heaters, points, wall, quad_n, _heater_field)


def temperature_rows(C, centers, q, points, wall: Wall = Wall.UNBOUNDED,
                     quad_n: int = 256) -> np.ndarray:
    """Temperatures (m, p) of m heater configurations at points (p, 2).

    Heater k of configuration i has Fourier coefficients C[i, k] (with
    c_1 > 0), center centers[i, k] and strength q[i, k]; C is (m, h, J).
    Every heater (and wall image) of every configuration is one row of a
    single kernel call. A (row, point) pair whose point lies outside the
    heater's reach sum_k |c_k| takes the exact closed form of the module
    docstring; only a pair with its point inside the reach runs the
    quad_n-node quadrature. When every pair takes the closed form, as in
    almost every sampler sweep, no pair is masked or copied, and J = 2
    rows skip the general coefficient recursion. The choice is per pair,
    so a configuration's row does not depend on the others, and a heater
    contributes to a point outside its reach the same value whatever
    other points share the call. Rejected
    configurations come back as non-finite rows: NaN when a heater
    crosses the wall, otherwise wherever the field is not finite.
    """
    return _rows(C, centers, q, points, wall, quad_n, _heater_field)


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
    through _rows, as the points of temperatures do, straight to the
    _pair_rows kernel: a cell outside a heater's (or image's) reach takes
    the closed form for that heater, and only the few cells inside it run
    the quadrature. Even a grid with no cell in any reach draws the coarse
    nodes once, for no row.
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
    """The quadrature's node source: node_rows(C, centers, n) of rows = (C, centers)."""
    # through shapes, so a wrapper on this module's node_rows sees only the wall check
    return shapes.node_rows(*rows, n)


def _pair_rows(C, centers, q, pts: np.ndarray, quad_n: int) -> np.ndarray:
    """Temperatures (m, p) of one heater per row at pts (p, 2), chosen per
    (row, point) pair.

    A pair whose point lies strictly outside the row's reach takes the
    exact closed form, computed for every pair in blocks of
    _BLOCK_ELEMS // (8 m) points: one block for a sweep call, and arrays
    of 64 kB, which raise a desk grid's peak memory less than larger ones.
    _heater_rows then overwrites the in-reach pairs, given as its mask,
    for the rows that hold one. The coarse nodes are drawn once per call,
    for no row when no pair is in reach. The traced benchmark counts that
    draw on every grid, so this kernel stays apart from _heater_field,
    whose all-exterior return would skip it.
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
            out[:, b] = _exterior_rows(C, q, ox, oy, r2)
    rows = inside.any(axis=1)
    out[rows] = _heater_rows(C[rows], centers[rows], q[rows], pts, quad_n, inside[rows],
                             out[rows])
    return out
