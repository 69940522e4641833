"""Independent reference implementations used to check the package.

Everything here is deliberately written from scratch against the
underlying mathematics (dense polygon sums, area quadrature of the log
kernel) and avoids the boundary-integral machinery under test. The EM
oracle shares only the mixture fit's k-means++ start, so that both fits
begin from the same components. The quadrature oracle is the field
kernel that the per-pair choice of the closed form replaced; it runs the
package's own quadrature on every pair, so that the pairs still
integrated can be checked against it bit for bit.
"""

from functools import partial

import numpy as np

from heatinfer import field
from heatinfer.posterior import COV_FLOOR, _kmeanspp_seeds


def fourier_vertices(c, center, n):
    """Boundary polygon vertices, recomputed from the series definition."""
    theta = 2.0 * np.pi * np.arange(n) / n
    x = np.full(n, float(center[0]))
    y = np.full(n, float(center[1]))
    for k, ck in enumerate(c, start=1):
        x += ck * np.cos(k * theta)
        y += ck * np.sin(k * theta)
    return np.column_stack([x, y])


def shoelace_moments(c, n):
    """Polygon area, first and second moments about the center."""
    v = fourier_vertices(c, (0.0, 0.0), n)
    x, y = v[:, 0], v[:, 1]
    x1, y1 = np.roll(x, -1), np.roll(y, -1)
    cr = x * y1 - x1 * y
    area = 0.5 * np.sum(cr)
    fx = np.sum((x + x1) * cr) / 6.0
    fy = np.sum((y + y1) * cr) / 6.0
    mxx = np.sum((x * x + x * x1 + x1 * x1) * cr) / 12.0
    myy = np.sum((y * y + y * y1 + y1 * y1) * cr) / 12.0
    mxy = np.sum((x * y1 + 2 * x * y + 2 * x1 * y1 + x1 * y) * cr) / 24.0
    return area, np.array([fx, fy]), np.array([[mxx, mxy], [mxy, myy]])


def _subtriangle_barycenters(s):
    """Barycentric centroids of the s^2 congruent subtriangles of a triangle."""
    pts = []
    for i in range(s):
        for j in range(s - i):
            pts.append(((3 * i + 1) / (3 * s), (3 * j + 1) / (3 * s)))
            if j < s - i - 1:
                pts.append(((3 * i + 2) / (3 * s), (3 * j + 2) / (3 * s)))
    return np.asarray(pts)


def fan_quadrature_temp(c, center, q, point, n_edges=2000, n_sub=8):
    """Brute-force T(point) by area quadrature of the log kernel.

    The region is fan-triangulated from its center and each triangle is
    split into n_sub^2 congruent subtriangles evaluated at centroids.
    Second-order accurate; avoid points on or very near the boundary.
    """
    v = fourier_vertices(c, center, n_edges)
    ctr = np.asarray(center, dtype=float)
    e1 = v - ctr
    e2 = np.roll(v, -1, axis=0) - ctr
    bary = _subtriangle_barycenters(n_sub)
    tri_area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    sub_area = tri_area / (n_sub * n_sub)
    p = np.asarray(point, dtype=float)
    total = 0.0
    for k in range(0, n_edges, 256):
        sl = slice(k, min(k + 256, n_edges))
        pts = (ctr[None, None, :]
               + bary[None, :, 0, None] * e1[sl][:, None, :]
               + bary[None, :, 1, None] * e2[sl][:, None, :])
        d2 = np.sum((pts - p[None, None, :]) ** 2, axis=2)
        total += np.sum(0.5 * np.log(d2) * sub_area[sl][:, None])
    return -q / (2.0 * np.pi) * total


def point_source_temp(total_heat, center, point):
    """Far-field equivalent of a compact source: -(Q / 2 pi) log r."""
    r = np.hypot(point[0] - center[0], point[1] - center[1])
    return -total_heat / (2.0 * np.pi) * np.log(r)


def _log_normal_pdf(x, mean, cov):
    """Multivariate normal log density at rows of x, by np.linalg.solve on
    the Cholesky factor."""
    chol = np.linalg.cholesky(cov)
    z = np.linalg.solve(chol, (x - mean).T)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (np.sum(z * z, axis=0) + logdet + x.shape[1] * np.log(2.0 * np.pi))


def em_mixture(samples, k, max_iters=200, tol=1e-8, rng=None):
    """Per-component EM with the samples as rows, one np.linalg.solve per
    component and iteration: the fit that heatinfer.posterior.fit_gmm
    replaced, first with whitening by inverse factors, then with two
    matrix products per iteration over fixed moment features.

    Same k-means++ start, reseed-then-drop rule and stop rule; returns
    (weights, means, covariances, loglik_path).
    """
    samples = np.asarray(samples, dtype=float)
    n, dim = samples.shape
    rng = rng if rng is not None else np.random.default_rng(0)
    means = _kmeanspp_seeds(samples, k, rng)
    base_cov = np.cov(samples.T).reshape(dim, dim) + COV_FLOOR * np.eye(dim)
    covs = np.repeat(base_cov[None, :, :], k, axis=0)
    weights = np.full(k, 1.0 / k)
    reseeded = np.zeros(k, dtype=bool)
    logliks = []
    prev = -np.inf
    for _ in range(max_iters):
        log_resp = np.stack(
            [np.log(weights[j]) + _log_normal_pdf(samples, means[j], covs[j])
             for j in range(len(weights))], axis=1)
        top = log_resp.max(axis=1)
        log_norm = np.log(np.exp(log_resp - top[:, None]).sum(axis=1)) + top
        loglik = float(np.sum(log_norm))
        logliks.append(loglik)
        resp = np.exp(log_resp - log_norm[:, None])
        counts = resp.sum(axis=0)
        empty = counts < 1e-10
        if np.any(empty):
            drop = []
            for j in np.nonzero(empty)[0]:
                if reseeded[j]:
                    drop.append(j)
                else:
                    reseeded[j] = True
                    means[j] = samples[int(np.argmin(log_norm))]
                    covs[j] = base_cov
                    counts[j] = 1.0
            keep = np.setdiff1d(np.arange(len(weights)), drop)
            weights, means, covs = weights[keep], means[keep], covs[keep]
            counts, reseeded = counts[keep], reseeded[keep]
            weights = counts / counts.sum()
            prev = -np.inf
            continue
        weights = counts / n
        means = (resp.T @ samples) / counts[:, None]
        for j in range(len(weights)):
            diff = samples - means[j]
            covs[j] = (resp[:, j][:, None] * diff).T @ diff / counts[j]
            covs[j] += COV_FLOOR * np.eye(dim)
        if loglik - prev < tol:
            break
        prev = loglik
    return weights, means, covs, np.asarray(logliks)


def quadrature_rows(C, centers, q, pts, quad_n):
    """Temperatures (m, p) of one heater per row, every pair by quadrature:
    the field kernel before it took the closed form outside a heater's
    reach. Nodes come from field.boundary_nodes at quad_n, doubled for a
    row when some point lies within two node spacings of them."""
    shape = (len(q), len(pts))
    return field._heater_rows(partial(field.boundary_nodes, (C, centers)), q, pts, quad_n,
                              np.ones(shape, dtype=bool), np.empty(shape))
