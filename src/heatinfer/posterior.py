"""Gaussian-mixture compression of posterior samples and PCA reporting.

The retained draws are approximated by K weighted Gaussians fitted with
expectation-maximization from a k-means++ start. Eigen-analysis of a
component covariance exposes the directions and magnitudes of remaining
uncertainty; the square root of the largest eigenvalue is the reported
maximum uncertainty length.
"""

from dataclasses import dataclass, field

import numpy as np

COV_FLOOR = 1e-8  # added to covariance diagonals to survive pinned components


class InsufficientSamplesError(ValueError):
    """Raised when a mixture fit is requested with too few samples."""


@dataclass(frozen=True)
class GaussianMixture:
    """K weighted Gaussian components in state space."""

    weights: np.ndarray  # (k,)
    means: np.ndarray  # (k, dim)
    covariances: np.ndarray  # (k, dim, dim)
    loglik_path: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be non-negative and sum to 1")
        object.__setattr__(self, "weights", w)

    @property
    def k(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class PcaReport:
    """Eigen-decomposition of a covariance, eigenvalues descending.

    Eigenvector signs are fixed so the first non-zero entry of each
    column is non-positive, making reports deterministic.
    """

    eigenvalues: np.ndarray  # (dim,) descending
    eigenvectors: np.ndarray  # (dim, dim), column i pairs with eigenvalue i
    max_uncertainty_length: float
    max_direction: np.ndarray  # (dim,) unit vector


def _coefficients(means: np.ndarray, covs: np.ndarray, log_weights: np.ndarray,
                  upper: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Rows (k, p) that turn moment features into weighted log densities.

    For a point x relative to an origin, the features are the products
    x_i x_j for (i, j) in upper (np.triu_indices(dim)), then x, then 1, and
    means are relative to the same origin. With precision P = L^-T L^-1
    from the Cholesky factor L of each covariance, a row holds -P_ij / 2
    on the diagonal and -P_ij above it, then P m, then
    -(m^T P m + logdet + dim log 2 pi) / 2 + log w, so row . features is
    log w + log N(x; m, cov).
    """
    dim = means.shape[1]
    chol = np.linalg.cholesky(covs)
    inv = np.linalg.inv(chol)
    z = np.matmul(inv, means[:, :, None])
    prec = np.matmul(inv.transpose(0, 2, 1), inv)
    iu, ju = upper
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    const = -0.5 * (np.sum(z[:, :, 0] ** 2, axis=1) + logdet + dim * np.log(2.0 * np.pi))
    return np.concatenate([np.where(iu == ju, -0.5, -1.0) * prec[:, iu, ju],
                           np.matmul(inv.transpose(0, 2, 1), z)[:, :, 0],
                           (const + log_weights)[:, None]], axis=1)


def _features(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moment features (p, n) of the sample rows centred on their mean,
    p = dim (dim + 1) / 2 + dim + 1, laid out as _coefficients expects;
    returns (features, mean)."""
    n, dim = samples.shape
    tri = dim * (dim + 1) // 2
    origin = samples.mean(axis=0)
    feats = np.empty((tri + dim + 1, n))
    xt = feats[tri:tri + dim]
    np.subtract(samples.T, origin[:, None], out=xt)
    row = 0
    for i in range(dim):
        np.multiply(xt[i], xt[i:], out=feats[row:row + dim - i])
        row += dim - i
    feats[-1] = 1.0
    return feats, origin


def _kmeanspp_seeds(samples: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: next center drawn with probability ~ D^2."""
    n = samples.shape[0]
    centers = [samples[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min(
            [np.sum((samples - c) ** 2, axis=1) for c in centers], axis=0)
        total = d2.sum()
        if total <= 0.0:
            centers.append(samples[rng.integers(n)])
            continue
        centers.append(samples[rng.choice(n, p=d2 / total)])
    return np.asarray(centers)


def fit_gmm(samples: np.ndarray, k: int, max_iters: int = 200, tol: float = 1e-8,
            rng: np.random.Generator | None = None) -> GaussianMixture:
    """Fit a K-component mixture to the sample rows by EM.

    Stops when the total log likelihood of all rows (loglik_path) improves
    by less than tol or after max_iters iterations. A component that loses
    all responsibility is reseeded once at the sample the mixture explains
    worst, then dropped (weights renormalized) if it empties again. The
    moment features of the centred samples are built once (_features), so
    an iteration is two matrix products over them: the log responsibilities
    of all components, then their weighted counts, first and second moments.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be a 2-D array")
    n, dim = samples.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 10 * k:
        raise InsufficientSamplesError(f"need at least {10 * k} samples for k={k}, got {n}")
    rng = rng if rng is not None else np.random.default_rng(0)

    feats, origin = _features(samples)
    tri = dim * (dim + 1) // 2
    upper = iu, ju = np.triu_indices(dim)
    means = _kmeanspp_seeds(samples, k, rng) - origin
    base_cov = np.cov(samples.T).reshape(dim, dim) + COV_FLOOR * np.eye(dim)
    covs = np.repeat(base_cov[None, :, :], k, axis=0)
    weights = np.full(k, 1.0 / k)
    reseeded = np.zeros(k, dtype=bool)
    buf = np.empty((k, n))

    logliks = []
    prev = -np.inf
    for _ in range(max_iters):
        resp = buf[:len(weights)]
        np.matmul(_coefficients(means, covs, np.log(weights), upper), feats, out=resp)
        top = resp.max(axis=0)
        resp -= top
        np.exp(resp, out=resp)
        total = resp.sum(axis=0)
        resp /= total
        log_norm = np.log(total) + top
        loglik = float(np.sum(log_norm))
        logliks.append(loglik)

        moments = resp @ feats.T  # (k, p): sums of r x_i x_j, of r x, and of r
        counts = moments[:, -1]
        empty = counts < 1e-10
        if np.any(empty):
            drop = []
            for j in np.nonzero(empty)[0]:
                if reseeded[j]:
                    drop.append(j)
                else:
                    reseeded[j] = True
                    means[j] = feats[tri:tri + dim, int(np.argmin(log_norm))]
                    covs[j] = base_cov
                    counts[j] = 1.0
            keep = np.setdiff1d(np.arange(len(weights)), drop)
            means, covs, counts, reseeded = means[keep], covs[keep], counts[keep], reseeded[keep]
            weights = counts / counts.sum()
            prev = -np.inf  # mixture changed discontinuously
            continue

        weights = counts / n
        means = moments[:, tri:tri + dim] / counts[:, None]
        second = moments[:, :tri] / counts[:, None]
        covs = np.empty((len(weights), dim, dim))
        covs[:, iu, ju] = second
        covs[:, ju, iu] = second
        covs -= means[:, :, None] * means[:, None, :]
        covs += COV_FLOOR * np.eye(dim)

        if loglik - prev < tol:
            break
        prev = loglik

    return GaussianMixture(weights, means + origin, covs, np.asarray(logliks))


def best_component(gmm: GaussianMixture, target) -> int:
    """Index of the component whose mean scores the highest log posterior.

    target scores a stack of states (k, dim) in one call. Ties break
    toward the larger weight, then the lower index.
    """
    best = 0
    best_score = -np.inf
    for j, score in enumerate(target(gmm.means)):
        if score > best_score or (score == best_score and gmm.weights[j] > gmm.weights[best]):
            best, best_score = j, score
    return best


def pca(cov: np.ndarray) -> PcaReport:
    """Full eigen-decomposition of a symmetric covariance matrix."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be square")
    asym = float(np.max(np.abs(cov - cov.T)))
    if asym > 1e-8 * max(1.0, float(np.max(np.abs(cov)))):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3g})")
    sym = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] > 0.0:
            vecs[:, j] = -col
    length = float(np.sqrt(max(vals[0], 0.0)))
    return PcaReport(vals, vecs, length, vecs[:, 0].copy())
