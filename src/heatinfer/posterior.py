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


def _log_densities(xt: np.ndarray, means: np.ndarray, covs: np.ndarray,
                   diff: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Normal log densities (k, n) of the columns of xt (dim, n) under k
    components, whitened by inverse Cholesky factors one component at a
    time in the (dim, n) buffers diff and work: no k * dim * n array."""
    chol = np.linalg.cholesky(covs)
    inv = np.linalg.inv(chol)
    out = np.empty((len(means), xt.shape[1]))
    for j in range(len(means)):
        np.subtract(xt, means[j][:, None], out=diff)
        np.matmul(inv[j], diff, out=work)
        out[j] = np.einsum("dn,dn->n", work, work)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    return -0.5 * (out + (logdet + xt.shape[0] * np.log(2.0 * np.pi))[:, None])


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
    worst, then dropped (weights renormalized) if it empties again.
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

    means = _kmeanspp_seeds(samples, k, rng)
    base_cov = np.cov(samples.T).reshape(dim, dim) + COV_FLOOR * np.eye(dim)
    covs = np.repeat(base_cov[None, :, :], k, axis=0)
    weights = np.full(k, 1.0 / k)
    reseeded = np.zeros(k, dtype=bool)
    xt = np.ascontiguousarray(samples.T)
    diff, work = np.empty_like(xt), np.empty_like(xt)

    logliks = []
    prev = -np.inf
    for _ in range(max_iters):
        log_resp = _log_densities(xt, means, covs, diff, work)
        log_resp += np.log(weights)[:, None]
        log_norm = _logsumexp(log_resp, axis=0)
        loglik = float(np.sum(log_norm))
        logliks.append(loglik)
        resp = np.exp(log_resp - log_norm)

        counts = resp.sum(axis=1)
        empty = counts < 1e-10
        if np.any(empty):
            drop = []
            for j in np.nonzero(empty)[0]:
                if reseeded[j]:
                    drop.append(j)
                else:
                    reseeded[j] = True
                    means[j] = xt[:, int(np.argmin(log_norm))]
                    covs[j] = base_cov
                    counts[j] = 1.0
            keep = np.setdiff1d(np.arange(len(weights)), drop)
            means, covs, counts, reseeded = means[keep], covs[keep], counts[keep], reseeded[keep]
            weights = counts / counts.sum()
            prev = -np.inf  # mixture changed discontinuously
            continue

        weights = counts / n
        means = (resp @ samples) / counts[:, None]
        for j in range(len(weights)):
            np.subtract(xt, means[j][:, None], out=diff)
            np.multiply(diff, resp[j], out=work)
            covs[j] = work @ diff.T / counts[j]
            covs[j] += COV_FLOOR * np.eye(dim)

        if loglik - prev < tol:
            break
        prev = loglik

    return GaussianMixture(weights, means, covs, np.asarray(logliks))


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)
    return out


def gmm_density(gmm: GaussianMixture, x) -> float:
    """Mixture density at a point, computed through log-sum-exp."""
    xt = np.asarray(x, dtype=float)[:, None]
    keep = gmm.weights > 0.0
    logs = np.log(gmm.weights[keep]) + _log_densities(
        xt, gmm.means[keep], gmm.covariances[keep], np.empty_like(xt), np.empty_like(xt))[:, 0]
    return float(np.exp(_logsumexp(logs, axis=0)))


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
