import tracemalloc

import numpy as np
import pytest

from heatinfer.posterior import (COV_FLOOR, GaussianMixture,
                                 InsufficientSamplesError, PcaReport,
                                 best_component, fit_gmm, pca)

from oracles import em_mixture


def test_single_component_is_em_fixed_point():
    rng = np.random.default_rng(0)
    samples = rng.multivariate_normal([1.0, -2.0], [[0.3, 0.1], [0.1, 0.5]], 2000)
    gmm = fit_gmm(samples, 1, rng=np.random.default_rng(1))
    np.testing.assert_allclose(gmm.means[0], samples.mean(axis=0), atol=1e-10)
    expect = np.cov(samples.T, bias=True) + COV_FLOOR * np.eye(2)
    np.testing.assert_allclose(gmm.covariances[0], expect, atol=1e-10)
    assert gmm.weights[0] == 1.0


def test_two_cluster_recovery():
    rng = np.random.default_rng(2)
    a = rng.normal(-5.0, 1.0, (1500, 2))
    b = rng.normal(5.0, 1.0, (1500, 2))
    samples = np.vstack([a, b])
    gmm = fit_gmm(samples, 2, rng=np.random.default_rng(3))
    order = np.argsort(gmm.means[:, 0])
    np.testing.assert_allclose(gmm.weights, [0.5, 0.5], atol=0.05)
    np.testing.assert_allclose(gmm.means[order[0]], [-5.0, -5.0], atol=0.1)
    np.testing.assert_allclose(gmm.means[order[1]], [5.0, 5.0], atol=0.1)


def test_weights_form_probability_vector():
    rng = np.random.default_rng(4)
    samples = rng.normal(0.0, 1.0, (400, 3))
    gmm = fit_gmm(samples, 5, rng=np.random.default_rng(5))
    assert np.all(gmm.weights >= 0.0)
    assert gmm.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_em_loglik_non_decreasing():
    rng = np.random.default_rng(6)
    samples = np.vstack([rng.normal(-2.0, 0.5, (500, 2)),
                         rng.normal(2.0, 0.8, (500, 2))])
    gmm = fit_gmm(samples, 3, rng=np.random.default_rng(7))
    diffs = np.diff(gmm.loglik_path)
    assert np.all(diffs >= -1e-10)


def test_insufficient_samples():
    with pytest.raises(InsufficientSamplesError):
        fit_gmm(np.zeros((19, 2)), 2)


def rows(target):
    """Batched (k, dim) -> (k,) form of a one-state target."""
    return lambda X: np.array([target(x) for x in X])


def test_best_component_single():
    gmm = GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])
    assert best_component(gmm, rows(lambda x: 0.0)) == 0


def test_best_component_skips_infeasible_means():
    gmm = GaussianMixture(np.array([0.5, 0.5]),
                          np.array([[5.0, 0.0], [0.5, 0.0]]),
                          np.array([np.eye(2), np.eye(2)]))

    def target(x):
        return -np.inf if abs(x[0]) > 1.0 else -float(x @ x)

    assert best_component(gmm, rows(target)) == 1


def test_best_component_affine_invariance():
    rng = np.random.default_rng(8)
    gmm = GaussianMixture(np.full(4, 0.25), rng.normal(0, 1, (4, 3)),
                          np.repeat(np.eye(3)[None], 4, axis=0))
    target = lambda x: -float(x @ x)  # noqa: E731
    scaled = lambda x: 3.0 * target(x) + 11.0  # noqa: E731
    assert best_component(gmm, rows(target)) == best_component(gmm, rows(scaled))


def test_best_component_tie_breaks_to_heavier():
    gmm = GaussianMixture(np.array([0.2, 0.8]),
                          np.array([[1.0, 0.0], [-1.0, 0.0]]),
                          np.array([np.eye(2), np.eye(2)]))
    assert best_component(gmm, rows(lambda x: 0.0)) == 1


def test_pca_diagonal():
    rep = pca(np.diag([1.0, 4.0]))
    np.testing.assert_allclose(rep.eigenvalues, [4.0, 1.0])
    assert rep.max_uncertainty_length == pytest.approx(2.0)
    np.testing.assert_allclose(np.abs(rep.max_direction), [0.0, 1.0], atol=1e-14)
    # sign convention: first non-zero entry of each column is non-positive
    for j in range(2):
        col = rep.eigenvectors[:, j]
        nz = col[np.abs(col) > 1e-12]
        assert nz[0] <= 0.0


def test_pca_identity():
    rep = pca(np.eye(3))
    np.testing.assert_allclose(rep.eigenvalues, 1.0)
    assert rep.max_uncertainty_length == pytest.approx(1.0)


def test_pca_reconstruction_and_orthonormality():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.normal(0, 1, (4, 4))
        cov = a @ a.T + 0.1 * np.eye(4)
        rep = pca(cov)
        rebuilt = rep.eigenvectors @ np.diag(rep.eigenvalues) @ rep.eigenvectors.T
        np.testing.assert_allclose(rebuilt, cov, atol=1e-10 * np.abs(cov).max())
        gram = rep.eigenvectors.T @ rep.eigenvectors
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)
        assert np.all(np.diff(rep.eigenvalues) <= 1e-12)


def test_pca_rejects_asymmetric():
    with pytest.raises(ValueError):
        pca(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_pca_report_is_deterministic():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    a = pca(cov)
    b = pca(cov)
    np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
    assert isinstance(a, PcaReport)


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture(np.array([0.5, 0.4]), np.zeros((2, 1)),
                        np.repeat(np.eye(1)[None], 2, axis=0))


# --- the moment-feature EM against the per-component solve it replaced ---

def _assert_same_fit(gmm, oracle, rtol):
    """Same component count and iterations; log likelihoods and weights
    elementwise, means and each covariance relative to its largest entry,
    within rtol."""
    weights, means, covs, path = oracle
    assert gmm.k == len(weights) and len(gmm.loglik_path) == len(path)
    np.testing.assert_allclose(gmm.loglik_path, path, rtol=rtol, atol=0.0)
    np.testing.assert_allclose(gmm.weights, weights, rtol=rtol, atol=0.0)
    assert np.abs(gmm.means - means).max() <= rtol * np.abs(means).max()
    for got, want in zip(gmm.covariances, covs):
        assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def test_em_matches_solve_oracle_on_posterior_like_draws():
    # 2,500 draws around the two-heater truth with a y0-q correlation of
    # 0.8 per heater, as in the benchmark's refit workload: 200 iterations
    truth = np.array([0.5, 0.8, 1.0, 0.28, 0.14, -0.6, 0.6, 2.0, 0.2, 0.0])
    scales = np.tile([0.02, 0.03, 0.05, 1e-3, 1e-3], 2)
    corr = np.eye(10)
    corr[[1, 6], [2, 7]] = corr[[2, 7], [1, 6]] = 0.8
    rng = np.random.default_rng(30)
    samples = rng.multivariate_normal(truth, corr * np.outer(scales, scales), 2500)
    gmm = fit_gmm(samples, 5, rng=np.random.default_rng(31))
    _assert_same_fit(gmm, em_mixture(samples, 5, rng=np.random.default_rng(31)), 1e-10)


def test_em_matches_solve_oracle_in_one_dimension():
    samples = np.random.default_rng(32).normal(0.3, 0.2, (500, 1))
    gmm = fit_gmm(samples, 1, rng=np.random.default_rng(33))
    _assert_same_fit(gmm, em_mixture(samples, 1, rng=np.random.default_rng(33)), 1e-10)


def test_em_matches_solve_oracle_through_a_reseed_and_drop():
    # two tight clusters and one far outlier: with k = 5 a component loses
    # all responsibility, is reseeded at the worst-explained sample (the log
    # likelihood drops), empties again and is dropped. Seed 6 is the first of
    # seeds 0-199 to take this branch (17 do). The pooled start covariance
    # has a condition number of 2.5e8, and a precision built from an inverse
    # factor and solving by the factor part by up to cond * eps per iteration.
    rng = np.random.default_rng(0)
    samples = np.vstack([rng.normal(-1.0, 1e-3, (50, 2)), rng.normal(1.0, 1e-3, (50, 2)),
                         [[100.0, 100.0]]])
    gmm = fit_gmm(samples, 5, rng=np.random.default_rng(6))
    assert gmm.k < 5 and np.diff(gmm.loglik_path).min() < -0.5  # the branch ran
    oracle = em_mixture(samples, 5, rng=np.random.default_rng(6))
    cond = np.linalg.cond(np.cov(samples.T) + COV_FLOOR * np.eye(2))
    _assert_same_fit(gmm, oracle, len(oracle[3]) * cond * np.finfo(float).eps)


def _run_like_draws(seed):
    """2,500 draws in the layout of a two-heater run with c1 and c2 known:
    x0, y0, q spread with a y0-q correlation of 0.8 per heater, the c1 and
    c2 columns exactly constant."""
    truth = np.array([0.5, 0.8, 1.0, 0.28, 0.14, -0.6, 0.6, 2.0, 0.2, 0.0])
    free = [0, 1, 2, 5, 6, 7]
    corr = np.eye(6)
    corr[[1, 4], [2, 5]] = corr[[2, 5], [1, 4]] = 0.8
    scales = np.tile([0.02, 0.03, 0.05], 2)
    samples = np.tile(truth, (2500, 1))
    samples[:, free] = np.random.default_rng(seed).multivariate_normal(
        truth[free], corr * np.outer(scales, scales), 2500)
    return samples


@pytest.mark.parametrize("seed", [40, 41, 42])
def test_em_matches_solve_oracle_with_known_columns(seed):
    samples = _run_like_draws(seed)
    gmm = fit_gmm(samples, 5, rng=np.random.default_rng(seed + 100))
    oracle = em_mixture(samples, 5, rng=np.random.default_rng(seed + 100))
    _assert_same_fit(gmm, oracle, 1e-10)


def test_fit_memory_stays_near_the_feature_array():
    # the EM holds one (p, n) array of moment features, p = dim (dim + 1) / 2
    # + dim + 1, and a few (k, n) and (n,) arrays: no (k, dim, n) array
    samples = _run_like_draws(40)
    n, dim = samples.shape
    feature_bytes = (dim * (dim + 1) // 2 + dim + 1) * n * 8
    tracemalloc.start()
    try:
        fit_gmm(samples, 5, rng=np.random.default_rng(140))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * feature_bytes
