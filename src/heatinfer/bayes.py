"""State vector layout, priors, likelihood, and the unnormalized log posterior.

Each heater contributes a block (x0, y0, q, c1, c2) to the stacked state
vector. The prior is uniform over a bounding box B, optionally sharpened
by near-delta Gaussians on components declared known a priori. The
likelihood is Gaussian with i.i.d. sensor noise:

    log L = -sum_a (y*_a - h_a(x))^2 / (2 sigma^2)

up to constants. States violating the box, the half-plane restriction,
or the forward model's geometry requirements get log posterior -inf,
which a Metropolis sampler treats as plain rejection.
"""

from dataclasses import dataclass, field

import numpy as np

from . import field as fieldmod
from .shapes import HeaterShape

BLOCK = 5
COMPONENT_NAMES = ("x0", "y0", "q", "c1", "c2")

# bounding box per heater block: x0, y0, q, c1, c2
DEFAULT_BLOCK_BOUNDS = ((-2.0, 2.0), (0.0, 2.0), (0.0, 10.0), (0.0, 1.0), (-0.5, 0.5))


@dataclass(frozen=True)
class Observation:
    """Measured sensor values with i.i.d. noise of std noise_sigma."""

    values: np.ndarray
    noise_sigma: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if not np.all(np.isfinite(vals)):
            raise ValueError("observation values must be finite")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ValueError(f"noise_sigma must be finite and non-negative, got {self.noise_sigma}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "noise_sigma", float(self.noise_sigma))


@dataclass(frozen=True)
class StateSpec:
    """Free/known structure of the stacked state vector.

    bounds     : (5*n_heaters, 2) lower/upper pairs defining the box B
    known      : flat component index -> (mean, variance) sharp Gaussian
    half_plane : restrict every heater center to y0 > 0
    """

    n_heaters: int
    bounds: np.ndarray
    known: dict = field(default_factory=dict)
    half_plane: bool = True

    def __post_init__(self):
        if self.n_heaters < 1:
            raise ValueError("n_heaters must be positive")
        b = np.asarray(self.bounds, dtype=float)
        if b.shape != (BLOCK * self.n_heaters, 2):
            raise ValueError(f"bounds must have shape ({BLOCK * self.n_heaters}, 2)")
        if not np.all(np.isfinite(b)):
            raise ValueError("bounds must be finite")
        if np.any(b[:, 0] >= b[:, 1]):
            raise ValueError("each lower bound must be below its upper bound")
        for i, (mean, var) in self.known.items():
            if not np.isfinite(mean):
                raise ValueError(f"known component {i}: mean must be finite, got {mean}")
            if not 0.0 < var < np.inf:
                raise ValueError(f"known component {i}: variance must be positive and finite")
            if not (0 <= int(i) < BLOCK * self.n_heaters):
                raise ValueError(f"known component index {i} out of range")
            # the log prior divides squared offsets within the box by var
            width = float(b[int(i), 1]) - float(b[int(i), 0])
            if width * width / float(var) == np.inf:
                raise ValueError(f"known component {i}: variance {var} is too small for its "
                                 f"box width {width}")
        if self.half_plane and np.any(b[1::BLOCK, 0] < 0.0):
            raise ValueError("half_plane requires y0 lower bounds >= 0")
        object.__setattr__(self, "bounds", b)
        # components that must stay strictly above zero: every c_1, and
        # every y0 under the half-plane restriction
        floor = np.full(len(b), -np.inf)
        floor[3::BLOCK] = 0.0
        if self.half_plane:
            floor[1::BLOCK] = 0.0
        # x <= floor is x < nextafter(floor, inf): the support is lo <= x <= hi
        object.__setattr__(self, "_lo", np.fmax(b[:, 0], np.nextafter(floor, np.inf)))
        object.__setattr__(self, "_hi", b[:, 1].copy())
        idx = np.array(sorted(self.known), dtype=int)
        # consecutive components read as a slice, a cheaper index than the array
        consecutive = len(idx) and idx[-1] - idx[0] == len(idx) - 1
        object.__setattr__(self, "_known_idx",
                           slice(idx[0], idx[-1] + 1) if consecutive else idx)
        object.__setattr__(self, "_known_mean",
                           np.array([self.known[i][0] for i in idx]))
        object.__setattr__(self, "_known_var",
                           np.array([self.known[i][1] for i in idx]))

    @property
    def dim(self) -> int:
        return BLOCK * self.n_heaters

    @classmethod
    def create(cls, n_heaters: int, block_bounds=DEFAULT_BLOCK_BOUNDS,
               known: dict | None = None, half_plane: bool = True) -> "StateSpec":
        """Spec with the same per-block bounds replicated for every heater."""
        bounds = np.tile(np.asarray(block_bounds, dtype=float), (n_heaters, 1))
        return cls(n_heaters, bounds, dict(known or {}), half_plane)


def pack(states) -> np.ndarray:
    """Stack heater rows (h, 5) into a single vector, blocks in order."""
    return np.asarray(states, dtype=float).reshape(-1)


def heaters_from(x: np.ndarray, n_heaters: int):
    """(HeaterShape, strength) pairs for the forward model, one per block."""
    x = np.asarray(x, dtype=float)
    if x.shape != (BLOCK * n_heaters,):
        raise ValueError(f"expected length {BLOCK * n_heaters}, got {x.shape}")
    return [(HeaterShape(b[3:], b[:2]), b[2]) for b in x.reshape(n_heaters, BLOCK)]


def sort_blocks(b: np.ndarray) -> np.ndarray:
    """Heater blocks b (m, h, 5) of every state sorted by ascending q;
    ties by x0, then y0, and full ties keep their order."""
    # a stable sort; lexsort takes its primary key last
    order = np.lexsort((b[:, :, 1], b[:, :, 0], b[:, :, 2]))
    return b[np.arange(len(b))[:, None], order]


def canonicalize(x: np.ndarray, spec: StateSpec) -> np.ndarray:
    """Canonical block order (see sort_blocks) of one state (dim,) or of
    each state of a stack (m, dim).

    Removes the relabeling symmetry of the posterior. Single-heater
    states pass through unchanged.
    """
    x = np.asarray(x, dtype=float)
    if spec.n_heaters == 1:
        return x
    b = x.reshape(-1, spec.n_heaters, BLOCK)
    # blocks in strictly ascending q are already in order
    return x if (b[:, :-1, 2] < b[:, 1:, 2]).all() else sort_blocks(b).reshape(x.shape)


def _known_prior(X: np.ndarray, spec: StateSpec):
    """The sharp Gaussians' log prior (m,) of the rows of X (m, dim), or
    0.0 when no component is known."""
    if not spec.known:
        return 0.0
    d = X[:, spec._known_idx] - spec._known_mean
    return -0.5 * (d * d / spec._known_var).sum(axis=1)


def _check_states(X: np.ndarray, spec: StateSpec) -> None:
    if X.shape[1] != spec.dim:
        raise ValueError(f"expected length {spec.dim}, got {X.shape[1]}")
    if not np.isfinite(X).all():
        raise ValueError("states must be finite")


def _make_likelihood(obs: Observation, sensors, spec: StateSpec):
    """The log likelihood of every row of a finite stack (m, dim) whose c_1
    are all positive. The setup is checked here, once."""
    if obs.noise_sigma <= 0.0:
        raise ValueError("inference requires noise_sigma > 0")
    values, var = obs.values, obs.noise_sigma ** 2
    points, wall, n = sensors.points, sensors.wall, spec.n_heaters

    def likelihood(X: np.ndarray) -> np.ndarray:
        b = X.reshape(-1, BLOCK)  # one heater per row
        # resolved per call, so a patched forward model is the one scored
        r = values - fieldmod.stack_rows(b[:, 3:], b[:, :2], b[:, 2], n, points, wall)
        ll = -0.5 * (r[:, None, :] @ r[:, :, None])[:, 0, 0] / var
        # a non-finite field row gives a NaN or -inf ll; fmax maps NaN to -inf
        return np.fmax(ll, -np.inf)

    return likelihood


def _row(x) -> np.ndarray:
    return np.asarray(x, dtype=float)[None, :]


def log_prior(x: np.ndarray, spec: StateSpec) -> float:
    """Box prior plus sharp Gaussians on known components.

    -inf outside B (an infinite component included), below the
    half-plane, or for a degenerate c_1 <= 0. A NaN inside raises
    ValueError, as in log_posterior.
    """
    x = _row(x)
    inside = ~((x < spec._lo) | (x > spec._hi)).any(axis=1)
    if inside[0]:  # a NaN compares as inside
        _check_states(x, spec)
    return float(np.where(inside, _known_prior(x, spec), -np.inf)[0])


def log_likelihood(x: np.ndarray, obs: Observation, sensors, spec: StateSpec) -> float:
    """Gaussian log likelihood of the observations under state x.

    Geometry failures (degenerate shapes, a heater crossing the wall, a
    non-finite field) are reported as -inf so the sampler simply rejects
    the state; any other error propagates.
    """
    x, likelihood = _row(x), _make_likelihood(obs, sensors, spec)
    _check_states(x, spec)
    # c_1 <= 0 is a degenerate shape; in the target the prior rejects it first
    if not (x[0, 3::BLOCK] > 0.0).all():
        return -np.inf
    return float(likelihood(x)[0])


def log_posterior(x: np.ndarray, obs: Observation, sensors, spec: StateSpec) -> float:
    """log prior + log likelihood, skipping the forward model outside B."""
    return float(make_log_posterior(obs, sensors, spec)(_row(x))[0])


def make_log_posterior(obs: Observation, sensors, spec: StateSpec):
    """Closure over a fixed observation setup, for samplers.

    The target scores a stack of states (m, dim) in one call and returns
    their log posteriors (m,). What depends only on the setup is prepared
    once: noise_sigma > 0 is checked here, and the spec holds the prior's
    support as one lower bound (with the half-plane and c_1 > 0 folded in)
    and one upper bound per component.

    One test of the whole stack against the box, whose bounds are finite
    so that inf and NaN fail it, sends the common stack, every row inside
    the support, straight to the one forward-model call. Otherwise the
    rows outside the support score -inf and are dropped, a NaN (which
    compares as inside) raises, and the rest take the same call. Only
    rows inside the support reach it, so no c_1 > 0 mask follows it. A
    row scores its log likelihood plus the known components' log prior,
    whatever other rows share the call.
    """
    likelihood = _make_likelihood(obs, sensors, spec)
    lo, hi, dim = spec._lo, spec._hi, spec.dim
    top = np.finfo(float).max
    box_lo, box_hi = np.fmax(lo, -top), np.fmin(hi, top)

    def target(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[1] != dim:
            raise ValueError(f"expected length {dim}, got {X.shape[1]}")
        box = (box_lo <= X) & (X <= box_hi)
        if np.count_nonzero(box) == box.size:
            return likelihood(X) + _known_prior(X, spec)
        inside = ~((X < lo) | (X > hi)).any(axis=1)
        out = np.full(len(X), -np.inf)
        if inside.any():
            X = X[inside]
            _check_states(X, spec)
            out[inside] = likelihood(X) + _known_prior(X, spec)
        return out

    return target
