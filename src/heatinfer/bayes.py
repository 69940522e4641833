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
from .shapes import DegenerateShapeError, HeaterShape

BLOCK = 5
COMPONENT_NAMES = ("x0", "y0", "q", "c1", "c2")

# bounding box per heater block: x0, y0, q, c1, c2
DEFAULT_BLOCK_BOUNDS = ((-2.0, 2.0), (0.0, 2.0), (0.0, 10.0), (0.0, 1.0), (-0.5, 0.5))


@dataclass(frozen=True)
class HeaterState:
    """One heater's center, strength, and shape coefficients."""

    x0: float
    y0: float
    q: float
    c1: float
    c2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.y0, self.q, self.c1, self.c2])

    def shape(self) -> HeaterShape:
        return HeaterShape((self.c1, self.c2), (self.x0, self.y0))


@dataclass(frozen=True)
class Observation:
    """Measured sensor values with i.i.d. noise of std noise_sigma."""

    values: np.ndarray
    noise_sigma: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if not np.all(np.isfinite(vals)):
            raise ValueError("observation values must be finite")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be non-negative")
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
        if np.any(b[:, 0] >= b[:, 1]):
            raise ValueError("each lower bound must be below its upper bound")
        for i, (_, var) in self.known.items():
            if var <= 0.0:
                raise ValueError(f"known component {i}: variance must be positive")
            if not (0 <= int(i) < BLOCK * self.n_heaters):
                raise ValueError(f"known component index {i} out of range")
        if self.half_plane and np.any(b[1::BLOCK, 0] < 0.0):
            raise ValueError("half_plane requires y0 lower bounds >= 0")
        object.__setattr__(self, "bounds", b)
        idx = np.array(sorted(self.known), dtype=int)
        object.__setattr__(self, "_known_idx", idx)
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
    """Stack heater states into a single vector, blocks in order."""
    return np.concatenate([s.as_array() for s in states])


def heaters_from(x: np.ndarray, n_heaters: int):
    """(HeaterShape, strength) pairs for the forward model, one per block."""
    x = np.asarray(x, dtype=float)
    if x.shape != (BLOCK * n_heaters,):
        raise ValueError(f"expected length {BLOCK * n_heaters}, got {x.shape}")
    return [(HeaterShape((x[b + 3], x[b + 4]), (x[b], x[b + 1])), x[b + 2])
            for b in range(0, BLOCK * n_heaters, BLOCK)]


def canonicalize(x: np.ndarray, spec: StateSpec) -> np.ndarray:
    """Sort heater blocks by ascending q; ties by x0, then y0.

    Removes the relabeling symmetry of the posterior. Single-heater
    states pass through unchanged.
    """
    if spec.n_heaters == 1:
        return np.asarray(x, dtype=float)
    x = np.asarray(x, dtype=float)
    blocks = [x[BLOCK * h:BLOCK * (h + 1)] for h in range(spec.n_heaters)]
    blocks.sort(key=lambda b: (b[2], b[0], b[1]))
    return np.concatenate(blocks)


def log_prior(x: np.ndarray, spec: StateSpec) -> float:
    """Box prior plus sharp Gaussians on known components; -inf outside B."""
    x = np.asarray(x, dtype=float)
    if bool(np.any((x < spec.bounds[:, 0]) | (x > spec.bounds[:, 1]))):
        return -np.inf
    if spec.half_plane and np.any(x[1::BLOCK] <= 0.0):
        return -np.inf
    if len(spec._known_idx) == 0:
        return 0.0
    d = x[spec._known_idx] - spec._known_mean
    return -0.5 * float(np.sum(d * d / spec._known_var))


def log_likelihood(x: np.ndarray, obs: Observation, sensors, spec: StateSpec,
                   quad_n: int = 256) -> float:
    """Gaussian log likelihood of the observations under state x.

    Geometry failures (degenerate shapes, a heater crossing the wall, a
    non-finite field) are reported as -inf so the sampler simply rejects
    the state; any other error propagates.
    """
    if obs.noise_sigma <= 0.0:
        raise ValueError("inference requires noise_sigma > 0")
    try:
        h = fieldmod.observe(heaters_from(x, spec.n_heaters), sensors, quad_n)
    except (DegenerateShapeError, fieldmod.WallGeometryError,
            fieldmod.FieldEvaluationError):
        return -np.inf
    r = obs.values - h
    return -0.5 * float(r @ r) / (obs.noise_sigma ** 2)


def log_posterior(x: np.ndarray, obs: Observation, sensors, spec: StateSpec,
                  quad_n: int = 256) -> float:
    """log prior + log likelihood, skipping the forward model outside B."""
    lp = log_prior(x, spec)
    if lp == -np.inf:
        return -np.inf
    return lp + log_likelihood(x, obs, sensors, spec, quad_n)


def make_log_posterior(obs: Observation, sensors, spec: StateSpec, quad_n: int = 256):
    """Closure over a fixed observation setup, for samplers."""

    def target(x: np.ndarray) -> float:
        return log_posterior(x, obs, sensors, spec, quad_n)

    return target
