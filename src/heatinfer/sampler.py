"""Random-walk Metropolis-Hastings with parallel tempering.

A ladder of chains explores the target raised to inverse temperatures
beta_i = base^p_i with integer exponents p ending at 0; the p = 0 chain
samples the true posterior and is the only one whose draws are kept.
Sampling runs in two phases, a short adaptation phase with a wider
proposal followed by the production phase, after which the cold chain
is trimmed by burn-in and thinning. Adjacent chains attempt state
exchanges every few sweeps so the cold chain can escape local modes.

Every chain owns an independent seeded random stream (plus one stream
for the exchanges), so results are bit-reproducible regardless of how
chain updates are scheduled.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np


class InitializationError(ValueError):
    """Raised when no finite-posterior starting state turns up in the box."""


@dataclass
class McmcSchedule:
    """Two-phase run lengths, proposal variances, and retention policy.

    The defaults are the desk scale a config gets when it names no
    schedule; the production scale (phase2_steps 500_000, thin 100)
    retains the same 2,500 draws.
    """

    phase1_steps: int = 10_000
    phase1_var: float = 1e-4
    phase2_steps: int = 50_000
    phase2_var: float = 2.5e-5
    burn_in_fraction: float = 0.5
    thin: int = 10
    swap_interval: int = 10

    def __post_init__(self):
        if self.phase1_steps < 0 or self.phase2_steps <= 0:
            raise ValueError("step counts must be positive")
        if not (0.0 < self.phase1_var < math.inf and 0.0 < self.phase2_var < math.inf):
            raise ValueError("proposal variances must be positive and finite")
        if not (0.0 <= self.burn_in_fraction < 1.0):
            raise ValueError("burn_in_fraction must lie in [0, 1)")
        if self.thin < 1 or self.swap_interval < 1:
            raise ValueError("thin and swap_interval must be >= 1")

    @property
    def retained_count(self) -> int:
        kept = self.phase2_steps - int(self.phase2_steps * self.burn_in_fraction)
        return (kept + self.thin - 1) // self.thin


@dataclass
class ChainLadder:
    """Tempered chains: states, cached log posteriors, and RNG streams.

    states (n_chains, dim), log_posts (n_chains,) and betas (n_chains,)
    hold one row per chain; betas[i] = base ** exponents[i] is computed
    once here and read by both the Metropolis and the exchange step.
    exponents must be strictly increasing and end at 0, so the last
    chain is the cold one, and base must exceed 1.
    """

    exponents: tuple
    base: float
    bounds: np.ndarray  # (dim, 2) box used for uniform initialization
    states: np.ndarray
    log_posts: np.ndarray
    rngs: list
    swap_rng: np.random.Generator
    betas: np.ndarray = field(init=False)

    def __post_init__(self):
        ex = tuple(int(p) for p in self.exponents)
        if ex[-1] != 0 or any(a >= b for a, b in zip(ex, ex[1:])):
            raise ValueError("exponents must be strictly increasing and end at 0")
        if not self.base > 1.0:  # the hotter chains need beta = base ** exponent < 1
            raise ValueError(f"base must exceed 1, got {self.base}")
        self.exponents = ex
        self.betas = np.array([self.base ** p for p in ex])

    @property
    def n_chains(self) -> int:
        return len(self.exponents)

    @classmethod
    def create(cls, bounds, seed: int, exponents=(-4, -3, -2, -1, 0),
               base: float = 5.0) -> "ChainLadder":
        """Ladder with uniform initial states drawn from the box."""
        bounds = np.asarray(bounds, dtype=float)
        streams = np.random.SeedSequence(seed).spawn(len(exponents) + 1)
        rngs = [np.random.default_rng(s) for s in streams[:-1]]
        swap_rng = np.random.default_rng(streams[-1])
        states = np.array([rng.uniform(bounds[:, 0], bounds[:, 1]) for rng in rngs])
        return cls(tuple(exponents), float(base), bounds, states,
                   np.full(len(exponents), -np.inf), rngs, swap_rng)


@dataclass(frozen=True)
class SampleSet:
    """Retained cold-chain draws plus run diagnostics."""

    samples: np.ndarray  # (m, dim)
    acceptance_rates: dict  # {"phase1": (n_chains,), "phase2": (n_chains,)}
    swap_rates: np.ndarray  # (n_chains - 1,) per adjacent pair


def mh_step(ladder: ChainLadder, target, var: float, canon=None) -> np.ndarray:
    """One Metropolis sweep: every chain of the ladder updates once.

    Each chain draws a symmetric Gaussian random-walk step of diagonal
    variance var from its own stream, in chain order, into its row of one
    buffer; one target call scores the canonicalized proposals. Chain i
    accepts with probability min(1, exp(beta_i * (l(x') - l(x)))), l the
    untempered log posterior read as Python floats, drawing its uniform
    from its own stream only when the move is not uphill, and updates its
    cached values on acceptance. Returns the acceptance flags (n_chains,).
    """
    if not 0.0 < var < math.inf:
        raise ValueError(f"proposal variance must be positive and finite, got {var}")
    proposals = np.empty(ladder.states.shape)
    for rng, row in zip(ladder.rngs, proposals):
        rng.standard_normal(out=row)
    proposals *= math.sqrt(var)  # the steps, then the states they move
    proposals += ladder.states
    if canon is not None:
        proposals = canon(proposals)
    lps = np.asarray(target(proposals), dtype=float).tolist()
    accepted = np.zeros(ladder.n_chains, dtype=bool)
    for i, (rng, lp, old, beta) in enumerate(zip(ladder.rngs, lps, ladder.log_posts.tolist(),
                                                 ladder.betas.tolist())):
        # log(u) <= 0 < beta * delta handles the sure-accept case; nan (both
        # -inf) and -inf deltas compare False and reject.
        delta = lp - old
        if delta > 0 or np.log(rng.random()) < beta * delta:
            ladder.states[i] = proposals[i]
            ladder.log_posts[i] = lp
            accepted[i] = True
    return accepted


def swap_step(ladder: ChainLadder, rng: np.random.Generator) -> np.ndarray:
    """One sweep of adjacent replica exchanges, scanned cold to hot.

    Pair (i, i+1) swaps with probability
    min(1, exp((beta_i - beta_{i+1}) * (l_{i+1} - l_i))); cached log
    posteriors move with the states. Returns the acceptance flags
    (n_chains - 1,) indexed by pair i.
    """
    betas, lp = ladder.betas, ladder.log_posts
    swapped = np.zeros(ladder.n_chains - 1, dtype=bool)
    for i in range(ladder.n_chains - 2, -1, -1):
        dlog = (betas[i] - betas[i + 1]) * (lp[i + 1] - lp[i])
        if dlog > 0 or np.log(rng.random()) < dlog:
            ladder.states[[i, i + 1]] = ladder.states[[i + 1, i]]
            lp[[i, i + 1]] = lp[[i + 1, i]]
            swapped[i] = True
    return swapped


_PROGRESS_EVERY = 10_000
_INIT_RETRIES = 1000


def _initialize(ladder: ChainLadder, target, canon) -> None:
    """Place every chain at a canonical, finite-posterior starting state:
    its row of ladder.states, redrawn from its own stream while not finite."""
    lo, hi = ladder.bounds[:, 0], ladder.bounds[:, 1]
    for i in range(ladder.n_chains):
        x = ladder.states[i]
        for _ in range(_INIT_RETRIES):
            if canon is not None:
                x = canon(x[None])[0]
            lp = float(target(x[None])[0])
            if np.isfinite(lp):
                break
            x = ladder.rngs[i].uniform(lo, hi)
        else:
            raise InitializationError(
                f"chain {i}: no finite-posterior initial state in {_INIT_RETRIES} "
                "draws from the bounding box")
        ladder.states[i] = x
        ladder.log_posts[i] = lp


def run(ladder: ChainLadder, target, schedule: McmcSchedule,
        canon=None, progress=sys.stderr) -> SampleSet:
    """Run both phases and return the trimmed cold-chain sample set.

    target maps a stack of states (m, dim) to their log posteriors (m,);
    canon, when given, maps such a stack to its canonical form.

    Each chain starts from its row of ladder.states. Phase 1 is
    adaptation and is discarded entirely; burn-in and thinning apply to
    phase 2 only.
    """
    _initialize(ladder, target, canon)
    n = ladder.n_chains
    accepted = np.zeros((2, n), dtype=int)
    swap_acc = np.zeros(n - 1, dtype=int)
    swap_tries = 0
    burn, thin = int(schedule.phase2_steps * schedule.burn_in_fraction), schedule.thin
    retained = np.empty((schedule.retained_count, ladder.states.shape[1]))
    total_sweeps = 0

    phases = ((schedule.phase1_steps, schedule.phase1_var),
              (schedule.phase2_steps, schedule.phase2_var))
    for phase, (steps, var) in enumerate(phases):
        for sweep in range(steps):
            accepted[phase] += mh_step(ladder, target, var, canon)
            if (sweep + 1) % schedule.swap_interval == 0 and n > 1:
                swap_acc += swap_step(ladder, ladder.swap_rng)
                swap_tries += 1
            if phase == 1 and sweep >= burn and (sweep - burn) % thin == 0:
                retained[(sweep - burn) // thin] = ladder.states[-1]
            total_sweeps += 1
            if progress is not None and total_sweeps % _PROGRESS_EVERY == 0:
                acc = accepted[phase] / max(sweep + 1, 1)
                swr = swap_acc / max(swap_tries, 1)
                print(f"[mcmc] sweep {total_sweeps} phase {phase + 1} "
                      f"acc={np.array2string(acc, precision=3)} "
                      f"swap={np.array2string(swr, precision=3)}", file=progress)

    rates = {
        "phase1": accepted[0] / max(schedule.phase1_steps, 1),
        "phase2": accepted[1] / schedule.phase2_steps,
    }
    return SampleSet(retained, rates, swap_acc / max(swap_tries, 1))
