import numpy as np
import pytest

from heatinfer import sampler
from heatinfer.sampler import ChainLadder, McmcSchedule, SampleSet, mh_step, run, swap_step

BOX1 = np.array([[-10.0, 10.0]])
BOX3 = np.array([[-10.0, 10.0]] * 3)


def rows(target):
    """Batched (m, dim) -> (m,) form of a one-state target."""
    return lambda X: np.array([target(x) for x in X])


def _gauss_target(mean, sigma):
    mean = np.asarray(mean, dtype=float)

    def target(x):
        d = (x - mean) / sigma
        return -0.5 * float(d @ d)

    return target


def _flat(X):
    return np.zeros(len(X))


def _flat_ladder(x, rng):
    """One-chain ladder at x, drawing from rng; on the flat target every
    proposal is accepted, so the state after a sweep is the proposal."""
    ladder = ChainLadder.create(np.array([[-10.0, 10.0]] * len(x)), 0, exponents=(0,))
    ladder.states[0], ladder.log_posts[0], ladder.rngs[0] = x, 0.0, rng
    return ladder


def test_mh_step_proposal_identity_in_small_variance_limit():
    x = np.array([1.0, -2.0, 0.5])
    ladder = _flat_ladder(x, np.random.default_rng(0))
    assert mh_step(ladder, _flat, 1e-300)[0]
    np.testing.assert_allclose(ladder.states[0], x, atol=1e-140)


def test_mh_step_rejects_bad_variance():
    # so does the schedule: an infinite phase-2 variance would run to the
    # end accepting nothing
    for var in (0.0, -1.0, np.nan, np.inf):
        ladder = _flat_ladder(np.zeros(2), np.random.default_rng(0))
        with pytest.raises(ValueError, match="proposal variance must be positive and finite"):
            mh_step(ladder, _flat, var)
        assert ladder.states.tolist() == [[0.0, 0.0]]  # before any draw or target call
        for name in ("phase1_var", "phase2_var"):
            with pytest.raises(ValueError, match="proposal variances must be positive and finite"):
                McmcSchedule(**{name: var})


def test_mh_step_proposal_deterministic():
    a = _flat_ladder(np.zeros(4), np.random.default_rng(42))
    b = _flat_ladder(np.zeros(4), np.random.default_rng(42))
    assert mh_step(a, _flat, 1e-4)[0] and mh_step(b, _flat, 1e-4)[0]
    np.testing.assert_array_equal(a.states, b.states)


def test_mh_step_proposal_variance_statistics():
    ladder = _flat_ladder(np.zeros(3), np.random.default_rng(7))
    draws = []
    for _ in range(100_000):
        ladder.states[0] = 0.0
        mh_step(ladder, _flat, 2.5e-5)
        draws.append(ladder.states[0].copy())
    np.testing.assert_allclose(np.var(draws, axis=0), 2.5e-5, rtol=0.05)


def _ladder_for(target, bounds, seed=0, exponents=(0,)):
    ladder = ChainLadder.create(bounds, seed, exponents=exponents)
    for i in range(ladder.n_chains):
        ladder.log_posts[i] = target(ladder.states[i])
    return ladder


def test_mh_step_always_accepts_uphill():
    target = _gauss_target([0.0], 1.0)
    ladder = _ladder_for(target, BOX1, seed=3)
    ladder.rngs[0] = np.random.default_rng(1)
    seen = {}

    def recording(x):
        seen["lp"] = target(x)
        return seen["lp"]

    uphill = 0
    for _ in range(300):
        ladder.states[0] = np.array([5.0])
        before = target(ladder.states[0])
        ladder.log_posts[0] = before
        accepted = mh_step(ladder, rows(recording), 1e-4)[0]
        if seen["lp"] > before:
            assert accepted
            uphill += 1
    assert uphill > 100


def test_mh_step_rejects_minus_infinity():
    target = lambda x: -np.inf  # noqa: E731
    ladder = ChainLadder.create(BOX1, 0, exponents=(0,))
    ladder.log_posts[0] = 0.0
    ladder.rngs[0] = np.random.default_rng(0)
    state = ladder.states[0].copy()
    for _ in range(50):
        assert not mh_step(ladder, rows(target), 1e-2)[0]
    np.testing.assert_array_equal(ladder.states[0], state)


def test_mh_step_unit_drop_acceptance_rate():
    # fixed log-posterior drop of 1: acceptance must track exp(-1)
    ladder = ChainLadder.create(BOX1, 0, exponents=(0,))
    target = lambda x: -1.0  # noqa: E731
    ladder.rngs[0] = np.random.default_rng(123)
    n, hits = 100_000, 0
    for _ in range(n):
        ladder.states[0] = np.zeros(1)
        ladder.log_posts[0] = 0.0
        if mh_step(ladder, rows(target), 1e-4)[0]:
            hits += 1
    assert hits / n == pytest.approx(np.exp(-1.0), rel=0.02)


def test_swap_certain_when_levels_match():
    ladder = ChainLadder.create(BOX1, 0, exponents=(-1, 0))
    ladder.log_posts[:] = [-3.0, -3.0]
    assert swap_step(ladder, np.random.default_rng(0)).tolist() == [True]


def test_swap_certain_when_hot_chain_is_better():
    ladder = ChainLadder.create(BOX1, 0, exponents=(-1, 0))
    ladder.log_posts[:] = [-1.0, -4.0]  # hotter chain holds the better state
    states0 = ladder.states.copy()
    assert swap_step(ladder, np.random.default_rng(0)).tolist() == [True]
    np.testing.assert_array_equal(ladder.states[0], states0[1])
    np.testing.assert_array_equal(ladder.states[1], states0[0])
    assert ladder.log_posts.tolist() == [-4.0, -1.0]


def test_swap_rate_matches_exponent():
    # beta = (1/5, 1) and the cold chain one log unit ahead: rate e^{-0.8}
    rng = np.random.default_rng(99)
    hits, n = 0, 100_000
    ladder = ChainLadder.create(BOX1, 0, exponents=(-1, 0))
    for _ in range(n):
        ladder.log_posts[:] = [0.0, 1.0]
        if swap_step(ladder, rng)[0]:
            hits += 1
    assert hits / n == pytest.approx(np.exp(-0.8), rel=0.02)


def test_betas_are_the_power_of_each_exponent():
    # numpy's vectorized power gives 0.00031999999999999997 for 5.0 ** -5
    ladder = ChainLadder.create(BOX1, 0, exponents=(-5, 0))
    assert ladder.betas[0] == 5.0 ** -5
    assert ladder.betas.tolist() == [5.0 ** p for p in ladder.exponents]


def test_swap_step_follows_ladder_betas():
    # with betas (1/2, 1) a one-unit lead of the cold chain swaps when
    # log(u) < -1/2; the exponents alone would give -4/5
    ladder = ChainLadder.create(BOX1, 0, exponents=(-1, 0))
    ladder.betas[:] = [0.5, 1.0]
    rng, expected = np.random.default_rng(5), np.random.default_rng(5)
    hits = 0
    for _ in range(2000):
        ladder.log_posts[:] = [0.0, 1.0]
        flag = bool(swap_step(ladder, rng)[0])
        assert flag == (np.log(expected.random()) < -0.5)
        hits += flag
    assert hits / 2000 == pytest.approx(np.exp(-0.5), rel=0.1)


def test_run_retained_count_arithmetic():
    assert McmcSchedule().retained_count == 2500
    sched = McmcSchedule(phase1_steps=10, phase2_steps=1000, thin=10)
    ladder = ChainLadder.create(BOX1, 1, exponents=(0,))
    out = run(ladder, rows(_gauss_target([0.0], 1.0)), sched, progress=None)
    assert out.samples.shape == (50, 1)


def test_run_keeps_the_cold_state_of_every_thin_th_sweep_after_burn_in(monkeypatch):
    # the reference records the cold state after every sweep: each sweep's
    # entry state is the previous sweep's exit state, swaps included
    target = rows(_gauss_target([0.0, 0.0, 0.0], 1.0))
    sched = McmcSchedule(phase1_steps=50, phase2_steps=1003, phase1_var=0.1, phase2_var=0.1,
                         burn_in_fraction=0.3, thin=7, swap_interval=3)
    entries = []

    def recording(ladder, *args):
        entries.append(ladder.states[-1].copy())
        return mh_step(ladder, *args)

    monkeypatch.setattr(sampler, "mh_step", recording)
    ladder = ChainLadder.create(BOX3, 21, exponents=(-2, -1, 0))
    out = run(ladder, target, sched, progress=None)
    every_sweep = np.array(entries[1:] + [ladder.states[-1]])
    burn = int(sched.phase2_steps * sched.burn_in_fraction)
    expected = every_sweep[sched.phase1_steps + burn::sched.thin]
    assert burn == 300 and len(expected) == sched.retained_count == 101
    np.testing.assert_array_equal(out.samples, expected)


def test_run_memory_follows_the_retained_draws_not_the_sweeps():
    import tracemalloc

    def target(X):
        return -0.5 * np.sum(X * X, axis=1)

    box = np.array([[-1.0, 1.0]] * 5)
    sched = McmcSchedule(phase1_steps=0, phase2_steps=20_000, phase2_var=0.01, thin=100)
    ladder = ChainLadder.create(box, 4)
    assert ladder.n_chains == 5
    tracemalloc.start()
    try:
        out = run(ladder, target, sched, progress=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.samples.shape == (100, 5)
    assert peak < 1_000_000


def test_run_deterministic_reruns():
    target = _gauss_target([1.0, -1.0, 0.5], 0.5)
    sched = McmcSchedule(phase1_steps=200, phase2_steps=2000, phase1_var=0.05,
                         phase2_var=0.05, thin=5)
    outs = []
    for _ in range(2):
        ladder = ChainLadder.create(BOX3, 77)
        outs.append(run(ladder, rows(target), sched, progress=None))
    np.testing.assert_array_equal(outs[0].samples, outs[1].samples)
    np.testing.assert_array_equal(outs[0].swap_rates, outs[1].swap_rates)
    for phase in ("phase1", "phase2"):
        np.testing.assert_array_equal(outs[0].acceptance_rates[phase],
                                      outs[1].acceptance_rates[phase])

    other = run(ChainLadder.create(BOX3, 78), rows(target),
                McmcSchedule(phase1_steps=200, phase2_steps=2000, phase1_var=0.05,
                             phase2_var=0.05, thin=5), progress=None)
    assert not np.array_equal(outs[0].samples, other.samples)


def test_run_caches_stay_coherent():
    target = _gauss_target([0.0, 0.0, 0.0], 1.0)
    sched = McmcSchedule(phase1_steps=100, phase2_steps=500, phase1_var=0.1,
                         phase2_var=0.1, thin=5)
    ladder = ChainLadder.create(BOX3, 5)
    run(ladder, rows(target), sched, progress=None)
    for i in range(ladder.n_chains):
        assert ladder.log_posts[i] == pytest.approx(target(ladder.states[i]), abs=1e-12)


def test_run_initial_state_honored():
    gauss = _gauss_target([0.0], 0.2)

    def target(x):  # -inf outside BOX1, as a log prior scores it
        return gauss(x) if np.all(np.abs(x) <= 10.0) else -np.inf

    sched = McmcSchedule(phase1_steps=0, phase2_steps=10, phase2_var=1e-12,
                         burn_in_fraction=0.0, thin=1)
    ladder = ChainLadder.create(BOX1, 9, exponents=(0,))
    ladder.states[-1] = 0.125
    out = run(ladder, rows(target), sched, progress=None)
    np.testing.assert_allclose(out.samples, 0.125, atol=1e-5)
    # an out-of-box start is redrawn once from the chain's own stream
    ladder = ChainLadder.create(BOX1, 9, exponents=(0,))
    redraw = ChainLadder.create(BOX1, 9, exponents=(0,)).rngs[0].uniform(-10.0, 10.0)
    ladder.states[-1] = 99.0
    out = run(ladder, rows(target), sched, progress=None)
    np.testing.assert_allclose(out.samples, redraw, atol=1e-5)


def test_acceptance_rate_decreases_with_variance():
    target = _gauss_target([0.0, 0.0, 0.0], 0.5)
    rates = []
    for var in (0.01, 0.25, 4.0):
        sched = McmcSchedule(phase1_steps=0, phase2_steps=4000, phase2_var=var,
                             thin=10)
        ladder = ChainLadder.create(BOX3, 21, exponents=(0,))
        ladder.states[-1] = 0.0
        out = run(ladder, rows(target), sched, progress=None)
        rates.append(out.acceptance_rates["phase2"][0])
    assert rates[0] >= rates[1] >= rates[2]


def test_ladder_validation():
    with pytest.raises(ValueError):
        ChainLadder.create(BOX1, 0, exponents=(0, 1))
    with pytest.raises(ValueError):
        ChainLadder.create(BOX1, 0, exponents=(-1, -1, 0))
    for base in (0.5, 1.0, float("nan")):  # betas [4, 2, 1] at 0.5: hot chains colder
        with pytest.raises(ValueError, match="base"):
            ChainLadder.create(BOX1, 0, exponents=(-2, -1, 0), base=base)
    ladder = ChainLadder.create(BOX3, 0)
    assert ladder.n_chains == 5
    np.testing.assert_allclose(ladder.betas, 5.0 ** np.arange(-4.0, 1.0))
    for s in ladder.states:
        assert np.all(s >= -10.0) and np.all(s <= 10.0)
    assert not np.array_equal(ladder.states[0], ladder.states[1])


def test_three_state_stationary_distribution():
    # piecewise-constant target over three unit cells; long-run occupation
    # must match the cell probabilities
    probs = np.array([0.2, 0.3, 0.5])
    logp = np.log(probs)

    def target(x):
        v = x[0]
        if not (0.0 <= v < 3.0):
            return -np.inf
        return float(logp[int(v)])

    sched = McmcSchedule(phase1_steps=0, phase2_steps=1_000_000, phase2_var=1.0,
                         burn_in_fraction=0.0, thin=1)
    ladder = ChainLadder.create(np.array([[0.0, 3.0]]), 31, exponents=(0,))
    out = run(ladder, rows(target), sched, progress=None)
    occupancy = np.bincount(out.samples[:, 0].astype(int), minlength=3) / len(out.samples)
    np.testing.assert_allclose(occupancy, probs, atol=0.01)


def test_tempering_crosses_separated_modes():
    # two narrow modes eight sigma-units apart: the tempered ladder visits
    # both, a single unit-temperature chain stays trapped
    def target(x):
        v = float(x[0])
        return float(np.logaddexp(-0.5 * ((v - 4.0) / 0.1) ** 2,
                                  -0.5 * ((v + 4.0) / 0.1) ** 2))

    sched = McmcSchedule(phase1_steps=1000, phase2_steps=20_000, phase1_var=0.09,
                         phase2_var=0.09, thin=4)
    ladder = ChainLadder.create(BOX1, 11)
    tempered = run(ladder, rows(target), sched, progress=None).samples[:, 0]
    frac_tempered = np.mean(tempered > 0.0)
    assert 0.1 <= frac_tempered <= 0.9

    single = run(ChainLadder.create(BOX1, 11, exponents=(0,)), rows(target),
                 sched, progress=None).samples[:, 0]
    frac_single = min(np.mean(single > 0.0), np.mean(single < 0.0))
    assert frac_single < 0.01


def test_progress_lines_on_given_stream():
    import io

    target = _gauss_target([0.0], 1.0)
    sched = McmcSchedule(phase1_steps=10_000, phase2_steps=10_000, phase1_var=0.1,
                         phase2_var=0.1, thin=100)
    stream = io.StringIO()
    out = run(ChainLadder.create(BOX1, 2, exponents=(0,)), rows(target), sched,
              progress=stream)
    lines = [ln for ln in stream.getvalue().splitlines() if ln.startswith("[mcmc]")]
    assert len(lines) == 2
    assert "acc=" in lines[0]
    # one chain has no exchange pair: no swap rates, as in its SampleSet
    assert all(ln.endswith(" swap=[]") for ln in lines)
    assert out.swap_rates.tolist() == []


def test_sample_set_is_plain_data():
    s = SampleSet(np.zeros((2, 3)), {"phase1": np.zeros(1), "phase2": np.zeros(1)},
                  np.zeros(0))
    assert s.samples.shape == (2, 3)


def _reference_sweep(ladder, target, var):
    """Chain-by-chain update with one scalar target call per chain.

    This is the update mh_step's batched sweep replaced; the two must
    move every chain identically.
    """
    flags = []
    for i, rng in enumerate(ladder.rngs):
        x = ladder.states[i]
        xp = x + np.sqrt(var) * rng.standard_normal(len(x))
        lp = target(xp)
        beta = ladder.base ** ladder.exponents[i]
        delta = lp - float(ladder.log_posts[i])
        accept = bool(delta > 0 or np.log(rng.random()) < beta * delta)
        if accept:
            ladder.states[i] = xp
            ladder.log_posts[i] = lp
        flags.append(accept)
    return flags


def test_sweep_matches_per_chain_reference():
    gauss = _gauss_target([0.2, -0.1, 0.0], 0.3)

    def target(x):  # a support edge inside the box exercises -inf proposals
        return gauss(x) if np.all(np.abs(x) < 0.8) else -np.inf

    box = np.array([[-1.0, 1.0]] * 3)
    batched, reference = ChainLadder.create(box, 4), ChainLadder.create(box, 4)
    for ladder in (batched, reference):
        ladder.log_posts[:] = [target(x) for x in ladder.states]
    rejected = 0
    for _ in range(400):
        flags = mh_step(batched, rows(target), 0.05)
        assert flags.tolist() == _reference_sweep(reference, target, 0.05)
        rejected += int(np.sum(~flags))
    assert rejected > 0
    np.testing.assert_array_equal(batched.states, reference.states)
    np.testing.assert_array_equal(batched.log_posts, reference.log_posts)


def test_run_scores_each_sweep_in_one_call():
    shapes = []
    gauss = rows(_gauss_target([0.0, 0.0, 0.0], 1.0))

    def target(X):
        shapes.append(X.shape)
        return gauss(X)

    sched = McmcSchedule(phase1_steps=4, phase2_steps=6, phase1_var=0.1, phase2_var=0.1,
                         thin=1)
    ladder = ChainLadder.create(BOX3, 3)
    run(ladder, target, sched, progress=None)
    n = ladder.n_chains
    assert shapes[:n] == [(1, 3)] * n  # each chain's starting state, scored on its own
    assert shapes[n:] == [(n, 3)] * (sched.phase1_steps + sched.phase2_steps)
