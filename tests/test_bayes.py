import collections
import json
import os
from functools import partial

import numpy as np
import pytest

from heatinfer import bayes
from heatinfer.bayes import (BLOCK, Observation, StateSpec, canonicalize,
                             log_likelihood, log_posterior, log_prior,
                             heaters_from, make_log_posterior, pack)
from heatinfer.field import (FieldEvaluationError, SensorArray, Wall, WallGeometryError,
                             observe)
from heatinfer.harness import parse_config, synthesize
from heatinfer.sampler import ChainLadder, McmcSchedule, run
from heatinfer.shapes import DegenerateShapeError, HeaterShape

TRUTH = [0.5, 0.8, 1.0, 0.5, 0.25]
SENSORS = SensorArray([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])


def _clean_obs(state=TRUTH, sensors=SENSORS, sigma=5e-4):
    vals = observe(heaters_from(pack([state]), 1), sensors)
    return Observation(vals, sigma)


def test_pack_single():
    np.testing.assert_array_equal(pack([TRUTH]), [0.5, 0.8, 1.0, 0.5, 0.25])


def test_pack_heaters_from_roundtrip():
    rng = np.random.default_rng(5)
    states = rng.uniform(0.1, 1.0, (3, 5))
    assert heaters_from(pack(states), 3) == [(HeaterShape((c1, c2), (x0, y0)), q)
                                             for x0, y0, q, c1, c2 in states]


def test_pack_two_heaters_order():
    a = [0.5, 0.8, 1.0, 0.28, 0.14]
    b = [-0.6, 0.6, 2.0, 0.2, 0.0]
    v = pack([a, b])
    assert v.shape == (10,)
    np.testing.assert_array_equal(v[:5], a)
    np.testing.assert_array_equal(v[5:], b)


def test_heaters_from_length_mismatch():
    with pytest.raises(ValueError):
        heaters_from(np.zeros(7), 1)


def test_canonicalize_sorts_by_strength():
    spec = StateSpec.create(2)
    x = pack([[0.1, 0.5, 2.0, 0.3, 0.0],
              [-0.4, 0.9, 1.0, 0.2, 0.1]])
    got = canonicalize(x, spec)
    assert got[2] == 1.0 and got[7] == 2.0
    np.testing.assert_array_equal(np.sort(got.reshape(2, 5), axis=0),
                                  np.sort(x.reshape(2, 5), axis=0))


def test_canonicalize_idempotent_and_tie_rule():
    spec = StateSpec.create(2)
    x = pack([[0.3, 0.5, 1.0, 0.3, 0.0],
              [-0.3, 0.5, 1.0, 0.3, 0.0]])
    once = canonicalize(x, spec)
    assert once[0] == -0.3  # equal q: lower x0 first
    np.testing.assert_array_equal(canonicalize(once, spec), once)


def test_log_prior_flat_inside():
    spec = StateSpec.create(1)
    assert log_prior(pack([TRUTH]), spec) == 0.0


def test_log_prior_half_plane():
    spec = StateSpec.create(1)
    assert log_prior(pack([[0.5, -0.1, 1.0, 0.5, 0.0]]), spec) == -np.inf


def test_log_prior_out_of_box():
    spec = StateSpec.create(1)
    assert log_prior(pack([[3.0, 0.8, 1.0, 0.5, 0.0]]), spec) == -np.inf
    # an infinite component lies outside the box; a NaN compares as inside
    # and raises, as in log_likelihood and log_posterior
    obs = _clean_obs()
    for s in (spec, StateSpec.create(1, known={3: (0.5, 1e-6), 4: (0.25, 1e-6)})):
        for i in range(BLOCK):
            x = pack([TRUTH])
            for bad in (np.inf, -np.inf):
                x[i] = bad
                assert log_prior(x, s) == log_posterior(x, obs, SENSORS, s) == -np.inf
            x[i] = np.nan
            for score in (log_prior, partial(log_likelihood, obs=obs, sensors=SENSORS),
                          partial(log_posterior, obs=obs, sensors=SENSORS)):
                with pytest.raises(ValueError, match="states must be finite"):
                    score(x, spec=s)


def test_log_prior_sharp_gaussian():
    spec = StateSpec.create(1, known={4: (0.0, 1e-6)})
    x = pack([[0.5, 0.8, 1.0, 0.5, 1e-3]])
    assert log_prior(x, spec) == pytest.approx(-0.5, rel=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        StateSpec.create(1, known={4: (0.0, -1.0)})
    with pytest.raises(ValueError):
        StateSpec.create(1, block_bounds=((1.0, -1.0),) * 5)
    with pytest.raises(ValueError):
        StateSpec.create(1, block_bounds=((-2, 2), (-1, 2), (0, 10), (0, 1), (-0.5, 0.5)))
    # a NaN known mean or variance would score every state NaN, and a NaN
    # bound would pass the order check and read as no bound at all
    for known in ({4: (np.nan, 1e-6)}, {4: (0.0, np.nan)}):
        with pytest.raises(ValueError, match="known component 4"):
            StateSpec.create(1, known=known)
    for k in range(2):
        bounds = [list(b) for b in ((-2, 2), (0, 2), (0, 10), (0, 1), (-0.5, 0.5))]
        bounds[0][k] = np.nan
        with pytest.raises(ValueError, match="bounds must be finite"):
            StateSpec.create(1, block_bounds=bounds)


def test_likelihood_zero_at_truth():
    obs = _clean_obs()
    spec = StateSpec.create(1)
    assert log_likelihood(pack([TRUTH]), obs, SENSORS, spec) == pytest.approx(0.0, abs=1e-18)


def test_likelihood_unit_residual():
    obs = _clean_obs()
    shifted = Observation(obs.values + np.array([obs.noise_sigma, 0.0, 0.0]),
                          obs.noise_sigma)
    spec = StateSpec.create(1)
    assert log_likelihood(pack([TRUTH]), shifted, SENSORS, spec) == pytest.approx(-0.5, rel=1e-9)


def test_likelihood_noise_scaling():
    obs = _clean_obs()
    shifted = Observation(obs.values + 3e-4, obs.noise_sigma)
    spec = StateSpec.create(1)
    base = log_likelihood(pack([TRUTH]), shifted, SENSORS, spec)
    wider = Observation(shifted.values, obs.noise_sigma * 2.0)
    assert log_likelihood(pack([TRUTH]), wider, SENSORS, spec) == pytest.approx(base / 4.0,
                                                                                rel=1e-12)


def test_likelihood_monotone_in_residual():
    obs = _clean_obs()
    spec = StateSpec.create(1)
    previous = 0.0
    for bump in (1e-4, 2e-4, 4e-4):
        shifted = Observation(obs.values + np.array([bump, 0.0, 0.0]), obs.noise_sigma)
        ll = log_likelihood(pack([TRUTH]), shifted, SENSORS, spec)
        assert ll < previous
        previous = ll


def test_strength_area_degeneracy():
    # circles sharing q * c1^2 with exterior sensors are indistinguishable
    obs = Observation(observe(heaters_from(pack([[0.5, 0.8, 1.0, 0.5, 0.0]]), 1),
                              SENSORS), 5e-4)
    spec = StateSpec.create(1, known={4: (0.0, 1e-6)})
    lls = []
    for q in (0.7, 1.0, 1.8, 3.0):
        c1 = np.sqrt(0.25 / q)
        x = pack([[0.5, 0.8, q, c1, 0.0]])
        lls.append(log_likelihood(x, obs, SENSORS, spec))
    assert max(lls) - min(lls) < 1e-6


def test_posterior_truth_noiseless():
    obs = _clean_obs()
    spec = StateSpec.create(1)
    assert log_posterior(pack([TRUTH]), obs, SENSORS, spec) == pytest.approx(0.0, abs=1e-18)


def test_posterior_short_circuits_forward_model(monkeypatch):
    calls = {"n": 0}
    real = bayes.fieldmod.stack_rows

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(bayes.fieldmod, "stack_rows", counting)
    obs = _clean_obs()
    spec = StateSpec.create(1)
    out = log_posterior(pack([[5.0, 0.8, 1.0, 0.5, 0.25]]), obs, SENSORS, spec)
    assert out == -np.inf
    assert calls["n"] == 0


def test_posterior_perturbed_truth_direct_evaluation():
    obs = _clean_obs()
    spec = StateSpec.create(1)
    x = pack([[0.55, 0.8, 1.0, 0.5, 0.25]])
    # direct evaluation of the same definition, independent of the wiring
    h = observe(heaters_from(x, 1), SENSORS)
    expect = -0.5 * float(np.sum((obs.values - h) ** 2)) / obs.noise_sigma ** 2
    got = log_posterior(x, obs, SENSORS, spec)
    assert np.isfinite(got) and got < -1.0
    assert got == pytest.approx(expect, rel=1e-12)


def test_posterior_invariant_under_block_permutation():
    a = [0.5, 0.8, 1.0, 0.28, 0.14]
    b = [-0.6, 0.6, 2.0, 0.2, 0.0]
    sensors = SensorArray(np.column_stack([np.linspace(-1, 1, 8), np.zeros(8)]))
    obs = Observation(observe(heaters_from(pack([a, b]), 2), sensors), 5e-4)
    spec = StateSpec.create(2)
    pa = log_posterior(canonicalize(pack([a, b]), spec), obs, sensors, spec)
    pb = log_posterior(canonicalize(pack([b, a]), spec), obs, sensors, spec)
    assert pa == pytest.approx(pb, rel=1e-14)


def test_geometry_failure_maps_to_rejection():
    # c1 = 0 slips through the box but cannot build a shape
    spec = StateSpec.create(1)
    obs = _clean_obs()
    x = pack([TRUTH])
    x[3] = 0.0
    assert log_likelihood(x, obs, SENSORS, spec) == -np.inf


def test_programming_error_is_not_a_rejection(monkeypatch):
    # only geometry failures mean -inf; any other error must surface
    def broken(*args, **kwargs):
        raise ValueError("bug in the forward model")

    obs = _clean_obs()
    monkeypatch.setattr(bayes.fieldmod, "stack_rows", broken)
    with pytest.raises(ValueError, match="bug in the forward model"):
        log_posterior(pack([TRUTH]), obs, SENSORS, StateSpec.create(1))


def test_wall_crossing_maps_to_rejection():
    sensors = SensorArray([[-1.0, 0.0], [1.0, 0.0]], wall=bayes.fieldmod.Wall.ADIABATIC_Y0)
    obs = Observation(np.zeros(2), 5e-4)
    spec = StateSpec.create(1)
    x = pack([[0.0, 0.2, 1.0, 0.5, 0.0]])  # dips below the wall
    assert log_likelihood(x, obs, sensors, spec) == -np.inf


def test_observation_validation():
    with pytest.raises(ValueError):
        Observation([0.0], -1e-3)
    # a NaN sigma would score every state -inf, an infinite one every state 0
    for sigma in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="noise_sigma must be finite and non-negative"):
            Observation([0.0], sigma)
    with pytest.raises(ValueError):
        Observation([np.nan], 1e-3)
    zero_noise = Observation([0.0, 0.0], 0.0)  # allowed for synthesis
    spec = StateSpec.create(1)
    sensors = SensorArray([[-1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        log_likelihood(pack([TRUTH]), zero_noise, sensors, spec)


def test_make_log_posterior_closure():
    obs = _clean_obs()
    spec = StateSpec.create(1)
    target = make_log_posterior(obs, SENSORS, spec)
    x = pack([TRUTH])
    assert target(x[None]).shape == (1,)
    assert target(x[None])[0] == log_posterior(x, obs, SENSORS, spec)


def _list_sort_canonical(x, n_heaters):
    """One state's blocks sorted by a stable list.sort on (q, x0, y0)."""
    blocks = [x[BLOCK * h:BLOCK * (h + 1)] for h in range(n_heaters)]
    blocks.sort(key=lambda b: (b[2], b[0], b[1]))
    return np.concatenate(blocks)


def test_canonicalize_rows_follow_the_list_sort_rule():
    spec = StateSpec.create(3)
    rng = np.random.default_rng(11)
    X = rng.uniform(0.1, 1.0, (200, 15))
    # coarse values force ties on q, on q and x0, and on all three keys,
    # where only a stable sort keeps the blocks' c1, c2 in input order
    X[:100, 2::BLOCK] = rng.integers(0, 2, (100, 3))
    X[:50, 0::BLOCK] = rng.integers(0, 2, (50, 3))
    X[:20, 1::BLOCK] = rng.integers(0, 2, (20, 3))
    got = canonicalize(X, spec)
    assert got.shape == X.shape
    for x, row in zip(X, got):
        np.testing.assert_array_equal(row, _list_sort_canonical(x, 3))
        np.testing.assert_array_equal(canonicalize(x, spec), row)


def _likelihood_alone(x, obs, sensors):
    """Log likelihood of one state through the one-configuration forward model."""
    try:
        h = observe(heaters_from(x, len(x) // BLOCK), sensors)
    except (DegenerateShapeError, WallGeometryError, FieldEvaluationError):
        return -np.inf
    r = obs.values - h
    return -0.5 * float(r @ r) / (obs.noise_sigma ** 2)


def _scored_alone(x, obs, sensors, spec):
    """Log posterior of one state through the one-configuration forward model."""
    lp = log_prior(x, spec)
    if lp == -np.inf:
        return -np.inf
    return lp + _likelihood_alone(x, obs, sensors)


def _assert_rows_score_alone(X, obs, sensors, spec):
    got = make_log_posterior(obs, sensors, spec)(X)
    assert got.shape == (len(X),)
    for x, g in zip(X, got):
        assert g == log_posterior(x, obs, sensors, spec)
        assert g == _scored_alone(x, obs, sensors, spec)
    return got


def test_batched_rows_equal_scalar_scores():
    obs = _clean_obs()
    spec = StateSpec.create(1)
    X = np.array([
        pack([TRUTH]),
        [3.0, 0.8, 1.0, 0.5, 0.25],  # outside the box
        [0.5, -0.1, 1.0, 0.5, 0.25],  # below the half-plane
        [0.5, 0.8, 1.0, 0.0, 0.0],  # c1 = 0: degenerate shape
        [0.0, 0.31, 1.0, 0.3, 0.0],  # 0.01 from sensor (0, 0): doubled nodes
        [0.55, 0.8, 1.0, 0.5, 0.25],  # far from every sensor
    ])
    got = _assert_rows_score_alone(X, obs, SENSORS, spec)
    assert np.isfinite(got[[0, 4, 5]]).all() and np.all(got[1:4] == -np.inf)


def test_batched_rows_equal_scalar_scores_on_a_node():
    # the t = 0 node of the first row sits exactly on the sensor at (0, 0)
    obs = _clean_obs()
    spec = StateSpec.create(1, half_plane=False)
    X = np.array([[-0.5, 0.0, 1.0, 0.25, 0.25], pack([TRUTH]), [0.0, 0.31, 1.0, 0.3, 0.0]])
    assert np.isfinite(_assert_rows_score_alone(X, obs, SENSORS, spec)).all()


def test_batched_rows_equal_scalar_scores_two_heaters():
    sensors = SensorArray(np.column_stack([np.linspace(-1, 1, 8), np.zeros(8)]))
    a, b = [0.5, 0.8, 1.0, 0.28, 0.14], [-0.6, 0.6, 2.0, 0.2, 0.0]
    obs = Observation(observe(heaters_from(pack([a, b]), 2), sensors), 5e-4)
    spec = StateSpec.create(2)
    near = [-1.0 / 7.0, 0.21, 2.0, 0.2, 0.0]  # 0.01 above a sensor
    X = np.array([pack([a, b]), pack([a, near]), pack([near, b]),
                  pack([a, [-0.6, 0.6, 2.0, 0.0, 0.0]]), pack([b, a])])
    got = _assert_rows_score_alone(X, obs, sensors, spec)
    assert np.isfinite(got[[0, 1, 2, 4]]).all() and got[3] == -np.inf


def test_wall_mode_ladder_matches_scalar_scores():
    sensors = SensorArray(np.column_stack([np.linspace(-1, 1, 5), np.zeros(5)]), Wall.ADIABATIC_Y0)
    truth = [0.2, 0.35, 1.0, 0.3, 0.0]
    obs = Observation(observe(heaters_from(pack([truth]), 1), sensors), 5e-4)
    spec = StateSpec.create(1, known={4: (0.0, 1e-6)})
    sched = McmcSchedule(phase1_steps=40, phase1_var=4e-3, phase2_steps=160, phase2_var=4e-3,
                         thin=1)
    geometry_rejects = []

    def alone(X):
        scores = np.array([_scored_alone(x, obs, sensors, spec) for x in X])
        geometry_rejects.extend(s == -np.inf and log_prior(x, spec) > -np.inf
                                for x, s in zip(X, scores))
        return scores

    ladders = [ChainLadder.create(spec.bounds, 5) for _ in range(2)]
    for ladder in ladders:
        ladder.states[-1] = pack([truth])
    batched = run(ladders[0], make_log_posterior(obs, sensors, spec), sched, progress=None)
    scalar = run(ladders[1], alone, sched, progress=None)
    np.testing.assert_array_equal(batched.samples, scalar.samples)
    for phase in ("phase1", "phase2"):
        np.testing.assert_array_equal(batched.acceptance_rates[phase],
                                      scalar.acceptance_rates[phase])
    assert any(geometry_rejects)  # some proposals reached below the wall
    X = np.array([pack([truth]), [0.0, 0.2, 1.0, 0.5, 0.0], [0.5, 0.31, 1.0, 0.3, 0.0]])
    got = _assert_rows_score_alone(X, obs, sensors, spec)
    assert got[1] == -np.inf and np.isfinite(got[[0, 2]]).all()


def _unfolded_log_prior(x, spec):
    """The prior as its parts state it: the box, c_1 > 0 and the half-plane
    y0 > 0 tested one by one, plus the sharp Gaussians."""
    lo, hi = spec.bounds[:, 0], spec.bounds[:, 1]
    if np.any(x < lo) or np.any(x > hi) or np.any(x[3::BLOCK] <= 0.0):
        return -np.inf
    if spec.half_plane and np.any(x[1::BLOCK] <= 0.0):
        return -np.inf
    idx = sorted(spec.known)
    d = x[idx] - np.array([spec.known[i][0] for i in idx])
    return -0.5 * float(np.sum(d * d / np.array([spec.known[i][1] for i in idx])))


EDGE_ROWS = np.array([
    TRUTH,
    [-2.0, 1.5, 0.0, 0.5, -0.5],  # x0, q and c2 on their lower bounds
    [2.0, 2.0, 10.0, 1.0, 0.5],  # every component on its upper bound
    [0.5, 0.0, 1.0, 0.5, 0.25],  # y0 = 0: on its bound, not above the half-plane
    [0.5, 5e-324, 1.0, 0.5, 0.25],  # the smallest y0 above the half-plane
    [0.5, 0.8, 1.0, 0.0, 0.25],  # c1 = 0
    [0.5, 0.8, 1.0, -0.0, 0.25],  # c1 = -0
    [0.5, 0.8, 1.0, 5e-324, 0.25],  # the smallest c1 > 0
    [-0.0, 0.8, 1.0, 0.5, -0.0],  # signed zeros inside the box
    [np.inf, 0.8, 1.0, 0.5, 0.25],
    [0.5, 0.8, -np.inf, 0.5, 0.25],
    [0.5, 0.8, 1.0, 0.5, np.inf],
    [0.0, 0.45, 1.0, 0.3, 0.2],  # sensor (0, 0) inside the reach, 0.016 below the boundary
    [-0.5, 0.0, 1.0, 0.25, 0.25],  # the t = 0 node sits exactly on sensor (0, 0)
])


@pytest.mark.parametrize("half_plane", [True, False])
@pytest.mark.parametrize("wall", [Wall.UNBOUNDED, Wall.ADIABATIC_Y0])
def test_target_scores_the_prior_edges_as_each_row_alone(wall, half_plane):
    sensors = SensorArray(SENSORS.points, wall)
    obs = Observation(observe(heaters_from(pack([TRUTH]), 1), sensors), 5e-4)
    spec = StateSpec.create(1, known={4: (0.25, 1e-2)}, half_plane=half_plane)
    got = make_log_posterior(obs, sensors, spec)(EDGE_ROWS)
    for x, g in zip(EDGE_ROWS, got):
        assert g.tobytes() == np.float64(log_posterior(x, obs, sensors, spec)).tobytes()
        lp = _unfolded_log_prior(x, spec)
        alone = lp if lp == -np.inf else lp + _likelihood_alone(x, obs, sensors)
        assert g.tobytes() == np.float64(alone).tobytes()
    # the bounds themselves are inside; c1 <= 0 and inf are not
    assert np.isfinite(got[[0, 1, 2, 7, 8, 12]]).all()
    assert (got[[5, 6, 9, 10, 11]] == -np.inf).all()
    # a heater at y0 ~ 0 crosses the wall; y0 = 0 is also below the half-plane
    unbounded = wall is Wall.UNBOUNDED
    assert np.isfinite(got[4]) == unbounded
    assert np.isfinite(got[[3, 13]]).tolist() == [unbounded and not half_plane] * 2


CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


def _closed_form(shape, q, points):
    """The field module docstring's J = 2 closed form, op for op, with the
    offsets p' = (dx, dy) and r2 = |p'|^2 of the points from the center."""
    (c1, c2), (x0, y0) = shape.c, shape.center
    dx, dy = points[:, 0] - x0, points[:, 1] - y0
    r2 = dx * dx + dy * dy
    acc = (c1 * c1 + c2 * 2.0 * c2) * (0.5 * np.log(r2)) - (c1 * c2 * c1) * (dx / r2)
    return -0.5 * q * acc, r2 > (c1 + abs(c2)) ** 2


def _summed_alone(x, obs, sensors, spec):
    """_scored_alone of a state the target accepts, with its heaters and
    their wall images each taken alone and added from zeros in order,
    originals before images: the closed form above at the sensors outside
    a heater's reach, an unbounded observe of that heater at the others."""
    heaters = heaters_from(x, spec.n_heaters)
    if sensors.wall is Wall.ADIABATIC_Y0:
        heaters += [(HeaterShape(s.c, (s.center[0], -s.center[1])), v) for s, v in heaters]
    total = np.zeros(len(sensors))
    for heater in heaters:
        closed, outside = _closed_form(*heater, sensors.points)
        total = total + np.where(outside, closed, observe([heater], SensorArray(sensors.points)))
    r = obs.values - total
    return log_prior(x, spec) + -0.5 * float(r @ r) / (obs.noise_sigma ** 2)


def _prior_box_stacks(spec, rng, n_stacks=250, m=5):
    """Stacks (n_stacks, m, dim) drawn across the prior box, with 5 % of the
    entries on a bound, 4 % of the rows outside the box in one component and
    2 % holding one infinite entry."""
    lo, hi = spec.bounds[:, 0], spec.bounds[:, 1]
    X = rng.uniform(lo, hi, (n_stacks * m, spec.dim))
    edge = rng.random(X.shape) < 0.05
    X[edge] = np.where(rng.random(X.shape) < 0.5, lo, hi)[edge]
    rows, cols = np.arange(len(X)), rng.integers(0, spec.dim, len(X))
    out = rng.random(len(X)) < 0.04
    X[rows[out], cols[out]] = np.where(rng.random(out.sum()) < 0.5, lo[cols[out]] - 0.5,
                                       hi[cols[out]] + 0.5)
    inf = rng.random(len(X)) < 0.02
    X[rows[inf], cols[inf]] = np.where(rng.random(inf.sum()) < 0.5, -np.inf, np.inf)
    return X.reshape(n_stacks, m, spec.dim)


@pytest.mark.parametrize("half_plane", [True, False])
@pytest.mark.parametrize("wall", [False, True])
@pytest.mark.parametrize("name", ["single_heater", "two_heaters"])
def test_prior_box_stacks_score_each_row_alone(name, wall, half_plane):
    # 250 five-row stacks across the prior box of a shipped config's layout:
    # every row scores as it does alone, bit for bit, whatever the other rows
    # of its stack are: out of the box, infinite, with a sensor in a
    # heater's (or image's) reach, crossing the wall, or none of these
    with open(os.path.join(CONFIG_DIR, f"{name}.json")) as fh:
        doc = json.load(fh)
    doc["sensors"]["wall"] = wall
    doc["estimator"]["half_plane"] = half_plane
    config = parse_config(doc)
    spec, sensors, obs = config.spec, config.sensors, synthesize(config)
    target = make_log_posterior(obs, sensors, spec)
    rng = np.random.default_rng([int(wall), int(half_plane), spec.n_heaters])
    stacks = _prior_box_stacks(spec, rng)
    kinds = collections.Counter()
    for stack in stacks:
        for x, g in zip(stack, target(stack)):
            alone = _scored_alone(x, obs, sensors, spec)
            assert g.tobytes() == np.float64(alone).tobytes()
            if alone > -np.inf:
                assert g.tobytes() == np.float64(_summed_alone(x, obs, sensors, spec)).tobytes()
            b = x.reshape(-1, BLOCK)
            d2 = (sensors.points[:, 0] - b[:, 0:1]) ** 2 + (sensors.points[:, 1] - b[:, 1:2]) ** 2
            kinds["inf"] += not np.isfinite(x).all()
            kinds["out"] += log_prior(x, spec) == -np.inf
            reach = b[:, 3] + abs(b[:, 4])
            kinds["in_reach"] += bool(alone > -np.inf and (d2 <= (reach ** 2)[:, None]).any())
            kinds["finite"] += alone > -np.inf
    assert min(kinds.values()) >= 10, kinds


@pytest.mark.parametrize("wall", [Wall.UNBOUNDED, Wall.ADIABATIC_Y0])
def test_nan_inside_the_box_still_raises(wall):
    sensors = SensorArray(SENSORS.points, wall)
    obs = Observation(observe(heaters_from(pack([TRUTH]), 1), sensors), 5e-4)
    spec = StateSpec.create(1)
    X = np.array([TRUTH, TRUTH])
    X[1, 4] = np.nan  # every comparison with the bounds is False: inside the box
    with pytest.raises(ValueError, match="states must be finite"):
        make_log_posterior(obs, sensors, spec)(X)
    with pytest.raises(ValueError, match="states must be finite"):
        log_posterior(X[1], obs, sensors, spec)


def test_zero_noise_fails_when_the_target_is_built():
    zero = Observation(_clean_obs().values, 0.0)
    spec = StateSpec.create(1)
    with pytest.raises(ValueError, match="inference requires noise_sigma > 0"):
        make_log_posterior(zero, SENSORS, spec)  # before any state is scored
    with pytest.raises(ValueError, match="inference requires noise_sigma > 0"):
        log_likelihood(pack([TRUTH]), zero, SENSORS, spec)
