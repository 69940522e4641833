"""Tests of the benchmark's own arithmetic: ESS, tracer self times, node pairs."""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import ess  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from heatinfer import field, harness  # noqa: E402
from heatinfer.field import SensorArray, Wall  # noqa: E402
from heatinfer.shapes import HeaterShape  # noqa: E402
from tracing import Tracer  # noqa: E402


def ar1(phi, n, seed):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_integrated_time_matches_ar1(phi):
    tau = (1.0 + phi) / (1.0 - phi)
    x = ar1(phi, 200_000, seed=7)
    # relative standard error is about sqrt(2 (2M + 1) / n) with M ~ 5 tau
    assert ess.integrated_time(x) == pytest.approx(tau, rel=0.1)
    assert ess.effective_size(x) == pytest.approx(len(x) / ess.integrated_time(x))


def test_constant_series_has_one_effective_draw():
    assert ess.effective_size(np.full(500, 0.25)) == pytest.approx(1.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 3.0
        traced_inner()

    traced_inner = tracer.wrap(inner, "inner")
    tracer.wrap(outer, "outer", keep_spans=True)()
    assert tracer.layers["outer"] == [1, 8.0, 4.0]
    assert tracer.layers["inner"] == [2, 4.0, 4.0]
    assert tracer.spans == [("outer", 0.0, 8.0, None)]
    assert sum(s[2] for s in tracer.layers.values()) == tracer.total("outer")


def test_failing_call_is_still_timed_and_patch_is_undone():
    clock = FakeClock()
    tracer = Tracer(clock)

    class Owner:
        @staticmethod
        def boom():
            clock.now += 1.5
            raise RuntimeError("boom")

    original = Owner.boom
    tracer.patch(Owner, "boom", "boom")
    with pytest.raises(RuntimeError):
        Owner.boom()
    tracer.restore()
    assert Owner.boom is original
    assert tracer.layers["boom"] == [1, 1.5, 1.5]


def circle(x0, y0, r=0.5):
    return (HeaterShape((r, 0.0), (x0, y0)), 1.0)


def traced_counts(call):
    tracer, counts = Tracer(), workloads.LayerCounts()
    workloads.install(tracer, counts)
    try:
        call()
    finally:
        tracer.restore()
    return tracer, counts


def test_observe_node_pairs_count_sensors_nodes_and_images():
    heaters = [circle(-0.6, 1.0), circle(0.6, 1.2)]
    sensors = SensorArray(np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
    _, counts = traced_counts(lambda: field.observe(heaters, sensors, 64))
    assert counts.observe_pairs == 3 * 64 * 2
    wall = SensorArray(sensors.points, Wall.ADIABATIC_Y0)
    _, counts = traced_counts(lambda: field.observe(heaters, wall, 64))
    assert counts.observe_pairs == 3 * 64 * 2 * 2


def test_grid_node_pairs_follow_refinement():
    heaters = [circle(0.0, 1.0)]
    far = lambda: harness.field_grid(heaters, (3, 4, 3, 4), (4, 5), quad_n=64)  # noqa: E731
    _, counts = traced_counts(far)
    assert counts.grid_pairs == 4 * 5 * 64
    # cell centres 0.05 from the circle force the doubled quadrature
    near = lambda: harness.field_grid(heaters, (-1, 1, 0, 2), (20, 20), quad_n=64)  # noqa: E731
    tracer, counts = traced_counts(near)
    assert counts.grid_pairs == 20 * 20 * 128
    metrics = workloads.layer_metrics(tracer, counts, 1, 1.0, 0)
    assert metrics["field.field_grid.node_pairs"] == (20 * 20 * 128, "count")
    assert metrics["field.field_grid.bytes"] == (8.0 * 20 * 20 * 128, "B")


def test_inputs_follow_the_seed():
    assert workloads.experiment_seeds(3, "single_desk") == \
        workloads.experiment_seeds(3, "single_desk")
    assert workloads.experiment_seeds(3, "single_desk") != \
        workloads.experiment_seeds(4, "single_desk")
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    config = harness.load_config(os.path.join(root, "configs", "two_heaters.json"))
    draws = workloads.refit_draws(config, 5)
    assert draws.shape == (workloads.REFIT_DRAWS, 10)
    assert np.array_equal(draws, workloads.refit_draws(config, 5))
    assert np.all(draws[:, 2] <= draws[:, 7])


def traced_run(layer_s, op_s):
    """A traced operation timed at op_s whose one traced layer took layer_s."""
    clock = FakeClock()
    tracer = Tracer(clock)

    def main():
        clock.now += layer_s

    tracer.wrap(main, "cli.main")()
    records = [{"seconds": 1.0, "traced": False, "facts": {}},
               {"seconds": op_s, "traced": True, "facts": {}}]
    return run.traced_metrics(records, tracer, workloads.LayerCounts())


def test_self_times_must_add_up_to_the_operation_time():
    metrics, problem = traced_run(1.999, 2.0)
    assert problem is None
    assert metrics["trace.unattributed_frac"][0] == pytest.approx(0.0005)
    # time outside every traced layer, or a layer counted twice, fails
    assert traced_run(1.9, 2.0)[1] is not None
    assert traced_run(2.1, 2.0)[1] is not None


def test_reported_metrics_match_benchmark_json():
    metrics, problem = traced_run(2.0, 2.0)
    assert problem is None
    assert metrics["trace.overhead_frac"] == (1.0, "ratio")
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                           "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {e["name"]: e["unit"] for e in doc["per_layer"]} == \
        {name: unit for name, (_, unit) in metrics.items()}
    assert [e["name"] for e in doc["end_to_end"]] == list(run.END_TO_END)
