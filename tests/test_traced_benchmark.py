"""The traced benchmark's hooks must keep fitting the program.

perfbench/workloads.install wraps functions by module attribute name
and reads their arguments and results; a rename or a changed signature
there would only show when the benchmark runs. This runs the install
around a tiny experiment.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                                "perfbench"))

import workloads  # noqa: E402
from heatinfer import harness  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = {
    "seed": 7, "noise_sigma": 5e-4,
    "truth": [{"x0": 0.5, "y0": 0.8, "q": 1.0, "c1": 0.28, "c2": 0.14},
              {"x0": -0.6, "y0": 0.6, "q": 2.0, "c1": 0.2, "c2": 0.0}],
    "sensors": {"count": 6, "range": [-1, 1]},
    "estimator": {"known": ["c1", "c2"]},
    "schedule": {"phase1_steps": 20, "phase2_steps": 100, "thin": 1},
    "grid": {"region": [-1, 1, 0, 1.5], "resolution": [5, 4]},
}


def test_install_wraps_every_layer_and_counts_whole_sweeps(tmp_path):
    config = harness.parse_config(TINY)
    tracer, counts = Tracer(), workloads.LayerCounts()
    workloads.install(tracer, counts)  # resolves every patched name
    patches = list(tracer._patches)
    try:
        assert patches and all(getattr(owner, name) is not original
                               for owner, name, original in patches)
        report = harness.run_experiment(config, out_dir=str(tmp_path), progress=None)
    finally:
        tracer.restore()
    assert all(getattr(owner, name) is original for owner, name, original in patches)
    assert np.all(np.isfinite(report.best_mean))
    sweeps = config.schedule.phase1_steps + config.schedule.phase2_steps
    assert tracer.calls("sampler.run") == 1 and counts.sweeps == sweeps
    assert tracer.calls("sampler.mh_step") == sweeps  # one call per ladder sweep
    # canonicalization too runs once per sweep, plus the chains' starting states
    assert sweeps < tracer.calls("bayes.canonicalize") < 2 * sweeps
    assert tracer.calls("field.field_grid") == 2 and counts.grid_pairs > 0
