import csv
import dataclasses
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from heatinfer import cli, harness
from heatinfer.bayes import COMPONENT_NAMES, canonicalize, heaters_from, pack
from heatinfer.field import Wall
from heatinfer.harness import (ConfigError, fit_samples, load_config,
                               parse_config, read_samples, run_experiment,
                               sensor_line, synthesize, validate_report,
                               write_grid, write_samples)

MINIMAL = {
    "truth": [{"x0": 0.5, "y0": 0.8, "q": 1.0, "c1": 0.5, "c2": 0.25}],
    "sensors": {"count": 3, "range": [-1, 1]},
}

TINY_SCHEDULE = {"phase1_steps": 300, "phase2_steps": 1200, "thin": 10}


def _tiny_config(**overrides):
    doc = {**MINIMAL, "seed": 424, "estimator": {"known": ["c1", "c2"]},
           "schedule": dict(TINY_SCHEDULE)}
    doc.update(overrides)
    return parse_config(doc)


def test_minimal_config_defaults():
    config = parse_config(dict(MINIMAL))
    assert config.noise_sigma == 5e-4
    assert config.gmm_k == 5
    assert config.ladder_exponents == (-4, -3, -2, -1, 0)
    assert config.ladder_base == 5.0
    assert config.schedule.phase1_steps == 10_000
    assert config.schedule.phase1_var == 1e-4
    assert config.schedule.phase2_steps == 50_000
    assert config.schedule.phase2_var == 2.5e-5
    assert config.schedule.thin == 10
    assert config.seed == 0
    np.testing.assert_allclose(config.sensors.points[:, 0], [-1.0, 0.0, 1.0])


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="noise_sigma"):
        parse_config({**MINIMAL, "noise_sigma": -1.0})
    with pytest.raises(ConfigError, match="sensors"):
        parse_config({**MINIMAL, "sensors": {"points": [[0.0, 0.3]], "wall": True}})
    with pytest.raises(ConfigError, match=r"truth\[0\]"):
        parse_config({"truth": [{"x0": 0.0}], "sensors": {"count": 3}})
    with pytest.raises(ConfigError, match="c1"):
        parse_config({"truth": [{"x0": 0, "y0": 1, "q": 1, "c1": -2, "c2": 0}],
                      "sensors": {"count": 3}})
    with pytest.raises(ConfigError, match="estimator"):
        parse_config({**MINIMAL, "estimator": {"known": ["radius"]}})
    with pytest.raises(ConfigError, match="ladder"):
        parse_config({**MINIMAL, "ladder": {"exponents": [0, -1]}})
    with pytest.raises(ConfigError, match="truth"):
        parse_config({**MINIMAL,
                      "truth": [{"x0": 0.5, "y0": -0.8, "q": 1, "c1": 0.5, "c2": 0.0}]})


def test_config_canonicalizes_truth_order():
    doc = {
        "truth": [{"x0": -0.6, "y0": 0.6, "q": 2.0, "c1": 0.2, "c2": 0.0},
                  {"x0": 0.5, "y0": 0.8, "q": 1.0, "c1": 0.28, "c2": 0.14}],
        "sensors": {"count": 8},
        "estimator": {"known": ["c1", "c2"]},
    }
    config = parse_config(doc)
    assert config.truth[0, 2] == 1.0 and config.truth[1, 2] == 2.0
    # sharp priors follow the sorted order
    assert config.spec.known[3] == (0.28, 1e-6)
    assert config.spec.known[8] == (0.2, 1e-6)
    # ties on q go by x0, ties on q and x0 by y0: the rule canonicalize applies
    rows = [[0.3, 0.6, 1.0, 0.2, 0.0], [-0.3, 0.9, 1.0, 0.2, 0.1],
            [0.1, 0.9, 0.5, 0.2, 0.2], [0.1, 0.4, 0.5, 0.2, 0.3]]
    config = parse_config({"truth": [dict(zip(COMPONENT_NAMES, r)) for r in rows],
                           "sensors": {"count": 8}})
    np.testing.assert_array_equal(config.truth, [rows[3], rows[2], rows[1], rows[0]])
    np.testing.assert_array_equal(pack(config.truth), canonicalize(pack(rows), config.spec))


def test_sensor_line_layout():
    np.testing.assert_allclose(sensor_line(5, -1, 1), [-1, -0.5, 0, 0.5, 1])
    np.testing.assert_allclose(sensor_line(1, -1, 1), [0.0])
    np.testing.assert_allclose(sensor_line(2, 0, 3), [0.0, 3.0])


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(MINIMAL))
    config = load_config(str(path))
    assert config.truth[0, 3] == 0.5
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_load_config_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**MINIMAL, "schedule": {"thin": 5}}))
    config = load_config(str(path), seed=7, phase2_steps=2000)
    assert config.seed == 7
    assert config.schedule.phase2_steps == 2000 and config.schedule.thin == 5
    assert load_config(str(path)).seed == 0


def test_synthesize_zero_noise_is_exact():
    config = _tiny_config(noise_sigma=0.0)
    obs = synthesize(config)
    from heatinfer.field import observe
    clean = observe(heaters_from(pack(config.truth), len(config.truth)), config.sensors)
    np.testing.assert_array_equal(obs.values, clean)


def test_synthesize_deterministic():
    config = _tiny_config()
    a = synthesize(config)
    b = synthesize(config)
    np.testing.assert_array_equal(a.values, b.values)


def test_synthesize_noise_scale():
    config = _tiny_config()
    from heatinfer.field import observe
    clean = observe(heaters_from(pack(config.truth), len(config.truth)), config.sensors)
    resid = []
    for seed in range(4000):
        obs = synthesize(dataclasses.replace(config, seed=seed))
        resid.extend(obs.values - clean)
    assert np.std(resid) == pytest.approx(config.noise_sigma, rel=0.03)


def test_write_read_samples_bitwise(tmp_path):
    rng = np.random.default_rng(12)
    samples = rng.normal(0, 1, (40, 5)) * 10.0 ** rng.integers(-12, 3, (40, 5))
    path = tmp_path / "samples.csv"
    write_samples(samples, str(path))
    back = read_samples(str(path))
    np.testing.assert_array_equal(back, samples)
    header = path.read_text().splitlines()[0]
    assert header == "h1_x0,h1_y0,h1_q,h1_c1,h1_c2"


def test_samples_header_two_heaters(tmp_path):
    path = tmp_path / "s.csv"
    write_samples(np.zeros((2, 10)), str(path))
    assert path.read_text().splitlines()[0].split(",")[5] == "h2_x0"


def test_write_grid_meta(tmp_path):
    from heatinfer.field import FieldGrid
    grid = FieldGrid(np.arange(12.0).reshape(3, 4), (-1, 1, 0, 2), Wall.ADIABATIC_Y0)
    paths = write_grid(grid, str(tmp_path / "g.csv"))
    meta = json.loads(open(paths[1]).read())
    assert meta["nx"] * meta["ny"] == 12
    assert meta["wall"] is True
    rows = [r.split(",") for r in open(paths[0]).read().splitlines()]
    assert len(rows) == 3 and len(rows[0]) == 4
    assert float(rows[1][2]) == 6.0


def test_run_experiment_end_to_end(tmp_path):
    config = _tiny_config(grid={"region": [-1, 1, 0, 1.5], "resolution": [6, 5]})
    report = run_experiment(config, out_dir=str(tmp_path), progress=None)
    names = sorted(os.listdir(tmp_path))
    assert names == ["best_grid.csv", "best_grid.meta.json", "report.json",
                     "samples.csv", "truth_grid.csv", "truth_grid.meta.json"]
    doc = json.loads((tmp_path / "report.json").read_text())
    validate_report(doc)
    assert doc["retained"] == 60
    samples = read_samples(str(tmp_path / "samples.csv"))
    assert samples.shape == (60, 5)
    assert report.best_index == doc["best_index"]
    # retained draws all live inside the box
    lo, hi = config.spec.bounds[:, 0], config.spec.bounds[:, 1]
    assert np.all(samples >= lo) and np.all(samples <= hi)


def test_run_experiment_deterministic_bytes(tmp_path):
    config = _tiny_config()
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run_experiment(config, out_dir=str(out), progress=None)
        blobs.append(((out / "samples.csv").read_bytes(),
                      (out / "report.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_run_experiment_atomic_on_failure(tmp_path, monkeypatch):
    config = _tiny_config()

    def boom(report, path):
        raise OSError("disk full")

    monkeypatch.setattr(harness, "write_report", boom)
    with pytest.raises(OSError):
        run_experiment(config, out_dir=str(tmp_path), progress=None)
    assert os.listdir(tmp_path) == []


def test_failed_run_keeps_previous_outputs(tmp_path, monkeypatch):
    grid = {"region": [-1, 1, 0, 1.5], "resolution": [4, 3]}
    run_experiment(_tiny_config(grid=grid), out_dir=str(tmp_path), progress=None)
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert "samples.csv" in before and "truth_grid.csv" in before

    def boom(grid, path_csv):
        raise OSError("disk full")

    # a different seed would rewrite samples.csv before the grids fail
    monkeypatch.setattr(harness, "write_grid", boom)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(_tiny_config(grid=grid, seed=425), out_dir=str(tmp_path), progress=None)
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


def test_replaced_seed_seeds_the_ladder_too(tmp_path):
    # a config whose seed is replaced samples exactly as one parsed with it
    runs = {"replaced": dataclasses.replace(_tiny_config(), seed=425),
            "parsed": _tiny_config(seed=425)}
    for name, config in runs.items():
        run_experiment(config, out_dir=str(tmp_path / name), progress=None)
    np.testing.assert_array_equal(read_samples(str(tmp_path / "replaced" / "samples.csv")),
                                  read_samples(str(tmp_path / "parsed" / "samples.csv")))


def test_run_experiment_rejects_empty_truth():
    config = parse_config({"truth": [], "sensors": {"count": 3},
                           "estimator": {"n_heaters": 1}})
    with pytest.raises(ConfigError, match="no signal|truth"):
        run_experiment(config, progress=None)


def test_run_experiment_rejects_zero_noise():
    config = _tiny_config(noise_sigma=0.0)
    with pytest.raises(ConfigError, match="noise_sigma"):
        run_experiment(config, progress=None)


def test_fit_samples_matches_run(tmp_path):
    config = _tiny_config()
    report = run_experiment(config, out_dir=str(tmp_path), progress=None)
    samples = read_samples(str(tmp_path / "samples.csv"))
    refit = fit_samples(config, samples)
    np.testing.assert_allclose(refit.gmm.means, report.gmm.means, atol=1e-12)
    assert refit.best_index == report.best_index
    validate_report(refit.to_dict())


def test_validate_report_catches_damage(tmp_path):
    config = _tiny_config()
    doc = run_experiment(config, progress=None).to_dict()
    validate_report(doc)
    broken = json.loads(json.dumps(doc))
    del broken["gmm"]["weights"]
    with pytest.raises(ValueError):
        validate_report(broken)
    broken = json.loads(json.dumps(doc))
    broken["best_index"] = 99
    with pytest.raises(ValueError):
        validate_report(broken)


def _write_cfg(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_run_and_replot(tmp_path, capsys):
    doc = {**MINIMAL, "seed": 31, "estimator": {"known": ["c1", "c2"]},
           "schedule": TINY_SCHEDULE,
           "grid": {"region": [-1, 1, 0, 1.5], "resolution": [4, 4]}}
    cfg = _write_cfg(tmp_path, doc)
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "report.json"))

    # regenerate the best-estimate grid from the report without sampling
    out2 = str(tmp_path / "replot")
    rc = cli.main(["grid", "--config", cfg, "--out", out2,
                   "--report", os.path.join(out, "report.json")])
    assert rc == 0
    assert os.path.exists(os.path.join(out2, "best_grid.csv"))
    rc = cli.main(["grid", "--config", cfg, "--out", out2])
    assert rc == 0
    assert os.path.exists(os.path.join(out2, "truth_grid.csv"))


def test_cli_synth_and_fit(tmp_path):
    doc = {**MINIMAL, "seed": 31, "estimator": {"known": ["c1", "c2"]},
           "schedule": TINY_SCHEDULE}
    cfg = _write_cfg(tmp_path, doc)
    out = str(tmp_path / "out")
    assert cli.main(["synth", "--config", cfg, "--out", out]) == 0
    obs = json.loads(open(os.path.join(out, "observation.json")).read())
    assert len(obs["values"]) == 3 and obs["noise_sigma"] == 5e-4

    assert cli.main(["run", "--config", cfg, "--out", out]) == 0
    out_fit = str(tmp_path / "fit")
    rc = cli.main(["fit", "--config", cfg, "--out", out_fit,
                   "--samples", os.path.join(out, "samples.csv")])
    assert rc == 0
    validate_report(json.loads(open(os.path.join(out_fit, "report.json")).read()))


def test_cli_seed_and_steps_overrides(tmp_path):
    doc = {**MINIMAL, "seed": 31, "estimator": {"known": ["c1", "c2"]},
           "schedule": TINY_SCHEDULE}
    cfg = _write_cfg(tmp_path, doc)
    out = str(tmp_path / "out")
    rc = cli.main(["run", "--config", cfg, "--out", out, "--seed", "99",
                   "--steps", "2000"])
    assert rc == 0
    doc_out = json.loads(open(os.path.join(out, "report.json")).read())
    assert doc_out["config"]["seed"] == 99
    assert doc_out["config"]["schedule"]["phase2_steps"] == 2000


def test_cli_error_is_machine_parsable(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {**MINIMAL, "noise_sigma": -2.0})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: ")


# each of these escaped cli.main as a traceback before parsing checked them
BAD_CONFIGS = {
    "list_root": ([MINIMAL], ["--seed", "3"], "config root"),
    "null_phase1_var": ({**MINIMAL, "schedule": {"phase1_var": None}}, [],
                        "schedule.phase1_var"),
    "string_range": ({**MINIMAL, "sensors": {"count": 3, "range": ["a", "b"]}}, [],
                     r"sensors.range\[0\]"),
    "scalar_exponents": ({**MINIMAL, "ladder": {"exponents": 5}}, [], "ladder.exponents"),
    "nan_known_var": ({**MINIMAL, "estimator": {"known": ["c1"], "known_var": float("nan")}},
                      [], "estimator.known_var"),
    "infinite_noise": ({**MINIMAL, "noise_sigma": float("inf")}, [], "config.noise_sigma"),
    # a line's count and range used to be ignored silently next to explicit points
    "points_and_count": ({**MINIMAL, "sensors": {"points": [[0, 0], [0.5, 0]], "count": 7}}, [],
                         "sensors"),
    "points_and_range": ({**MINIMAL, "sensors": {"points": [[0, 0], [0.5, 0]], "range": [5, 3]}},
                         [], "sensors"),
    "string_wall": ({**MINIMAL, "sensors": {"count": 3, "wall": "false"}}, [], "sensors.wall"),
    "string_half_plane": ({**MINIMAL, "estimator": {"half_plane": "no"}}, [],
                          "estimator.half_plane"),
    "fractional_thin": ({**MINIMAL, "schedule": {"thin": 2.5}}, [], "schedule.thin"),
    "fractional_gmm_k": ({**MINIMAL, "gmm_k": 2.7}, [], "config.gmm_k"),
    "fractional_exponent": ({**MINIMAL, "ladder": {"exponents": [-4.5, -1.2, 0]}}, [],
                            r"ladder.exponents\[0\]"),
    # 0.5 ** -2000 overflows; any base <= 1 leaves the hotter chains untempered
    "low_base": ({**MINIMAL, "ladder": {"exponents": [-2000, 0], "base": 0.5}}, [],
                 "ladder.base"),
    # a misspelt key used to be ignored, leaving its default in force
    "unknown_root_key": ({**MINIMAL, "estimator": {"know": ["c1", "c2"]},
                          "schedul": {"phase2_steps": 1000},
                          "sensors": {"count": 3, "walls": True}}, [], "config"),
    "unknown_estimator_key": ({**MINIMAL, "estimator": {"know": ["c1", "c2"]}}, [],
                              "estimator"),
    "unknown_sensors_key": ({**MINIMAL, "sensors": {"count": 3, "walls": True}}, [],
                            "sensors"),
    "unknown_truth_key": ({**MINIMAL, "truth": [{**MINIMAL["truth"][0], "c3": 0.1}]}, [],
                          r"truth\[0\]"),
    "unknown_schedule_key": ({**MINIMAL, "schedule": {"phase2_step": 1000}}, [], "schedule"),
    "unknown_ladder_key": ({**MINIMAL, "ladder": {"bases": 4.0}}, [], "ladder"),
    "unknown_grid_key": ({**MINIMAL, "grid": {"region": [-1, 1, 0, 1], "resolution": [4, 3],
                                              "res": 2}}, [], "grid"),
    # the quadrature's node count is the field's own, fixed at 256
    "unknown_quad_n": ({**MINIMAL, "quad_n": 16}, [], "config"),
    # these used to pass parsing and then break the scoring: 1e-200 squares
    # to 0, and the log prior's offsets over 1e-320 overflow
    "tiny_noise_sigma": ({**MINIMAL, "noise_sigma": 1e-200}, [], "config.noise_sigma"),
    "tiny_known_var": ({**MINIMAL, "estimator": {"known": ["c1"], "known_var": 1e-320}}, [],
                       "estimator"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_cli_bad_config_is_one_error_line(tmp_path, capsys, recwarn, case):
    doc, extra, field_path = BAD_CONFIGS[case]
    cfg = _write_cfg(tmp_path, doc)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")] + extra)
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and not recwarn.list
    assert re.match(rf"error: {field_path}: ", err[0])
    if case.startswith("unknown_"):
        assert re.search(r": unknown key '\w+'$", err[0])
    assert not os.path.exists(tmp_path / "o")


def _damaged_root(doc):
    return 3


def _string_weight(doc):
    doc["gmm"]["weights"][0] = "a"
    return doc


def _object_in_best_mean(doc):
    doc["best_mean"][0] = {}
    return doc


def _boolean_best_index(doc):
    doc["best_index"] = True
    return doc


def _short_best_mean(doc):
    doc["best_mean"] = doc["best_mean"][:1]
    return doc


@pytest.mark.parametrize("damage", [_damaged_root, _string_weight, _object_in_best_mean,
                                    _boolean_best_index, _short_best_mean])
def test_cli_grid_rejects_a_malformed_report(tmp_path, capsys, damage):
    grid = {"region": [-1, 1, 0, 1.5], "resolution": [4, 3]}
    doc = damage(run_experiment(_tiny_config(grid=grid), progress=None).to_dict())
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc))
    cfg = _write_cfg(tmp_path, {**MINIMAL, "grid": grid})
    out = tmp_path / "o"
    rc = cli.main(["grid", "--config", cfg, "--out", str(out), "--report", str(report)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: report")
    assert not os.path.exists(out)


def test_cli_grid_below_the_wall_fails_before_sampling(tmp_path, capsys):
    # the wall clips the region to y >= 0, which leaves this one empty; a
    # schedule long enough for a progress line shows whether sampling began
    doc = {**MINIMAL, "sensors": {"count": 3, "wall": True},
           "schedule": {"phase1_steps": 10_000, "phase2_steps": 1000},
           "grid": {"region": [-2, 2, -1, -0.5], "resolution": [4, 4]}}
    cfg = _write_cfg(tmp_path, doc)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and not any("[mcmc]" in line for line in err)
    assert re.match(r"error: grid.region: ymax = -0.5 ", err[0])
    # without the wall the same region is a valid grid
    parse_config({**doc, "sensors": {"count": 3}})


def test_cli_unsatisfiable_estimator_is_one_error_line(tmp_path, capsys):
    # no state in this box keeps a c1 >= 0.9 heater above the wall
    doc = {"truth": [{"x0": 0.5, "y0": 0.8, "q": 1, "c1": 0.2, "c2": 0}],
           "sensors": {"count": 3, "wall": True},
           "estimator": {"n_heaters": 2, "bounds": {"y0": [0.001, 0.01], "c1": [0.9, 1.0]}},
           "schedule": TINY_SCHEDULE}
    cfg = _write_cfg(tmp_path, doc)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "initial state" in err[0]


def test_cli_schedule_too_short_for_the_mixture_fit(tmp_path, capsys):
    # 600 production sweeps, half burned in, thin 10: 30 draws for a 5-component fit
    doc = {**MINIMAL, "gmm_k": 5, "schedule": {"phase1_steps": 100, "phase2_steps": 600}}
    cfg = _write_cfg(tmp_path, doc)
    out = tmp_path / "o"
    rc = cli.main(["run", "--config", cfg, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.match(r"error: schedule: retains 30 draws; .* at least 50", err[0])
    assert not os.path.exists(out / "samples.csv")


def _half_written(write):
    """A writer that puts the first half of write's output at its path, then fails."""
    def failing(obj, path, *rest):
        write(obj, path, *rest)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:len(data) // 2])
        raise OSError("No space left on device")
    return failing


@pytest.mark.parametrize("command", ["fit", "grid"])
def test_cli_failed_write_keeps_previous_outputs(tmp_path, capsys, monkeypatch, command):
    doc = {**MINIMAL, "seed": 31, "estimator": {"known": ["c1", "c2"]},
           "schedule": TINY_SCHEDULE, "grid": {"region": [-1, 1, 0, 1.5], "resolution": [4, 3]}}
    cfg = _write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert "report.json" in before and "truth_grid.csv" in before
    argv = {"fit": ["--samples", str(out / "samples.csv")], "grid": []}[command]
    writer = {"fit": "write_report", "grid": "write_grid"}[command]
    monkeypatch.setattr(harness, writer, _half_written(getattr(harness, writer)))
    capsys.readouterr()
    assert cli.main([command, "--config", cfg, "--out", str(out)] + argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == "error: No space left on device"
    assert sorted(os.listdir(out)) == sorted(before)  # no .staging-* directory left
    assert {name: (out / name).read_bytes() for name in before} == before


def test_cli_synth_replaces_its_output(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {**MINIMAL, "seed": 31})
    out = tmp_path / "out"
    for seed in ("1", "2"):
        assert cli.main(["synth", "--config", cfg, "--out", str(out), "--seed", seed]) == 0
    assert sorted(os.listdir(out)) == ["observation.json"]
    assert json.loads((out / "observation.json").read_text())["seed"] == 2
    assert capsys.readouterr().out.splitlines() == [str(out / "observation.json")] * 2


HEADER = "h1_x0,h1_y0,h1_q,h1_c1,h1_c2\n"
GOOD_ROWS = "0.5,0.8,1,0.5,0.25\n" * 1000
BAD_SAMPLES = {
    "nan": ("0.5,0.8,1,0.5,0.25\n0.5,nan,1,0.5,0.25\n", "row 2: non-finite value"),
    "infinite": ("0.5,0.8,-inf,0.5,0.25\n", "row 1: non-finite value"),
    "short_row": ("0.5,0.8,1,0.5,0.25\n0.5,0.8,1\n", "row 2: 3 values, the header names 5"),
    "long_row": ("0.5,0.8,1,0.5,0.25,7\n", "row 1: 6 values, the header names 5"),
    "not_a_number": ("0.5,0.8,1,0.5,0.25\n0.5,0.8,x,0.5,0.25\n",
                     "row 2: could not convert string to float: 'x'"),
    # the csv module refuses a field over its size limit
    "huge_field": ("0.5,0.8,1,0.5,0.25\n0.5,0.8,1,0.5," + "1" * 131073 + "\n",
                   "line 3: field larger than field limit (131072)"),
    # the rows stream through the reader: an error after 1,000 good rows,
    # with more after it, still names its own row or line
    "late_huge_field": (GOOD_ROWS + "0.5,0.8,1,0.5," + "1" * 131073 + "\n" + GOOD_ROWS,
                        "line 1002: field larger than field limit (131072)"),
    "late_short_row": (GOOD_ROWS + "0.5,0.8,1\n" + GOOD_ROWS,
                       "row 1001: 3 values, the header names 5"),
    "late_not_a_number": (GOOD_ROWS + "0.5,0.8,1,0.5,y\n" + GOOD_ROWS,
                          "row 1001: could not convert string to float: 'y'"),
}


@pytest.mark.parametrize("case", sorted(BAD_SAMPLES))
def test_cli_fit_rejects_bad_sample_rows(tmp_path, capsys, case):
    text, message = BAD_SAMPLES[case]
    cfg = _write_cfg(tmp_path, {**MINIMAL, "seed": 31, "estimator": {"known": ["c1", "c2"]}})
    samples = tmp_path / "samples.csv"
    samples.write_text(HEADER + text)
    rc = cli.main(["fit", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--samples", str(samples)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {samples}: {message}"]
    assert not os.path.exists(tmp_path / "o")


def test_read_samples_header_only(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text(HEADER)
    assert read_samples(str(path)).shape == (0, 5)


def test_csv_bytes_are_the_csv_modules(tmp_path):
    # _write_csv joins reprs itself; the bytes are those csv.writer wrote,
    # for the header and for floats whose reprs take every form: signed
    # zero, subnormal, exponent, long mantissa and the largest magnitude.
    # It formats a row once and reuses the line while the next row has the
    # same bytes, so the cases also hold runs of repeated rows, rows that
    # differ only in the sign of a zero (equal as numbers, not as bytes), a
    # row equal to an earlier but not the previous one, and a single row
    a, b = [0.5, 0.25, 1.0, 1e-300, -3.0], [0.5, 0.25, 1.1, 1e-300, -3.0]
    cases = {
        "reprs": [[-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2],
                  [-1.7976931348623157e308, 0.5, -2.0, 123456.789, 1e-300]],
        "repeated_runs": [a] * 4 + [b] * 3 + [a],
        "signed_zero": [[0.0, 1.0, -0.0, 2.0, 0.0], [-0.0, 1.0, -0.0, 2.0, 0.0],
                        [-0.0, 1.0, 0.0, 2.0, 0.0], [-0.0, 1.0, 0.0, 2.0, 0.0]],
        "non_adjacent": [a, b, a, b, b, a],
        "one_row": [b],
    }
    head = [harness._component_header(1)]
    for case, rows in cases.items():
        rows = np.array(rows)
        harness._write_csv(str(tmp_path / "fast.csv"), rows, head)
        with open(tmp_path / "module.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerows(head)
            w.writerows(map(repr, row.tolist()) for row in rows)
        module = (tmp_path / "module.csv").read_bytes()
        assert (tmp_path / "fast.csv").read_bytes() == module, case
        back = read_samples(str(tmp_path / "fast.csv"))
        assert back.tobytes() == rows.tobytes(), case
        harness._write_csv(str(tmp_path / "bare.csv"), rows)
        assert (tmp_path / "bare.csv").read_bytes() == module.split(b"\r\n", 1)[1], case


def test_read_samples_working_set_stays_near_the_array(tmp_path):
    # the values stream into one flat buffer: no list of str or float rows
    samples = np.random.default_rng(13).normal(size=(2500, 10))
    path = tmp_path / "samples.csv"
    write_samples(samples, str(path))
    tracemalloc.start()
    try:
        back = read_samples(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back, samples)
    assert peak <= 3 * back.nbytes
