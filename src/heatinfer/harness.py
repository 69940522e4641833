"""Experiment orchestration: configs, synthetic observations, artifacts.

A twin experiment synthesizes noisy sensor readings from a known truth
configuration, runs the tempered sampler against them, compresses the
retained draws into a Gaussian mixture, and reports the PCA of the most
probable component. All file formats are plain CSV/JSON so external
tools can re-plot without this package.
"""

import array
import contextlib
import csv
import json
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import field as fieldmod, posterior, sampler
from .bayes import (BLOCK, COMPONENT_NAMES, DEFAULT_BLOCK_BOUNDS, Observation,
                    StateSpec, canonicalize, heaters_from, make_log_posterior, pack,
                    sort_blocks)
from .field import SensorArray, Wall, field_grid
from .posterior import PcaReport, best_component, fit_gmm, pca
from .sampler import ChainLadder, McmcSchedule

_SYNTH_STREAM = 0x5E1D
_GMM_STREAM = 0x6334


class ConfigError(ValueError):
    """Configuration parse/validation failure, with a field path."""


@dataclass(frozen=True)
class GridSpec:
    region: tuple  # (xmin, xmax, ymin, ymax)
    resolution: tuple  # (nx, ny)


@dataclass(frozen=True)
class ExperimentConfig:
    truth: np.ndarray  # (h, 5) heater rows in canonical (sort_blocks) order
    spec: StateSpec
    sensors: SensorArray
    noise_sigma: float
    schedule: McmcSchedule
    gmm_k: int
    grid: GridSpec | None
    seed: int
    ladder_exponents: tuple
    ladder_base: float
    resolved: dict  # config as loaded, with defaults applied


@dataclass(frozen=True)
class RunReport:
    gmm: posterior.GaussianMixture
    best_index: int
    pca_of_best: PcaReport
    acceptance_rates: dict
    swap_rates: np.ndarray
    truth: np.ndarray
    best_mean: np.ndarray
    residuals: np.ndarray
    observation: Observation
    retained: int
    config: dict

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "truth": self.truth.tolist(),
            "observation": {
                "values": self.observation.values.tolist(),
                "noise_sigma": self.observation.noise_sigma,
            },
            "gmm": {
                "weights": self.gmm.weights.tolist(),
                "means": self.gmm.means.tolist(),
                "covariances": self.gmm.covariances.tolist(),
            },
            "best_index": int(self.best_index),
            "best_mean": self.best_mean.tolist(),
            "pca_of_best": {
                "eigenvalues": self.pca_of_best.eigenvalues.tolist(),
                "eigenvectors": self.pca_of_best.eigenvectors.tolist(),
                "max_uncertainty_length": self.pca_of_best.max_uncertainty_length,
                "max_direction": self.pca_of_best.max_direction.tolist(),
            },
            "residuals_best": self.residuals.tolist(),
            "acceptance_rates": {k: v.tolist() for k, v in self.acceptance_rates.items()},
            "swap_rates": self.swap_rates.tolist(),
            "retained": int(self.retained),
        }


def _err(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _number(v, path: str, integer=False):
    """v, if it is a finite JSON number; with integer, v as an int if it is whole."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        _err(path, f"expected a number, got {v!r}")
    if not abs(v) <= sys.float_info.max:  # NaN, infinities, ints beyond float range
        _err(path, f"must be a finite double, got {v}")
    if integer and v != int(v):
        _err(path, f"expected an integer, got {v}")
    return int(v) if integer else v


def _numbers(v, path: str, length: int | None = None, integer=False) -> list:
    """v's elements through _number, if v is a non-empty list of the given length."""
    if not isinstance(v, list) or not v or (length is not None and len(v) != length):
        _err(path, f"expected a list of {length or 'one or more'} numbers, got {v!r}")
    return [_number(e, f"{path}[{i}]", integer) for i, e in enumerate(v)]


def _check_keys(d: dict, path: str, keys):
    """Reject a key of d that is not among keys, so a misspelt one fails early."""
    for k in d:
        if k not in keys:
            _err(path, f"unknown key {k!r}")


def _get_number(d: dict, key: str, path: str, default=None, positive=False,
                nonnegative=False, integer=False):
    if key not in d and default is None:
        _err(f"{path}.{key}", "required value missing")
    v = _number(d.get(key, default), f"{path}.{key}", integer)
    if positive and v <= 0:
        _err(f"{path}.{key}", f"must be positive, got {v}")
    if nonnegative and v < 0:
        _err(f"{path}.{key}", f"must be non-negative, got {v}")
    return v


def _get_flag(d: dict, key: str, path: str, default: bool) -> bool:
    v = d.get(key, default)
    if not isinstance(v, bool):
        _err(f"{path}.{key}", f"expected true or false, got {v!r}")
    return v


def _parse_truth(raw, path="truth") -> np.ndarray:
    """Heater rows (h, 5), components in COMPONENT_NAMES order."""
    if not isinstance(raw, list):
        _err(path, "expected a list of heater objects")
    rows = []
    for i, item in enumerate(raw):
        p = f"{path}[{i}]"
        if not isinstance(item, dict):
            _err(p, "expected an object with x0, y0, q, c1, c2")
        _check_keys(item, p, COMPONENT_NAMES)
        row = [_get_number(item, name, p) for name in COMPONENT_NAMES]
        if row[3] <= 0:
            _err(f"{p}.c1", f"must be positive, got {row[3]}")
        rows.append(row)
    return np.array(rows, dtype=float).reshape(len(rows), BLOCK)


def _parse_sensors(raw, path="sensors"):
    if not isinstance(raw, dict):
        _err(path, "expected an object")
    _check_keys(raw, path, ("points", "count", "range", "wall"))
    wall = Wall.ADIABATIC_Y0 if _get_flag(raw, "wall", path, False) else Wall.UNBOUNDED
    if "points" in raw:
        if "count" in raw or "range" in raw:
            _err(path, "give either points or count and range, not both")
        pts = raw["points"]
        if not isinstance(pts, list) or not pts:
            _err(f"{path}.points", "expected a non-empty list of [x, y] pairs")
        arr = np.asarray([_numbers(p, f"{path}.points[{i}]", 2) for i, p in enumerate(pts)],
                         dtype=float)
    else:
        count = _get_number(raw, "count", path, positive=True, integer=True)
        rng = _numbers(raw.get("range", [-1.0, 1.0]), f"{path}.range", 2)
        if not rng[0] < rng[1]:
            _err(f"{path}.range", f"expected [lo, hi] with lo < hi, got {rng!r}")
        xs = sensor_line(count, rng[0], rng[1])
        arr = np.column_stack([xs, np.zeros(count)])
    try:
        return SensorArray(arr, wall)
    except ValueError as e:
        _err(path, str(e))


def sensor_line(count: int, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    """Equally spaced sensor x positions, endpoints included.

    A single sensor sits at the midpoint of the range.
    """
    if count < 1:
        raise ValueError("sensor count must be >= 1")
    if count == 1:
        return np.array([0.5 * (lo + hi)])
    return lo + np.arange(count) * (hi - lo) / (count - 1)


def _parse_estimator(raw, truth, path="estimator"):
    raw = raw or {}
    if not isinstance(raw, dict):
        _err(path, "expected an object")
    _check_keys(raw, path, ("n_heaters", "half_plane", "bounds", "known", "known_var"))
    n_heaters = _get_number(raw, "n_heaters", path, default=len(truth), integer=True)
    if n_heaters < 1:
        _err(f"{path}.n_heaters", "must be >= 1")
    half_plane = _get_flag(raw, "half_plane", path, True)

    block = [list(b) for b in DEFAULT_BLOCK_BOUNDS]
    overrides = raw.get("bounds", {})
    if not isinstance(overrides, dict):
        _err(f"{path}.bounds", "expected an object of component -> [lo, hi]")
    for name, pair in overrides.items():
        if name not in COMPONENT_NAMES:
            _err(f"{path}.bounds.{name}", f"unknown component (use {COMPONENT_NAMES})")
        pair = _numbers(pair, f"{path}.bounds.{name}", 2)
        if not pair[0] < pair[1]:
            _err(f"{path}.bounds.{name}", f"expected [lo, hi] with lo < hi, got {pair!r}")
        block[COMPONENT_NAMES.index(name)] = [float(pair[0]), float(pair[1])]

    known_names = raw.get("known", [])
    if not isinstance(known_names, list):
        _err(f"{path}.known", "expected a list of component names")
    known_var = float(_get_number(raw, "known_var", path, default=1e-6, positive=True))
    known = {}
    if known_names:
        if n_heaters != len(truth):
            _err(f"{path}.known",
                 "known-by-name needs n_heaters equal to the number of truth heaters")
        for name in known_names:
            if name not in COMPONENT_NAMES:
                _err(f"{path}.known", f"unknown component {name!r} (use {COMPONENT_NAMES})")
            ci = COMPONENT_NAMES.index(name)
            for h in range(n_heaters):
                known[BLOCK * h + ci] = (float(truth[h, ci]), known_var)

    try:
        return StateSpec.create(n_heaters, block, known, half_plane)
    except ValueError as e:
        _err(path, str(e))


def _parse_grid(raw, wall: Wall, path="grid"):
    if raw is None:
        return None
    if not isinstance(raw, dict):
        _err(path, "expected an object")
    _check_keys(raw, path, ("region", "resolution"))
    region = _numbers(raw.get("region"), f"{path}.region", 4)
    res = _numbers(raw.get("resolution"), f"{path}.resolution", 2, integer=True)
    if not (region[0] < region[1] and region[2] < region[3]):
        _err(f"{path}.region", f"empty region {region!r}")
    if wall is Wall.ADIABATIC_Y0 and region[3] <= 0:
        _err(f"{path}.region", f"ymax = {region[3]!r} leaves nothing above the wall y = 0")
    if res[0] < 2 or res[1] < 2:
        _err(f"{path}.resolution", "must be at least 2 in each direction")
    return GridSpec(tuple(float(v) for v in region), tuple(res))


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a raw config object and apply defaults."""
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected an object")
    _check_keys(doc, "config", ("seed", "noise_sigma", "gmm_k", "truth", "sensors", "estimator",
                                "schedule", "ladder", "grid"))
    seed = _get_number(doc, "seed", "config", default=0, nonnegative=True, integer=True)
    noise_sigma = float(_get_number(doc, "noise_sigma", "config", default=5e-4,
                                    nonnegative=True))
    # the likelihood divides by noise_sigma ** 2, which must be a normal double
    square = noise_sigma * noise_sigma
    if noise_sigma > 0 and not sys.float_info.min <= square <= sys.float_info.max:
        _err("config.noise_sigma", f"must square to a normal double (about 1.5e-154 to "
                                   f"1.3e154), got {noise_sigma}")
    gmm_k = _get_number(doc, "gmm_k", "config", default=5, positive=True, integer=True)

    # canonical order keeps known-by-name priors aligned
    truth = sort_blocks(_parse_truth(doc.get("truth", []))[None])[0]
    sensors = _parse_sensors(doc.get("sensors", {"count": 3}))
    spec = _parse_estimator(doc.get("estimator"), truth)

    sched_raw = doc.get("schedule", {})
    if not isinstance(sched_raw, dict):
        _err("schedule", "expected an object")
    _check_keys(sched_raw, "schedule", [f.name for f in fields(McmcSchedule)])
    sched = {f.name: f.type(_get_number(sched_raw, f.name, "schedule", f.default,
                                        integer=f.type is int))
             for f in fields(McmcSchedule)}
    try:
        schedule = McmcSchedule(**sched)
    except ValueError as e:
        _err("schedule", str(e))
    if schedule.retained_count < 10 * gmm_k:
        _err("schedule", f"retains {schedule.retained_count} draws; the gmm_k = {gmm_k} "
                         f"mixture fit needs at least {10 * gmm_k}")

    ladder_raw = doc.get("ladder", {})
    if not isinstance(ladder_raw, dict):
        _err("ladder", "expected an object")
    _check_keys(ladder_raw, "ladder", ("exponents", "base"))
    exponents = tuple(_numbers(ladder_raw.get("exponents", [-4, -3, -2, -1, 0]),
                               "ladder.exponents", integer=True))
    base = float(_get_number(ladder_raw, "base", "ladder", default=5.0))
    if base <= 1.0:  # the hotter chains need beta = base ** exponent < 1
        _err("ladder.base", f"must exceed 1, got {base}")
    if exponents[-1] != 0 or any(a >= b for a, b in zip(exponents, exponents[1:])):
        _err("ladder.exponents", "must be strictly increasing and end at 0")

    grid = _parse_grid(doc.get("grid"), sensors.wall)

    # truth must be representable by the estimator when dimensions match
    if len(truth) and spec.n_heaters == len(truth):
        tv = pack(truth)
        if np.any(tv < spec.bounds[:, 0]) or np.any(tv > spec.bounds[:, 1]):
            _err("truth", "a truth heater lies outside the estimator bounds")
        if spec.half_plane and np.any(tv[1::BLOCK] <= 0.0):
            _err("truth", "half_plane requires every truth y0 > 0")

    resolved = {
        "seed": seed,
        "noise_sigma": noise_sigma,
        "gmm_k": gmm_k,
        "truth": [dict(zip(COMPONENT_NAMES, row)) for row in truth.tolist()],
        "sensors": {
            "points": sensors.points.tolist(),
            "wall": sensors.wall is Wall.ADIABATIC_Y0,
        },
        "estimator": {
            "n_heaters": spec.n_heaters,
            "bounds": spec.bounds.tolist(),
            "known": {str(i): list(mv) for i, mv in sorted(spec.known.items())},
            "half_plane": spec.half_plane,
        },
        "schedule": asdict(schedule),
        "ladder": {"exponents": list(exponents), "base": base},
        "grid": None if grid is None else {
            "region": list(grid.region), "resolution": list(grid.resolution)},
    }
    return ExperimentConfig(truth, spec, sensors, noise_sigma, schedule, gmm_k,
                            grid, seed, exponents, base, resolved)


def load_config(path: str, seed: int | None = None,
                phase2_steps: int | None = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    seed and phase2_steps, when given, replace the file's values before
    validation.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"config file: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path}: invalid JSON ({e})")
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected an object")
    if seed is not None:
        doc["seed"] = seed
    if phase2_steps is not None and isinstance(doc.get("schedule", {}), dict):
        doc["schedule"] = {**doc.get("schedule", {}), "phase2_steps": phase2_steps}
    return parse_config(doc)


def synthesize(config: ExperimentConfig) -> Observation:
    """Noisy twin-experiment observation y* = h(truth) + noise.

    The noise stream is seeded independently of the sampler streams, so
    re-synthesis is reproducible and does not perturb the chains.
    """
    heaters = heaters_from(pack(config.truth), len(config.truth))
    clean = fieldmod.observe(heaters, config.sensors)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SYNTH_STREAM]))
    noise = config.noise_sigma * rng.standard_normal(len(clean))
    return Observation(clean + noise, config.noise_sigma)


def run_experiment(config: ExperimentConfig, out_dir: str | None = None,
                   progress=sys.stderr) -> RunReport:
    """Full twin experiment: synthesize, sample, fit, report.

    When out_dir is given, writes samples.csv, report.json, and (if the
    config asks for a grid) truth/best field grids, all through staged().
    """
    if not len(config.truth):
        raise ConfigError("truth: no heaters configured, the posterior carries no signal")
    if config.noise_sigma <= 0.0:
        raise ConfigError("noise_sigma: inference requires a positive value")

    obs = synthesize(config)
    target = make_log_posterior(obs, config.sensors, config.spec)
    ladder = ChainLadder.create(config.spec.bounds, config.seed,
                                config.ladder_exponents, config.ladder_base)
    canon = None
    if config.spec.n_heaters > 1:
        canon = lambda x: canonicalize(x, config.spec)  # noqa: E731
    sample_set = sampler.run(ladder, target, config.schedule, canon=canon,
                             progress=progress)
    report = _analyze(config, obs, target, sample_set.samples,
                      sample_set.acceptance_rates, sample_set.swap_rates)

    if out_dir is not None:
        with staged(out_dir) as staging:
            write_samples(sample_set.samples, os.path.join(staging, "samples.csv"))
            write_report(report, os.path.join(staging, "report.json"))
            if config.grid is not None:
                for tag, states in (("truth", pack(config.truth)),
                                    ("best", report.best_mean)):
                    g = field_grid(heaters_from(states, config.spec.n_heaters),
                                   config.grid.region, config.grid.resolution, config.sensors.wall)
                    write_grid(g, os.path.join(staging, f"{tag}_grid.csv"))
    return report


@contextlib.contextmanager
def staged(out_dir: str):
    """Staging directory for a command's output files.

    The files are written into a fresh directory inside out_dir and, once
    the block finishes, moved into out_dir one by one with os.replace. If
    the block fails only the staging directory is removed, so the previous
    outputs in out_dir stay as they were, byte for byte.
    """
    os.makedirs(out_dir, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".staging-", dir=out_dir)
    try:
        yield staging
        for name in sorted(os.listdir(staging)):
            os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def fit_samples(config: ExperimentConfig, samples: np.ndarray) -> RunReport:
    """GMM + PCA analysis of an existing sample set, no re-sampling.

    The observation is re-synthesized from the config seed, so the best
    component is scored against the same posterior the samples targeted.
    Sampler diagnostics are absent from the result.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[1] != config.spec.dim:
        raise ConfigError(
            f"samples: {samples.shape[1]} columns, estimator expects {config.spec.dim}")
    obs = synthesize(config)
    target = make_log_posterior(obs, config.sensors, config.spec)
    return _analyze(config, obs, target, samples, {}, np.zeros(0))


def _analyze(config: ExperimentConfig, obs: Observation, target, samples: np.ndarray,
             acceptance_rates: dict, swap_rates: np.ndarray) -> RunReport:
    """GMM fit, best component, its PCA and the sensor residuals at its mean."""
    gmm = fit_gmm(samples, config.gmm_k,
                  rng=np.random.default_rng(np.random.SeedSequence([config.seed, _GMM_STREAM])))
    best = best_component(gmm, target)
    best_mean = gmm.means[best]
    fitted = fieldmod.observe(heaters_from(best_mean, config.spec.n_heaters), config.sensors)
    return RunReport(
        gmm=gmm, best_index=best, pca_of_best=pca(gmm.covariances[best]),
        acceptance_rates=acceptance_rates, swap_rates=swap_rates,
        truth=config.truth,
        best_mean=best_mean,
        residuals=obs.values - fitted,
        observation=obs,
        retained=samples.shape[0],
        config=config.resolved,
    )


def _component_header(n_heaters: int):
    return [f"h{h + 1}_{name}" for h in range(n_heaters) for name in COMPONENT_NAMES]


def _write_csv(path: str, rows: np.ndarray, head=()) -> None:
    """The rows of head, then those of rows (n, k) as CSV, each value as
    the shortest repr that reads back bitwise, one row at a time; a row with
    the previous row's bytes (a rejected proposal's draw) reuses its line.

    These are csv.writer's bytes: neither a float's repr nor a header name
    holds a comma, quote or line break, so no field needs quoting, and the
    excel dialect ends each row with CR LF.
    """
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(row) + "\r\n" for row in head)
        key = None
        for row in rows:
            if (raw := row.tobytes()) != key:
                key, line = raw, ",".join(map(repr, row.tolist())) + "\r\n"
            fh.write(line)


def write_samples(samples: np.ndarray, path: str) -> None:
    """Retained draws as CSV, one row per draw, full double precision."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    _write_csv(path, samples, [_component_header(samples.shape[1] // BLOCK)])


def read_samples(path: str) -> np.ndarray:
    """Inverse of write_samples; bitwise exact round trip.

    A data row (row 1 follows the header) whose length differs from the
    header's, or that holds anything but finite numbers, is rejected, and
    so is one with an underscore, a space, a tab or a non-ASCII character,
    which float reads past (0_5, ' 0.8 '). The values stream into one flat
    buffer: about 8 bytes a value plus one row.
    """
    values, i = array.array("d"), 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            width = len(next(reader))
            for i, row in enumerate(reader, 1):
                if len(row) != width:
                    raise ValueError(
                        f"{path}: row {i}: {len(row)} values, the header names {width}")
                line = "".join(row)
                if "_" in line or " " in line or "\t" in line or not line.isascii():
                    raise ValueError(f"{path}: row {i}: '_', a space, a tab or non-ASCII text")
                try:
                    values.extend(map(float, row))
                except ValueError as e:
                    raise ValueError(f"{path}: row {i}: {e}") from None
        except StopIteration:
            raise ValueError(f"{path}: empty samples file") from None
        except csv.Error as e:  # e.g. a field over the csv module's size limit
            raise ValueError(f"{path}: line {reader.line_num}: {e}") from None
    samples = np.frombuffer(values).reshape(i, width)
    bad = np.flatnonzero(~np.isfinite(samples).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: row {bad[0] + 1}: non-finite value")
    return samples


def write_grid(grid: fieldmod.FieldGrid, path_csv: str):
    """Row-major grid CSV plus a .meta.json sidecar describing it."""
    ny, nx = grid.values.shape
    _write_csv(path_csv, grid.values)
    meta_path = path_csv[:-4] + ".meta.json" if path_csv.endswith(".csv") \
        else path_csv + ".meta.json"
    meta = {
        "region": list(grid.region),
        "nx": nx,
        "ny": ny,
        "wall": grid.wall is Wall.ADIABATIC_Y0,
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=1)
    return [path_csv, meta_path]


def write_report(report: RunReport, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=1)


_REPORT_KEYS = {
    "config": dict, "truth": list, "observation": dict, "gmm": dict,
    "best_index": int, "best_mean": list, "pca_of_best": dict,
    "residuals_best": list, "swap_rates": list, "retained": int,
}


def validate_report(doc: dict) -> None:
    """Check a report object against the documented schema; raises on error."""
    if not isinstance(doc, dict):
        raise ValueError(f"report: expected an object, got {type(doc).__name__}")
    for key, typ in _REPORT_KEYS.items():
        if key not in doc:
            raise ValueError(f"report.{key}: missing")
        if not isinstance(doc[key], typ) or (typ is int and isinstance(doc[key], bool)):
            raise ValueError(f"report.{key}: expected {typ.__name__}")
    if "acceptance_rates" not in doc:
        raise ValueError("report.acceptance_rates: missing")
    gmm = doc["gmm"]
    for key in ("weights", "means", "covariances"):
        if not isinstance(gmm.get(key), list):
            raise ValueError(f"report.gmm.{key}: expected a list")
    _numbers(gmm["weights"], "report.gmm.weights")  # a ConfigError is a ValueError
    _numbers(doc["best_mean"], "report.best_mean")
    k = len(gmm["weights"])
    if not (len(gmm["means"]) == len(gmm["covariances"]) == k):
        raise ValueError("report.gmm: component counts disagree")
    if abs(sum(gmm["weights"]) - 1.0) > 1e-9:
        raise ValueError("report.gmm.weights: must sum to 1")
    if not (0 <= doc["best_index"] < k):
        raise ValueError("report.best_index: out of range")
    pca_d = doc["pca_of_best"]
    for key in ("eigenvalues", "eigenvectors", "max_uncertainty_length", "max_direction"):
        if key not in pca_d:
            raise ValueError(f"report.pca_of_best.{key}: missing")
    obs = doc["observation"]
    if "values" not in obs or "noise_sigma" not in obs:
        raise ValueError("report.observation: needs values and noise_sigma")
