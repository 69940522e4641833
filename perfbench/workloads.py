"""The benchmark's workloads: input generation, one operation, output checks.

Every operation goes through `heatinfer.cli.main`, the program's own
entry point, on files the benchmark writes: a config derived from the
repository's `configs/*.json` (seed and schedule replaced) and, for the
refit workload, a generated samples.csv.

- single_desk      `run` on configs/single_heater.json, grids included.
                   Three sensors and one heater: the field arithmetic is
                   tiny and Python overhead in bayes/sampler dominates.
- two_heater_desk  `run` on configs/two_heaters.json. Twelve sensors, two
                   heaters, canonicalization on: the field kernel takes
                   the largest share and swap rates are low.
- refit_grid       `fit` on 2,500 generated two-heater draws, then
                   `grid --report`. No sampling: GMM EM, the large-batch
                   field grid and CSV/JSON input and output.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import time

import numpy as np

from heatinfer import bayes, cli, field, harness, sampler
from heatinfer.bayes import BLOCK

import ess

# A tenth of the desk schedule (10k + 50k sweeps, thin 10). It keeps the
# desk's 2,500 retained draws, so the analysis and output work per
# operation match a desk run, while a 30-second run still times four
# two-heater operations (a full desk one takes 90-100 s).
SCHEDULE = {"phase1_steps": 1000, "phase2_steps": 5000, "thin": 1}
REFIT_DRAWS = 2500

WORKLOADS = {
    "single_desk": ("configs/single_heater.json", "run"),
    "two_heater_desk": ("configs/two_heaters.json", "run"),
    "refit_grid": ("configs/two_heaters.json", "refit"),
}


def experiment_seeds(seed, workload):
    """Config seeds for a run's operations, derived from the run seed."""
    index = sorted(WORKLOADS).index(workload)
    state = np.random.SeedSequence([seed, index]).generate_state(256)
    return [int(s) for s in state]


def refit_draws(config, seed):
    """Posterior-like draws around the truth, in canonical block order.

    Each heater block gets a y0-q correlation of 0.8, the depth-strength
    trade-off the real posteriors show; the known c1, c2 barely move.
    """
    truth = harness.pack(config.truth)
    scales = np.tile([0.02, 0.03, 0.05, 1e-3, 1e-3], len(config.truth))
    corr = np.eye(len(truth))
    for b in range(0, len(truth), BLOCK):
        corr[b + 1, b + 2] = corr[b + 2, b + 1] = 0.8
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD4A5]))
    draws = rng.multivariate_normal(truth, corr * np.outer(scales, scales), size=REFIT_DRAWS)
    return np.array([bayes.canonicalize(row, config.spec) for row in draws])


class Operation:
    """One operation's inputs on disk and the CLI calls that consume them."""

    def __init__(self, root, workload, seed, directory):
        config_path, kind = WORKLOADS[workload]
        with open(os.path.join(root, config_path)) as fh:
            doc = json.load(fh)
        doc["seed"] = seed
        if kind == "run":
            doc["schedule"] = dict(SCHEDULE)
        os.makedirs(directory)
        self.kind, self.seed = kind, seed
        self.config_path = os.path.join(directory, "config.json")
        self.out = os.path.join(directory, "out")
        with open(self.config_path, "w") as fh:
            json.dump(doc, fh)
        self.config = harness.parse_config(doc)
        self.draws = None
        if kind == "run":
            self.argvs = [["run", "--config", self.config_path, "--out", self.out]]
        else:
            self.draws = refit_draws(self.config, seed)
            draws_path = os.path.join(directory, "draws.csv")
            harness.write_samples(self.draws, draws_path)
            self.argvs = [
                ["fit", "--config", self.config_path, "--samples", draws_path,
                 "--out", self.out],
                ["grid", "--config", self.config_path, "--out", self.out,
                 "--report", os.path.join(self.out, "report.json")],
            ]

    def execute(self):
        """Wall seconds of the CLI calls, and an error message or None.

        The program's own output is captured so only the benchmark
        writes to standard output.
        """
        sink = io.StringIO()
        error = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in self.argvs:
                try:
                    code = cli.main(argv)
                except Exception as e:  # a crash is a failed operation
                    error = f"{argv[0]} raised {type(e).__name__}: {e}"
                    break
                if code != 0:
                    error = f"{argv[0]} exited {code}: {sink.getvalue().strip()[-300:]}"
                    break
        return time.perf_counter() - start, error

    def bytes_written(self):
        return sum(os.path.getsize(os.path.join(self.out, f)) for f in os.listdir(self.out))

    def check(self):
        """Check the operation's outputs; returns (problems, facts).

        facts holds the output digest (compared across repeats of one
        seed) and the recovery numbers of a sampling operation.
        """
        problems = []
        with open(os.path.join(self.out, "report.json"), "rb") as fh:
            report_bytes = fh.read()
        report = json.loads(report_bytes)
        try:
            harness.validate_report(report)
        except ValueError as e:
            problems.append(f"validate_report: {e}")
        numbers = [report["best_mean"], report["residuals_best"], report["gmm"]["means"],
                   report["gmm"]["covariances"], report["pca_of_best"]["eigenvalues"]]
        if not all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in numbers):
            problems.append("report.json holds non-finite numbers")
        digest = hashlib.sha256(report_bytes)
        facts = {}

        if self.kind == "run":
            samples_path = os.path.join(self.out, "samples.csv")
            with open(samples_path, "rb") as fh:
                samples_bytes = fh.read()
            digest.update(samples_bytes)
            samples = harness.read_samples(samples_path)
            copy_path = os.path.join(self.out, "samples.reread.csv")
            harness.write_samples(samples, copy_path)
            with open(copy_path, "rb") as fh:
                if fh.read() != samples_bytes:
                    problems.append("samples.csv does not read back bitwise")
            os.unlink(copy_path)
            expected = self.config.schedule.retained_count
            if samples.shape[0] != expected or report["retained"] != expected:
                problems.append(f"retained {samples.shape[0]} rows, "
                                f"report says {report['retained']}, schedule {expected}")
            if not np.all(np.isfinite(samples)):
                problems.append("samples.csv holds non-finite values")
            q = samples[:, 2::BLOCK]
            if np.any(q[:, :-1] > q[:, 1:]):
                problems.append("draws are not in canonical (ascending q) order")
            free = [j for j in range(samples.shape[1]) if j not in self.config.spec.known]
            facts["cold_ess"] = float(np.mean([ess.effective_size(samples[:, j]) for j in free]))
            facts["center_err"] = center_error(report)
            facts["accept_cold"] = float(report["acceptance_rates"]["phase2"][-1])
            facts["swap_min"] = float(min(report["swap_rates"]))
            grids = ("truth", "best") if self.config.grid is not None else ()
        else:
            if report["retained"] != len(self.draws):
                problems.append(f"fit saw {report['retained']} draws, wrote {len(self.draws)}")
            grids = ("best",)
        for tag in grids:
            values = np.loadtxt(os.path.join(self.out, f"{tag}_grid.csv"), delimiter=",",
                                ndmin=2)
            nx, ny = self.config.grid.resolution
            if values.shape != (ny, nx) or not np.all(np.isfinite(values)):
                problems.append(f"{tag}_grid.csv: shape {values.shape} or non-finite values")
        facts["digest"] = digest.hexdigest()
        return problems, facts


def center_error(report):
    """Largest distance between a best-mean heater center and its truth."""
    truth = np.asarray(report["truth"], dtype=float)
    best = np.asarray(report["best_mean"], dtype=float).reshape(-1, BLOCK)
    return max(math.hypot(*(b[:2] - t[:2])) for b, t in zip(best, truth))


class LayerCounts:
    """Counts the wrappers' hooks gather next to the tracer's timings."""

    def __init__(self):
        self.prior_rejects = 0
        self.geometry_rejects = 0
        self.observe_pairs = 0
        self.grid_pairs = 0
        self.grid_nodes = 0  # largest quadrature size seen in the open grid call
        self.em_iters = 0
        self.sweeps = 0
        self.target_in_run = 0.0
        self.target_mark = 0.0


def node_pairs(points, quad_n, heaters, wall):
    """Point-node pairs one field evaluation touches, wall images included.

    Computed from the call's arguments, not measured.
    """
    return points * quad_n * heaters * (2 if wall is field.Wall.ADIABATIC_Y0 else 1)


def install(tracer, counts):
    """Wrap every traced layer at the name its caller resolves."""
    lp = "bayes.log_posterior"

    def prior_after(result, *a, **k):
        if result == -np.inf:
            counts.prior_rejects += 1

    def likelihood_after(result, *a, **k):
        if result == -np.inf:
            counts.geometry_rejects += 1

    def observe_after(result, heaters, sensors, quad_n=256):
        counts.observe_pairs += node_pairs(len(sensors), quad_n, len(heaters), sensors.wall)

    def nodes_after(result, shape, n):
        counts.grid_nodes = max(counts.grid_nodes, n)

    def grid_before(*a, **k):
        counts.grid_nodes = 0

    def grid_after(result, heaters, *a, **k):
        counts.grid_pairs += node_pairs(result.values.size, counts.grid_nodes, len(heaters),
                                        result.wall)

    def run_before(*a, **k):
        counts.target_mark = tracer.total(lp)

    def run_after(result, ladder, target, schedule, *a, **k):
        counts.target_in_run += tracer.total(lp) - counts.target_mark
        counts.sweeps += schedule.phase1_steps + schedule.phase2_steps

    def gmm_after(result, *a, **k):
        counts.em_iters += len(result.loglik_path)

    p = tracer.patch
    p(cli, "main", "cli.main", keep_spans=True)
    p(harness, "run_experiment", "harness.run_experiment", keep_spans=True)
    p(harness, "fit_samples", "harness.fit_samples", keep_spans=True)
    for name in ("parse_config", "synthesize", "write_samples", "write_report",
                 "write_grid", "read_samples"):
        p(harness, name, f"harness.{name}", keep_spans=True)
    p(harness, "fit_gmm", "posterior.fit_gmm", keep_spans=True, after=gmm_after)
    p(harness, "best_component", "posterior.best_component", keep_spans=True)
    p(harness, "pca", "posterior.pca", keep_spans=True)
    for owner in (harness, cli):
        p(owner, "field_grid", "field.field_grid", keep_spans=True, before=grid_before,
          after=grid_after)
    p(sampler, "run", "sampler.run", keep_spans=True, before=run_before, after=run_after)
    p(sampler, "mh_step", "sampler.mh_step")
    p(sampler, "swap_step", "sampler.swap_step")
    p(bayes, "log_posterior", lp)
    p(bayes, "log_prior", "bayes.log_prior", after=prior_after)
    p(bayes, "log_likelihood", "bayes.log_likelihood", after=likelihood_after)
    for owner in (bayes, harness, cli):
        p(owner, "heaters_from", "bayes.heaters_from")
    p(harness, "canonicalize", "bayes.canonicalize")
    p(field, "observe", "field.observe", after=observe_after)
    p(field, "boundary_nodes", "shapes.boundary_nodes", after=nodes_after)


def layer_metrics(tracer, counts, ops, op_seconds, bytes_written):
    """Per-layer numbers, per operation or per call as each name says."""
    def per_call(name, scale):
        return tracer.mean(name) * scale

    def ratio(a, b):
        return a / b if b else 0.0

    lp_calls = tracer.calls("bayes.log_posterior")
    observe_calls = tracer.calls("field.observe")
    grid_calls = tracer.calls("field.field_grid")
    run_s = tracer.total("sampler.run")
    grid_pairs = ratio(counts.grid_pairs, grid_calls)
    return {
        "bayes.log_posterior.calls": (lp_calls / ops, "count"),
        "bayes.log_posterior.us": (per_call("bayes.log_posterior", 1e6), "us"),
        "bayes.log_posterior.op_frac": (ratio(tracer.total("bayes.log_posterior"),
                                              op_seconds), "ratio"),
        "bayes.log_prior.us": (per_call("bayes.log_prior", 1e6), "us"),
        "bayes.log_likelihood.us": (per_call("bayes.log_likelihood", 1e6), "us"),
        "bayes.heaters_from.us": (per_call("bayes.heaters_from", 1e6), "us"),
        "bayes.canonicalize.us": (per_call("bayes.canonicalize", 1e6), "us"),
        "bayes.prior_reject_frac": (ratio(counts.prior_rejects, lp_calls), "ratio"),
        "bayes.geometry_reject_frac": (ratio(counts.geometry_rejects, lp_calls), "ratio"),
        "field.observe.calls": (observe_calls / ops, "count"),
        "field.observe.us": (per_call("field.observe", 1e6), "us"),
        "field.observe.self_us": (ratio(tracer.self_time("field.observe"), observe_calls) * 1e6,
                                  "us"),
        "field.observe.node_pairs": (ratio(counts.observe_pairs, observe_calls), "count"),
        "shapes.boundary_nodes.calls": (tracer.calls("shapes.boundary_nodes") / ops, "count"),
        "shapes.boundary_nodes.us": (per_call("shapes.boundary_nodes", 1e6), "us"),
        "field.field_grid.s": (per_call("field.field_grid", 1.0), "s"),
        "field.field_grid.node_pairs": (grid_pairs, "count"),
        "field.field_grid.bytes": (8.0 * grid_pairs, "B"),
        "sampler.run.s": (per_call("sampler.run", 1.0), "s"),
        "sampler.sweep_us": (ratio(run_s, counts.sweeps) * 1e6, "us"),
        "sampler.self_frac": (ratio(run_s - counts.target_in_run, run_s), "ratio"),
        "sampler.mh_step.us": (per_call("sampler.mh_step", 1e6), "us"),
        "sampler.swap_step.us": (per_call("sampler.swap_step", 1e6), "us"),
        "posterior.fit_gmm.s": (per_call("posterior.fit_gmm", 1.0), "s"),
        "posterior.fit_gmm.em_iters": (ratio(counts.em_iters,
                                             tracer.calls("posterior.fit_gmm")), "count"),
        "posterior.best_component.ms": (per_call("posterior.best_component", 1e3), "ms"),
        "posterior.pca.us": (per_call("posterior.pca", 1e6), "us"),
        "harness.parse_config.ms": (per_call("harness.parse_config", 1e3), "ms"),
        "harness.synthesize.ms": (per_call("harness.synthesize", 1e3), "ms"),
        "harness.write_samples.s": (per_call("harness.write_samples", 1.0), "s"),
        "harness.write_report.s": (per_call("harness.write_report", 1.0), "s"),
        "harness.write_grid.s": (per_call("harness.write_grid", 1.0), "s"),
        "harness.read_samples.s": (per_call("harness.read_samples", 1.0), "s"),
        "harness.bytes_written": (bytes_written / ops, "B"),
        "cli.main.s": (per_call("cli.main", 1.0), "s"),
    }
