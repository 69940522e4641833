"""Command line entry points.

    heatinfer synth --config cfg.json --out DIR [--seed N]
    heatinfer run   --config cfg.json --out DIR [--seed N] [--steps N]
    heatinfer grid  --config cfg.json --out DIR [--report report.json]
    heatinfer fit   --config cfg.json --samples samples.csv --out DIR

Exit code 0 on success. Failures print a single machine-parsable line
`error: <message>` on standard error and exit nonzero. All progress and
diagnostics go to standard error; result files land in --out, each moved
into place only once the command has written all of them, so a failed
command leaves the files already there as they were.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import harness
from .bayes import heaters_from, pack
from .field import FieldEvaluationError, field_grid
from .harness import ConfigError, load_config


def _cmd_synth(args) -> int:
    config = load_config(args.config, args.seed)
    obs = harness.synthesize(config)
    with harness.staged(args.out) as staging:
        with open(os.path.join(staging, "observation.json"), "w") as fh:
            json.dump({"values": obs.values.tolist(), "noise_sigma": obs.noise_sigma,
                       "seed": config.seed}, fh, indent=1)
    print(os.path.join(args.out, "observation.json"))
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config, args.seed, args.steps)
    report = harness.run_experiment(config, out_dir=args.out, progress=sys.stderr)
    print(os.path.join(args.out, "report.json"))
    best = np.array2string(report.best_mean, precision=4)
    print(f"best component {report.best_index}: mean {best}", file=sys.stderr)
    return 0


def _cmd_grid(args) -> int:
    config = load_config(args.config, args.seed)
    if config.grid is None:
        raise ConfigError("grid: config has no grid section")
    if args.report:
        with open(args.report) as fh:
            doc = json.load(fh)
        harness.validate_report(doc)
        if len(doc["best_mean"]) != config.spec.dim:
            raise ValueError(f"report.best_mean: expected {config.spec.dim} values, "
                             f"got {len(doc['best_mean'])}")
        states = np.asarray(doc["best_mean"], dtype=float)
        tag = "best"
    else:
        states = pack(config.truth)
        tag = "truth"
    g = field_grid(heaters_from(states, config.spec.n_heaters), config.grid.region,
                   config.grid.resolution, config.sensors.wall)
    with harness.staged(args.out) as staging:
        written = harness.write_grid(g, os.path.join(staging, f"{tag}_grid.csv"))
    for path in written:
        print(os.path.join(args.out, os.path.basename(path)))
    return 0


def _cmd_fit(args) -> int:
    config = load_config(args.config, args.seed)
    samples = harness.read_samples(args.samples)
    report = harness.fit_samples(config, samples)
    with harness.staged(args.out) as staging:
        harness.write_report(report, os.path.join(staging, "report.json"))
    print(os.path.join(args.out, "report.json"))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatinfer",
        description="Locate, size, and weigh uniform heat sources from "
                    "steady-state temperature sensors.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, steps=False):
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if steps:
            p.add_argument("--steps", type=int, default=None,
                           help="override phase-2 step count")

    p = sub.add_parser("synth", help="write the synthetic observation only")
    common(p)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("run", help="full twin experiment")
    common(p, steps=True)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("grid", help="export a temperature field grid")
    common(p)
    p.add_argument("--report", default=None,
                   help="report.json; grid the best estimate instead of the truth")
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("fit", help="GMM + PCA of an existing samples.csv")
    common(p)
    p.add_argument("--samples", required=True, help="samples.csv from a run")
    p.set_defaults(fn=_cmd_fit)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError, FieldEvaluationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
