"""Bayesian recovery of uniform heat sources from steady temperatures."""

from .bayes import (Observation, StateSpec, canonicalize, log_likelihood,
                    log_posterior, log_prior, make_log_posterior, pack)
from .field import (FieldGrid, SensorArray, Wall, field_grid,
                    jacobian_multipole, observe, temp_multipole, temperatures)
from .harness import (ConfigError, ExperimentConfig, RunReport, load_config,
                      parse_config, run_experiment, synthesize)
from .posterior import GaussianMixture, PcaReport, best_component, fit_gmm, pca
from .sampler import ChainLadder, McmcSchedule, SampleSet, run
from .shapes import DegenerateShapeError, HeaterShape, MomentData, curve_moments

__version__ = "0.1.0"

__all__ = [
    "ChainLadder", "ConfigError", "DegenerateShapeError", "ExperimentConfig",
    "FieldGrid", "GaussianMixture", "HeaterShape", "McmcSchedule", "MomentData",
    "Observation", "PcaReport", "RunReport", "SampleSet", "SensorArray",
    "StateSpec", "Wall", "best_component", "canonicalize", "curve_moments",
    "field_grid", "fit_gmm", "jacobian_multipole", "load_config",
    "log_likelihood", "log_posterior", "log_prior", "make_log_posterior",
    "observe", "pack", "parse_config", "pca", "run", "run_experiment",
    "synthesize", "temp_multipole", "temperatures",
]
