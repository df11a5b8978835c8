"""Shared builders for test models, and the runner for CLI subprocesses."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

from ssm.model import parse_model

ROOT = Path(__file__).resolve().parent.parent

SIR = {
    "ssm_model": 1,
    "name": "sir",
    "compartments": [
        {"name": "S", "initial": "N - I0"},
        {"name": "I", "initial": "I0"},
        {"name": "R", "initial": 0},
    ],
    "population_size": "N",
    "parameters": [
        {"name": "N", "prior": {"dirac": 1000}, "role": "fixed"},
        {"name": "I0", "prior": {"dirac": 10}, "role": "fixed"},
        {"name": "beta", "prior": {"uniform": [0.05, 5]}, "transform": "log"},
        {"name": "gamma", "prior": {"uniform": [0.05, 5]}, "transform": "log"},
    ],
    "reactions": [
        {"from": "S", "to": "I", "rate": "beta*I/N", "accumulators": ["cases"]},
        {"from": "I", "to": "R", "rate": "gamma"},
    ],
    "observations": [
        {"name": "cases_obs", "distribution": "poisson", "mean": "cases"}
    ],
}

# overrides of SIR whose transmission and recovery rates are both driven,
# the transmission with white noise: the diffusion steppers draw every kind
# of normal, two of them per driven parameter row
TWO_DRIVEN_SIR = dict(
    parameters=SIR["parameters"] + [
        {"name": "sigma_env", "prior": {"dirac": 0.3}, "role": "fixed"}],
    diffusions=[{"name": f"{name}_t", "transform": "log",
                 "drift": "0.1 - 0.01*t", "volatility": "0.2",
                 "initial": name} for name in ("beta", "gamma")],
    reactions=[
        {"from": "S", "to": "I", "rate": "beta_t*I/N",
         "accumulators": ["cases"],
         "white_noise": {"group": "transmission", "sd": "sigma_env"}},
        {"from": "I", "to": "R", "rate": "gamma_t"},
    ],
)

# overrides of SIR under every prior kind and transform: a normal prior on
# the identity scale, uniform priors through scaled_logit and logit, and a
# lognormal one through log
SIR_PRIORS = dict(
    parameters=SIR["parameters"][:2] + [
        {"name": "beta", "prior": {"normal": [1.5, 0.3]},
         "transform": "identity"},
        {"name": "gamma", "prior": {"uniform": [0.3, 3.0]},
         "transform": {"scaled_logit": [0.3, 3.0]}},
        {"name": "rho", "prior": {"uniform": [0.05, 0.95]},
         "transform": "logit"},
        {"name": "kappa", "prior": {"lognormal": [-1.0, 0.5]},
         "transform": "log"}],
    observations=[{"name": "cases_obs", "distribution": "poisson",
                   "mean": "rho*kappa*cases"}],
)

# local-level model: a drifting random walk observed through gaussian noise,
# linear in every coordinate so exact filters exist for cross-checks
LOCAL_LEVEL = {
    "ssm_model": 1,
    "name": "local_level",
    "compartments": [],
    "parameters": [
        {"name": "x0", "prior": {"normal": [0.0, 10.0]}, "role": "initial_condition"},
        {"name": "c_drift", "prior": {"normal": [0.0, 1.0]}},
        {"name": "q_sd", "prior": {"dirac": 0.5}, "role": "fixed"},
        {"name": "tau2", "prior": {"dirac": 1.0}, "role": "fixed"},
    ],
    "reactions": [],
    "diffusions": [
        {
            "name": "x",
            "transform": "identity",
            "drift": "c_drift",
            "volatility": "q_sd",
            "initial": "x0",
        }
    ],
    "observations": [
        {
            "name": "y",
            "distribution": "discretized_normal",
            "mean": "x",
            "variance": "tau2",
        }
    ],
}


def build(base, **overrides):
    doc = copy.deepcopy(base)
    doc.update(overrides)
    return parse_model(json.dumps(doc))


def sir_model(**overrides):
    return build(SIR, **overrides)


def local_level_model(**overrides):
    return build(LOCAL_LEVEL, **overrides)


def ssm_env(env_extra=None):
    """Environment for a `python -m ssm` child process.

    The absolute `src` directory goes first on the child's PYTHONPATH, so
    the package is found from any working directory even when the suite
    itself was started with a relative `PYTHONPATH=src`.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("SSM_SEED", None)
    env["SOURCE_DATE_EPOCH"] = "1700000000"
    if env_extra:
        env.update(env_extra)
    return env


def run_ssm(args, stdin_text=None, env_extra=None, cwd=None):
    """Run `python -m ssm args` in a child process (environment: ssm_env)."""
    return subprocess.run(
        [sys.executable, "-m", "ssm"] + args,
        input=stdin_text, capture_output=True, text=True,
        env=ssm_env(env_extra), cwd=cwd or ROOT,
    )
