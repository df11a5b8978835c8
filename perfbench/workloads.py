"""The three benchmark workloads: their inputs, stages and output checks.

Each workload is a closed loop: one ssm process at a time, every stage
started only after the previous one has exited, with a stage's stdout fed
to the next stage's stdin where the workload is a pipe.  Inputs are made
from the workload seed; the ssm processes see only the generated files and
SSM_SEED.
"""

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# parameter values the shipped observation files were simulated at
# (scripts/make_shipped_data.py)
TRUTH = {
    "sir": {"beta": 1.5, "gamma": 1.0},
    "plague": {"beta0": 2.5},
    "seir-h1n1": {"beta": 3.0, "rho": 0.35},
    "dengue-2strain": {"beta1": 2.1, "beta2": 1.9, "xi": 1.7},
}
SIR_N = 10000.0


@dataclass
class Stage:
    label: str          # stage metric it counts towards, e.g. "smc_psr"
    argv: list          # arguments after `ssm`
    stdin: object       # path of the input file, or None for the previous
                        # stage's stdout


@dataclass
class Workload:
    models: tuple       # models whose check-data time is set-up time
    stages: list
    check: object       # check(result, outputs): outputs are the stages'
                        # stdout bytes, None where a stage did not run


def _model_args(models_dir, name, data=True):
    args = ["--model", str(models_dir / f"{name}.json")]
    if data:
        args += ["--data", str(models_dir / f"{name}-data.csv")]
    return args


def _theta_file(work, name, values):
    path = work / f"theta-{name}.json"
    path.write_text(json.dumps({"ssm_theta": 1, "values": values}) + "\n")
    return path


def _parse_doc(text):
    """The theta document in a stage's stdout, or None."""
    if text is None:
        return None
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and doc.get("ssm_theta") == 1 else None


def _finite_loglik(doc):
    return doc is not None and isinstance(doc.get("log_likelihood"), float) \
        and math.isfinite(doc["log_likelihood"])


def _csv_rows(text):
    return list(csv.reader(text.decode().splitlines()))


# ----------------------------------------------------------------------
# fit-sir: the calibration pipe

# RK4 stages take half-week steps; the Euler-Maruyama particle chain keeps
# the default tenth of the weekly interval
RK4_DT = "0.5"
CONTAIN_SDS = 4.0


def fit_sir(models_dir, work, seed):
    sir = _model_args(models_dir, "sir")
    kmcmc_trace, pmcmc_trace = work / "kmcmc.csv", work / "pmcmc.csv"
    stages = [
        Stage("simplex", ["simplex", *sir, "--iterations", "20",
                          "--dt", RK4_DT], models_dir / "sir-theta.json"),
        Stage("ksimplex", ["ksimplex", *sir, "--iterations", "15",
                           "--dt", RK4_DT], None),
        Stage("kmcmc", ["kmcmc", *sir, "--iterations", "220", "--dt", RK4_DT,
                        "--trace", str(kmcmc_trace)], None),
        Stage("pmcmc", ["pmcmc", *sir, "--formalism", "sde",
                        "--n-particles", "500", "--iterations", "200",
                        "--trace", str(pmcmc_trace)], None),
    ]

    def check(result, outputs):
        doc = _parse_doc(outputs[-1])
        result.check("fit-sir final document parses", doc is not None)
        stages_seen = [p.get("stage") for p in (doc or {}).get(
            "provenance", [])]
        result.check("fit-sir provenance",
                     stages_seen == ["simplex", "ksimplex", "kmcmc", "pmcmc"],
                     str(stages_seen))
        result.check("fit-sir log likelihood finite", _finite_loglik(doc))
        result.check("fit-sir truth inside the pmcmc posterior",
                     *_contains_truth(pmcmc_trace))

    return Workload(("sir",), stages, check)


def _contains_truth(trace_path):
    """Whether the true beta and gamma lie within CONTAIN_SDS standard
    deviations of the chain mean on the log scale, after a 20% burn-in."""
    try:
        with open(trace_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as err:
        return False, str(err)
    kept = rows[int(0.2 * len(rows)):]
    if len(kept) < 2:
        return False, f"{len(rows)} trace rows"
    ok, detail = True, []
    for name, true in TRUTH["sir"].items():
        logs = [math.log(float(r[name])) for r in kept]
        mean = sum(logs) / len(logs)
        sd = math.sqrt(sum((v - mean) ** 2 for v in logs) / (len(logs) - 1))
        z = (math.log(true) - mean) / sd if sd > 0 else math.inf
        ok = ok and abs(z) <= CONTAIN_SDS
        detail.append(f"{name} z={z:.2f}")
    return ok, ", ".join(detail)


# ----------------------------------------------------------------------
# forecast-sir: one trajectory at a time

FORECAST_WEEKS = 12
FORECAST_DRAWS = 200
TRACE_ROWS = 250
JUMP_WEEKS = 52
JUMP_TRAJECTORIES = 10


def forecast_sir(models_dir, work, seed):
    rng = random.Random(seed)
    theta = _theta_file(work, "sir", TRUTH["sir"])
    trace = work / "forecast-trace.csv"
    with open(trace, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["iteration", "beta", "gamma", "log_likelihood",
                    "log_prior", "accepted"])
        for i in range(TRACE_ROWS):
            beta = 1.5 * math.exp(0.08 * rng.gauss(0.0, 1.0))
            gamma = 1.0 * math.exp(0.08 * rng.gauss(0.0, 1.0))
            w.writerow([i, repr(beta), repr(gamma),
                        repr(-95.0 - 2.0 * rng.random()), repr(0.0),
                        int(rng.random() < 0.25)])
    sir = _model_args(models_dir, "sir", data=False)
    stages = [
        Stage("forecast", ["forecast", *sir, "--formalism", "psr",
                           "--start", "0", "--end", str(FORECAST_WEEKS),
                           "--every", "1",
                           "--trajectories", str(FORECAST_DRAWS),
                           "--trace", str(trace)], theta),
        Stage("simulate_jump", ["simulate", *sir, "--formalism", "jump",
                                "--end", str(JUMP_WEEKS), "--every", "1",
                                "--trajectories", str(JUMP_TRAJECTORIES)],
              theta),
    ]

    def check(result, outputs):
        result.check("forecast rows", *_check_forecast(outputs[0]))
        result.check("jump paths", *_check_jump(outputs[1]))

    return Workload(("sir",), stages, check)


def _check_forecast(text):
    if text is None:
        return False, "no output"
    rows = _csv_rows(text)
    if rows[:1] != [["time", "stream", "q025", "q25", "q50", "q75", "q975"]]:
        return False, f"header {rows[:1]}"
    body = rows[1:]
    if len(body) != FORECAST_WEEKS * 1:     # times x streams; SIR has one
        return False, f"{len(body)} rows"
    for row in body:
        q = [float(v) for v in row[2:]]
        if q[0] < 0.0 or q != sorted(q):
            return False, f"quantiles negative or out of order: {row}"
    return True, ""


def _check_jump(text):
    if text is None:
        return False, "no output"
    rows = _csv_rows(text)
    if rows[:1] != [["trajectory", "t", "S", "I", "R", "inc"]]:
        return False, f"header {rows[:1]}"
    body = rows[1:]
    if len(body) != JUMP_TRAJECTORIES * (JUMP_WEEKS + 1):
        return False, f"{len(body)} rows"
    last = {}
    for row in body:
        s, i, r, inc = (float(v) for v in row[2:])
        if s + i + r != SIR_N:
            return False, f"S+I+R != N: {row}"
        if not inc.is_integer() or inc < last.get(row[0], 0.0):
            return False, f"accumulator not a growing integer: {row}"
        last[row[0]] = inc
    return True, ""


# ----------------------------------------------------------------------
# score-models: one likelihood per model and filter

SCORED = ("sir", "plague", "seir-h1n1", "dengue-2strain")
MIF_PASSES = "3"


def score_models(models_dir, work, seed):
    stages = []
    for name in SCORED:
        theta = _theta_file(work, name, TRUTH[name])
        args = _model_args(models_dir, name)
        stages += [
            Stage("kalman", ["kalman", *args], theta),
            Stage("smc_psr", ["smc", *args, "--formalism", "psr"], theta),
            Stage("smc_sde", ["smc", *args, "--formalism", "sde"], theta),
        ]
    stages.append(Stage("mif", ["mif", *_model_args(models_dir, "plague"),
                                "--iterations", MIF_PASSES],
                        work / "theta-plague.json"))

    def check(result, outputs):
        for stage, out in zip(stages, outputs):
            model = Path(stage.argv[2]).stem
            result.check(f"{stage.label} {model} log likelihood finite",
                         _finite_loglik(_parse_doc(out)))

    return Workload(SCORED, stages, check)


WORKLOADS = {
    "fit-sir": fit_sir,
    "forecast-sir": forecast_sir,
    "score-models": score_models,
}
