"""Compare the outputs of two source trees on a fixed list of commands.

    python3 scripts/compare_outputs.py PARENT_SRC CHANGE_SRC \
        [--expect-differ LABEL...]

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  Each
command runs once per tree as `python3 -m ssm` with that tree first on
PYTHONPATH, SSM_SEED=7 and a fixed SOURCE_DATE_EPOCH, in a working
directory of its own; both trees read the models and data shipped in
CHANGE_SRC.  For every command the script prints one line per output,
stdout, stderr and each `--trace`/`--paths` file: `identical` or
`differs`, and the exit codes when they are not both 0.  Stderr is
compared whole, with the models directory, the tree's `src` directory and
the working directory replaced by the fixed tokens `{models}`, `{src}` and
`{work}`.  It exits 1 when any output differs.  With
`--expect-differ`, the commands with those labels (as printed, e.g.
"| kmcmc") are expected to change: it exits 1 when an output of another
command differs or when a listed command has no output that differs, and 2
on a label it does not run.  It is a tool for checking that a change keeps
a fixed seed's bytes, not a test: it asserts nothing about what the bytes
are.
"""

import argparse
import copy
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = "7"
EPOCH = "1700000000"

# parameter values the shipped observation files were simulated at
TRUTH = {
    "sir": {"beta": 1.5, "gamma": 1.0},
    "plague": {"beta0": 2.5},
    "seir-h1n1": {"beta": 3.0, "rho": 0.35},
    "dengue-2strain": {"beta1": 2.1, "beta2": 1.9, "xi": 1.7},
}
MODELS = tuple(TRUTH)
# the sir-priors variant (`prior_models`) also estimates rho
PRIORS_TRUTH = dict(TRUTH["sir"], rho=0.5)
# the sir-driven-transforms variant (`driven_models`) starts its identity
# coordinate from b0
TRANSFORMS_TRUTH = dict(TRUTH["sir"], b0=-0.2)
# the shipped SIR at R0 = 0.25, whose outbreak dies out within weeks, and
# counts it might report: every particle is soon extinct
EXTINCT_TRUTH = {"beta": 0.5, "gamma": 2.0}
EXTINCT_DATA = "time,stream,value\n" + "".join(
    f"{week},cases,{count}\n"
    for week, count in enumerate([3, 1, 1] + [0] * 23, 1))
FORMALISMS = ("ode", "sde", "psr", "jump")


def invalid_models(models):
    """The shipped SIR with one schema violation each, by file stem."""
    sir = json.loads((models / "sir.json").read_text())
    no_rate, bad_effect = copy.deepcopy(sir), copy.deepcopy(sir)
    del no_rate["reactions"][0]["rate"]
    bad_effect["reactions"][0]["effect"] = {"S": -1, "I": 0.5}
    return {"unknown-key": dict(sir, zz_unknown=1), "no-rate": no_rate,
            "bad-effect": bad_effect}


# the shipped SIR's stream under each of the other observation laws
LAWS = {
    "sir-binomial": {"name": "cases", "distribution": "binomial",
                     "trials": "inc", "probability": "rho"},
    "sir-normal": {"name": "cases", "distribution": "discretized_normal",
                   "mean": "rho*inc", "variance": "1 + rho*inc"},
}


def law_models(models):
    """The shipped SIR with its stream under each law of LAWS, by file stem."""
    sir = json.loads((models / "sir.json").read_text())
    return {name: dict(sir, observations=[stream])
            for name, stream in LAWS.items()}


def prior_models(models):
    """The shipped SIR under a normal prior on the identity scale and
    uniform priors through scaled_logit and logit, with rho estimated, by
    file stem."""
    sir = json.loads((models / "sir.json").read_text())
    priors = {
        "beta": {"prior": {"normal": [1.5, 0.3]}, "transform": "identity"},
        "gamma": {"prior": {"uniform": [0.3, 3.0]},
                  "transform": {"scaled_logit": [0.3, 3.0]}},
        "rho": {"prior": {"uniform": [0.05, 0.95]}, "transform": "logit"},
    }
    parameters = [dict(p, role="estimated", **priors[p["name"]])
                  if p["name"] in priors else p for p in sir["parameters"]]
    return {"sir-priors": dict(sir, parameters=parameters)}


def driven_models(models):
    """By file stem: the shipped SIR with both rates driven, so that the
    steppers draw for two driven parameters, and the shipped SIR with a
    driven log-contact b_t on the identity scale, started from b0 under a
    normal prior, and a driven reporting rate rho_t on the logit scale, so
    that the initial state and the kernel prologue of those two transforms
    are pinned."""
    sir = json.loads((models / "sir.json").read_text())
    reactions = copy.deepcopy(sir["reactions"])
    reactions[0]["rate"] = "beta_t*I/N"
    reactions[1]["rate"] = "gamma_t"
    diffusions = [{"name": f"{name}_t", "transform": "log",
                   "volatility": "0.2", "initial": name}
                  for name in ("beta", "gamma")]
    transforms = copy.deepcopy(sir)
    transforms["parameters"].append(
        {"name": "b0", "prior": {"normal": [0.0, 0.5]}, "role": "estimated"})
    transforms["reactions"][0]["rate"] = "beta*exp(b_t)*I/N"
    transforms["observations"][0]["mean"] = "rho_t*inc"
    transforms["diffusions"] = [
        {"name": "b_t", "transform": "identity", "volatility": "0.2",
         "initial": "b0"},
        {"name": "rho_t", "transform": "logit", "volatility": "0.3",
         "initial": "rho"}]
    return {"sir-driven": dict(sir, diffusions=diffusions,
                               reactions=reactions),
            "sir-driven-transforms": transforms}


def pole_models(models):
    """The shipped SIR with a division by zero among parameter values alone
    at the truth (gamma 1.0, I0 10): in the infection rate, and in the
    initial I, by file stem."""
    sir = json.loads((models / "sir.json").read_text())
    rate, initial = copy.deepcopy(sir), copy.deepcopy(sir)
    rate["reactions"][0]["rate"] = "beta/(gamma - 1)*I/N"
    initial["compartments"][1]["initial"] = "I0/(I0 - 10)"
    return {"sir-pole": rate, "sir-initial-pole": initial}


def expobs_models(models):
    """The shipped SIR with a mean that takes exp of an argument moving with
    the state and the time, so that the moment filter's one-state
    observation arithmetic is pinned, by file stem."""
    sir = json.loads((models / "sir.json").read_text())
    stream = {"name": "cases", "distribution": "poisson",
              "mean": "rho*inc*exp(-inc/(1 + t))"}
    return {"sir-expobs": dict(sir, observations=[stream])}


def gradobs_models(models):
    """The shipped SIR with an observed mean whose gradient over the state
    has two nonzero columns, `inc` and `I`, so that the moment filter's
    update over a general gradient is pinned, by file stem."""
    sir = json.loads((models / "sir.json").read_text())
    stream = {"name": "cases", "distribution": "poisson",
              "mean": "rho*inc + 0.001*I"}
    return {"sir-gradobs": dict(sir, observations=[stream])}


def negmean_models(models):
    """The shipped SIR with a Poisson mean that is negative where `inc` is
    0 and exactly 0 where it is 1, so that the particle filter's
    fix-ups for non-positive means are pinned, by file stem."""
    sir = json.loads((models / "sir.json").read_text())
    stream = {"name": "cases", "distribution": "poisson",
              "mean": "rho*inc - 0.5"}
    return {"sir-negmean": dict(sir, observations=[stream])}


def twolaws_models(models):
    """The shipped SIR with two streams of two laws, `cases` (Poisson) and
    `cases_n` (discretized normal), so that the particle filter sums two
    laws into one instant's weights, by file stem; its data file
    (`twolaws_data`) reports each shipped count under both names."""
    sir = json.loads((models / "sir.json").read_text())
    normal = dict(LAWS["sir-normal"], name="cases_n")
    return {"sir-twolaws": dict(sir, observations=[*sir["observations"],
                                                   normal])}


def twolaws_data(models):
    """The shipped SIR's data with each row repeated for `cases_n`."""
    header, *rows = (models / "sir-data.csv").read_text().splitlines()
    return "\n".join([header, *(f"{row}\n{row.replace(',cases,', ',cases_n,')}"
                                for row in rows)]) + "\n"


def model_args(name, data=True):
    args = ["--model", f"{{models}}/{name}.json"]
    return args + ["--data", f"{{models}}/{name}-data.csv"] if data else args


def commands():
    """(label, argv, stdin, files): stdin names a theta file written from
    TRUTH (PRIORS_TRUTH for sir-priors, TRANSFORMS_TRUTH for
    sir-driven-transforms, EXTINCT_TRUTH for sir-extinct), "prev" for the
    previous command's
    stdout, "tap" for the stdout of the last command that is no tap, run in
    that command's working directory so that it reads the files written
    there, or None; files are the paths, relative to the working
    directory, the command writes."""
    out = []
    for name in MODELS:
        out.append((f"check-data {name}", ["check-data", *model_args(name)],
                    None, ()))
    for name in MODELS:
        for formalism in FORMALISMS:
            for n in ("1", "5"):
                out.append((f"simulate {formalism} x{n} {name}",
                            ["simulate", *model_args(name, data=False),
                             "--formalism", formalism, "--end", "30",
                             "--trajectories", n], name, ()))
    for name in MODELS:
        out.append((f"kalman {name}", ["kalman", *model_args(name)], name, ()))
        out.append((f"kalman dt 0.5 {name}",
                    ["kalman", *model_args(name), "--dt", "0.5"], name, ()))
    for name in MODELS:
        for formalism in ("sde", "psr"):
            out.append((f"smc {formalism} {name}",
                        ["smc", *model_args(name), "--formalism", formalism,
                         "--n-particles", "200"], name, ()))
    sir = model_args("sir")
    # the particle filter under the other two formalisms, and the sampled
    # path of a chain outside sde
    out += [(f"smc {formalism} x50 sir",
             ["smc", *sir, "--formalism", formalism, "--n-particles", "50"],
             "sir", ()) for formalism in ("ode", "jump")]
    out += [(f"pmcmc {formalism} --paths sir",
             ["pmcmc", *sir, "--formalism", formalism, "--n-particles", n,
              "--iterations", iterations, "--trace", "pmcmc.csv", "--paths",
              "paths.csv"], "sir", ("pmcmc.csv", "paths.csv"))
            for formalism, n, iterations in (("psr", "50", "10"),
                                             ("jump", "20", "5"))]
    out += [
        ("simplex sir", ["simplex", *sir, "--iterations", "20",
                         "--dt", "0.5"], "sir", ()),
        ("| ksimplex", ["ksimplex", *sir, "--iterations", "15",
                        "--dt", "0.5"], "prev", ()),
        ("| kmcmc", ["kmcmc", *sir, "--iterations", "100", "--dt", "0.5",
                     "--trace", "kmcmc.csv"], "prev", ("kmcmc.csv",)),
        # the benchmark's forecast, drawing from a chain trace
        ("| forecast --trace", ["forecast", *model_args("sir", data=False),
                                "--formalism", "psr", "--end", "12",
                                "--trajectories", "200", "--trace",
                                "kmcmc.csv"], "tap", ()),
        ("| diagnostics", ["diagnostics", "--trace", "kmcmc.csv"], "tap", ()),
        ("| pmcmc sde", ["pmcmc", *sir, "--formalism", "sde",
                         "--n-particles", "100", "--iterations", "40",
                         "--trace", "pmcmc.csv", "--paths", "paths.csv"],
         "prev", ("pmcmc.csv", "paths.csv")),
        # the moment filter's stopping rule on a second model's counts
        ("kmcmc plague", ["kmcmc", *model_args("plague"), "--iterations",
                          "100", "--dt", "0.5", "--trace", "kmcmc.csv"],
         "plague", ("kmcmc.csv",)),
        # one state scored through a Poisson mean that is the bare state
        ("simplex plague", ["simplex", *model_args("plague"),
                            "--iterations", "20", "--dt", "0.5"],
         "plague", ()),
    ]
    for formalism in FORMALISMS:
        out.append((f"forecast {formalism} sir",
                    ["forecast", *model_args("sir", data=False),
                     "--formalism", formalism, "--end", "12",
                     "--trajectories", "20"], "sir", ()))
    out.append(("mif sde plague",
                ["mif", *model_args("plague"), "--formalism", "sde",
                 "--iterations", "2", "--n-particles", "100"], "plague", ()))
    # the benchmark's psr commands at their sizes, and psr swarms in which
    # whole compartments and noise groups fade out in every row
    out.append(("mif psr plague",
                ["mif", *model_args("plague"), "--iterations", "3"],
                "plague", ()))
    for name in ("plague", "seir-h1n1", "dengue-2strain"):
        out.append((f"smc psr x500 {name}",
                    ["smc", *model_args(name), "--formalism", "psr",
                     "--n-particles", "500"], name, ()))
    for name, end in (("sir", "12"), ("dengue-2strain", "104")):
        out.append((f"forecast psr x200 {name}",
                    ["forecast", *model_args(name, data=False),
                     "--formalism", "psr", "--end", end,
                     "--trajectories", "200"], name, ()))
    # a batch's observed means that are a row of the state
    out.append(("forecast psr plague",
                ["forecast", *model_args("plague", data=False),
                 "--formalism", "psr", "--end", "12", "--trajectories", "20"],
                "plague", ()))
    data = ["--data", "{models}/sir-data.csv"]
    out += [
        ("check-data unknown-key", ["check-data", "--model",
                                    "{work}/unknown-key.json", *data],
         None, ()),
        ("simulate no-rate", ["simulate", "--model", "{work}/no-rate.json",
                              "--end", "3"], "sir", ()),
        ("kalman bad-effect", ["kalman", "--model", "{work}/bad-effect.json",
                               *data], "sir", ()),
    ]
    for name in LAWS:
        model = ["--model", f"{{work}}/{name}.json"]
        out += [
            (f"kalman {name}", ["kalman", *model, *data], "sir", ()),
            (f"smc psr {name}", ["smc", *model, *data, "--formalism", "psr",
                                 "--n-particles", "200"], "sir", ()),
            (f"kmcmc {name}", ["kmcmc", *model, *data, "--iterations", "60",
                               "--dt", "0.5", "--trace", "kmcmc.csv"],
             "sir", ("kmcmc.csv",)),
            (f"forecast {name}", ["forecast", *model, "--end", "12",
                                  "--trajectories", "20"], "sir", ()),
            (f"simplex {name}", ["simplex", *model, *data, "--iterations",
                                 "20", "--dt", "0.5"], "sir", ()),
        ]
    # a parameter-valued part spread over a batch
    out.append(("smc sde sir-binomial",
                ["smc", "--model", "{work}/sir-binomial.json", *data,
                 "--formalism", "sde", "--n-particles", "200"], "sir", ()))
    # iterated filtering whose every pass fails: the shipped SIR's first
    # count at its initial state, whose accumulator is zero
    out.append(("mif t0 1 sir",
                ["mif", *sir, "--t0", "1", "--iterations", "2",
                 "--n-particles", "100"], "sir", ()))
    # iterated filtering from the first instant, so that the walk's first
    # step crosses the gap to the second instant; the normal law keeps the
    # unreported initial state possible
    out.append(("mif t0 1 sir-normal",
                ["mif", "--model", "{work}/sir-normal.json", *data, "--t0",
                 "1", "--iterations", "2", "--n-particles", "100"], "sir",
                ()))
    priors = ["--model", "{work}/sir-priors.json", *data]
    out += [
        ("kalman sir-priors", ["kalman", *priors], "sir-priors", ()),
        ("kmcmc sir-priors", ["kmcmc", *priors, "--iterations", "60",
                              "--dt", "0.5", "--trace", "kmcmc.csv"],
         "sir-priors", ("kmcmc.csv",)),
        ("mif sir-priors", ["mif", *priors, "--iterations", "2",
                            "--n-particles", "100"], "sir-priors", ()),
    ]
    driven = ["--model", "{work}/sir-driven.json"]
    for formalism in ("sde", "psr"):
        out += [
            (f"simulate {formalism} x5 sir-driven",
             ["simulate", *driven, "--formalism", formalism, "--end", "30",
              "--trajectories", "5"], "sir", ()),
            (f"smc {formalism} sir-driven",
             ["smc", *driven, *data, "--formalism", formalism,
              "--n-particles", "200"], "sir", ()),
        ]
    transforms = ["--model", "{work}/sir-driven-transforms.json"]
    out.append(("kalman sir-driven-transforms",
                ["kalman", *transforms, *data], "sir-driven-transforms", ()))
    out += [(f"smc {formalism} sir-driven-transforms",
             ["smc", *transforms, *data, "--formalism", formalism,
              "--n-particles", "200"], "sir-driven-transforms", ())
            for formalism in ("psr", "sde")]
    out += [(f"simulate {formalism} x5 sir-driven-transforms",
             ["simulate", *transforms, "--formalism", formalism, "--end",
              "30", "--trajectories", "5"], "sir-driven-transforms", ())
            for formalism in FORMALISMS]
    # numeric failures: each ends in one error line or a finished run
    pole = ["--model", "{work}/sir-pole.json"]
    initial = ["--model", "{work}/sir-initial-pole.json"]
    seir = model_args("seir-h1n1")
    out += [
        ("kalman sir-pole", ["kalman", *pole, *data], "sir", ()),
        *((f"smc {formalism} sir-pole",
           ["smc", *pole, *data, "--formalism", formalism, "--n-particles",
            "200"], "sir", ()) for formalism in ("psr", "sde")),
        ("simplex sir-pole", ["simplex", *pole, *data, "--iterations", "2"],
         "sir", ()),
        ("simulate sde sir-pole", ["simulate", *pole, "--formalism", "sde",
                                   "--end", "30"], "sir", ()),
        ("simulate sir-initial-pole", ["simulate", *initial, "--end", "30"],
         "sir", ()),
        ("smc sir-initial-pole", ["smc", *initial, *data, "--n-particles",
                                  "200"], "sir", ()),
        ("kalman dt 1 seir-h1n1", ["kalman", *seir, "--dt", "1"],
         "seir-h1n1", ()),
        ("ksimplex dt 1 seir-h1n1", ["ksimplex", *seir, "--dt", "1",
                                     "--iterations", "3"], "seir-h1n1", ()),
        # chains that cannot start name the failure at their start
        ("kmcmc dt 1 seir-h1n1", ["kmcmc", *seir, "--dt", "1",
                                  "--iterations", "5", "--trace",
                                  "kmcmc.csv"], "seir-h1n1", ()),
        ("pmcmc sir-pole", ["pmcmc", *pole, *data, "--n-particles", "100",
                            "--iterations", "5", "--trace", "pmcmc.csv"],
         "sir", ()),
        ("kalman sir-expobs", ["kalman", "--model", "{work}/sir-expobs.json",
                               *data], "sir", ()),
    ]
    gradobs = ["--model", "{work}/sir-gradobs.json", *data]
    out += [
        ("kalman sir-gradobs", ["kalman", *gradobs], "sir", ()),
        ("kalman dt 0.5 sir-gradobs", ["kalman", *gradobs, "--dt", "0.5"],
         "sir", ()),
        ("kmcmc sir-gradobs", ["kmcmc", *gradobs, "--iterations", "60",
                               "--dt", "0.5", "--trace", "kmcmc.csv"],
         "sir", ("kmcmc.csv",)),
    ]
    # a Poisson mean at and below zero, and two laws in one instant's
    # weights, through the particle filter and iterated filtering's hooks
    negmean = ["--model", "{work}/sir-negmean.json", *data]
    out += [(f"smc {formalism} sir-negmean",
             ["smc", *negmean, "--formalism", formalism, "--n-particles",
              "200"], "sir", ()) for formalism in ("sde", "psr")]
    twolaws = ["--model", "{work}/sir-twolaws.json",
               "--data", "{work}/sir-twolaws-data.csv"]
    out += [(f"smc {formalism} sir-twolaws",
             ["smc", *twolaws, "--formalism", formalism, "--n-particles",
              "200"], "sir", ()) for formalism in ("sde", "psr")]
    out.append(("mif sir-twolaws", ["mif", *twolaws, "--iterations", "2",
                                    "--n-particles", "100"], "sir", ()))
    # an outbreak that dies out: the steppers meet batches at a fixed point
    extinct = [*model_args("sir", data=False),
               "--data", "{work}/sir-extinct-data.csv"]
    out += [(f"smc {formalism} sir-extinct",
             ["smc", *extinct, "--formalism", formalism, "--n-particles",
              "200"], "sir-extinct", ()) for formalism in ("sde", "psr")]
    out.append(("simulate sde x5 sir-extinct",
                ["simulate", *model_args("sir", data=False), "--formalism",
                 "sde", "--end", "30", "--trajectories", "5"],
                "sir-extinct", ()))
    return out


def run_tree(src, models, work):
    """Run every command against `src`; returns {label: [(name, bytes or
    None)], ...} and the exit codes."""
    tokens = [(str(p).encode(), token.encode()) for p, token in (
        (models, "{models}"), (Path(src).resolve(), "{src}"),
        (work, "{work}"))]
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               SSM_SEED=SEED, SOURCE_DATE_EPOCH=EPOCH)
    for name, values in {**TRUTH, "sir-priors": PRIORS_TRUTH,
                         "sir-driven-transforms": TRANSFORMS_TRUTH,
                         "sir-extinct": EXTINCT_TRUTH}.items():
        (work / f"theta-{name}.json").write_text(
            json.dumps({"ssm_theta": 1, "values": values}) + "\n")
    (work / "sir-extinct-data.csv").write_text(EXTINCT_DATA)
    (work / "sir-twolaws-data.csv").write_text(twolaws_data(models))
    for name, doc in {**invalid_models(models), **law_models(models),
                      **prior_models(models), **driven_models(models),
                      **pole_models(models), **expobs_models(models),
                      **gradobs_models(models), **negmean_models(models),
                      **twolaws_models(models)}.items():
        (work / f"{name}.json").write_text(json.dumps(doc))
    outputs, codes = {}, {}
    prev = b""
    for i, (label, argv, stdin, files) in enumerate(commands()):
        if stdin != "tap":
            cwd = work / f"{i:02d}"
            cwd.mkdir()
        if stdin in ("prev", "tap"):
            data = prev
        elif stdin is None:
            data = b""
        else:
            data = (work / f"theta-{stdin}.json").read_bytes()
        argv = [a.format(models=models, work=work) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "ssm", *argv],
                              input=data, capture_output=True, cwd=cwd,
                              env=env)
        if stdin != "tap":
            prev = proc.stdout
        codes[label] = proc.returncode
        stderr = proc.stderr
        for path, token in tokens:
            stderr = stderr.replace(path, token)
        outputs[label] = [("stdout", proc.stdout), ("stderr", stderr)] + [
            (f, (cwd / f).read_bytes() if (cwd / f).exists() else None)
            for f in files]
    return outputs, codes


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--expect-differ", nargs="+", default=[],
                        metavar="LABEL")
    args = parser.parse_args(argv)
    labels = [label for label, _, _, _ in commands()]
    unknown = sorted(set(args.expect_differ) - set(labels))
    if unknown:
        parser.error(f"no command labelled {', '.join(map(repr, unknown))}")
    parent, change = args.parent.resolve(), args.change.resolve()
    models = change / "ssm" / "models"
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for tag, src in (("parent", parent), ("change", change)):
            work = Path(tmp) / tag
            work.mkdir()
            runs.append(run_tree(src, models, work))
    (old, old_codes), (new, new_codes) = runs
    differs = unexpected = 0
    for label in labels:
        codes = (old_codes[label], new_codes[label])
        note = "" if codes == (0, 0) else f" (exit {codes[0]} -> {codes[1]})"
        changed = 0
        for (name, a), (_, b) in zip(old[label], new[label]):
            same = a is not None and a == b
            changed += not same
            print(f"{'identical' if same else 'differs  '}  {label}: "
                  f"{name}{note}")
        differs += changed
        if label in args.expect_differ:
            unexpected += not changed
        else:
            unexpected += changed
    print(f"{differs} output(s) differ")
    if args.expect_differ:
        print(f"{unexpected} unexpected: outputs outside "
              f"{', '.join(args.expect_differ)} that differ, or listed "
              f"commands without a differing output")
        return 1 if unexpected else 0
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
