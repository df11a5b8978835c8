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
    """The shipped SIR with both rates driven, so that the steppers draw for
    two driven parameters, by file stem."""
    sir = json.loads((models / "sir.json").read_text())
    reactions = copy.deepcopy(sir["reactions"])
    reactions[0]["rate"] = "beta_t*I/N"
    reactions[1]["rate"] = "gamma_t"
    diffusions = [{"name": f"{name}_t", "transform": "log",
                   "volatility": "0.2", "initial": name}
                  for name in ("beta", "gamma")]
    return {"sir-driven": dict(sir, diffusions=diffusions,
                               reactions=reactions)}


def model_args(name, data=True):
    args = ["--model", f"{{models}}/{name}.json"]
    return args + ["--data", f"{{models}}/{name}-data.csv"] if data else args


def commands():
    """(label, argv, stdin, files): stdin names a theta file written from
    TRUTH (PRIORS_TRUTH for sir-priors), "prev" for the previous command's
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
        ]
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
    return out


def run_tree(src, models, work):
    """Run every command against `src`; returns {label: [(name, bytes or
    None)], ...} and the exit codes."""
    tokens = [(str(p).encode(), token.encode()) for p, token in (
        (models, "{models}"), (Path(src).resolve(), "{src}"),
        (work, "{work}"))]
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               SSM_SEED=SEED, SOURCE_DATE_EPOCH=EPOCH)
    for name, values in {**TRUTH, "sir-priors": PRIORS_TRUTH}.items():
        (work / f"theta-{name}.json").write_text(
            json.dumps({"ssm_theta": 1, "values": values}) + "\n")
    for name, doc in {**invalid_models(models), **law_models(models),
                      **prior_models(models),
                      **driven_models(models)}.items():
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
