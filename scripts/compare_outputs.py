"""Compare the outputs of two source trees on a fixed list of commands.

    python3 scripts/compare_outputs.py PARENT_SRC CHANGE_SRC \
        [--expect-differ LABEL...]

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  Each
command runs once per tree as `python3 -m ssm` with that tree first on
PYTHONPATH, SSM_SEED=7 and a fixed SOURCE_DATE_EPOCH, in a working
directory of its own; both trees read the models and data shipped in
CHANGE_SRC.  For every command the script prints one line per output,
stdout and each `--trace`/`--paths` file: `identical` or `differs`, and
the exit codes when they are not both 0.  The commands on invalid models
compare their stderr too, up to the message's second colon (`error: model
schema violation at <path>`).  It exits 1 when any output differs.  With
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
FORMALISMS = ("ode", "sde", "psr", "jump")
# pseudo file name: the command's stderr up to the message's second colon
STDERR = "stderr"


def invalid_models(models):
    """The shipped SIR with one schema violation each, by file stem."""
    sir = json.loads((models / "sir.json").read_text())
    no_rate, bad_effect = copy.deepcopy(sir), copy.deepcopy(sir)
    del no_rate["reactions"][0]["rate"]
    bad_effect["reactions"][0]["effect"] = {"S": -1, "I": 0.5}
    return {"unknown-key": dict(sir, zz_unknown=1), "no-rate": no_rate,
            "bad-effect": bad_effect}


def model_args(name, data=True):
    args = ["--model", f"{{models}}/{name}.json"]
    return args + ["--data", f"{{models}}/{name}-data.csv"] if data else args


def commands():
    """(label, argv, stdin, files): stdin names a theta file written from
    TRUTH, "prev" for the previous command's stdout, or None; files are
    the paths, relative to the working directory, the command writes."""
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
        ("| pmcmc sde", ["pmcmc", *sir, "--formalism", "sde",
                         "--n-particles", "100", "--iterations", "40",
                         "--trace", "pmcmc.csv", "--paths", "paths.csv"],
         "prev", ("pmcmc.csv", "paths.csv")),
    ]
    for formalism in FORMALISMS:
        out.append((f"forecast {formalism} sir",
                    ["forecast", *model_args("sir", data=False),
                     "--formalism", formalism, "--end", "12",
                     "--trajectories", "20"], "sir", ()))
    out.append(("mif sde plague",
                ["mif", *model_args("plague"), "--formalism", "sde",
                 "--iterations", "2", "--n-particles", "100"], "plague", ()))
    # the benchmark's psr commands at their sizes
    out += [
        ("mif psr plague", ["mif", *model_args("plague"), "--iterations", "3"],
         "plague", ()),
        ("smc psr x500 dengue-2strain",
         ["smc", *model_args("dengue-2strain"), "--formalism", "psr",
          "--n-particles", "500"], "dengue-2strain", ()),
        ("forecast psr x200 sir",
         ["forecast", *model_args("sir", data=False), "--formalism", "psr",
          "--end", "12", "--trajectories", "200"], "sir", ()),
    ]
    data = ["--data", "{models}/sir-data.csv"]
    out += [
        ("check-data unknown-key", ["check-data", "--model",
                                    "{work}/unknown-key.json", *data],
         None, (STDERR,)),
        ("simulate no-rate", ["simulate", "--model", "{work}/no-rate.json",
                              "--end", "3"], "sir", (STDERR,)),
        ("kalman bad-effect", ["kalman", "--model", "{work}/bad-effect.json",
                               *data], "sir", (STDERR,)),
    ]
    return out


def run_tree(src, models, work):
    """Run every command against `src`; returns {label: [(name, bytes or
    None)], ...} and the exit codes."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               SSM_SEED=SEED, SOURCE_DATE_EPOCH=EPOCH)
    for name, values in TRUTH.items():
        (work / f"theta-{name}.json").write_text(
            json.dumps({"ssm_theta": 1, "values": values}) + "\n")
    for name, doc in invalid_models(models).items():
        (work / f"{name}.json").write_text(json.dumps(doc))
    outputs, codes = {}, {}
    prev = b""
    for i, (label, argv, stdin, files) in enumerate(commands()):
        cwd = work / f"{i:02d}"
        cwd.mkdir()
        if stdin == "prev":
            data = prev
        elif stdin is None:
            data = b""
        else:
            data = (work / f"theta-{stdin}.json").read_bytes()
        argv = [a.format(models=models, work=work) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "ssm", *argv],
                              input=data, capture_output=True, cwd=cwd,
                              env=env)
        prev = proc.stdout
        codes[label] = proc.returncode
        outputs[label] = [("stdout", proc.stdout)] + [
            (f, b":".join(proc.stderr.split(b":")[:2]) if f == STDERR
             else (cwd / f).read_bytes() if (cwd / f).exists() else None)
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
