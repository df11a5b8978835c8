"""End-to-end checks of the command line tools through subprocesses."""

import csv
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import run_ssm as run
from helpers import ssm_env

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "src" / "ssm" / "models"
SIR = str(MODELS / "sir.json")
SIR_DATA = str(MODELS / "sir-data.csv")

POINT = '{"ssm_theta": 1, "values": {"beta": 1.6, "gamma": 1.1}}'
SUBCOMMANDS = ("simulate", "smc", "kalman", "ksimplex", "mif", "kmcmc",
               "pmcmc", "forecast", "diagnostics")


def read_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


class TestPlumbing:
    def test_module_entry_point(self):
        r = run(["--help"])
        assert r.returncode == 0
        for name in SUBCOMMANDS:
            assert name in r.stdout

    def test_relative_pythonpath_outside_repo(self, monkeypatch, tmp_path):
        # the suite is often started with PYTHONPATH=src; a child process
        # in another directory must still import ssm (the runner is shared
        # by this module and the acceptance gate)
        monkeypatch.setenv("PYTHONPATH", "src")
        r = run(["--help"], cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        for name in SUBCOMMANDS:
            assert name in r.stdout

    def test_runtime_imports_no_scipy(self):
        # scipy is a test-only dependency; a stage must start without it
        code = (
            "import sys\n"
            "from ssm.cli import main\n"
            f"rc = main(['check-data', '--model', {SIR!r}, "
            f"'--data', {SIR_DATA!r}])\n"
            "assert rc == 0, rc\n"
            "assert 'scipy' not in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=ssm_env(), cwd=ROOT)
        assert r.returncode == 0, r.stderr

    def test_stages_import_no_numpy_ma_nor_dataclasses(self, tmp_path):
        # both cost a stage start-up time: numpy.ma through np.quantile,
        # dataclasses through building record classes
        code = (
            "import sys\n"
            "from ssm.cli import main\n"
            f"rc = main(['forecast', '--model', {SIR!r}, '--end', '3', "
            "'--trajectories', '20'])\n"
            "assert rc == 0, rc\n"
            f"rc = main(['check-data', '--model', {SIR!r}, "
            f"'--data', {SIR_DATA!r}])\n"
            "assert rc == 0, rc\n"
            "loaded = sorted({'numpy.ma', 'dataclasses'} & set(sys.modules))\n"
            "assert not loaded, loaded\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=ssm_env(), cwd=tmp_path,
                           input=POINT)
        assert r.returncode == 0, r.stderr

    def test_runtime_imports_no_jsonschema(self):
        # the model schema is checked without jsonschema, a test-only
        # dependency
        code = (
            "import sys\n"
            "import ssm.cli\n"
            "from ssm.model import parse_model\n"
            f"parse_model(open({SIR!r}).read())\n"
            "assert 'jsonschema' not in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('jsonschema'))\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=ssm_env(), cwd=ROOT)
        assert r.returncode == 0, r.stderr

    def test_console_script_installed(self):
        exe = shutil.which("ssm")
        if exe is None:
            pytest.skip("console script not on PATH")
        r = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert r.returncode == 0

    def test_cat_is_idempotent(self):
        doc = ('{"ssm_theta": 1, "values": {"gamma": 1.1, "beta": 1.6},'
               ' "extra_field": [1, 2]}')
        once = run(["cat"], stdin_text=doc)
        twice = run(["cat"], stdin_text=once.stdout)
        assert once.returncode == twice.returncode == 0
        assert once.stdout == twice.stdout
        parsed = json.loads(once.stdout)
        assert parsed["extra_field"] == [1, 2]
        # keys come out sorted so the bytes are canonical
        assert once.stdout == once.stdout.strip() + "\n"

    def test_seed_from_environment(self):
        args = ["simulate", "--model", SIR, "--formalism", "psr",
                "--end", "5", "--every", "1"]
        a = run(args, stdin_text=POINT, env_extra={"SSM_SEED": "9"})
        b = run(args, stdin_text=POINT, env_extra={"SSM_SEED": "9"})
        c = run(args + ["--seed", "10"], stdin_text=POINT,
                env_extra={"SSM_SEED": "9"})
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout != c.stdout


class TestValidation:
    def test_missing_parameter_names_it(self):
        r = run(["smc", "--model", SIR, "--data", SIR_DATA],
                stdin_text='{"ssm_theta": 1, "values": {"beta": 1.6}}')
        assert r.returncode == 2
        assert "gamma" in r.stderr

    def test_malformed_model_names_field(self, tmp_path):
        spec = json.loads(Path(SIR).read_text())
        spec["reactions"][0].pop("rate")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        r = run(["simulate", "--model", str(bad), "--end", "3",
                 "--every", "1"], stdin_text=POINT)
        assert r.returncode == 2
        assert "rate" in r.stderr

    @pytest.mark.parametrize("command", ["check-data", "kalman"])
    def test_schema_violation_is_exit_two(self, tmp_path, command):
        spec = json.loads(Path(SIR).read_text())
        spec["compartments"][0]["name"] = "1S"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        r = run([command, "--model", str(bad), "--data", SIR_DATA],
                stdin_text=POINT)
        assert r.returncode == 2
        assert r.stderr.startswith(
            "error: model schema violation at compartments/0/name"), r.stderr
        assert "Traceback" not in r.stderr

    def test_name_ending_in_newline_is_exit_two(self, tmp_path):
        # the schema's pattern alone accepts "R\n": its $ matches before a
        # final newline
        spec = json.loads(Path(SIR).read_text())
        spec["compartments"][2]["name"] = spec["reactions"][1]["to"] = "R\n"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        r = run(["check-data", "--model", str(bad), "--data", SIR_DATA])
        assert r.returncode == 2
        assert r.stderr.startswith("error: name 'R\\n' is not an "
                                   "identifier"), r.stderr
        assert "Traceback" not in r.stderr

    def test_no_theta_on_stdin(self):
        r = run(["smc", "--model", SIR, "--data", SIR_DATA], stdin_text="")
        assert r.returncode == 2
        assert "theta" in r.stderr

    def test_filter_failure_is_exit_one(self, tmp_path):
        # data the model gives zero density: the chain cannot start
        spec = json.loads(Path(SIR).read_text())
        spec["reactions"][0]["rate"] = "0 * beta"
        model = tmp_path / "zero.json"
        model.write_text(json.dumps(spec))
        data = tmp_path / "d.csv"
        data.write_text("time,stream,value\n1,cases,5\n")
        r = run(["pmcmc", "--model", str(model), "--data", str(data),
                 "--iterations", "10", "--n-particles", "40",
                 "--seed", "1"], stdin_text=POINT, cwd=tmp_path)
        assert r.returncode == 1
        assert "zero-density" in r.stderr
        # beta 50 lies outside its uniform prior: every initial vertex of
        # the simplex has zero posterior
        outside = json.dumps({"ssm_theta": 1,
                              "values": {"beta": 50.0, "gamma": 1.1}})
        for stage in ("simplex", "ksimplex"):
            r = run([stage, "--model", SIR, "--data", SIR_DATA,
                     "--iterations", "10", "--dt", "0.5"],
                    stdin_text=outside, cwd=tmp_path)
            assert r.returncode == 1, stage
            assert r.stderr.startswith("error: "), r.stderr
            assert "not finite at any initial vertex" in r.stderr

    def test_impossible_data_is_minus_infinity(self, tmp_path):
        spec = json.loads(Path(SIR).read_text())
        spec["reactions"][0]["rate"] = "0 * beta"
        model = tmp_path / "zero.json"
        model.write_text(json.dumps(spec))
        data = tmp_path / "d.csv"
        data.write_text("time,stream,value\n1,cases,5\n")
        r = run(["smc", "--model", str(model), "--data", str(data),
                 "--n-particles", "40", "--seed", "1"], stdin_text=POINT)
        assert r.returncode == 0
        assert json.loads(r.stdout)["log_likelihood"] == -np.inf

    @pytest.mark.parametrize("stage", ["simplex", "ksimplex", "mif",
                                       "kmcmc", "pmcmc"])
    def test_model_without_estimated_parameters(self, tmp_path, stage):
        # every fitting stage refuses a model with nothing to fit
        spec = json.loads(Path(SIR).read_text())
        for p in spec["parameters"]:
            if p["name"] in ("beta", "gamma"):
                p["prior"] = {"dirac": 1.5}
                p["role"] = "fixed"
        model = tmp_path / "fixed.json"
        model.write_text(json.dumps(spec))
        r = run([stage, "--model", str(model), "--data", SIR_DATA,
                 "--iterations", "3", "--seed", "1"], stdin_text=POINT,
                cwd=tmp_path)
        assert r.returncode == 2
        assert f"error: model '{spec['name']}'" in r.stderr
        assert "Traceback" not in r.stderr

    def test_overflowing_observation_formula(self, tmp_path):
        # exp overflows on Python floats before t = 5; numpy's exp gives
        # inf there, and the min makes the mean finite
        spec = json.loads(Path(SIR).read_text())
        spec["observations"][0]["mean"] = "rho*inc*min(1, exp(1000*(t - 5)))"
        model = tmp_path / "overflow.json"
        model.write_text(json.dumps(spec))
        r = run(["kalman", "--model", str(model), "--data", SIR_DATA],
                stdin_text=POINT, cwd=tmp_path)
        assert "Traceback" not in r.stderr
        if r.returncode:
            assert r.returncode in (1, 2)
            assert "error: " in r.stderr
        else:
            assert np.isfinite(json.loads(r.stdout)["log_likelihood"])

    @pytest.mark.parametrize("argv", [
        *(["simulate", "--formalism", f, "--end", "3"] for f in
          ("ode", "sde", "psr", "jump")),
        ["smc", "--formalism", "psr", "--n-particles", "20",
         "--data", SIR_DATA],
        ["kalman", "--data", SIR_DATA]])
    def test_negative_initial_compartment_is_exit_one(self, tmp_path, argv):
        # -0.0 is no negative count
        spec = json.loads(Path(SIR).read_text())
        i0, = (p for p in spec["parameters"] if p["name"] == "I0")
        model = tmp_path / "negative.json"
        for value, code in ((-0.0, 0), (-5, 1)):
            i0["prior"] = {"dirac": value}
            model.write_text(json.dumps(spec))
            r = run([*argv, "--model", str(model)], stdin_text=POINT)
            assert r.returncode == code, r.stderr
        assert r.stderr == "error: initial I is negative\n"

    @pytest.mark.parametrize("argv", [
        ["smc", "--n-particles", "0"], ["smc", "--n-particles", "-3"],
        ["mif", "--n-particles", "0"], ["pmcmc", "--n-particles", "0"],
        ["forecast", "--trajectories", "0"],
        ["simulate", "--trajectories", "0"],
        ["kmcmc", "--iterations", "-2"], ["simplex", "--iterations", "-1"],
        ["smc", "--dt", "0"], ["smc", "--dt", "-1"],
        ["simulate", "--dt", "nan"], ["simulate", "--every", "0"],
        ["forecast", "--every", "-1"],
        ["simulate", "--end", "-1"], ["forecast", "--end", "-0.5"],
        ["forecast", "--burn", "-1"], ["forecast", "--burn", "1"],
        ["diagnostics", "--burn", "1.5"], ["diagnostics", "--burn", "nan"],
        ["kalman", "--t0", "nan"], ["mif", "--t0", "inf"],
        ["simulate", "--seed", "-1"], ["kalman", "--seed", "-1"],
        ["forecast", "--start", "inf"], ["simulate", "--start", "nan"],
        ["simulate", "--end", "inf"], ["forecast", "--end", "inf"],
        ["mif", "--cooling", "nan"], ["mif", "--cooling", "-1"],
        ["mif", "--cooling", "0"], ["mif", "--cooling", "1.5"],
        ["mif", "--perturbation-sd", "-0.5"],
        ["mif", "--perturbation-sd", "inf"],
        ["mif", "--perturbation-sd", "nan"],
        ["ksimplex", "--step", "nan"], ["simplex", "--step", "0"],
        ["ksimplex", "--step", "inf"]])
    def test_sizes_and_steps_out_of_range_are_exit_two(self, argv):
        command, option, value = argv
        bound = {"--n-particles": "at least 1", "--trajectories": "at least 1",
                 "--iterations": "at least 0", "--dt": "greater than 0",
                 "--every": "greater than 0", "--end": "at least --start",
                 "--burn": "in [0, 1)", "--t0": "finite",
                 "--seed": "at least 0", "--start": "finite",
                 "--cooling": "in (0, 1]",
                 "--perturbation-sd": "finite and at least 0",
                 "--step": "finite and not 0"}
        if option == "--end" and not np.isfinite(float(value)):
            bound["--end"] = "finite"
        where = {"simulate": ["--model", SIR, "--end", "3"],
                 "forecast": ["--model", SIR, "--end", "3"],
                 "diagnostics": ["--trace", "trace.csv"]}.get(
            command, ["--model", SIR, "--data", SIR_DATA])
        # the option comes last, so it overrides a default in `where`
        r = run([command, *where, option, value], stdin_text=POINT)
        assert r.returncode == 2
        errors = [line for line in r.stderr.splitlines() if "error:" in line]
        assert errors == [f"ssm {command}: error: argument {option}: must "
                          f"be {bound[option]}, got {value}"]

    @pytest.mark.parametrize("seed", ["-3", "abc", "", "1.5"])
    def test_bad_seed_in_the_environment_is_exit_two(self, seed):
        env = {"SSM_SEED": seed}
        for argv in (["simulate", "--model", SIR, "--end", "3"],
                     ["kalman", "--model", SIR, "--data", SIR_DATA]):
            r = run(argv, stdin_text=POINT, env_extra=env)
            assert r.returncode == 2
            assert r.stderr == (f"error: SSM_SEED: must be an integer of at "
                                f"least 0, got {seed!r}\n")
            # --seed takes its place
            r = run([*argv, "--seed", "1"], stdin_text=POINT, env_extra=env)
            assert r.returncode == 0, r.stderr
        # a command without a seed does not read it
        r = run(["check-data", "--model", SIR, "--data", SIR_DATA],
                env_extra=env)
        assert r.returncode == 0, r.stderr

    @pytest.mark.parametrize("field,doc", [
        ("values.beta", '"values": {"beta": NaN, "gamma": 1.1}'),
        ("values.gamma", '"values": {"beta": 1.6, "gamma": Infinity}'),
        ("perturbation_sd.beta", '"values": {"beta": 1.6, "gamma": 1.1}, '
                                 '"perturbation_sd": {"beta": "x"}'),
        ("covariance.matrix", '"values": {"beta": 1.6, "gamma": 1.1}, '
                              '"covariance": {"order": ["beta", "gamma"], '
                              '"matrix": [[0.1, 0], [0, NaN]]}'),
    ])
    @pytest.mark.parametrize("command", ["kalman", "kmcmc"])
    def test_unusable_theta_numbers_are_exit_two(self, tmp_path, command,
                                                 field, doc):
        extra = {"kmcmc": ["--iterations", "20", "--dt", "0.5", "--trace",
                           str(tmp_path / "t.csv")]}.get(command, [])
        r = run([command, "--model", SIR, "--data", SIR_DATA, *extra],
                stdin_text='{"ssm_theta": 1, ' + doc + "}")
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: theta document: field "
                                   f"'{field}' ")
        assert r.stderr.count("\n") == 1

    def test_zero_iterations_stay_valid(self):
        r = run(["simplex", "--model", SIR, "--data", SIR_DATA,
                 "--iterations", "0", "--dt", "0.5"], stdin_text=POINT)
        assert r.returncode == 0, r.stderr
        assert "after 0 iteration(s)" in r.stderr

    @pytest.mark.parametrize("argv", [
        ["kalman"], ["smc", "--formalism", "sde"], ["simplex"], ["mif"]])
    def test_t0_after_the_first_observation_is_exit_two(self, argv):
        # the shipped SIR data start at t = 1
        r = run([*argv, "--model", SIR, "--data", SIR_DATA, "--t0", "30"],
                stdin_text=POINT, env_extra={"SSM_SEED": "3"})
        assert r.returncode == 2
        assert r.stderr == (f"error: {SIR_DATA}: the first observation, at "
                            "t=1, precedes --t0 30\n")
        assert "Traceback" not in r.stderr

    def test_t0_at_the_first_observation_stays_valid(self):
        r = run(["kalman", "--model", SIR, "--data", SIR_DATA, "--t0", "1"],
                stdin_text=POINT)
        assert r.returncode == 0, r.stderr

    def test_check_data_reports_problems(self, tmp_path):
        bad = tmp_path / "d.csv"
        bad.write_text("time,stream,value\n"
                       "2,cases,5\n1,cases,3\n1,ghosts,1\n2,cases,2.5\n")
        r = run(["check-data", "--model", SIR, "--data", str(bad)])
        assert r.returncode == 2
        report = json.loads(r.stdout)
        text = " ".join(report["problems"])
        assert "not sorted" in text
        assert "ghosts" in text
        assert "not an integer" in text

    def test_check_data_accepts_shipped_files(self):
        for stem in ("sir", "plague", "seir-h1n1", "dengue-2strain"):
            model = str(MODELS / f"{stem}.json")
            data = str(MODELS / f"{stem}-data.csv")
            r = run(["check-data", "--model", model, "--data", data])
            assert r.returncode == 0, r.stderr
            assert json.loads(r.stdout)["problems"] == []


class TestScore:
    def test_smc_reports_ess_fraction(self):
        r = run(["smc", "--model", SIR, "--data", SIR_DATA,
                 "--n-particles", "100", "--seed", "3"], stdin_text=POINT)
        assert r.returncode == 0, r.stderr
        words = r.stderr.split()
        low = float(words[words.index("min") + 1])
        mean = float(words[words.index("mean") + 1])
        assert 0.0 < low <= mean <= 1.0
        assert json.loads(r.stdout)["log_likelihood"] < 0.0

    def test_kalman_and_smc_record_their_stage(self):
        for argv in (["kalman"], ["smc", "--n-particles", "50"]):
            stage = argv[0]
            r = run([*argv, "--model", SIR, "--data", SIR_DATA, "--seed", "3"],
                    stdin_text=POINT)
            assert r.returncode == 0, r.stderr
            doc = json.loads(r.stdout)
            assert doc["provenance"][-1]["stage"] == stage
            assert np.isfinite(doc["log_posterior"])


    def test_kalman_reports_filter_repairs(self):
        # the counts on stderr are the filter's own, for the same values
        from ssm.compiled import CompiledModel
        from ssm.filters import ekf_filter
        from ssm.model import load_model
        from ssm.observe import DataSet

        r = run(["kalman", "--model", SIR, "--data", SIR_DATA],
                stdin_text=POINT)
        assert r.returncode == 0, r.stderr
        shown = re.search(
            r"\((\d+) updates; mean clipped (\d+), variance floored (\d+), "
            r"psd rounding (\d+), psd eigen (\d+), observation variance "
            r"floored (\d+)\)", r.stderr)
        assert shown, r.stderr
        cm = CompiledModel(load_model(SIR))
        values = cm.spec.resolve_values(json.loads(POINT)["values"])
        res = ekf_filter(cm, DataSet.from_csv(SIR_DATA), values, 0.0)
        assert [int(g) for g in shown.groups()] == list(res.repairs.values())
        assert "repairs" not in r.stdout

    def test_overflowing_rate_on_floats_is_scored(self, tmp_path):
        # exp overflows once t > 5.7; Python floats raise on it, numpy
        # takes it to inf, which min() then caps at 1
        spec = json.loads(Path(SIR).read_text())
        spec["reactions"][0]["rate"] = "beta*min(1, exp(1000*(t - 5)))*I/N"
        model = tmp_path / "switch.json"
        model.write_text(json.dumps(spec))
        r = run(["kalman", "--model", str(model), "--data", SIR_DATA],
                stdin_text=POINT)
        assert r.returncode == 0, r.stderr
        assert np.isfinite(json.loads(r.stdout)["log_likelihood"])


class TestScorePairing:
    """A stage's log_posterior is its own log_likelihood plus the log prior
    of the values it emits, never a figure left by an earlier stage."""

    STALE = {"ssm_theta": 1, "values": {"beta": 1.6, "gamma": 1.1},
             "log_likelihood": -1.0, "log_posterior": 123.0}

    def emitted(self, capsys, tmp_path, argv, incoming=None):
        from ssm import cli

        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(incoming or self.STALE))
        assert cli.main([*argv, "--theta", str(theta)]) == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("stage, name, extra", [
        ("kmcmc", "ekf_filter", ["--dt", "0.5"]),
        ("pmcmc", "smc_filter", ["--n-particles", "20", "--formalism",
                                 "sde"]),
    ])
    def test_failed_rescoring(self, monkeypatch, capsys, tmp_path, stage,
                              name, extra):
        # the filter fails only on the call that rescores the posterior
        # mean, once the chain has been summarised
        from ssm import cli, filters, mcmc, optimize
        from ssm.filters import FilterError

        armed = []
        finish = mcmc._finish

        def finish_then_arm(*args, **kwargs):
            armed.append(True)
            return finish(*args, **kwargs)

        original = getattr(filters, name)

        def failing(*args, **kwargs):
            if armed:
                raise FilterError("injected rescoring failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(mcmc, "_finish", finish_then_arm)
        for module in (cli, mcmc, optimize):
            monkeypatch.setattr(module, name, failing)
        doc = self.emitted(capsys, tmp_path, [
            stage, "--model", SIR, "--data", SIR_DATA, "--iterations", "4",
            "--trace", str(tmp_path / "trace.csv"), "--seed", "3", *extra])
        space = cli.load_model(SIR).free_parameters()
        assert doc["log_posterior"] != self.STALE["log_posterior"]
        assert doc["log_posterior"] == \
            doc["log_likelihood"] + space.log_prior_natural(doc["values"])

    SMALL = {"smc": ["--n-particles", "20"], "kalman": [],
             "simplex": ["--iterations", "3", "--dt", "0.5"],
             "ksimplex": ["--iterations", "3", "--dt", "0.5"],
             "mif": ["--iterations", "1", "--n-particles", "20"],
             "kmcmc": ["--iterations", "4", "--dt", "0.5"],
             "pmcmc": ["--iterations", "4", "--n-particles", "20"]}

    @pytest.mark.parametrize("stage", SMALL)
    def test_every_stage(self, capsys, tmp_path, stage):
        # the protocol: unknown keys pass through, provenance grows by one
        # entry for this stage, and the two figures describe the values
        # emitted
        from ssm import cli

        earlier = {"stage": "earlier", "seed": 1,
                   "timestamp": "2020-01-01T00:00:00Z"}
        incoming = dict(self.STALE, zz_unknown={"kept": [1, 2]},
                        provenance=[earlier])
        chains = ["--trace", str(tmp_path / "trace.csv")] \
            if stage in ("kmcmc", "pmcmc") else []
        doc = self.emitted(capsys, tmp_path, [
            stage, "--model", SIR, "--data", SIR_DATA, "--seed", "5",
            *self.SMALL[stage], *chains], incoming)
        assert doc["zz_unknown"] == {"kept": [1, 2]}
        assert doc["provenance"][0] == earlier
        entry, = doc["provenance"][1:]
        assert (entry["stage"], entry["seed"]) == (stage, 5)
        assert ("iterations" in entry) == (stage not in ("smc", "kalman"))
        space = cli.load_model(SIR).free_parameters()
        assert doc["log_likelihood"] != self.STALE["log_likelihood"]
        assert doc["log_posterior"] == \
            doc["log_likelihood"] + space.log_prior_natural(doc["values"])

    def test_model_without_free_parameters(self, capsys, tmp_path):
        spec = json.loads(Path(SIR).read_text())
        for p in spec["parameters"]:
            if p["name"] in self.STALE["values"]:
                p["prior"] = {"dirac": self.STALE["values"][p["name"]]}
                p["role"] = "fixed"
        model = tmp_path / "fixed.json"
        model.write_text(json.dumps(spec))
        doc = self.emitted(capsys, tmp_path, [
            "kalman", "--model", str(model), "--data", SIR_DATA])
        assert doc["log_likelihood"] != self.STALE["log_likelihood"]
        assert doc["log_posterior"] == doc["log_likelihood"]


class TestSimulate:
    def test_closed_pipe_is_a_clean_exit(self):
        # `ssm simulate ... | head -1`: far more rows than a pipe buffers,
        # so the writer meets the closed pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "ssm", "simulate", "--model", SIR,
             "--end", "1", "--trajectories", "5000"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=ssm_env(), cwd=ROOT,
        )
        proc.stdin.write(POINT)
        proc.stdin.close()
        assert proc.stdout.readline().startswith("trajectory,t,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == ""

    def test_csv_shape(self):
        r = run(["simulate", "--model", SIR, "--formalism", "psr",
                 "--end", "4", "--every", "1", "--trajectories", "3",
                 "--seed", "4"], stdin_text=POINT)
        assert r.returncode == 0
        header, rows = read_csv(r.stdout)
        assert header == ["trajectory", "t", "S", "I", "R", "inc"]
        assert len(rows) == 3 * 5
        assert [row[0] for row in rows[:5]] == ["0"] * 5
        total = float(rows[4][2]) + float(rows[4][3]) + float(rows[4][4])
        assert total == pytest.approx(10000.0)

    def test_jump_state_is_integral(self):
        r = run(["simulate", "--model", SIR, "--formalism", "jump",
                 "--end", "3", "--every", "1", "--seed", "5"],
                stdin_text=POINT)
        header, rows = read_csv(r.stdout)
        for row in rows:
            for cell in row[2:]:
                assert float(cell) == round(float(cell))


class TestForecast:
    def test_quantiles_are_monotone(self):
        r = run(["forecast", "--model", SIR, "--formalism", "psr",
                 "--start", "0", "--end", "6", "--every", "1",
                 "--trajectories", "120", "--seed", "6"], stdin_text=POINT)
        assert r.returncode == 0
        header, rows = read_csv(r.stdout)
        assert header == ["time", "stream", "q025", "q25", "q50",
                          "q75", "q975"]
        assert len(rows) == 6
        for row in rows:
            qs = [float(c) for c in row[2:]]
            assert qs == sorted(qs)

    def test_single_ode_trajectory_matches_simulate(self):
        fc = run(["forecast", "--model", SIR, "--formalism", "ode",
                  "--start", "0", "--end", "6", "--every", "1",
                  "--trajectories", "1"], stdin_text=POINT)
        sim = run(["simulate", "--model", SIR, "--formalism", "ode",
                   "--end", "6", "--every", "1"], stdin_text=POINT)
        _, fc_rows = read_csv(fc.stdout)
        _, sim_rows = read_csv(sim.stdout)
        cumulative = [float(row[5]) for row in sim_rows]
        windows = np.diff(cumulative)
        medians = [float(row[4]) for row in fc_rows]
        # reporting is rho times the incidence window, rho = 0.5
        assert np.allclose(medians, 0.5 * windows, rtol=1e-9, atol=1e-9)


class TestChain:
    def test_three_stage_pipeline(self, tmp_path):
        env = {"SSM_SEED": "3"}
        ks = run(["ksimplex", "--model", SIR, "--data", SIR_DATA,
                  "--iterations", "40"],
                 stdin_text=POINT, env_extra=env)
        assert ks.returncode == 0, ks.stderr
        trace = tmp_path / "k.csv"
        km = run(["kmcmc", "--model", SIR, "--data", SIR_DATA,
                  "--iterations", "150", "--trace", str(trace)],
                 stdin_text=ks.stdout, env_extra=env)
        assert km.returncode == 0, km.stderr
        ptrace = tmp_path / "p.csv"
        pm = run(["pmcmc", "--model", SIR, "--data", SIR_DATA,
                  "--iterations", "60", "--n-particles", "60",
                  "--trace", str(ptrace)],
                 stdin_text=km.stdout, env_extra=env)
        assert pm.returncode == 0, pm.stderr
        # the early-rejection counts go to stderr, and only there; the
        # shipped SIR's 52 instants, one start and n proposals per chain
        for r, n in ((km, 150), (pm, 60)):
            m = re.search(r"early rejections (\d+) of (\d+) proposals, "
                          r"filter instants run (\d+) of (\d+)", r.stderr)
            assert m, r.stderr
            stopped, proposals, run_, full = map(int, m.groups())
            assert proposals == n and full == 52 * (n + 1)
            assert 0 < stopped < n and run_ < full
            assert "early" not in r.stdout and "instants" not in r.stdout

        doc = json.loads(pm.stdout)
        assert [p["stage"] for p in doc["provenance"]] == [
            "ksimplex", "kmcmc", "pmcmc"]
        for p in doc["provenance"]:
            assert p["seed"] == 3
            assert p["timestamp"] == "2023-11-14T22:13:20Z"
        assert set(doc["covariance"]["order"]) == {"beta", "gamma"}
        assert np.isfinite(doc["log_likelihood"])
        assert 0.5 < doc["values"]["beta"] < 5.0

        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 150
        assert set(rows[0]) == {"iteration", "beta", "gamma",
                                "log_likelihood", "log_prior", "accepted"}
        # the recorded prior is the natural-scale density: both priors are
        # uniform, so every in-support row carries the same constant
        lp = -np.log(5.0 - 0.3) - np.log(3.0 - 0.3)
        assert float(rows[7]["log_prior"]) == pytest.approx(lp, abs=1e-10)

    def test_identical_seeds_identical_bytes(self, tmp_path):
        env = {"SSM_SEED": "12"}
        outs = []
        for tag in ("a", "b"):
            trace = tmp_path / f"{tag}.csv"
            r = run(["kmcmc", "--model", SIR, "--data", SIR_DATA,
                     "--iterations", "40", "--trace", str(trace)],
                    stdin_text=POINT, env_extra=env)
            assert r.returncode == 0, r.stderr
            outs.append((r.stdout, trace.read_bytes()))
        assert outs[0] == outs[1]

    def test_pmcmc_paths_written_only_on_request(self, tmp_path):
        with_dir = tmp_path / "with"
        without_dir = tmp_path / "without"
        with_dir.mkdir()
        without_dir.mkdir()
        pa = with_dir / "paths.csv"
        base = ["pmcmc", "--model", SIR, "--data", SIR_DATA,
                "--iterations", "25", "--n-particles", "40", "--seed", "2"]
        r = run(base + ["--paths", str(pa)], stdin_text=POINT, cwd=with_dir)
        assert r.returncode == 0, r.stderr
        header, rows = read_csv(pa.read_text())
        assert header == ["iteration", "time", "S", "I", "R", "inc"]
        accepted = {int(row[0]) for row in rows}
        assert len(rows) == 52 * len(accepted)
        r2 = run(base, stdin_text=POINT, cwd=without_dir)
        assert r2.returncode == 0, r2.stderr
        made = {p.name for p in without_dir.iterdir()}
        assert made == {"trace.csv"}

    @pytest.mark.parametrize("stage", ["kmcmc", "pmcmc"])
    @pytest.mark.parametrize("iterations", [0, 1])
    def test_short_chain_keeps_the_pipe_valid(self, tmp_path, stage,
                                              iterations):
        # no kept row: the incoming values; fewer than two: the incoming
        # covariance; either way scored and strict JSON
        from ssm.model import load_model

        cov = [[0.01, 0.002], [0.002, 0.02]]
        incoming = json.dumps({"ssm_theta": 1,
                               "values": {"beta": 1.6, "gamma": 1.1},
                               "covariance": {"order": ["beta", "gamma"],
                                              "matrix": cov}})
        trace = tmp_path / "trace.csv"
        r = run([stage, "--model", SIR, "--data", SIR_DATA, "--seed", "4",
                 "--iterations", str(iterations), "--trace", str(trace),
                 *{"kmcmc": ["--dt", "0.5"],
                   "pmcmc": ["--n-particles", "20"]}[stage]],
                stdin_text=incoming)
        assert r.returncode == 0, r.stderr
        assert "Warning" not in r.stderr

        def reject(name):
            raise ValueError(f"not strict JSON: {name}")

        doc = json.loads(r.stdout, parse_constant=reject)
        assert doc["covariance"] == {"order": ["beta", "gamma"],
                                     "matrix": cov}
        assert all(np.isfinite(v) for v in doc["values"].values())
        if iterations == 0:
            assert doc["values"] == {"beta": 1.6, "gamma": 1.1}
        space = load_model(SIR).free_parameters()
        assert doc["log_posterior"] == \
            doc["log_likelihood"] + space.log_prior_natural(doc["values"])
        assert doc["provenance"][-1]["iterations"] == iterations
        assert len(trace.read_text().splitlines()) == 1 + iterations

    def test_diagnostics_of_an_empty_trace(self, tmp_path):
        # a zero-iteration chain writes the header alone
        trace = tmp_path / "t.csv"
        trace.write_text("iteration,beta,gamma,log_likelihood,log_prior,"
                         "accepted\n")
        r = run(["diagnostics", "--trace", str(trace), "--burn", "0"])
        assert r.returncode == 2
        assert r.stderr == f"error: {trace}: no rows left after burn-in\n"

    @pytest.mark.parametrize("text, problem", [
        ("time,stream\n1,cases\n", ": not a chain trace"),
        ("iteration,beta,log_likelihood,log_prior,accepted\n"
         "0,1.5,-100.0,x,1\n", ":2: a cell is not a number"),
        ("iteration,beta,log_likelihood,log_prior,accepted\n"
         "0,1.5,-100.0,-2.5,1\n0,1.5,-100.0,1\n",
         ":3: expected 5 cells, got 4"),
        ("iteration,beta,log_likelihood,log_prior,accepted\n"
         "0,nan,-100.0,-2.5,1\n", ":2: a parameter value is not finite"),
        ("iteration,beta,log_likelihood,log_prior,accepted\n"
         "0,1.5,-inf,-2.5,1\n1,-inf,-100.0,-2.5,1\n",
         ":3: a parameter value is not finite"),
    ], ids=["header", "non-numeric", "short-row", "nan", "inf"])
    @pytest.mark.parametrize("command", ["diagnostics", "forecast"])
    def test_bad_trace_is_exit_two(self, tmp_path, command, text, problem):
        trace = tmp_path / "t.csv"
        trace.write_text(text)
        extra = (["--model", SIR, "--end", "3"] if command == "forecast"
                 else [])
        r = run([command, *extra, "--trace", str(trace)], stdin_text=POINT)
        assert r.returncode == 2
        assert r.stderr == f"error: {trace}{problem}\n"
        assert "Traceback" not in r.stderr

    def test_diagnostics_shape(self, tmp_path):
        trace = tmp_path / "t.csv"
        with open(trace, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "beta", "gamma", "log_likelihood",
                        "log_prior", "accepted"])
            rng = np.random.default_rng(0)
            for i in range(40):
                w.writerow([i, 1.5 + 0.01 * rng.standard_normal(),
                            1.0 + 0.01 * rng.standard_normal(),
                            -100 - rng.random(), -2.5, int(i % 3 != 0)])
        r = run(["diagnostics", "--trace", str(trace), "--burn", "0.5"])
        assert r.returncode == 0
        d = json.loads(r.stdout)
        assert d["iterations"] == 40
        assert d["burn"] == 20
        assert 0.6 < d["acceptance_rate"] < 0.7
        assert set(d["ess"]) == {"beta", "gamma"}
        assert d["posterior_mean"]["beta"] == pytest.approx(1.5, abs=0.05)
        assert d["log_likelihood_max"] > -101.0
