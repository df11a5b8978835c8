"""Release gate: one test per acceptance criterion, one verdict line each.

Every criterion from the project checklist runs here at its stated
tolerance.  A verbose run prints `[acceptance] criterion N ...: PASS` per
item so the suite output doubles as the release checklist.  Numbers that
look arbitrary (seeds, checkpoint times, displacement factors) are frozen
on purpose: they were chosen once, validated, and must not drift.

Criterion 7's twenty-repetition calibration run takes hours, so it only
runs when SSM_NIGHTLY is set; the pull-request variant runs the pipeline
once and checks interval containment.
"""

import contextlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import local_level_model
from helpers import run_ssm as run_cli
from ssm import observe as ob
from ssm import optimize as opt
from ssm import simulate as sim
from ssm.compiled import CompiledModel
from ssm.filters import ekf_filter, smc_filter
from ssm.mcmc import Trace, adaptive_chain, ess
from ssm.model import parse_model
from ssm.observe import DataSet

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "src" / "ssm" / "models"
SIR = MODELS / "sir.json"
SIR_DATA = MODELS / "sir-data.csv"
SIR_THETA = MODELS / "sir-theta.json"


@pytest.fixture
def report(capfd):
    def emit(line):
        with capfd.disabled():
            print(line, flush=True)

    return emit


@contextlib.contextmanager
def criterion(report, n, label):
    try:
        yield
    except BaseException as e:
        report(f"[acceptance] criterion {n:2d} ({label}): "
               f"FAIL ({type(e).__name__})")
        raise
    report(f"[acceptance] criterion {n:2d} ({label}): PASS")


def sir_spec():
    return parse_model(SIR.read_text())


# ----------------------------------------------------------------------
# criterion 1: exact linear-Gaussian oracle

def kalman_loglik(times, ys, x0, c, q2, r):
    """Textbook discrete Kalman filter for a drifting level observed
    through variance-r noise; the independent oracle for the moment
    filter and the particle filter."""
    m, v, ll, prev = x0, 0.0, 0.0, 0.0
    for t, y in zip(times, ys):
        gap = t - prev
        m += c * gap
        v += q2 * gap
        s = v + r
        ll += -0.5 * (np.log(2.0 * np.pi * s) + (y - m) ** 2 / s)
        k = v / s
        m += k * (y - m)
        v *= 1.0 - k
        prev = t
    return ll


def level_problem(n=50, seed=11):
    spec = local_level_model()
    cm = CompiledModel(spec)
    vals = spec.resolve_values({"x0": 2.0, "c_drift": 0.1})
    rng = np.random.default_rng(seed)
    times = np.arange(1.0, n + 1.0)
    x = vals["x0"]
    ys = []
    for _ in times:
        x += vals["c_drift"] + vals["q_sd"] * rng.standard_normal()
        ys.append(round(x + np.sqrt(vals["tau2"]) * rng.standard_normal()))
    ds = DataSet([(float(t), "y", float(y)) for t, y in zip(times, ys)])
    exact = kalman_loglik(times, ys, vals["x0"], vals["c_drift"],
                          vals["q_sd"] ** 2, vals["tau2"])
    return cm, ds, vals, exact


def test_criterion_01_linear_gaussian_oracle(report):
    with criterion(report, 1, "linear-Gaussian oracle"):
        start = time.monotonic()
        cm, ds, vals, exact = level_problem()

        got = ekf_filter(cm, ds, vals, t0=0.0).loglik
        assert abs(got - exact) <= 1e-8

        # the particle filter estimates the likelihood without bias, so
        # the mean of exp(estimate - exact) over seeds should sit at 1
        ratios = np.empty(200)
        for s in range(200):
            ll = smc_filter(cm, ds, vals, t0=0.0,
                            rng=np.random.default_rng(1000 + s),
                            n_particles=512, formalism="sde").loglik
            ratios[s] = np.exp(ll - exact)
        assert np.all(np.isfinite(ratios))
        se = ratios.std(ddof=1) / np.sqrt(len(ratios))
        assert abs(ratios.mean() - 1.0) <= 3.0 * se
        assert time.monotonic() - start < 60.0


# ----------------------------------------------------------------------
# criterion 2: estimator variance shrinks with the particle count

def test_criterion_02_smc_variance_decreasing(report):
    with criterion(report, 2, "variance vs particle count"):
        start = time.monotonic()
        spec = sir_spec()
        cm = CompiledModel(spec)
        ds = DataSet.from_csv(SIR_DATA)
        vals = spec.resolve_values({"beta": 1.6, "gamma": 1.1})
        variances = []
        for idx, j in enumerate((64, 256, 1024)):
            lls = [
                smc_filter(cm, ds, vals, t0=0.0,
                           rng=np.random.default_rng(2000 + 100 * idx + s),
                           n_particles=j, formalism="sde").loglik
                for s in range(30)
            ]
            variances.append(np.var(lls, ddof=1))
        assert variances[0] > variances[1] > variances[2]
        assert time.monotonic() - start < 120.0


# ----------------------------------------------------------------------
# criterion 3: the four formalisms agree where they should

def test_criterion_03_formalism_consistency(report):
    with criterion(report, 3, "formalism consistency"):
        start = time.monotonic()
        spec = sir_spec()
        cm = CompiledModel(spec)

        # diffusion ensemble mean against the deterministic path at
        # N=1e6; checkpoints span growth, peak and decline while the
        # infectious count is still macroscopic, and the substep is small
        # enough that the Euler drift error stays well under the band
        vals = spec.resolve_values({"beta": 1.5, "gamma": 1.0,
                                    "N": 1.0e6, "I0": 1.0e4})
        times = np.arange(0.0, 17.0)
        ode = sim.simulate_paths(cm, vals, times, formalism="ode")[0]
        sde = sim.simulate_paths(cm, vals, times, formalism="sde",
                                 rng=np.random.default_rng(21),
                                 trajectories=1000, dt=0.01)
        mean_i = sde[:, :, 1].mean(axis=0)
        for t in (2, 5, 8, 12, 16):
            k = int(t)
            assert abs(mean_i[k] - ode[k, 1]) / ode[k, 1] <= 0.01

        # demographic variance scales as 1/N: a hundredfold population
        # increase should shrink the fraction variance a hundredfold
        fraction_vars = []
        for n, seed in ((1.0e5, 22), (1.0e7, 23)):
            v = spec.resolve_values({"beta": 1.5, "gamma": 1.0,
                                     "N": n, "I0": 1.0e-3 * n})
            p = sim.simulate_paths(cm, v, np.arange(0.0, 11.0),
                                   formalism="sde",
                                   rng=np.random.default_rng(seed),
                                   trajectories=1000)
            fraction_vars.append((p[:, 10, 1] / n).var(ddof=1))
        ratio = fraction_vars[0] / fraction_vars[1]
        assert 70.0 <= ratio <= 140.0

        # at N=100 the exact jump process and the fine-step Poisson
        # bridge must agree in mean within Monte-Carlo resolution
        small = spec.resolve_values({"beta": 1.5, "gamma": 1.0,
                                     "N": 100.0, "I0": 10.0})
        grid = np.arange(0.0, 16.0, 3.0)
        jump = sim.simulate_paths(cm, small, grid, formalism="jump",
                                  rng=np.random.default_rng(24),
                                  trajectories=800)
        psr = sim.simulate_paths(cm, small, grid, formalism="psr",
                                 rng=np.random.default_rng(25),
                                 trajectories=800, dt=0.01)
        for k in range(1, len(grid)):
            mj = jump[:, k, 1].mean()
            mp = psr[:, k, 1].mean()
            se = np.sqrt(jump[:, k, 1].var(ddof=1) / 800
                         + psr[:, k, 1].var(ddof=1) / 800)
            assert abs(mj - mp) <= 3.0 * se
        assert time.monotonic() - start < 300.0


# ----------------------------------------------------------------------
# criterion 4: adaptive random-walk Metropolis calibrates itself

def test_criterion_04_adaptive_metropolis(report):
    with criterion(report, 4, "adaptive Metropolis"):
        target_cov = np.array([[1.0, 0.6], [0.6, 0.5]])
        prec = np.linalg.inv(target_cov)

        def target(u, bar):
            return float(-0.5 * u @ prec @ u), 0.0, None

        res = adaptive_chain(target, np.array([2.0, -2.0]),
                             np.diag([0.25, 0.25]),
                             np.random.default_rng(31), 50_000)
        # judge the acceptance rate on the adapted half of the run
        rate = res.accepted[25_000:].mean()
        assert 0.18 <= rate <= 0.29
        emp = np.cov(res.unconstrained[10_000:].T)
        rel = (np.linalg.norm(emp - target_cov, "fro")
               / np.linalg.norm(target_cov, "fro"))
        assert rel <= 0.15


# ----------------------------------------------------------------------
# criterion 5: the simplex optimizers find known optima

def test_criterion_05_optimizers(report):
    with criterion(report, 5, "simplex optimizers"):
        def neg_rosenbrock(v):
            x, y = v
            return -((1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2)

        res = opt.nelder_mead(neg_rosenbrock, np.array([-1.2, 1.0]),
                              step=0.5, iterations=2000, xtol=1e-9)
        assert np.max(np.abs(res.x - 1.0)) <= 1e-4

        # recover (beta, gamma) on a synthetic diffusion season from a
        # start displaced 1.5x above the truth; a single fixed dataset is
        # used because 5% is about one sd of estimation error at n=52,
        # so a fresh dataset per run would make this a coin flip
        spec = sir_spec()
        cm = CompiledModel(spec)
        truth = spec.resolve_values({"beta": 1.5, "gamma": 1.0})
        rng = np.random.default_rng(1)
        times = np.arange(0.0, 53.0)
        path = sim.simulate_paths(cm, truth, times, formalism="sde",
                                  rng=rng)[0]
        inc = np.diff(path[:, 3])
        ys = rng.poisson(0.5 * np.clip(inc, 0.0, None))
        ds = DataSet([(float(t), "cases", float(y))
                      for t, y in zip(times[1:], ys)])
        space = spec.free_parameters()
        displaced = spec.resolve_values({"beta": 2.25, "gamma": 1.5})
        out = opt.maximize_stage(cm, ds, space, displaced, t0=0.0,
                                 kind="ekf", iterations=250)
        assert abs(out["values"]["beta"] - 1.5) / 1.5 <= 0.05
        assert abs(out["values"]["gamma"] - 1.0) / 1.0 <= 0.05


# ----------------------------------------------------------------------
# criterion 6: iterated filtering on a conjugate problem

LL_DATA = [3, 3, 4, 6, 5, 7, 8, 8, 10, 9, 11, 13, 12, 14, 15]
LL_TIMES = np.arange(1.0, 16.0)


def conjugate_posterior(times, ys, q2, tau2):
    """Exact posterior for (x0, c) under y_i ~ N(x0 + c t_i, K) with
    K = q2 min(t_i, t_j) + tau2 I and the model's own normal priors."""
    times = np.asarray(times, dtype=float)
    ys = np.round(np.asarray(ys, dtype=float))
    n = len(times)
    cov = q2 * np.minimum.outer(times, times) + tau2 * np.eye(n)
    x = np.column_stack([np.ones(n), times])
    prior_prec = np.diag([1.0 / 100.0, 1.0])
    kinv = np.linalg.inv(cov)
    lam = x.T @ kinv @ x + prior_prec
    mu = np.linalg.solve(lam, x.T @ kinv @ ys)
    return mu, np.linalg.inv(lam)


def test_criterion_06_iterated_filtering(report):
    with criterion(report, 6, "iterated filtering"):
        spec = local_level_model()
        cm = CompiledModel(spec)
        ds = DataSet([(float(t), "y", float(v))
                      for t, v in zip(LL_TIMES, LL_DATA)])
        space = spec.free_parameters()
        base = spec.resolve_values({"x0": 6.0, "c_drift": -0.5})
        res = opt.mif(cm, ds, space, base, 0.0,
                      np.random.default_rng(60),
                      perturbation_sd={"x0": 1.0, "c_drift": 0.3},
                      n_particles=500, iterations=30, cooling=0.975,
                      formalism="sde")
        mu, cov = conjugate_posterior(LL_TIMES, LL_DATA, 0.25, 1.0)
        sds = np.sqrt(np.diag(cov))
        assert abs(res.values["x0"] - mu[0]) <= 3.0 * sds[0]
        assert abs(res.values["c_drift"] - mu[1]) <= 3.0 * sds[1]
        assert res.failed_iterations == 0

        # geometric cooling must show up as shrinking update sizes
        steps = np.linalg.norm(np.diff(res.theta_trace, axis=0), axis=1)
        assert steps[:10].mean() > steps[-10:].mean()


# ----------------------------------------------------------------------
# criterion 7: the full shipped pipeline, timed and calibrated

def pipeline_once(seed, tmp_path, tag=""):
    """ksimplex | kmcmc | pmcmc on the shipped season; returns the final
    document, the particle-chain trace and the elapsed seconds."""
    env = {"SSM_SEED": str(seed)}
    start = time.monotonic()
    ks = run_cli(["ksimplex", "--model", str(SIR), "--data",
                  str(SIR_DATA)],
                 stdin_text=SIR_THETA.read_text(), env_extra=env,
                 cwd=tmp_path)
    assert ks.returncode == 0, ks.stderr
    km = run_cli(["kmcmc", "--model", str(SIR), "--data", str(SIR_DATA),
                  "--iterations", "3000"],
                 stdin_text=ks.stdout, env_extra=env, cwd=tmp_path)
    assert km.returncode == 0, km.stderr
    trace_path = tmp_path / f"pmcmc{tag}.csv"
    pm = run_cli(["pmcmc", "--model", str(SIR), "--data", str(SIR_DATA),
                  "--iterations", "5000", "--n-particles", "500",
                  "--formalism", "sde", "--trace", str(trace_path)],
                 stdin_text=km.stdout, env_extra=env, cwd=tmp_path)
    assert pm.returncode == 0, pm.stderr
    elapsed = time.monotonic() - start
    return json.loads(pm.stdout), Trace.from_csv(trace_path), elapsed


def central_interval(trace, name, burn_fraction=0.2):
    col = trace.names.index(name)
    kept = trace.values[int(len(trace) * burn_fraction):, col]
    return np.quantile(kept, 0.025), np.quantile(kept, 0.975)


TRUTH = {"beta": 1.5, "gamma": 1.0}


def test_criterion_07_pipeline_containment(report, tmp_path):
    with criterion(report, 7, "pipeline timing and containment"):
        doc, trace, elapsed = pipeline_once(3, tmp_path)
        assert elapsed < 900.0
        assert [p["stage"] for p in doc["provenance"]] == [
            "ksimplex", "kmcmc", "pmcmc"]
        for name, true_value in TRUTH.items():
            lo, hi = central_interval(trace, name)
            assert lo <= true_value <= hi, (name, lo, hi)


@pytest.mark.skipif(not os.environ.get("SSM_NIGHTLY"),
                    reason="twenty pipeline repetitions: nightly only")
def test_criterion_07_pipeline_calibration(report, tmp_path):
    with criterion(report, 7, "pipeline calibration, 20 seeds"):
        contained = 0
        for seed in range(1, 21):
            _, trace, _ = pipeline_once(seed, tmp_path, tag=str(seed))
            ok = all(
                central_interval(trace, name)[0] <= true_value
                <= central_interval(trace, name)[1]
                for name, true_value in TRUTH.items()
            )
            contained += ok
            report(f"[acceptance]   seed {seed}: "
                   f"{'contained' if ok else 'missed'}")
        assert contained >= 18


# ----------------------------------------------------------------------
# criterion 8: effective sample size calibration

def test_criterion_08_ess(report):
    with criterion(report, 8, "effective sample size"):
        rng = np.random.default_rng(71)
        n = 20_000
        iid = rng.standard_normal(n)
        assert 0.8 <= ess(iid) / n <= 1.05

        # AR(1) with rho 0.9: the truncated autocorrelation sum gives
        # ESS/N near 0.052
        x = np.empty(n)
        x[0] = rng.standard_normal()
        for i in range(1, n):
            x[i] = 0.9 * x[i - 1] + rng.standard_normal()
        ratio = ess(x) / n
        assert 0.052 / 1.5 <= ratio <= 0.052 * 1.5


# ----------------------------------------------------------------------
# criterion 9: symbolic derivatives against finite differences

FD_SETTINGS = {
    "sir": {"beta": 1.5, "gamma": 1.0},
    "plague": {"beta0": 2.5},
    "seir-h1n1": {"beta": 3.0, "rho": 0.35},
    "dengue-2strain": {"beta1": 2.1, "beta2": 1.9, "xi": 1.7},
}


def random_states(cm, base_state, n, rng):
    """States scattered over the admissible region: compartments share
    the population, driven coordinates wander around their start, and
    accumulators take arbitrary nonnegative values."""
    total = base_state[: cm.n_comp].sum()
    out = np.empty((n, cm.nx))
    for i in range(n):
        x = np.empty(cm.nx)
        x[: cm.n_comp] = total * rng.dirichlet(np.ones(cm.n_comp))
        n_diff = cm.diff_slice.stop - cm.diff_slice.start
        x[cm.diff_slice] = (base_state[cm.diff_slice]
                            + 0.3 * rng.standard_normal(n_diff))
        n_acc = cm.nx - cm.acc_slice.start
        x[cm.acc_slice] = rng.uniform(0.0, 50.0, size=n_acc)
        out[i] = x
    return out


def observed_mean(kind, parts):
    if kind == "binomial":
        return float(parts["trials"]) * float(parts["probability"])
    return float(parts["mean"])


def test_criterion_09_derivative_oracle(report):
    with criterion(report, 9, "derivative oracle"):
        h0 = np.cbrt(np.finfo(float).eps)
        for stem, values in FD_SETTINGS.items():
            spec = parse_model((MODELS / f"{stem}.json").read_text())
            cm = CompiledModel(spec)
            p = spec.resolve_values(values)
            rng = np.random.default_rng(81)
            states = random_states(cm, cm.init_state(p), 100, rng)
            ts = rng.uniform(0.0, 40.0, size=100)
            worst = 0.0
            for x, t in zip(states, ts):
                jac = cm.dynamics(x, t, p)[3]
                grads = {
                    o.name: cm.obs_values(o.name, x, t, p)[1]
                    for o in spec.observations
                }
                for j in range(cm.nx):
                    h = h0 * max(1.0, abs(x[j]))
                    xp, xm = x.copy(), x.copy()
                    xp[j] += h
                    xm[j] -= h
                    fd_col = (cm.dynamics(xp, t, p)[1]
                              - cm.dynamics(xm, t, p)[1]) / (2.0 * h)
                    scale = np.maximum(1.0, np.abs(jac[:, j]))
                    worst = max(worst, np.max(
                        np.abs(fd_col - jac[:, j]) / scale))
                    for o in spec.observations:
                        kind = cm.obs(o.name).kind
                        fp = observed_mean(
                            kind, cm.obs_values(o.name, xp, t, p)[0])
                        fm = observed_mean(
                            kind, cm.obs_values(o.name, xm, t, p)[0])
                        fd = (fp - fm) / (2.0 * h)
                        g = grads[o.name][j]
                        worst = max(worst,
                                    abs(fd - g) / max(1.0, abs(g)))
            assert worst <= 1e-6, (stem, worst)


# ----------------------------------------------------------------------
# criterion 10: thread count must not leak into any output

STAGE_COMMANDS = [
    ["simulate", "--formalism", "psr", "--end", "8", "--every", "1",
     "--trajectories", "2"],
    ["smc", "--data", str(SIR_DATA), "--n-particles", "80"],
    ["mif", "--data", str(SIR_DATA), "--iterations", "2",
     "--n-particles", "60"],
    ["kmcmc", "--data", str(SIR_DATA), "--iterations", "30"],
    ["pmcmc", "--data", str(SIR_DATA), "--iterations", "20",
     "--n-particles", "50", "--formalism", "sde"],
    ["forecast", "--formalism", "psr", "--start", "0", "--end", "6",
     "--every", "1", "--trajectories", "40"],
]

POINT = '{"ssm_theta": 1, "values": {"beta": 1.6, "gamma": 1.1}}'


def test_criterion_10_thread_count_invariance(report, tmp_path):
    with criterion(report, 10, "thread-count invariance"):
        for stage_args in STAGE_COMMANDS:
            outputs = []
            for threads in ("1", "4"):
                env = {
                    "SSM_SEED": "9",
                    "OMP_NUM_THREADS": threads,
                    "OPENBLAS_NUM_THREADS": threads,
                    "MKL_NUM_THREADS": threads,
                }
                r = run_cli(stage_args[:1]
                            + ["--model", str(SIR)]
                            + stage_args[1:],
                            stdin_text=POINT, env_extra=env,
                            cwd=tmp_path)
                assert r.returncode == 0, (stage_args[0], r.stderr)
                outputs.append(r.stdout)
            assert outputs[0] == outputs[1], stage_args[0]
