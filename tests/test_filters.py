"""Filters against exact Gaussian oracles and cross-formalism consistency."""

from itertools import accumulate

import numpy as np
import pytest
import scipy.stats

from helpers import ROOT, SIR, build, local_level_model, sir_model
from ssm.compiled import CompiledModel
from ssm import filters as fl
from ssm import simulate as sim
from ssm.model import load_model
from ssm.observe import DataSet, poisson_logpmf

LL_PARAMS = {"x0": 2.0, "c_drift": 0.4, "q_sd": 0.7, "tau2": 1.5}
LL_DATA = [3, 3, 4, 6, 5, 7, 8, 8, 10, 9, 11, 13, 12, 14, 15]


def make_dataset(times, by_stream):
    rows = []
    for stream, values in by_stream.items():
        for t, v in zip(times, values):
            rows.append((t, stream, v))
    return DataSet(rows)


def kalman_local_level(times, ys, t0, x0, c, q2, tau2):
    """Textbook scalar Kalman recursion for the local level model."""
    m, p = x0, 0.0
    ll = 0.0
    prev = t0
    for t, y in zip(times, ys):
        dt = t - prev
        m += c * dt
        p += q2 * dt
        s = p + tau2
        e = round(y) - m
        ll += -0.5 * (np.log(2 * np.pi * s) + e * e / s)
        k = p / s
        m += k * e
        p *= 1 - k
        prev = t
    return ll


def joint_gaussian_loglik(times, ys, t0, x0, c, q2, tau2):
    """The same likelihood as one multivariate normal density."""
    times = np.asarray(times, dtype=float)
    ys = np.round(np.asarray(ys, dtype=float))
    mean = x0 + c * (times - t0)
    el = np.minimum.outer(times - t0, times - t0)
    cov = q2 * el + tau2 * np.eye(len(times))
    return scipy.stats.multivariate_normal.logpdf(ys, mean=mean, cov=cov)


class TestGaussianOracle:
    def times(self):
        return np.arange(1.0, len(LL_DATA) + 1.0)

    def test_recursion_agrees_with_joint_density(self):
        a = kalman_local_level(self.times(), LL_DATA, 0.0, 2.0, 0.4, 0.49, 1.5)
        b = joint_gaussian_loglik(self.times(), LL_DATA, 0.0, 2.0, 0.4, 0.49, 1.5)
        assert a == pytest.approx(b, abs=1e-9)

    def test_moment_filter_is_exact_here(self):
        cm = CompiledModel(local_level_model())
        ds = make_dataset(self.times(), {"y": LL_DATA})
        res = fl.ekf_filter(cm, ds, LL_PARAMS, t0=0.0, dt=0.5)
        oracle = kalman_local_level(
            self.times(), LL_DATA, 0.0, 2.0, 0.4, 0.7 ** 2, 1.5
        )
        assert res.loglik == pytest.approx(oracle, abs=1e-8)
        assert res.means.shape == (15, 1)

    def test_particle_filter_estimates_same_likelihood(self):
        cm = CompiledModel(local_level_model())
        ds = make_dataset(self.times(), {"y": LL_DATA})
        oracle = kalman_local_level(
            self.times(), LL_DATA, 0.0, 2.0, 0.4, 0.7 ** 2, 1.5
        )
        lls = [
            fl.smc_filter(cm, ds, LL_PARAMS, t0=0.0,
                          rng=np.random.default_rng(100 + s),
                          n_particles=3000, formalism="sde", dt=0.5).loglik
            for s in range(8)
        ]
        assert np.mean(lls) == pytest.approx(oracle, abs=0.25)
        assert np.std(lls) < 0.4

    def test_poisson_window_formalisms_agree_on_pure_diffusion(self):
        # with no reactions the Poisson backend reduces to the diffusion one
        cm = CompiledModel(local_level_model())
        ds = make_dataset(self.times(), {"y": LL_DATA})
        a = fl.smc_filter(cm, ds, LL_PARAMS, t0=0.0,
                          rng=np.random.default_rng(5), n_particles=2000,
                          formalism="psr", dt=0.5).loglik
        oracle = kalman_local_level(
            self.times(), LL_DATA, 0.0, 2.0, 0.4, 0.7 ** 2, 1.5
        )
        assert a == pytest.approx(oracle, abs=0.6)


class TestResample:
    def test_uniform_weights_keep_every_slot(self):
        idx = fl.systematic_resample(
            np.full(10, 0.1), np.random.default_rng(0)
        )
        assert np.array_equal(idx, np.arange(10))

    def test_counts_are_deterministic_for_aligned_weights(self):
        # ten strata over cumulative (0.5, 0.8, 1.0) always give 5, 3, 2
        w = np.array([0.5, 0.3, 0.2])
        for seed in range(10):
            rng = np.random.default_rng(seed)
            positions = (rng.random() + np.arange(10)) / 10.0
            idx = np.searchsorted(np.cumsum(w), positions)
            counts = np.bincount(idx, minlength=3)
            assert list(counts) == [5, 3, 2]

    def test_counts_track_weights_on_average(self):
        w = np.array([0.65, 0.1, 0.25])
        totals = np.zeros(3)
        for seed in range(200):
            idx = fl.systematic_resample(w, np.random.default_rng(seed))
            totals += np.bincount(idx, minlength=3)
        assert totals / totals.sum() == pytest.approx(w, abs=0.03)


class TestSmcMechanics:
    def test_all_zero_weights_short_circuit(self):
        cm = CompiledModel(sir_model())
        p = {"beta": 0.0, "gamma": 0.5, "N": 1000.0, "I0": 10.0}
        ds = make_dataset([1.0, 2.0], {"cases_obs": [5, 5]})
        res = fl.smc_filter(cm, ds, p, t0=0.0,
                            rng=np.random.default_rng(1), n_particles=64,
                            formalism="psr")
        assert res.loglik == -np.inf

    def test_ess_full_for_identical_particles(self):
        cm = CompiledModel(sir_model())
        p = {"beta": 0.5, "gamma": 0.25, "N": 1000.0, "I0": 10.0}
        ds = make_dataset([1.0], {"cases_obs": [4]})
        res = fl.smc_filter(cm, ds, p, t0=0.0,
                            rng=np.random.default_rng(2), n_particles=128,
                            formalism="ode")
        assert res.ess[0] == pytest.approx(128.0)

    def test_sampled_path_is_coherent(self):
        cm = CompiledModel(sir_model())
        p = {"beta": 0.6, "gamma": 0.3, "N": 1000.0, "I0": 10.0}
        times = np.arange(1.0, 9.0)
        truth = sim.simulate_paths(cm, p, np.concatenate([[0.0], times]),
                                   formalism="psr",
                                   rng=np.random.default_rng(3))[0]
        ys = np.maximum(truth[1:, 3] - truth[:-1, 3], 0.0).round()
        ds = make_dataset(times, {"cases_obs": ys})
        res = fl.smc_filter(cm, ds, p, t0=0.0,
                            rng=np.random.default_rng(4), n_particles=400,
                            formalism="psr", return_path=True)
        assert res.path.shape == (8, cm.nx)
        assert np.all(res.path[:, :3] >= 0)
        assert np.all(res.path[:, :3].sum(axis=1) == 1000.0)
        # path accumulators hold the window increment, not the running total
        assert np.all(res.path[:, 3] <= 1000.0)

    def test_reproducible_by_seed(self):
        cm = CompiledModel(sir_model())
        p = {"beta": 0.5, "gamma": 0.25, "N": 1000.0, "I0": 10.0}
        ds = make_dataset(np.arange(1.0, 6.0), {"cases_obs": [3, 4, 6, 9, 11]})
        a = fl.smc_filter(cm, ds, p, t0=0.0, rng=np.random.default_rng(7),
                          n_particles=256, formalism="psr").loglik
        b = fl.smc_filter(cm, ds, p, t0=0.0, rng=np.random.default_rng(7),
                          n_particles=256, formalism="psr").loglik
        assert a == b


SIR_P = {"beta": 0.5, "gamma": 0.25, "N": 1000.0, "I0": 10.0}
SIR_CASES = [3, 4, 6, 9, 11, 15, 14]


class TestResampleHook:
    """The hook that iterated filtering rides on leaves the filter as it is
    when it changes nothing."""

    J = 200

    def setup_for(self, model):
        if model == "local_level":
            cm = CompiledModel(local_level_model())
            ds = make_dataset(np.arange(1.0, len(LL_DATA) + 1.0),
                              {"y": LL_DATA})
            return cm, ds, LL_PARAMS, "sde"
        cm = CompiledModel(sir_model())
        ds = make_dataset(np.arange(1.0, len(SIR_CASES) + 1.0),
                          {"cases_obs": SIR_CASES})
        return cm, ds, SIR_P, "psr"

    def run(self, model, params=None, **kwargs):
        cm, ds, p, formalism = self.setup_for(model)
        rng = np.random.default_rng(11)
        res = fl.smc_filter(cm, ds, p if params is None else params, t0=0.0,
                            rng=rng, n_particles=self.J, formalism=formalism,
                            **kwargs)
        return res, rng.bit_generator.state

    def assert_same(self, a, b):
        (ra, sa), (rb, sb) = a, b
        assert ra.loglik == rb.loglik
        assert np.array_equal(ra.loglik_terms, rb.loglik_terms)
        assert np.array_equal(ra.ess, rb.ess)
        assert np.array_equal(ra.means, rb.means)
        assert sa == sb

    @pytest.mark.parametrize("model", ["local_level", "sir"])
    def test_noop_hook_changes_nothing(self, model):
        _, ds, p, _ = self.setup_for(model)
        seen = []

        def hook(i, idx):
            seen.append(i)
            assert idx.shape == (self.J,)
            return p, np.zeros(self.J)

        self.assert_same(self.run(model),
                         self.run(model, after_resample=hook,
                                  log_weight=np.zeros(self.J)))
        assert seen == list(range(len(ds)))

    @pytest.mark.parametrize("model", ["local_level", "sir"])
    def test_parameter_columns_equal_scalars(self, model):
        _, _, p, _ = self.setup_for(model)
        columns = {k: np.full(self.J, v) for k, v in p.items()}
        self.assert_same(self.run(model), self.run(model, params=columns))

    @pytest.mark.parametrize("model", ["local_level", "sir"])
    def test_constant_log_weight_shifts_each_term(self, model):
        # a term shared by every particle cancels from the normalised
        # weights: the draws are the same and each instant gains it once
        _, ds, p, _ = self.setup_for(model)
        c = -0.75

        def hook(i, idx):
            return p, np.full(self.J, c)

        (ra, sa) = self.run(model)
        (rb, sb) = self.run(model, after_resample=hook,
                            log_weight=np.full(self.J, c))
        assert rb.loglik_terms == pytest.approx(ra.loglik_terms + c,
                                                abs=1e-12)
        assert rb.loglik == pytest.approx(ra.loglik + c * len(ds), abs=1e-9)
        assert rb.ess == pytest.approx(ra.ess, rel=1e-12)
        assert sa == sb


INFLOW = {
    "ssm_model": 1,
    "name": "arrivals",
    "compartments": [{"name": "C", "initial": "0"}],
    "parameters": [
        {"name": "kappa", "prior": {"dirac": 12.0}, "role": "fixed"},
    ],
    "reactions": [
        {
            "from": "EXTERNAL",
            "to": "C",
            "rate": "kappa",
            "accumulators": ["arrived"],
        }
    ],
    "observations": [
        {"name": "arrivals_obs", "distribution": "poisson", "mean": "arrived"}
    ],
}


class TestAccumulatorWindows:
    def test_deterministic_window_likelihood(self):
        cm = CompiledModel(build(INFLOW))
        p = {"kappa": 12.0}
        times = np.arange(1.0, 11.0)
        ds = make_dataset(times, {"arrivals_obs": [12] * 10})
        expected = 10 * poisson_logpmf(12, 12.0)
        res = fl.ode_loglik(cm, ds, p, t0=0.0)
        assert res.loglik == pytest.approx(expected, abs=1e-9)
        assert res.loglik_terms == pytest.approx(
            np.full(10, poisson_logpmf(12, 12.0)), abs=1e-9
        )
        smc = fl.smc_filter(cm, ds, p, t0=0.0, rng=np.random.default_rng(8),
                            n_particles=50, formalism="ode")
        assert smc.loglik == pytest.approx(expected, abs=1e-9)

    def test_without_reset_windows_would_grow(self):
        cm = CompiledModel(build(INFLOW))
        p = {"kappa": 12.0}
        times = np.arange(1.0, 11.0)
        res = fl.ode_loglik(cm, make_dataset(times, {"arrivals_obs": [12] * 10}),
                            p, t0=0.0)
        # filtered accumulator mean equals the window total every time
        assert res.means[:, 1] == pytest.approx(np.full(10, 12.0), abs=1e-9)

    def test_moment_filter_windows_are_stationary(self):
        cm = CompiledModel(build(INFLOW))
        p = {"kappa": 12.0}
        times = np.arange(1.0, 9.0)
        ds = make_dataset(times, {"arrivals_obs": [12] * 8})
        res = fl.ekf_filter(cm, ds, p, t0=0.0, dt=0.25)
        assert res.loglik_terms[1:] == pytest.approx(
            np.full(7, res.loglik_terms[1]), abs=1e-9
        )
        # accumulator block of the covariance is cleared between windows
        assert res.covs[3][1, 1] > 0  # live before the reset snapshot

    def test_moment_filter_density_bounded_on_quiet_streams(self):
        # with a near-zero predicted count and y = 0, the per-instant term
        # must stay at the one-bin ceiling instead of rewarding a collapsed
        # predictive variance
        cm = CompiledModel(build(INFLOW))
        p = {"kappa": 1e-9}
        times = np.arange(1.0, 7.0)
        ds = make_dataset(times, {"arrivals_obs": [0] * 6})
        res = fl.ekf_filter(cm, ds, p, t0=0.0, dt=0.25)
        ceiling = -0.5 * np.log(2.0 * np.pi)
        assert np.all(res.loglik_terms <= ceiling + 1e-9)
        assert res.loglik_terms == pytest.approx(
            np.full(6, ceiling), abs=1e-6
        )


class TestMomentFilterRepairs:
    def test_project_psd_names_its_branch(self):
        psd = np.array([[2.0, 1.0], [1.0, 2.0]])
        out, repair = fl._project_psd(psd)
        assert out is psd and repair is None
        out, repair = fl._project_psd(np.diag([1.0, -1e-12]))
        assert repair == "psd_rounding"
        assert out == pytest.approx(np.diag([1.0 + 1e-12, 0.0]), abs=1e-15)
        out, repair = fl._project_psd(np.diag([1.0, -1.0]))
        assert repair == "psd_eigen"
        assert out == pytest.approx(np.diag([1.0, 0.0]), abs=1e-15)

    def test_variance_floor_counted_below_one_count(self):
        cm = CompiledModel(local_level_model())
        ds = make_dataset(np.arange(1.0, 16.0), {"y": LL_DATA})
        # tau2 alone keeps the innovation variance above one count
        wide = fl.ekf_filter(cm, ds, LL_PARAMS, t0=0.0, dt=0.5).repairs
        # here every innovation variance is just below one count
        narrow = fl.ekf_filter(cm, ds, dict(LL_PARAMS, q_sd=0.1, tau2=0.9),
                               t0=0.0, dt=0.5).repairs
        assert wide == dict(updates=15, mean_clipped=0, variance_floored=0,
                            psd_rounding=0, psd_eigen=0,
                            obs_variance_floored=0)
        assert narrow == dict(wide, variance_floored=15)

    def test_observation_variance_floor_counted(self):
        # a Poisson stream's variance is its mean, floored: here the mean
        # is 0 at every instant, or well above the floor
        cm = CompiledModel(build(INFLOW))
        ds = make_dataset(np.arange(1.0, 7.0), {"arrivals_obs": [0] * 6})
        quiet = fl.ekf_filter(cm, ds, {"kappa": 0.0}, t0=0.0).repairs
        busy = fl.ekf_filter(cm, ds, {"kappa": 12.0}, t0=0.0).repairs
        assert quiet["obs_variance_floored"] == quiet["updates"] == 6
        assert busy["obs_variance_floored"] == 0

    def test_counts_follow_the_repairs_made(self, monkeypatch):
        # reports of zero cases in a growing epidemic pull the mean below
        # zero; the psd counts equal the branches _project_psd took
        cm = CompiledModel(sir_model())
        p = {"beta": 2.0, "gamma": 0.3, "N": 1000.0, "I0": 10.0}
        ds = make_dataset(np.arange(1.0, 26.0), {"cases_obs": [0] * 25})
        taken = []
        project = fl._project_psd

        def spy(C):
            out = project(C)
            taken.append(out[1])
            return out

        monkeypatch.setattr(fl, "_project_psd", spy)
        res = fl.ekf_filter(cm, ds, p, t0=0.0)
        r = res.repairs
        assert r["updates"] == len(taken) == 25
        assert r["psd_rounding"] == taken.count("psd_rounding")
        assert r["psd_eigen"] == taken.count("psd_eigen")
        assert 0 < r["mean_clipped"] <= 25
        assert np.all(res.means[:, cm.comp_slice] >= 0.0)
        assert fl.ekf_filter(cm, ds, p, t0=0.0).repairs == r


class TestMomentFilterOnSir:
    def synthetic(self):
        cm = CompiledModel(sir_model())
        p = {"beta": 0.6, "gamma": 0.3, "N": 1000.0, "I0": 10.0}
        times = np.arange(1.0, 26.0)
        paths = sim.simulate_paths(cm, p, np.concatenate([[0.0], times]),
                                   formalism="psr",
                                   rng=np.random.default_rng(21))
        acc = paths[0, :, 3]
        ys = np.maximum(np.diff(acc), 0.0).round()
        return cm, p, make_dataset(times, {"cases_obs": ys})

    def test_inside_particle_filter_band(self):
        cm, p, ds = self.synthetic()
        ekf = fl.ekf_filter(cm, ds, p, t0=0.0, dt=0.25).loglik
        lls = [
            fl.smc_filter(cm, ds, p, t0=0.0,
                          rng=np.random.default_rng(300 + s),
                          n_particles=1500, formalism="sde", dt=0.125).loglik
            for s in range(12)
        ]
        center = np.mean(lls)
        spread = max(np.std(lls), 0.5)
        assert abs(ekf - center) < max(6 * spread, 0.04 * abs(center))

    def test_ranks_parameters_like_particle_filter(self):
        cm, p, ds = self.synthetic()
        bad = dict(p, beta=1.8, gamma=0.1)
        ekf_gap = (
            fl.ekf_filter(cm, ds, p, t0=0.0).loglik
            - fl.ekf_filter(cm, ds, bad, t0=0.0).loglik
        )
        smc_gap = (
            fl.smc_filter(cm, ds, p, t0=0.0, rng=np.random.default_rng(1),
                          n_particles=2000, formalism="psr").loglik
            - fl.smc_filter(cm, ds, bad, t0=0.0, rng=np.random.default_rng(1),
                            n_particles=2000, formalism="psr").loglik
        )
        assert ekf_gap > 10.0
        assert smc_gap > 10.0

    def test_covariances_stay_psd(self):
        cm, p, ds = self.synthetic()
        res = fl.ekf_filter(cm, ds, p, t0=0.0)
        for c in res.covs:
            assert np.linalg.eigvalsh(c)[0] >= -1e-7

    def test_overflowing_rates_raise_filter_error(self):
        cm, p, ds = self.synthetic()
        with np.errstate(all="ignore"), pytest.raises(fl.FilterError):
            fl.ekf_filter(cm, ds, dict(p, beta=1e200), t0=0.0)


# ----------------------------------------------------------------------
# early stop at a floor

SHIPPED = ROOT / "src" / "ssm" / "models"


@pytest.fixture(scope="module")
def shipped_sir():
    cm = CompiledModel(load_model(SHIPPED / "sir.json"))
    ds = DataSet.from_csv(SHIPPED / "sir-data.csv")
    values = cm.spec.resolve_values({"beta": 1.5, "gamma": 1.0})
    return cm, ds, values


def run_filter(kind, cm, ds, values, **kwargs):
    """(result, generator state after the run) of one filter at seed 8."""
    rng = np.random.default_rng(8)
    if kind == "ekf":
        res = fl.ekf_filter(cm, ds, values, 0.0, dt=0.5, **kwargs)
    else:
        res = fl.smc_filter(cm, ds, values, 0.0, rng, n_particles=100,
                            formalism="sde", return_path=True, **kwargs)
    return res, rng.bit_generator.state


def assert_same_run(a, b):
    (ra, sa), (rb, sb) = a, b
    assert ra.loglik == rb.loglik
    assert ra.instants == rb.instants
    for field in ("loglik_terms", "means", "ess", "covs", "path"):
        x, y = getattr(ra, field), getattr(rb, field)
        assert (x is None) == (y is None)
        if x is not None:
            np.testing.assert_array_equal(x, y)
    assert sa == sb


class TestEarlyStop:
    """Where every term is a log probability the running sum only falls:
    a filter given a floor stops at the first instant it reaches the floor
    and otherwise runs exactly as without one."""

    @pytest.mark.parametrize("kind", ["ekf", "smc"])
    def test_stops_at_first_instant_at_or_below_floor(self, shipped_sir,
                                                      kind):
        cm, ds, values = shipped_sir
        full = run_filter(kind, cm, ds, values)
        res_full = full[0]
        n = len(ds)
        assert res_full.instants == n
        # the filters add one term per instant: SIR has one stream
        running = list(accumulate(res_full.loglik_terms))
        assert running[-1] == res_full.loglik
        assert all(b <= a for a, b in zip(running, running[1:]))
        k = n // 3
        floors = [running[0], running[k], (running[k] + running[k + 1]) / 2,
                  running[-2], res_full.loglik, res_full.loglik - 1e-9,
                  res_full.loglik - 50.0, -np.inf]
        stopped = 0
        for floor in floors:
            got = run_filter(kind, cm, ds, values, floor=floor)
            res = got[0]
            if res_full.loglik > floor:
                assert_same_run(got, full)
                continue
            stopped += 1
            first = next(i for i, r in enumerate(running) if r <= floor)
            assert res.instants == first + 1
            assert res.loglik == running[first]
            assert res_full.loglik <= res.loglik <= floor
            np.testing.assert_array_equal(res.loglik_terms[:first + 1],
                                          res_full.loglik_terms[:first + 1])
            assert res.path is None
        assert stopped == 5

    @pytest.mark.parametrize("kind", ["ekf", "smc"])
    def test_discretized_normal_never_stops(self, kind):
        cm = CompiledModel(local_level_model())
        ds = make_dataset(np.arange(1.0, len(LL_DATA) + 1.0), {"y": LL_DATA})
        full = run_filter(kind, cm, ds, LL_PARAMS)
        assert_same_run(run_filter(kind, cm, ds, LL_PARAMS, floor=np.inf),
                        full)

    def test_count_and_discretized_normal_streams_never_stop(self):
        # one non-count stream is enough to keep a filter running
        doc = dict(SIR, observations=SIR["observations"] + [
            {"name": "prev_obs", "distribution": "discretized_normal",
             "mean": "I", "variance": "4"}])
        cm = CompiledModel(build(doc))
        times = np.arange(1.0, len(SIR_CASES) + 1.0)
        ds = make_dataset(times, {"cases_obs": SIR_CASES,
                                  "prev_obs": [12, 15, 20, 26, 33, 40, 48]})
        for kind in ("ekf", "smc"):
            full = run_filter(kind, cm, ds, SIR_P)
            assert full[0].instants == len(ds)
            assert_same_run(run_filter(kind, cm, ds, SIR_P, floor=np.inf),
                            full)

    def test_log_weight_or_hook_never_stops(self, shipped_sir):
        cm, ds, values = shipped_sir
        j = 100

        def hook(i, idx):
            return values, np.zeros(j)

        for extra in ({"log_weight": np.zeros(j)},
                      {"after_resample": hook},
                      {"log_weight": np.zeros(j), "after_resample": hook}):
            full = run_filter("smc", cm, ds, values, **extra)
            assert full[0].instants == len(ds)
            assert_same_run(
                run_filter("smc", cm, ds, values, floor=np.inf, **extra),
                full)
