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
from ssm.observe import (VARIANCE_FLOOR, DataSet, poisson_logpmf,
                         stream_moments)

SHIPPED = ROOT / "src" / "ssm" / "models"
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


def resampling_work(n):
    # the buffers smc_filter makes once per call for systematic_resample
    return np.arange(n, dtype=float), np.empty(n), np.empty(n)


class TestResample:
    def test_uniform_weights_keep_every_slot(self):
        idx = fl.systematic_resample(
            np.full(10, 0.1), np.random.default_rng(0), resampling_work(10)
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
            idx = fl.systematic_resample(w, np.random.default_rng(seed),
                                         resampling_work(3))
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

    def test_an_infinite_mean_gives_its_particle_no_weight(self,
                                                           monkeypatch):
        # one particle's Poisson mean is +inf at the fifth instant: the
        # count has no mass there, as at a negative mean, and the other
        # particles carry the estimate
        cm = CompiledModel(load_model(SHIPPED / "sir.json"))
        ds = DataSet.from_csv(SHIPPED / "sir-data.csv")
        values = cm.spec.resolve_values({"beta": 1.5, "gamma": 1.0})
        obs_values = cm.obs_values

        def run(mean):
            def stub(stream, x, t, p):
                parts, grad = obs_values(stream, x, t, p)
                if t == ds.times[4]:
                    parts = (parts[0].copy(),)
                    parts[0][0] = mean
                return parts, grad

            monkeypatch.setattr(cm, "obs_values", stub)
            rng = np.random.default_rng(9)
            res = fl.smc_filter(cm, ds, values, 0.0, rng, n_particles=50,
                                formalism="sde")
            return res, rng.bit_generator.state

        (got, got_state), (want, want_state) = run(np.inf), run(-1.0)
        assert np.isfinite(want.loglik)
        assert got.loglik == want.loglik
        np.testing.assert_array_equal(got.loglik_terms, want.loglik_terms)
        np.testing.assert_array_equal(got.means, want.means)
        assert got_state == want_state

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
        # zero; every update either passes the Cholesky test or makes
        # exactly one projection, and the psd counts equal the branches
        # _project_psd took
        cm = CompiledModel(sir_model())
        p = {"beta": 2.0, "gamma": 0.3, "N": 1000.0, "I0": 10.0}
        ds = make_dataset(np.arange(1.0, 26.0), {"cases_obs": [0] * 25})
        events = []
        project = fl._project_psd
        interval, updates = cm.moment_kernels

        def spy_update(*args):
            out = updates["cases_obs"](*args)
            events.append(("update", out[2][3]))
            return out

        def spy_project(C):
            out = project(C)
            events.append(("project", out[1]))
            return out

        monkeypatch.setattr(fl, "_project_psd", spy_project)
        monkeypatch.setitem(cm.__dict__, "moment_kernels",
                            (interval, {"cases_obs": spy_update}))
        res = fl.ekf_filter(cm, ds, p, t0=0.0)
        r = res.repairs
        taken = [what for kind, what in events if kind == "project"]
        passed = [what for kind, what in events if kind == "update"]
        assert r["updates"] == len(passed) == 25
        assert len(events) == len(passed) + passed.count(False)
        for (kind, what), after in zip(events, events[1:] + [None]):
            if kind == "update":
                assert (after is not None and after[0] == "project") \
                    == (not what)
        assert r["psd_rounding"] == taken.count("psd_rounding")
        assert r["psd_eigen"] == taken.count("psd_eigen") > 0
        assert 0 < r["mean_clipped"] <= 25
        assert np.all(res.means[:, cm.comp_slice] >= 0.0)
        monkeypatch.undo()
        assert fl.ekf_filter(cm, ds, p, t0=0.0).repairs == r

    @pytest.mark.parametrize("name", ["sir", "dengue-2strain"])
    def test_a_covariance_the_cholesky_test_passes_is_psd(self, name):
        # rank-deficient covariances, as conserved populations give, with
        # rounding-sized and larger symmetric noise: some pass, some fail,
        # and none that passes has an eigenvalue below -1e-12 max|C|
        cm = CompiledModel(load_model(SHIPPED / f"{name}.json"))
        positive = cm._moment_namespaces[0]["positive"]
        n, upper = cm.nx, cm.tri_index
        rng = np.random.default_rng(29)
        verdicts = []
        for noise in (1e-16, 1e-14, 1e-12, 1e-10):
            for _ in range(100):
                a = rng.normal(size=(n, n - 1)) * 10.0 ** rng.uniform(-2, 3)
                C = a @ a.T
                e = rng.normal(size=(n, n)) * noise * np.abs(C).max()
                C = C + e + e.T
                ok = positive((*np.zeros(n), *C[upper]))
                verdicts.append(ok)
                if ok:
                    assert np.linalg.eigvalsh(C)[0] >= -1e-12 * np.abs(C).max()
        assert any(verdicts) and not all(verdicts)

    def test_an_indefinite_covariance_is_projected(self, monkeypatch):
        # a covariance with eigenvalue -1 fails the Cholesky test at every
        # update and takes the eigen branch of _project_psd
        cm = CompiledModel(sir_model())
        p = {"beta": 2.0, "gamma": 0.3, "N": 1000.0, "I0": 10.0}
        ds = make_dataset(np.arange(1.0, 6.0), {"cases_obs": [3] * 5})
        interval, updates = cm.moment_kernels
        C = np.diag([4.0, -1.0, 4.0, 4.0])
        y = (990.0, 10.0, 0.0, 0.0, *C[cm.tri_index])
        assert not cm._moment_namespaces[0]["positive"](y)
        monkeypatch.setitem(cm.__dict__, "moment_kernels",
                            (lambda *args: y, updates))
        r = fl.ekf_filter(cm, ds, p, t0=0.0).repairs
        assert r["psd_eigen"] == r["updates"] == 5
        assert r["psd_rounding"] == 0


def joseph_update(m, C, grad, mean, var, y, comps):
    """The moment filter's update by one stream in dense numpy, in the
    Joseph form, the reference for `kernels.update_source`: the new mean
    and covariance, the term and the flags (innovation variance floored,
    observation variance floored, mean clipped)."""
    hch = float(grad @ C @ grad)
    s = hch + float(var)
    floored = s < 1.0
    s = max(s, 1.0)
    r_eff = s - hch
    e = round(y) - float(mean)
    k = (C @ grad) / s
    term = -0.5 * (np.log(2.0 * np.pi * s) + e * e / s)
    m = m + k * e
    clipped = bool((m[comps] < 0.0).any())
    m[comps] = np.maximum(m[comps], 0.0)
    ikh = np.eye(len(m)) - k[:, None] * grad
    C = ikh @ C @ ikh.T + k[:, None] * k * r_eff
    return m, 0.5 * (C + C.T), term, (floored, var == VARIANCE_FLOOR,
                                      clipped)


# SIR observed through a gradient with one and with two nonzero columns
ORACLE_STREAMS = [
    {"name": "one", "distribution": "discretized_normal",
     "mean": "a*cases", "variance": "tau2"},
    {"name": "two", "distribution": "discretized_normal",
     "mean": "a*cases + b*I", "variance": "tau2"},
    {"name": "counts", "distribution": "poisson", "mean": "a*cases + b*I"},
]


def test_float_update_matches_the_dense_joseph_update():
    # random positive-definite covariances at scales that put the
    # innovation variance below and above the one-count floor, values far
    # from the mean so that compartments clip, and an observation
    # variance at its floor
    fixed = [{"name": name, "prior": {"dirac": 1.0}, "role": "fixed"}
             for name in ("a", "b", "tau2")]
    cm = CompiledModel(sir_model(parameters=SIR["parameters"] + fixed,
                                 observations=ORACLE_STREAMS))
    updates = cm.moment_kernels[1]
    upper = cm.tri_index
    rng = np.random.default_rng(2029)
    seen = set()
    for trial in range(60):
        scale = (0.1, 1.0, 6.0)[trial % 3]
        a = rng.normal(size=(4, 4)) * scale
        C = a @ a.T + 1e-3 * scale ** 2 * np.eye(4)
        m = rng.uniform(0.0, 2.0 * scale ** 2, 4)
        p = {"N": 1000.0, "I0": 10.0, "beta": 1.5, "gamma": 1.0,
             "a": rng.uniform(0.2, 1.0), "b": rng.uniform(0.1, 0.5),
             "tau2": rng.choice([1e-7, 0.1, 2.0])}
        for o in cm.observations:
            parts, grad = cm.obs_values(o.name, m, 1.0, p)
            mean, var = stream_moments(o.kind, parts)
            y = float(round(mean + rng.choice([-8.0, 0.0, 8.0]) * scale))
            want_m, want_C, want_term, want_flags = joseph_update(
                m, C, grad, mean, var, y, cm.comp_slice)
            got_y, got_term, got_flags = updates[o.name](
                (*m, *C[upper]), round(y), 1.0, p)
            tol = 1e-12 * np.abs(want_C).max()
            np.testing.assert_allclose(got_y[:4], want_m, rtol=0, atol=tol)
            np.testing.assert_allclose(got_y[4:], want_C[upper], rtol=0,
                                       atol=tol)
            assert got_term == pytest.approx(want_term, rel=1e-12)
            assert got_flags[:3] == want_flags
            seen.add(want_flags)
    # both sides of the floor, of the variance floor and of the clip
    for i in range(3):
        assert {flags[i] for flags in seen} == {False, True}


@pytest.mark.parametrize("mean, safe", [
    # exp overflows once t > 5.7: math.exp raises, numpy's exp gives inf,
    # which min() caps at 1; the safe mean never overflows
    ("cases*min(1, exp(1000*(t - 5)))",
     "cases*min(1, exp(min(1000*(t - 5), 0)))"),
    # numpy's inf mean: an infinite innovation variance
    ("cases*exp(1000*(t - 5))", None)])
def test_update_reruns_a_float_failure_on_numpy(mean, safe):
    def run(mean):
        cm = CompiledModel(sir_model(observations=[
            {"name": "cases_obs", "distribution": "poisson", "mean": mean}]))
        ds = make_dataset(np.arange(1.0, 11.0), {"cases_obs": [4] * 10})
        p = {"beta": 1.5, "gamma": 1.0, "N": 1000.0, "I0": 10.0}
        with np.errstate(over="ignore", invalid="ignore"):
            return fl.ekf_filter(cm, ds, p, t0=0.0)

    if safe is None:
        with pytest.raises(fl.FilterError,
                           match="non-finite innovation variance"):
            run(mean)
        return
    got, want = run(mean), run(safe)
    assert got.loglik == pytest.approx(want.loglik, rel=1e-12)
    assert got.repairs == want.repairs


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
    """Where every term is a log probability the running sum only falls,
    and each term of the moment filter is at most -log(2 pi)/2: a filter
    given a floor stops at the first instant where the running sum plus
    that ceiling per term still to come reaches the floor, and otherwise
    runs exactly as without one."""

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
        # the ceiling of each term still to come
        c = fl.UPDATE_CEILING if kind == "ekf" else 0.0
        bounds = [r + (n - 1 - i) * c for i, r in enumerate(running)]
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
            first = next(i for i, b in enumerate(bounds) if b <= floor)
            assert res.instants == first + 1
            if kind == "smc":
                assert res.loglik == running[first]
            else:
                assert res.loglik >= bounds[first]
            assert res_full.loglik <= res.loglik <= floor
            np.testing.assert_array_equal(res.loglik_terms[:first + 1],
                                          res_full.loglik_terms[:first + 1])
            assert res.path is None
        assert stopped == 5

    def test_update_ceiling_bounds_the_filter_term(self):
        # the moment filter's term at the floored innovation variance and
        # no error, the most an update can add, lies a few ulps below it
        top = -0.5 * (np.log(2.0 * np.pi * 1.0) + 0.0)
        assert 0.0 < fl.UPDATE_CEILING - top <= 8 * abs(np.spacing(top))

    @pytest.mark.parametrize("running", [0.0, -1e-3, -0.5, -118.78,
                                         -3.7e4, -2.0e9])
    def test_ceiling_bounds_every_float_sum_of_terms_at_most_it(self,
                                                                running):
        # float addition is monotone: terms at the ceiling itself give the
        # largest float sum any k terms can reach
        rng = np.random.default_rng(2)
        for k in (0, 1, 2, 3, 7, 52, 1000):
            bound = fl._ceiling(running, k)
            for terms in (np.full(k, fl.UPDATE_CEILING),
                          fl.UPDATE_CEILING - rng.exponential(size=k)):
                total = running
                for term in terms:
                    total += term
                assert total <= bound
            assert bound <= running + k * fl.UPDATE_CEILING + 1e-9 * (
                1.0 + abs(running))

    def test_moment_filter_stops_iff_the_full_estimate_is_at_the_floor(
            self, shipped_sir):
        cm, ds, values = shipped_sir
        full = run_filter("ekf", cm, ds, values)
        res_full = full[0]
        n = len(ds)
        running = list(accumulate(res_full.loglik_terms))
        c = -0.5 * np.log(2.0 * np.pi)
        # (floor, whether the filter must stop before the last instant)
        cases = [(res_full.loglik + d, False) for d in (0.0, 1e-9, -1e-9)]
        cases += [(running[i] + (n - 1 - i) * c, i < n - 2)
                  for i in (0, 1, n // 4, n // 2, n - 2, n - 1)]
        # only the floor just below the full estimate lets it run through
        assert sum(res_full.loglik > floor for floor, _ in cases) == 1
        for floor, early in cases:
            got = run_filter("ekf", cm, ds, values, floor=floor)
            res = got[0]
            if res_full.loglik <= floor:
                assert res_full.loglik <= res.loglik <= floor
                assert res.instants < n or not early
            else:
                assert_same_run(got, full)

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


# ----------------------------------------------------------------------
# the sampled path, read back from the swarms

@pytest.mark.parametrize("formalism", ["psr", "sde"])
def test_sampled_path_is_an_ancestral_line(shipped_sir, monkeypatch,
                                           formalism):
    # every swarm the filter steps is a C-ordered (nx, J) array, one
    # column per particle (a swarm resampled as x[:, idx] would be
    # F-ordered), and the path is, bit for bit, one particle's line of
    # ancestors: its last state a column k of the last swarm, and each
    # earlier state the column of the swarm before that the ancestor
    # indices of that instant name
    cm, ds, values = shipped_sir
    j = 64
    swarms, ancestors = [], []
    advance, resample = fl.advance, fl.systematic_resample

    def swarm(x):
        assert x.shape == (cm.nx, j) and x.flags.c_contiguous
        return x

    def recording_advance(cm, x, *args, **kwargs):
        out = swarm(advance(cm, swarm(x), *args, **kwargs))
        swarms.append(out.copy())
        return out

    def recording_resample(weights, rng, work):
        ancestors.append(resample(weights, rng, work))
        return ancestors[-1]

    monkeypatch.setattr(fl, "advance", recording_advance)
    monkeypatch.setattr(fl, "systematic_resample", recording_resample)
    res = fl.smc_filter(cm, ds, values, 0.0, np.random.default_rng(5),
                        n_particles=j, formalism=formalism, return_path=True)
    n = len(ds)
    assert len(swarms) == len(ancestors) == n
    assert res.path.shape == (n, cm.nx)

    def line_matches(k):
        for i in range(n - 1, -1, -1):
            if swarms[i][:, k].tobytes() != res.path[i].tobytes():
                return False
            if i:
                k = ancestors[i - 1][k]
        return True

    assert any(line_matches(k) for k in range(j))
