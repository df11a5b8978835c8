"""Simplex and iterated filtering against analytic optima."""

from types import SimpleNamespace

import numpy as np
import pytest

from helpers import local_level_model, sir_model
from ssm.compiled import CompiledModel, DomainError
from ssm.filters import FilterError
from ssm.mcmc import adaptive_chain
from ssm.model import Identity, Normal, ParameterDef, ParameterSpace
from ssm import optimize as opt
from ssm import simulate as sim
from ssm.observe import DataSet

LL_DATA = [3, 3, 4, 6, 5, 7, 8, 8, 10, 9, 11, 13, 12, 14, 15]
LL_TIMES = np.arange(1.0, 16.0)


def make_dataset(times, by_stream):
    rows = []
    for stream, values in by_stream.items():
        for t, v in zip(times, values):
            rows.append((t, stream, v))
    return DataSet(rows)


def level_space(spec):
    return spec.free_parameters()


def conjugate_posterior(times, ys, q2, tau2):
    """Posterior for (x0, c) under y_i ~ N(x0 + c t_i, K) with
    K = q2 min(t_i, t_j) + tau2 I and the model's own normal priors."""
    times = np.asarray(times, dtype=float)
    ys = np.round(np.asarray(ys, dtype=float))
    n = len(times)
    cov = q2 * np.minimum.outer(times, times) + tau2 * np.eye(n)
    x = np.column_stack([np.ones(n), times])
    prior_prec = np.diag([1.0 / 100.0, 1.0 / 1.0])
    kinv = np.linalg.inv(cov)
    lam = x.T @ kinv @ x + prior_prec
    mu = np.linalg.solve(lam, x.T @ kinv @ ys)
    return mu, np.linalg.inv(lam)


class TestNelderMead:
    def test_quadratic_three_dimensional(self):
        target = np.array([1.0, -2.0, 0.5])
        a = np.array([[3.0, 0.4, 0.0], [0.4, 2.0, 0.1], [0.0, 0.1, 1.0]])

        def f(x):
            d = x - target
            return -float(d @ a @ d)

        res = opt.nelder_mead(f, np.zeros(3), step=0.5, iterations=500,
                              xtol=1e-7)
        assert res.converged
        assert res.x == pytest.approx(target, abs=1e-4)

    def test_rosenbrock_valley(self):
        def f(x):
            return -((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)

        res = opt.nelder_mead(f, np.array([-1.2, 1.0]), step=0.5,
                              iterations=800, xtol=1e-9)
        assert res.x == pytest.approx([1.0, 1.0], abs=1e-3)

    def test_constant_objective_stops_immediately(self):
        res = opt.nelder_mead(lambda x: 7.5, np.array([2.0, 3.0]), step=0.1)
        assert res.converged
        assert res.iterations == 0
        assert res.value == 7.5
        assert res.x == pytest.approx([2.0, 3.0])
        # simplex untouched: vertices are exactly the initial construction
        assert res.simplex[0] == pytest.approx([2.0, 3.0])
        assert sorted(res.simplex[:, 0].tolist()) == pytest.approx([2.0, 2.0, 2.1])

    def test_never_returns_worse_than_start(self):
        rng = np.random.default_rng(3)

        def jagged(x):
            return -np.sum(np.abs(x)) - np.sum(np.sin(3 * x) ** 2)

        for _ in range(10):
            x0 = rng.normal(size=4)
            res = opt.nelder_mead(jagged, x0, step=0.3, iterations=40)
            assert res.value >= jagged(x0) - 1e-12

    def test_all_invalid_start_raises(self):
        with pytest.raises(ValueError, match="not finite"):
            opt.nelder_mead(lambda x: -np.inf, np.zeros(2))

    def test_partial_invalid_region_is_escaped(self):
        def f(x):
            if x[0] < 0:
                return -np.inf
            return -((x[0] - 1.5) ** 2) - x[1] ** 2

        res = opt.nelder_mead(f, np.array([0.2, 0.5]), step=0.4,
                              iterations=300, xtol=1e-7)
        assert res.x == pytest.approx([1.5, 0.0], abs=1e-3)


class TestTrajectoryStage:
    def test_recovers_regression_posterior_mode(self):
        spec = local_level_model()
        cm = CompiledModel(spec)
        ds = make_dataset(LL_TIMES, {"y": LL_DATA})
        space = level_space(spec)
        base = spec.resolve_values({"x0": 6.0, "c_drift": -0.5})
        out = opt.maximize_stage(cm, ds, space, base, t0=0.0, kind="ode",
                                 iterations=400, xtol=1e-8)
        # deterministic trajectory: plain regression with variance tau2
        mu, _ = conjugate_posterior(LL_TIMES, LL_DATA, 0.0, 1.0)
        assert out["values"]["x0"] == pytest.approx(mu[0], abs=1e-3)
        assert out["values"]["c_drift"] == pytest.approx(mu[1], abs=1e-3)
        assert np.isfinite(out["log_likelihood"])

    def test_moment_stage_recovers_gls_posterior_mode(self):
        spec = local_level_model()
        cm = CompiledModel(spec)
        ds = make_dataset(LL_TIMES, {"y": LL_DATA})
        space = level_space(spec)
        base = spec.resolve_values({"x0": 6.0, "c_drift": -0.5})
        out = opt.maximize_stage(cm, ds, space, base, t0=0.0, kind="ekf",
                                 iterations=400, xtol=1e-8)
        mu, _ = conjugate_posterior(LL_TIMES, LL_DATA, 0.25, 1.0)
        assert out["values"]["x0"] == pytest.approx(mu[0], abs=2e-3)
        assert out["values"]["c_drift"] == pytest.approx(mu[1], abs=2e-3)

    def test_moment_stage_improves_sir_likelihood(self):
        cm = CompiledModel(sir_model())
        truth = {"beta": 0.6, "gamma": 0.3, "N": 1000.0, "I0": 10.0}
        times = np.arange(1.0, 21.0)
        path = sim.simulate_paths(cm, truth, np.concatenate([[0.0], times]),
                                  formalism="psr",
                                  rng=np.random.default_rng(50))[0]
        ys = np.maximum(np.diff(path[:, 3]), 0.0).round()
        ds = make_dataset(times, {"cases_obs": ys})
        spec = sir_model()
        space = spec.free_parameters()
        start = spec.resolve_values({"beta": 1.1, "gamma": 0.6})
        from ssm.filters import ekf_filter

        ll_start = ekf_filter(cm, ds, start, t0=0.0).loglik
        out = opt.maximize_stage(cm, ds, space, start, t0=0.0, kind="ekf",
                                 iterations=80)
        assert out["log_likelihood"] > ll_start
        assert 0.3 < out["values"]["beta"] < 1.2
        assert 0.1 < out["values"]["gamma"] < 0.8

    def test_invalid_region_returns_minus_inf(self):
        spec = sir_model()
        cm = CompiledModel(spec)
        space = spec.free_parameters()
        ds = make_dataset([1.0], {"cases_obs": [3]})
        base = spec.resolve_values({"beta": 0.5, "gamma": 0.25})
        target = opt.log_posterior(space, base,
                                   opt.backend(cm, ds, 0.0, "ode"))

        def objective(u):
            return target(u)[0]

        # log scale: a coordinate far outside the prior support
        assert objective(np.array([50.0, 0.0])) == -np.inf


BACKENDS = [("ode", "ode_loglik"), ("ekf", "ekf_filter"),
            ("smc", "smc_filter")]


class TestLogPosterior:
    """The one target behind simplex, kmcmc and pmcmc maps every invalid
    point to a minus-infinity likelihood, whatever the backend, and hands
    on a failed likelihood's error in the place of the path."""

    def target(self, kind):
        spec = sir_model()
        cm = CompiledModel(spec)
        space = spec.free_parameters()
        ds = make_dataset([1.0, 2.0, 3.0], {"cases_obs": [3, 4, 6]})
        base = spec.resolve_values({"beta": 0.5, "gamma": 0.25})
        run = opt.backend(cm, ds, 0.0, kind, rng=np.random.default_rng(4),
                          n_particles=50)
        return opt.log_posterior(space, base, run), space

    @pytest.mark.parametrize("kind", [kind for kind, _ in BACKENDS])
    def test_valid_point_is_finite(self, kind):
        target, space = self.target(kind)
        u = np.log([0.5, 0.25])
        ll, lp, _ = target(u)
        assert np.isfinite(ll)
        assert lp == space.log_prior_unconstrained(u)

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="kf"):
            self.target("kf")

    @pytest.mark.parametrize("kind, name", BACKENDS)
    def test_outside_prior_support(self, monkeypatch, kind, name):
        def unreachable(*args, **kwargs):
            raise AssertionError("backend called outside the prior support")

        monkeypatch.setattr(opt, name, unreachable)
        target, _ = self.target(kind)
        ll, lp, path = target(np.array([50.0, 0.0]))
        assert ll == -np.inf
        assert not np.isfinite(lp)
        # the path is the cause: the parameter and the support it left
        assert type(path) is ValueError
        assert str(path) == (f"beta = {np.exp(50.0):g} lies outside the "
                             f"support [0.05, 5] of its uniform prior")

    def test_prior_whose_terms_are_finite_but_not_their_sum(self):
        # three standard normal terms near -0.85e308 each, whose sum
        # overflows: no parameter alone lies outside its support
        space = ParameterSpace(
            ParameterDef(name, Normal(0.0, 1.0), Identity(), "estimated")
            for name in "abc")

        def unreachable(values, floor=None):
            raise AssertionError("likelihood run at a zero prior")

        target = opt.log_posterior(space, {}, unreachable)
        ll, lp, path = target(np.full(3, 1.3e154))
        assert ll == lp == -np.inf
        assert type(path) is ValueError
        assert str(path) == ("the log prior, a sum of finite terms, is not "
                             "finite")

    @pytest.mark.parametrize("kind", [kind for kind, _ in BACKENDS])
    def test_negative_initial_compartment(self, kind):
        # a chain that proposes such a point rejects it, and a chain that
        # starts there names the cause
        spec = sir_model()
        ds = make_dataset([1.0, 2.0, 3.0], {"cases_obs": [3, 4, 6]})
        run = opt.backend(CompiledModel(spec), ds, 0.0, kind,
                          rng=np.random.default_rng(4), n_particles=50)
        values = spec.resolve_values({"beta": 0.5, "gamma": 0.25})
        ll, failure = opt.attempt(run, dict(values, I0=-5.0))
        assert ll == -np.inf
        assert type(failure) is DomainError
        assert str(failure) == "initial I is negative"

    @pytest.mark.parametrize("error", [DomainError, FilterError])
    @pytest.mark.parametrize("kind, name", BACKENDS)
    def test_backend_failure(self, monkeypatch, kind, name, error):
        def failing(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(opt, name, failing)
        target, _ = self.target(kind)
        ll, lp, path = target(np.log([0.5, 0.25]))
        assert ll == -np.inf
        assert np.isfinite(lp)
        assert type(path) is error and path.args == ("injected",)


@pytest.mark.parametrize("payload, named", [
    (None, False), (np.zeros((3, 2)), False),
    (FilterError("every particle weight vanished at t = 1"), True)])
@pytest.mark.parametrize("stage", ["simplex", "chain"])
def test_start_error_names_only_an_exception(monkeypatch, stage, payload,
                                             named):
    # the simplex and the chain read a target's payload at a start of zero
    # posterior by one rule: an exception is the cause, anything else (a
    # path, whose finite terms may overflow in their sum) names nothing
    def target(u, bar=None):
        return -np.inf, 0.0, payload

    with pytest.raises(FilterError) as err:
        if stage == "chain":
            adaptive_chain(target, np.zeros(2), np.eye(2),
                           np.random.default_rng(0), 3)
        else:
            monkeypatch.setattr(opt, "log_posterior", lambda *args: target)
            spec = local_level_model()
            opt.maximize_stage(
                CompiledModel(spec), make_dataset(LL_TIMES, {"y": LL_DATA}),
                level_space(spec),
                spec.resolve_values({"x0": 6.0, "c_drift": -0.5}), 0.0,
                "ode")
    start = {"chain": "chain cannot start from a zero-density point",
             "simplex": "simplex: objective is not finite at any initial "
                        "vertex"}[stage]
    assert str(err.value) == (
        f"{start}{'; at the starting point' if stage == 'simplex' else ''}"
        f": {payload}" if named else start)


class TestIteratedFiltering:
    def run_mif(self, seed=60, iterations=25, **kw):
        spec = local_level_model()
        cm = CompiledModel(spec)
        ds = make_dataset(LL_TIMES, {"y": LL_DATA})
        space = level_space(spec)
        base = spec.resolve_values({"x0": 6.0, "c_drift": -0.5})
        defaults = dict(
            perturbation_sd={"x0": 1.0, "c_drift": 0.3},
            n_particles=500,
            iterations=iterations,
            formalism="sde",
            dt=0.5,
        )
        defaults.update(kw)
        return opt.mif(
            cm, ds, space, base, 0.0, np.random.default_rng(seed), **defaults
        )

    def test_recovers_conjugate_posterior_location(self):
        res = self.run_mif()
        mu, cov = conjugate_posterior(LL_TIMES, LL_DATA, 0.25, 1.0)
        sds = np.sqrt(np.diag(cov))
        assert res.values["x0"] == pytest.approx(mu[0], abs=3 * sds[0])
        assert res.values["c_drift"] == pytest.approx(mu[1], abs=3 * sds[1])
        assert np.isfinite(res.log_likelihood)
        assert res.failed_iterations == 0

    def test_zero_perturbation_is_identity(self):
        res = self.run_mif(perturbation_sd={}, iterations=5)
        assert res.values["x0"] == 6.0
        assert res.values["c_drift"] == -0.5
        assert len(res.theta_trace) == 1

    def test_cooling_shrinks_updates(self):
        res = self.run_mif(iterations=40, cooling=0.8)
        steps = np.linalg.norm(np.diff(res.theta_trace, axis=0), axis=1)
        assert steps[-1] < steps[0]
        assert np.max(steps[-5:]) < np.max(steps[:5])

    def test_trace_shapes(self):
        res = self.run_mif(iterations=8)
        assert res.theta_trace.shape == (9, 2)

    def test_walk_spans_the_gap_to_the_next_instant(self, monkeypatch):
        # on an irregular grid, the step after resampling at instant i has
        # the variance of the time to instant i + 1, the gap it crosses
        # next; none follows the last instant
        times = [1.0, 2.0, 10.0, 10.5]
        steps = []

        def filter_stub(cm, dataset, params, t0, *, n_particles,
                        after_resample=None, **kw):
            if after_resample is not None:
                ancestors = np.arange(n_particles)
                for i in range(len(dataset)):
                    before = np.array(params["c_drift"])
                    params, _ = after_resample(i, ancestors)
                    steps.append(params["c_drift"] - before)
            return SimpleNamespace(loglik=0.0, path=None)

        monkeypatch.setattr(opt, "smc_filter", filter_stub)
        spec = local_level_model()
        sd = 0.3
        opt.mif(CompiledModel(spec), make_dataset(times, {"y": [3] * 4}),
                level_space(spec),
                spec.resolve_values({"x0": 6.0, "c_drift": -0.5}), 0.0,
                np.random.default_rng(61), perturbation_sd={"c_drift": sd},
                n_particles=4000, iterations=1)
        variances = np.var(steps, axis=1) / sd ** 2
        assert variances[:3] == pytest.approx(np.diff(times), rel=0.1)
        assert variances[3] == 0.0
