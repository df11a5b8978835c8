"""Chain engine and stage checks.

The local-level fixture gives an exactly Gaussian posterior: the moment
filter is exact there, so the chain's stationary law has a closed form via
generalized least squares against the implied observation covariance.  The
engine itself is checked on synthetic targets where acceptance behaviour
and call discipline can be pinned exactly.
"""

import numpy as np
import pytest

from ssm import filters, mcmc
from ssm.compiled import CompiledModel
from ssm.filters import FilterError
from ssm.mcmc import Trace, adaptive_chain, ess, kmcmc_stage, pmcmc_stage
from ssm.model import load_model
from ssm.observe import DataSet

from helpers import ROOT, SIR_PRIORS, local_level_model, sir_model

LL_TIMES = np.arange(1.0, 16.0)
LL_DATA = [3, 3, 4, 6, 5, 7, 8, 8, 10, 9, 11, 13, 12, 14, 15]


def conjugate_posterior(times, ys, q2, tau2):
    """Gaussian posterior for (x0, c_drift) given the integrated-drift
    representation y_i = x0 + c t_i + noise, with prior N(0,100) x N(0,1)."""
    t = np.asarray(times, dtype=float)
    y = np.round(np.asarray(ys, dtype=float))
    n = len(t)
    K = q2 * np.minimum.outer(t, t) + tau2 * np.eye(n)
    X = np.column_stack([np.ones(n), t])
    Kinv = np.linalg.inv(K)
    lam = X.T @ Kinv @ X + np.diag([1 / 100.0, 1.0])
    mean = np.linalg.solve(lam, X.T @ Kinv @ y)
    return mean, np.linalg.inv(lam)


@pytest.fixture(scope="module")
def ll_setup():
    cm = CompiledModel(local_level_model())
    ds = DataSet([(t, "y", float(v)) for t, v in zip(LL_TIMES, LL_DATA)])
    space = cm.spec.free_parameters()
    base = cm.spec.resolve_values({"x0": 2.0, "c_drift": 0.0})
    return cm, ds, space, base


class TestEngine:
    def test_flat_target_always_accepts(self):
        rng = np.random.default_rng(0)

        def target(u, bar):
            return 0.0, 0.0, None

        res = adaptive_chain(target, np.zeros(2), np.eye(2), rng, 200,
                             adapt=False)
        assert res.acceptance_rate == 1.0
        assert res.accepted.all()

    def test_incumbent_estimate_is_stored_not_recomputed(self):
        rng = np.random.default_rng(1)
        noise = np.random.default_rng(2)
        calls = [0]

        def target(u, bar):
            calls[0] += 1
            return float(noise.normal(0.0, 5.0)), 0.0, None

        n = 400
        res = adaptive_chain(target, np.zeros(1), np.eye(1), rng, n,
                             adapt=False)
        assert calls[0] == n + 1
        rejected = np.flatnonzero(~res.accepted)
        rejected = rejected[rejected > 0]
        assert len(rejected) > 20
        assert np.array_equal(res.loglik[rejected], res.loglik[rejected - 1])

    def test_zero_density_start_raises(self):
        def target(u, bar):
            return -np.inf, 0.0, None

        with pytest.raises(FilterError):
            adaptive_chain(target, np.zeros(1), np.eye(1),
                           np.random.default_rng(0), 10)

    def test_gaussian_target_recovered_with_adaptation(self):
        rng = np.random.default_rng(7)
        cov = np.array([[1.0, 0.8], [0.8, 1.0]])
        prec = np.linalg.inv(cov)

        def target(u, bar):
            return float(-0.5 * u @ prec @ u), 0.0, None

        res = adaptive_chain(target, np.array([3.0, -3.0]),
                             np.diag([0.04, 0.04]), rng, 6000, adapt=True)
        kept = res.unconstrained[1500:]
        assert np.abs(kept.mean(axis=0)).max() < 0.25
        emp = np.cov(kept.T)
        assert emp[0, 1] > 0.3
        assert 0.5 < emp[0, 0] < 1.8
        rate = res.accepted[-1000:].mean()
        assert 0.10 < rate < 0.45

    def test_rejected_proposals_drop_their_payload(self):
        rng = np.random.default_rng(3)
        noise = np.random.default_rng(4)
        counter = [0]

        def target(u, bar):
            counter[0] += 1
            return float(noise.normal(0.0, 4.0)), 0.0, counter[0]

        res = adaptive_chain(target, np.zeros(1), np.eye(1), rng, 300,
                             adapt=False)
        for i in range(300):
            if res.accepted[i]:
                assert res.payloads[i] is not None
            else:
                assert res.payloads[i] is None


def _terms_target(a, b, c, stop):
    """Target whose log likelihood is the running sum of the non-positive
    terms -a_k (u_0 - c_k)^2 - b_k; with `stop` it returns the running sum
    at the first term that takes it to `bar - lp` or below, as a filter
    given that floor does."""
    def target(u, bar):
        lp = -0.5 * float(u @ u)
        floor = None if bar is None or not stop else bar - lp
        ll = 0.0
        for ak, bk, ck in zip(a, b, c):
            ll += -ak * (u[0] - ck) ** 2 - bk
            if floor is not None and ll <= floor:
                break
        return ll, lp, None

    return target


def test_property_early_rejection_keeps_every_decision():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    nonneg = st.floats(0.0, 50.0)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.lists(st.tuples(nonneg, nonneg, st.floats(-3, 3)),
                               min_size=1, max_size=12),
                      st.integers(1, 2), st.booleans(),
                      st.integers(0, 2 ** 32 - 1))
    def check(terms, d, adapt, seed):
        a, b, c = zip(*terms)
        runs = [adaptive_chain(_terms_target(a, b, c, stop), np.zeros(d),
                               np.eye(d), np.random.default_rng(seed), 60,
                               adapt=adapt)
                for stop in (False, True)]
        full, early = runs
        np.testing.assert_array_equal(early.accepted, full.accepted)
        np.testing.assert_array_equal(early.unconstrained,
                                      full.unconstrained)
        np.testing.assert_array_equal(early.loglik, full.loglik)

    check()


class TestEss:
    def test_independent_draws(self):
        x = np.random.default_rng(11).standard_normal(5000)
        ratio = ess(x) / len(x)
        assert 0.85 <= ratio <= 1.05

    def test_ar1_autocorrelation_time(self):
        rng = np.random.default_rng(5)
        n = 20000
        x = np.empty(n)
        x[0] = 0.0
        eps = rng.standard_normal(n)
        for i in range(1, n):
            x[i] = 0.9 * x[i - 1] + eps[i]
        ratio = ess(x) / n
        assert 0.052 / 1.5 < ratio < 0.052 * 1.5

    def test_constant_series_is_worth_less_than_one_draw(self):
        e = ess(np.full(500, 3.25))
        assert 0.0 < e < 1.0

    def test_short_series(self):
        assert ess([1.0]) == 1.0
        assert ess([]) == 0.0


class TestTrace:
    def test_csv_round_trip(self, tmp_path):
        names = ("beta", "gamma")
        values = np.array([[1.5, 0.5], [1.5, 0.5], [1.7, 0.4]])
        tr = Trace(
            names=names, values=values,
            loglik=np.array([-10.0, -10.0, -9.5]),
            logprior=np.array([-2.0, -2.0, -1.9]),
            accepted=np.array([True, False, True]),
        )
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "iteration,beta,gamma,log_likelihood,log_prior,accepted"
        back = Trace.from_csv(path)
        assert back.names == names
        assert np.array_equal(back.values, values)
        assert np.array_equal(back.loglik, tr.loglik)
        assert np.array_equal(back.logprior, tr.logprior)
        assert np.array_equal(back.accepted, tr.accepted)

    def test_header_only_trace_has_one_column_per_name(self, tmp_path):
        # what a chain of zero iterations writes
        path = tmp_path / "trace.csv"
        path.write_text("iteration,beta,gamma,log_likelihood,log_prior,"
                        "accepted\n")
        back = Trace.from_csv(path)
        assert back.values.shape == (0, 2)
        assert len(back) == 0

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("step,beta\n0,1.0\n")
        with pytest.raises(ValueError):
            Trace.from_csv(p)


class TestMomentChain:
    def test_posterior_matches_conjugate_solution(self, ll_setup):
        cm, ds, space, base = ll_setup
        rng = np.random.default_rng(21)
        # constant-coefficient moment equations: one step per gap is exact
        res = kmcmc_stage(
            cm, ds, space, base, 0.0, rng,
            iterations=2500, sigma0=np.diag([0.25, 0.04]), dt=1.0,
        )
        mean, cov = conjugate_posterior(LL_TIMES, LL_DATA, 0.25, 1.0)
        sds = np.sqrt(np.diag(cov))
        got = np.array([res.mean_values["x0"], res.mean_values["c_drift"]])
        assert np.all(np.abs(got - mean) < 0.5 * sds)
        for k in range(2):
            assert 0.4 * cov[k, k] < res.covariance[k, k] < 2.5 * cov[k, k]
        assert 0.05 < res.acceptance_rate < 0.9

    def test_trace_prior_recomputable_from_values(self, ll_setup):
        cm, ds, space, base = ll_setup
        res = kmcmc_stage(
            cm, ds, space, base, 0.0, np.random.default_rng(3),
            iterations=150, sigma0=np.diag([0.25, 0.04]), dt=1.0,
        )
        tr = res.trace
        for i in range(0, len(tr), 17):
            values = {n: tr.values[i, k] for k, n in enumerate(tr.names)}
            assert tr.logprior[i] == pytest.approx(
                space.log_prior_natural(values), abs=1e-10
            )

    def test_values_move_only_on_acceptance(self, ll_setup):
        cm, ds, space, base = ll_setup
        res = kmcmc_stage(
            cm, ds, space, base, 0.0, np.random.default_rng(9),
            iterations=300, sigma0=np.diag([0.25, 0.04]), dt=1.0,
        )
        tr = res.trace
        assert tr.accepted.any() and not tr.accepted.all()
        for i in range(1, len(tr)):
            moved = not np.array_equal(tr.values[i], tr.values[i - 1])
            assert moved == bool(tr.accepted[i])


class TestEarlyRejection:
    """A chain whose filters stop at the bar takes every decision of the
    chain whose filters run to the end."""

    @pytest.fixture(scope="class")
    def sir(self):
        models = ROOT / "src" / "ssm" / "models"
        cm = CompiledModel(load_model(models / "sir.json"))
        ds = DataSet.from_csv(models / "sir-data.csv")
        space = cm.spec.free_parameters()
        base = cm.spec.resolve_values({"beta": 1.5, "gamma": 1.0})
        return cm, ds, space, base

    def test_kmcmc_trace_unchanged_by_stopping(self, sir, monkeypatch):
        cm, ds, space, base = sir

        def chain():
            return kmcmc_stage(cm, ds, space, base, 0.0,
                               np.random.default_rng(12), iterations=80,
                               sigma0=np.diag([0.01, 0.01]), dt=0.5)

        early = chain()
        monkeypatch.setattr(filters, "_stop_floor", lambda cm, floor: None)
        full = chain()
        for field in ("values", "loglik", "logprior", "accepted"):
            np.testing.assert_array_equal(getattr(early.trace, field),
                                          getattr(full.trace, field))
        assert full.early_rejections == 0
        assert full.instants_run == full.instants_full == 81 * len(ds)
        assert 0 < early.early_rejections <= 80 - early.trace.accepted.sum()
        assert early.instants_full == full.instants_full
        assert early.instants_run < early.instants_full

    def test_kmcmc_chain_exact_with_the_moment_filter_ceiling(
            self, sir, monkeypatch):
        # the same chain through the backend as shipped and through one
        # that drops the floor, so that every filter runs to the end
        cm, ds, space, base = sir
        chains = []

        def recorded(*args, **kwargs):
            chains.append(adaptive_chain(*args, **kwargs))
            return chains[-1]

        def run_through(values, floor=None):
            return shipped(values)

        def chain():
            return kmcmc_stage(cm, ds, space, base, 0.0,
                               np.random.default_rng(5), iterations=200,
                               sigma0=np.diag([0.01, 0.01]), dt=0.5)

        monkeypatch.setattr(mcmc, "adaptive_chain", recorded)
        early = chain()
        shipped = mcmc.backend(cm, ds, 0.0, "ekf", dt=0.5)
        monkeypatch.setattr(mcmc, "backend", lambda *a, **k: run_through)
        full = chain()
        for field in ("unconstrained", "loglik", "accepted"):
            np.testing.assert_array_equal(getattr(chains[0], field),
                                          getattr(chains[1], field))
        assert full.instants_run == full.instants_full
        assert early.instants_run < full.instants_run
        assert early.early_rejections > 0

    def test_pmcmc_counts(self, sir):
        cm, ds, space, base = sir
        res = pmcmc_stage(cm, ds, space, base, 0.0, np.random.default_rng(4),
                          iterations=20, sigma0=np.diag([0.01, 0.01]),
                          n_particles=50, formalism="sde")
        assert 0 < res.early_rejections <= 20 - res.trace.accepted.sum()
        assert res.instants_full == 21 * len(ds)
        assert res.instants_run < res.instants_full


class TestParticleChain:
    def test_posterior_agrees_with_conjugate_solution(self, ll_setup):
        cm, ds, space, base = ll_setup
        rng = np.random.default_rng(31)
        res = pmcmc_stage(
            cm, ds, space, base, 0.0, rng,
            iterations=1200, sigma0=np.diag([0.25, 0.04]),
            n_particles=300, formalism="sde", adapt=True,
        )
        mean, cov = conjugate_posterior(LL_TIMES, LL_DATA, 0.25, 1.0)
        sds = np.sqrt(np.diag(cov))
        got = np.array([res.mean_values["x0"], res.mean_values["c_drift"]])
        assert np.all(np.abs(got - mean) < 1.0 * sds)

    def test_paths_only_for_accepted_iterations(self, ll_setup):
        cm, ds, space, base = ll_setup
        res = pmcmc_stage(
            cm, ds, space, base, 0.0, np.random.default_rng(5),
            iterations=60, sigma0=np.diag([0.2, 0.05]),
            n_particles=80, formalism="sde",
        )
        accepted_iters = set(np.flatnonzero(res.trace.accepted))
        assert res.paths
        for i, path in res.paths:
            assert i in accepted_iters
            assert path.shape == (len(LL_TIMES), cm.nx)
            assert np.isfinite(path).all()
        assert np.array_equal(res.times, LL_TIMES)

    def test_seed_reproducibility(self, ll_setup):
        cm, ds, space, base = ll_setup
        runs = []
        for _ in range(2):
            res = pmcmc_stage(
                cm, ds, space, base, 0.0, np.random.default_rng(77),
                iterations=40, sigma0=np.diag([0.2, 0.05]),
                n_particles=60, formalism="sde",
            )
            runs.append(res)
        assert np.array_equal(runs[0].trace.values, runs[1].trace.values)
        assert np.array_equal(runs[0].trace.loglik, runs[1].trace.loglik)


@pytest.mark.parametrize("rows", [0, 1, 50])
def test_finish_maps_the_chain_as_each_row_maps(rows):
    # one batch through natural_columns and log_prior_natural, bit for bit
    # what to_natural and log_prior_natural give row by row
    space = sir_model(**SIR_PRIORS).free_parameters()
    u = np.random.default_rng(rows).normal(0.0, 2.0, (rows, space.dim))
    chain = mcmc.ChainResult(u, np.zeros(rows), np.ones(rows, dtype=bool),
                             [None] * rows, 1.0)
    trace, _, _ = mcmc._finish(space, {}, chain)
    per_row = [space.to_natural(row) for row in u]
    values = np.array([[nat[name] for name in space.names]
                       for nat in per_row]).reshape(rows, space.dim)
    logprior = np.array([space.log_prior_natural(nat) for nat in per_row])
    assert trace.values.shape == (rows, space.dim)
    assert trace.logprior.shape == (rows,)
    assert np.array_equal(trace.values.view(np.int64), values.view(np.int64))
    assert np.array_equal(trace.logprior.view(np.int64),
                          logprior.view(np.int64))
