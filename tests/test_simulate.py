"""Simulation backends against closed forms and distributional oracles."""

from pathlib import Path

import numpy as np
import pytest

from helpers import SIR, TWO_DRIVEN_SIR, build, sir_model
from ssm.compiled import CompiledModel, DomainError
from ssm.model import load_model
from ssm import simulate as sim

MODELS = Path(__file__).resolve().parent.parent / "src" / "ssm" / "models"

SIR_PARAMS = {"beta": 0.5, "gamma": 0.25, "N": 1000.0, "I0": 10.0}


def compiled_sir(**overrides):
    return CompiledModel(sir_model(**overrides))


LOGISTIC = {
    "ssm_model": 1,
    "name": "logistic",
    "compartments": [{"name": "P", "initial": "P0"}],
    "parameters": [
        {"name": "P0", "prior": {"dirac": 50.0}, "role": "fixed"},
        {"name": "r", "prior": {"dirac": 0.8}, "role": "fixed"},
        {"name": "K", "prior": {"dirac": 800.0}, "role": "fixed"},
    ],
    "reactions": [
        {"effect": {"P": 1}, "source": "P", "rate": "r*(1 - P/K)"}
    ],
    "observations": [],
}

DECAY = {
    "ssm_model": 1,
    "name": "decay",
    "compartments": [{"name": "C", "initial": "C0"}],
    "parameters": [
        {"name": "C0", "prior": {"dirac": 500.0}, "role": "fixed"},
        {"name": "mu", "prior": {"dirac": 0.5}, "role": "fixed"},
    ],
    "reactions": [{"from": "C", "to": "EXTERNAL", "rate": "mu"}],
    "observations": [],
}


# C loses members per capita to D and, at an absolute rate, to outside;
# the outside removals are counted
DRAINED = {
    **DECAY,
    "compartments": [{"name": "C", "initial": "C0"},
                     {"name": "D", "initial": "0"}],
    "parameters": DECAY["parameters"] + [
        {"name": "kappa", "prior": {"dirac": 5.0}, "role": "fixed"},
    ],
    "reactions": [
        {"from": "C", "to": "D", "rate": "mu"},
        {"effect": {"C": -1}, "source": "EXTERNAL", "rate": "kappa",
         "absolute_outflow": True, "accumulators": ["removed"]},
    ],
}


def compiled(doc, **overrides):
    return CompiledModel(build(doc, **overrides))


def logistic_closed_form(t, p0=50.0, r=0.8, k=800.0):
    return k / (1.0 + (k / p0 - 1.0) * np.exp(-r * t))


class TestOde:
    def test_sir_drift_hand_values(self):
        cm = compiled_sir()
        x0 = cm.init_state(SIR_PARAMS)
        drift = cm.dynamics(x0, 0.0, SIR_PARAMS)[1]
        # a_infection = 0.5*10/1000*990 = 4.95, a_recovery = 0.25*10 = 2.5
        assert drift == pytest.approx([-4.95, 2.45, 2.5, 4.95], abs=1e-12)

    def test_logistic_matches_closed_form(self):
        cm = compiled(LOGISTIC)
        p = {"P0": 50.0, "r": 0.8, "K": 800.0}
        x = cm.init_state(p)
        for t0, t1 in [(0.0, 2.0), (2.0, 5.0), (5.0, 12.0)]:
            x = sim.advance(cm, x, t0, t1, p, formalism="ode", dt=0.05)
            assert x[0] == pytest.approx(logistic_closed_form(t1), rel=1e-7)

    def test_rk4_error_shrinks_at_fourth_order(self):
        cm = compiled(LOGISTIC)
        p = {"P0": 50.0, "r": 0.8, "K": 800.0}
        exact = logistic_closed_form(4.0)
        errs = []
        for dt in (0.5, 0.25, 0.125):
            x = sim.advance(cm, cm.init_state(p), 0.0, 4.0, p,
                            formalism="ode", dt=dt)
            errs.append(abs(x[0] - exact))
        assert 10.0 < errs[0] / errs[1] < 22.0
        assert 10.0 < errs[1] / errs[2] < 22.0

    def test_sir_final_size(self):
        # s_inf solves s = s0*exp(-R0*(1 - s)); Newton from s=0.01
        cm = compiled_sir()
        p = SIR_PARAMS
        r0 = p["beta"] / p["gamma"]
        s0 = (p["N"] - p["I0"]) / p["N"]
        s = 0.01
        for _ in range(60):
            f = s - s0 * np.exp(-r0 * (1.0 - s))
            fp = 1.0 - s0 * r0 * np.exp(-r0 * (1.0 - s))
            s -= f / fp
        x = sim.advance(cm, cm.init_state(p), 0.0, 400.0, p,
                        formalism="ode", dt=0.2)
        assert x[0] / p["N"] == pytest.approx(s, abs=1e-4)

    def test_population_conserved(self):
        cm = compiled_sir()
        x = sim.advance(cm, cm.init_state(SIR_PARAMS), 0.0, 40.0,
                        SIR_PARAMS, formalism="ode", dt=0.25)
        assert x[:3].sum() == pytest.approx(1000.0, abs=1e-8)

    def test_accumulator_counts_cumulative_infections(self):
        cm = compiled_sir()
        x = sim.advance(cm, cm.init_state(SIR_PARAMS), 0.0, 400.0,
                        SIR_PARAMS, formalism="ode", dt=0.2)
        # every infection passes S -> I, so cases = S(0) - S(inf)
        assert x[3] == pytest.approx(990.0 - x[0], abs=1e-6)

    def test_time_switched_rate(self):
        cm = compiled(DECAY, reactions=[
            {"from": "C", "to": "EXTERNAL", "rate": "ifelse(t < 5, 0.0, mu)"}
        ])
        p = {"C0": 500.0, "mu": 0.5}
        x0 = cm.init_state(p)
        assert cm.propensities(x0, 4.0, p)[0] == 0.0
        assert cm.propensities(x0, 6.0, p)[0] == pytest.approx(250.0)
        # RK4 stages touching the switch instant cost O(dt) locally there
        out = sim.advance(cm, x0, 0.0, 10.0, p, formalism="ode", dt=0.05)
        assert out[0] == pytest.approx(500.0 * np.exp(-0.5 * 5.0), rel=5e-3)

    def test_absolute_outflow_raises_domain_error(self):
        cm = compiled(DECAY, reactions=[
            {
                "effect": {"C": -1},
                "source": "EXTERNAL",
                "rate": "60.0",
                "absolute_outflow": True,
            }
        ])
        p = {"C0": 500.0, "mu": 0.5}
        with pytest.raises(DomainError):
            sim.advance(cm, cm.init_state(p), 0.0, 20.0, p,
                        formalism="ode", dt=0.25)

    def test_batched_ode_matches_single(self):
        cm = compiled_sir()
        x0 = cm.init_state(SIR_PARAMS, size=3)
        x0[1, 1] = 20.0
        x0[0, 1] = 980.0
        batch = sim.advance(cm, x0, 0.0, 3.0, SIR_PARAMS, formalism="ode",
                            dt=0.1)
        for j in range(3):
            single = sim.advance(cm, x0[:, j], 0.0, 3.0, SIR_PARAMS,
                                 formalism="ode", dt=0.1)
            assert batch[:, j] == pytest.approx(single, rel=1e-12)


class TestJacobian:
    def numeric_jacobian(self, cm, x, t, p, h=1e-6):
        n = cm.nx
        out = np.zeros((n, n))
        for j in range(n):
            hi = x.copy()
            lo = x.copy()
            hi[j] += h
            lo[j] -= h
            out[:, j] = (cm.dynamics(hi, t, p)[1]
                         - cm.dynamics(lo, t, p)[1]) / (2 * h)
        return out

    def test_sir_jacobian_matches_differences(self):
        cm = compiled_sir()
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = np.abs(rng.normal(scale=200.0, size=cm.nx)) + 5.0
            jac = cm.dynamics(x, 0.0, SIR_PARAMS)[3]
            num = self.numeric_jacobian(cm, x, 0.0, SIR_PARAMS)
            assert jac == pytest.approx(num, rel=2e-5, abs=1e-7)

    def test_chain_rule_through_log_coordinate(self):
        doc = build(
            SIR,
            parameters=[
                {"name": "N", "prior": {"dirac": 1000.0}, "role": "fixed"},
                {"name": "I0", "prior": {"dirac": 10.0}, "role": "fixed"},
                {"name": "beta0", "prior": {"dirac": 1.2}, "role": "fixed"},
                {"name": "vol_b", "prior": {"dirac": 0.2}, "role": "fixed"},
                {
                    "name": "gamma",
                    "prior": {"uniform": [0.05, 5.0]},
                    "transform": "log",
                    "role": "estimated",
                },
            ],
            diffusions=[
                {
                    "name": "beta",
                    "transform": "log",
                    "drift": "0.0",
                    "volatility": "vol_b",
                    "initial": "beta0",
                }
            ],
        )
        cm = CompiledModel(doc)
        p = {"N": 1000.0, "I0": 10.0, "beta0": 1.2, "vol_b": 0.2,
             "gamma": 0.4}
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = cm.init_state(p)
            x[:3] = np.abs(rng.normal(scale=300.0, size=3)) + 5.0
            x[cm.diff_slice] = rng.normal(scale=0.5)
            jac = cm.dynamics(x, 0.0, p)[3]
            num = TestJacobian.numeric_jacobian(self, cm, x, 0.0, p)
            assert jac == pytest.approx(num, rel=3e-5, abs=1e-7)

    def test_observation_gradient(self):
        cm = compiled_sir()
        x = np.array([400.0, 50.0, 550.0, 120.0])
        _, grad = cm.obs_values("cases_obs", x, 0.0, SIR_PARAMS)
        assert grad == pytest.approx([0.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("stream", [
        {"name": "cases_obs", "distribution": "poisson", "mean": "cases"},
        {"name": "cases_obs", "distribution": "poisson",
         "mean": "gamma*cases"},
        {"name": "cases_obs", "distribution": "binomial",
         "trials": "cases", "probability": "gamma"}])
    def test_batch_observation_parts_without_gradient(self, stream):
        # a batch gives each column's parts of one state, as arrays (J,)
        # in the same order, and no gradient
        cm = CompiledModel(build(dict(SIR, observations=[stream])))
        rng = np.random.default_rng(3)
        xs = np.round(np.abs(rng.normal(scale=300.0, size=(6, cm.nx)))).T
        parts, grad = cm.obs_values("cases_obs", xs, 0.0, SIR_PARAMS)
        assert grad is None
        for j, x in enumerate(xs.T):
            single, _ = cm.obs_values("cases_obs", x, 0.0, SIR_PARAMS)
            assert len(parts) == len(single)
            for part, v in zip(parts, single):
                assert part.shape == (6,)
                assert part[j] == v


def dispersion(cm, x, t, p, **kinds):
    """Compartment block of the diffusion approximation's covariance."""
    prop, _, vols, _ = cm.dynamics(x, t, p)
    cov = cm.process_cov_from(prop, vols, p, **kinds)
    return cov[..., : cm.n_comp, : cm.n_comp]


class TestDispersion:
    def test_demographic_reference_matrix(self):
        cm = compiled_sir()
        x0 = cm.init_state(SIR_PARAMS)
        disp = dispersion(cm, x0, 0.0, SIR_PARAMS)
        a_inf, a_rec = 4.95, 2.5
        expected = np.array([
            [a_inf, -a_inf, 0.0],
            [-a_inf, a_inf + a_rec, -a_rec],
            [0.0, -a_rec, a_rec],
        ])
        assert disp == pytest.approx(expected, abs=1e-12)

    def test_environmental_reference_matrix(self):
        doc = dict(SIR)
        reactions = [
            {
                "from": "S",
                "to": "I",
                "rate": "beta*I/N",
                "accumulators": ["cases"],
                "white_noise": {"group": "transmission", "sd": "sigma_env"},
            },
            {"from": "I", "to": "R", "rate": "gamma"},
        ]
        params = SIR["parameters"] + [
            {"name": "sigma_env", "prior": {"dirac": 0.3}, "role": "fixed"}
        ]
        cm = compiled(SIR, reactions=reactions, parameters=params)
        p = dict(SIR_PARAMS, sigma_env=0.3)
        x0 = cm.init_state(p)
        disp = dispersion(cm, x0, 0.0, p)
        a_inf, a_rec, s2 = 4.95, 2.5, 0.09
        l_inf = np.array([-1.0, 1.0, 0.0])
        l_rec = np.array([0.0, -1.0, 1.0])
        expected = (
            a_inf * np.outer(l_inf, l_inf)
            + a_rec * np.outer(l_rec, l_rec)
            + s2 * a_inf ** 2 * np.outer(l_inf, l_inf)
        )
        assert disp == pytest.approx(expected, abs=1e-10)
        only_env = dispersion(cm, x0, 0.0, p, demographic=False)
        assert only_env == pytest.approx(
            s2 * a_inf ** 2 * np.outer(l_inf, l_inf), abs=1e-10
        )

    def test_identity_full_rank_expansion(self):
        # L Q L' assembled from factors equals the sum over reactions plus
        # the environmental outer product, on a model with both noise kinds
        doc = build(SIR, reactions=[
            {
                "from": "S",
                "to": "I",
                "rate": "beta*I/N",
                "accumulators": ["cases"],
                "white_noise": {"group": "transmission", "sd": "sigma_env"},
            },
            {"from": "I", "to": "R", "rate": "gamma"},
        ], parameters=SIR["parameters"] + [
            {"name": "sigma_env", "prior": {"dirac": 0.25}, "role": "fixed"}
        ])
        cm = CompiledModel(doc)
        p = dict(SIR_PARAMS, sigma_env=0.25)
        x = np.array([700.0, 150.0, 150.0, 80.0])
        prop, _, vols, _ = cm.dynamics(x, 0.0, p)
        full = cm.process_cov_from(prop, vols, p)
        manual = np.zeros((cm.nx, cm.nx))
        for k in range(cm.n_react):
            col = cm.stoich_full[:, k]
            manual += prop[k] * np.outer(col, col)
        env = cm.stoich_full[:, 0] * prop[0] * 0.25
        manual += np.outer(env, env)
        assert full == pytest.approx(manual, abs=1e-10)


class TestSde:
    def test_linear_death_moments(self):
        # dX = -mu X dt + sqrt(mu X) dW has E = C0 e^(-mu t) and
        # V = C0 e^(-mu t)(1 - e^(-mu t)), the linear death process moments
        cm = compiled(DECAY)
        p = {"C0": 500.0, "mu": 0.5}
        rng = np.random.default_rng(2024)
        n = 20000
        x = cm.init_state(p, size=n)
        x = sim.advance(cm, x, 0.0, 1.0, p, rng=rng, formalism="sde", dt=0.01)
        decay = np.exp(-0.5)
        mean_exact = 500.0 * decay
        var_exact = 500.0 * decay * (1.0 - decay)
        assert x[0].mean() == pytest.approx(mean_exact, abs=1.0)
        assert x[0].var() == pytest.approx(var_exact, rel=0.06)

    def test_variance_scales_inversely_with_population(self):
        rng = np.random.default_rng(5)
        fractions = {}
        for n_pop in (400.0, 4000.0):
            params = dict(SIR_PARAMS, N=n_pop, I0=n_pop * 0.01)
            cm = compiled_sir()
            x = cm.init_state(params, size=4000)
            x = sim.advance(cm, x, 0.0, 2.0, params, rng=rng,
                            formalism="sde", dt=0.05)
            fractions[n_pop] = np.var(x[1] / n_pop)
        ratio = fractions[400.0] / fractions[4000.0]
        assert 6.0 < ratio < 16.0

    def test_conservation_and_reproducibility(self):
        # every compartment far from the boundary, so nothing gets clamped,
        # the effect columns cancel exactly and population is conserved
        cm = compiled_sir(
            compartments=[
                {"name": "S", "initial": "N - I0 - 200"},
                {"name": "I", "initial": "I0"},
                {"name": "R", "initial": "200"},
            ]
        )
        params = dict(SIR_PARAMS, I0=50.0)
        x0 = cm.init_state(params, size=50)
        a = sim.advance(cm, x0, 0.0, 4.0, params,
                        rng=np.random.default_rng(9), formalism="sde", dt=0.1)
        b = sim.advance(cm, x0, 0.0, 4.0, params,
                        rng=np.random.default_rng(9), formalism="sde", dt=0.1)
        c = sim.advance(cm, x0, 0.0, 4.0, params,
                        rng=np.random.default_rng(10), formalism="sde", dt=0.1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a[:3].sum(axis=0) == pytest.approx(1000.0, abs=1e-8)

    def test_clamping_never_removes_mass(self):
        cm = compiled_sir()
        x0 = cm.init_state(SIR_PARAMS, size=200)
        out = sim.advance(cm, x0, 0.0, 6.0, SIR_PARAMS,
                          rng=np.random.default_rng(9), formalism="sde",
                          dt=0.1)
        assert np.all(out >= 0.0)
        assert np.all(out[:3].sum(axis=0) >= 1000.0 - 1e-8)

    def test_driven_parameter_moments(self):
        # identity-transform random walk with drift: mean c t, variance q^2 t
        from helpers import local_level_model

        cm = CompiledModel(local_level_model())
        p = {"x0": 2.0, "c_drift": 0.3, "q_sd": 0.5, "tau2": 1.0}
        rng = np.random.default_rng(77)
        x = cm.init_state(p, size=30000)
        x = sim.advance(cm, x, 0.0, 4.0, p, rng=rng, formalism="sde", dt=0.1)
        assert x[0].mean() == pytest.approx(2.0 + 0.3 * 4.0, abs=0.02)
        assert x[0].var() == pytest.approx(0.25 * 4.0, rel=0.03)


class TestPsr:
    def test_slice_means_match_rates(self):
        cm = compiled_sir()
        rng = np.random.default_rng(31)
        n = 40000
        x = cm.init_state(SIR_PARAMS, size=n)
        dt = 0.05
        stepped = sim.psr_step(cm, x, 0.0, dt, 1, SIR_PARAMS, rng)
        new_cases = stepped[3] - x[3]
        recoveries = x[1] - stepped[1] + new_cases
        # exit probability per susceptible 1 - exp(-beta I/N dt)
        p_inf = -np.expm1(-0.5 * 10.0 / 1000.0 * dt)
        p_rec = -np.expm1(-0.25 * dt)
        se_inf = np.sqrt(990 * p_inf * (1 - p_inf) / n)
        se_rec = np.sqrt(10 * p_rec * (1 - p_rec) / n)
        assert new_cases.mean() == pytest.approx(990 * p_inf, abs=5 * se_inf)
        assert recoveries.mean() == pytest.approx(10 * p_rec, abs=5 * se_rec)

    def test_competing_exits_split_by_rate(self):
        doc = build(DECAY, compartments=[
            {"name": "C", "initial": "C0"},
            {"name": "A", "initial": "0"},
            {"name": "B", "initial": "0"},
        ], reactions=[
            {"from": "C", "to": "A", "rate": "0.3"},
            {"from": "C", "to": "B", "rate": "0.7"},
        ])
        cm = CompiledModel(doc)
        p = {"C0": 200.0, "mu": 0.5}
        rng = np.random.default_rng(17)
        x = cm.init_state(p, size=2000)
        x = sim.advance(cm, x, 0.0, 12.0, p, rng=rng, formalism="psr", dt=0.25)
        exited = x[1] + x[2]
        assert exited.mean() > 199.0
        frac_a = x[1].sum() / exited.sum()
        assert frac_a == pytest.approx(0.3, abs=0.01)

    def test_stayers_match_survival(self):
        cm = compiled(DECAY)
        p = {"C0": 400.0, "mu": 0.5}
        rng = np.random.default_rng(23)
        n = 5000
        x = cm.init_state(p, size=n)
        x = sim.psr_step(cm, x, 0.0, 1.0, 1, p, rng)
        surv = np.exp(-0.5)
        se = np.sqrt(400 * surv * (1 - surv) / n)
        assert x[0].mean() == pytest.approx(400 * surv, abs=5 * se)

    def test_integer_states_and_conservation(self):
        cm = compiled_sir()
        rng = np.random.default_rng(41)
        x = cm.init_state(SIR_PARAMS, size=300)
        x = sim.advance(cm, x, 0.0, 10.0, SIR_PARAMS, rng=rng,
                        formalism="psr", dt=0.25)
        assert np.array_equal(x[:3], np.round(x[:3]))
        assert np.all(x[:3].sum(axis=0) == 1000.0)
        assert np.all(x >= 0.0)

    def test_absolute_removal_capped_after_exits(self):
        # at a coarse dt the per-capita exits and the absolute removals
        # drawn in one slice together exceed what C holds; capping the
        # removals against C's content at the start of the slice, then
        # clamping C at zero, would create members
        cm = compiled(DRAINED)
        p = {"C0": 100.0, "mu": 0.5, "kappa": 60.0}
        rng = np.random.default_rng(53)
        x = cm.init_state(p, size=500)
        for i in range(30):
            x = sim.psr_step(cm, x, float(i), 1.0, 1, p, rng)
            assert np.all(x >= 0.0)
            assert np.all(x[0] + x[1] + x[2] == 100.0)
        assert np.all(x[0] == 0.0)

    def test_overdrawing_exit_is_a_domain_error(self):
        # each exit takes two members of C, but the cascade draws exits
        # per member present
        cm = compiled(DECAY, reactions=[
            {"effect": {"C": -2}, "source": "C", "rate": "mu"}
        ])
        p = {"C0": 1.0, "mu": 50.0}
        with pytest.raises(DomainError):
            sim.psr_step(cm, cm.init_state(p)[:, None], 0.0, 1.0, 1, p,
                         np.random.default_rng(2))

    def test_environmental_noise_inflates_variance(self):
        params = SIR["parameters"] + [
            {"name": "sigma_env", "prior": {"dirac": 0.0}, "role": "fixed"}
        ]
        reactions = [
            {
                "from": "S",
                "to": "I",
                "rate": "beta*I/N",
                "accumulators": ["cases"],
                "white_noise": {"group": "transmission", "sd": "sigma_env"},
            },
            {"from": "I", "to": "R", "rate": "gamma"},
        ]
        cm = compiled(SIR, parameters=params, reactions=reactions)
        out = {}
        for sd in (0.0, 1.0):
            p = dict(SIR_PARAMS, sigma_env=sd)
            rng = np.random.default_rng(8)
            x = cm.init_state(p, size=3000)
            x = sim.advance(cm, x, 0.0, 5.0, p, rng=rng, formalism="psr",
                            dt=0.25)
            out[sd] = np.var(x[3])
        assert out[1.0] > 2.0 * out[0.0]

    def test_gamma_increment_moments(self):
        cm = noisy_sir()
        p = dict(SIR_PARAMS, sigma_env=0.6)
        rng = RecordingGenerator(13)
        dt = 0.2
        delta = slice_increments(cm, cm.init_state(p, size=60000), dt, p, rng)
        assert delta[:, 1] == pytest.approx(np.full(60000, dt))
        draws = delta[:, 0]
        assert draws.mean() == pytest.approx(dt, rel=0.01)
        assert draws.var() == pytest.approx(0.36 * dt, rel=0.03)

    def test_zero_sd_noise_collapses_to_dt(self):
        # no gamma draw, and exit probabilities bit for bit those of the
        # model without the noise group, whose increments are dt
        p = dict(SIR_PARAMS, sigma_env=0.0)
        draws = []
        for cm in (noisy_sir(), compiled_sir()):
            rng = RecordingGenerator(1)
            sim.psr_step(cm, cm.init_state(p, size=16), 0.0, 0.3, 1, p, rng)
            draws.append(rng.calls)
        (name, args), = draws[0]
        (_, quiet), = draws[1]
        assert name == "binomial"
        assert all(np.array_equal(a, b) for a, b in zip(args, quiet))


# ----------------------------------------------------------------------
# the Poisson step as a per-source cascade, one source at a time: the
# reference the vectorised psr_step must reproduce draw for draw

def reference_noise_deltas(cm, dt, params, lead, rng, prop, dead_rng=None):
    """Per reaction, its effective increment: a gamma draw for a group
    with a positive sd, unless no member has a positive propensity in any
    row; such a group draws from dead_rng when one is given, else not at
    all."""
    delta = np.full(lead + (cm.n_react,), float(dt))
    for sd_name, members in cm.noise_groups:
        sd = np.broadcast_to(np.asarray(params[sd_name], dtype=float), lead)
        draw = np.full(lead, float(dt))
        pos = sd > 0
        source = rng if np.any(prop[..., members] > 0) else dead_rng
        if np.any(pos) and source is not None:
            var = sd[pos] ** 2
            draw[pos] = source.gamma(dt / var, var)
        delta[..., members] = draw[..., None]
    return delta


def reference_psr_step(cm, x, t, dt, params, rng, dead_rng=None):
    """One slice of a batch laid out (nx, J), worked one row per state."""
    x = np.asarray(x, dtype=float).T
    lead = x.shape[:-1]
    prop = np.clip(cm.propensities(x, t, params), 0.0, None)
    if not np.all(np.isfinite(prop)):
        raise DomainError("non-finite rate during Poisson step")
    delta = reference_noise_deltas(cm, dt, params, lead, rng, prop, dead_rng)
    counts = np.zeros(lead + (cm.n_react,))

    for src, ks in cm.reactions_by_source:
        z = x[..., src]
        hazard = np.zeros(lead)
        rd = []
        for k in ks:
            r = np.where(z > 0, prop[..., k] / np.where(z > 0, z, 1.0), 0.0)
            rd.append(r * delta[..., k])
            hazard += rd[-1]
        p_leave = -np.expm1(-hazard)
        safe = np.where(hazard > 0, hazard, 1.0)
        remaining = np.floor(z).astype(np.int64)
        tail = np.ones(lead)
        for k, rdk in zip(ks, rd):
            q = p_leave * rdk / safe
            with np.errstate(divide="ignore", invalid="ignore"):
                cond = np.where(tail > 1e-12, q / tail, 0.0)
            cond = np.clip(cond, 0.0, 1.0)
            n = rng.binomial(remaining, cond)
            counts[..., k] = n
            remaining = remaining - n
            tail = tail - q

    for k in (r.index for r in cm.spec.reactions if r.source is None):
        n = rng.poisson(prop[..., k] * delta[..., k])
        drains = cm.removals[:, k] > 0
        if drains.any():
            left = x[..., cm.comp_slice] - counts @ cm.removals.T
            room = np.floor(left[..., drains] / cm.removals[drains, k])
            n = np.minimum(n, room.min(axis=-1))
        counts[..., k] = n

    new = x + counts @ cm.stoich_full.T
    if np.any(new[..., cm.comp_slice] < 0.0):
        raise DomainError("Poisson step overdrew a compartment")
    if cm.n_diff:
        _, drift, vols, _ = cm.dynamics(x, t, params)
        # one row of normals per driven parameter
        xi = np.moveaxis(rng.standard_normal((cm.n_diff,) + lead), 0, -1)
        new[..., cm.diff_slice] = (
            x[..., cm.diff_slice]
            + dt * drift[..., cm.diff_slice]
            + np.sqrt(dt) * vols * xi
        )
    return new.T


SHIPPED_VALUES = {
    "sir": {"beta": 1.5, "gamma": 1.0},
    "plague": {"beta0": 2.5},
    "seir-h1n1": {"beta": 3.0, "rho": 0.35},
    "dengue-2strain": {"beta1": 2.1, "beta2": 1.9, "xi": 1.7},
}

# C drains per capita to A, B and D (three competing exits), A to B and D
THREE_EXITS = {
    **DECAY,
    "compartments": [{"name": "C", "initial": "C0"},
                     {"name": "A", "initial": "20"},
                     {"name": "B", "initial": "0"},
                     {"name": "D", "initial": "0"}],
    "reactions": [
        {"from": "C", "to": "A", "rate": "mu"},
        {"from": "A", "to": "B", "rate": "0.4"},
        {"from": "C", "to": "B", "rate": "0.7*A/(A + 5)"},
        {"from": "A", "to": "D", "rate": "mu*2"},
        {"from": "C", "to": "D", "rate": "0.05", "accumulators": ["lost"]},
    ],
}


def noisy_sir():
    params = SIR["parameters"] + [
        {"name": "sigma_env", "prior": {"dirac": 0.3}, "role": "fixed"}
    ]
    reactions = [
        {"from": "S", "to": "I", "rate": "beta*I/N",
         "accumulators": ["cases"],
         "white_noise": {"group": "transmission", "sd": "sigma_env"}},
        {"from": "I", "to": "R", "rate": "gamma"},
    ]
    return compiled(SIR, parameters=params, reactions=reactions)


# C drains per capita to D and, at two absolute rates, to outside: the
# second removal's cap counts what the first removed
TWO_DRAINS = {
    **DRAINED,
    "parameters": DRAINED["parameters"] + [
        {"name": "lam", "prior": {"dirac": 5.0}, "role": "fixed"},
    ],
    "reactions": DRAINED["reactions"] + [
        {"effect": {"C": -2}, "source": "EXTERNAL", "rate": "lam",
         "absolute_outflow": True, "accumulators": ["pairs"]},
    ],
}


class RecordingGenerator:
    """A numpy Generator that records every draw call: the method and each
    distribution parameter broadcast to the shape of the draws (the
    arguments of a standard_* method are the shape itself), and in
    `variates` the values drawn."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []
        self.variates = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(*args, **kwargs):
            args = [np.array(a) for a in args]
            out = method(*args, **kwargs)
            if not name.startswith("standard_"):
                args = [np.broadcast_to(a, np.shape(out)) for a in args]
            self.calls.append((name, args))
            self.variates.append(out)
            return out
        return draw

    def joined(self):
        """The recorded calls with consecutive calls of one method joined:
        (method, the sequence of each distribution parameter, one entry per
        variate); a standard_* method's sequence holds one 0 per variate.
        Binomial entries with n = 0 or p = 0 and Poisson entries with mean
        0, which numpy answers with 0 without drawing, are left out, and a
        call left with none is dropped before the joining."""
        out = []
        for name, args in self.calls:
            if name.startswith("standard_"):
                args = [np.zeros(int(np.prod(args[0])))]
            args = [a.ravel() for a in args]
            if name in ("binomial", "poisson"):
                drawing = np.all([a != 0 for a in args], axis=0)
                if not drawing.any():
                    continue
                args = [a[drawing] for a in args]
            if out and out[-1][0] == name:
                args = [np.concatenate(pair) for pair in zip(out[-1][1], args)]
                out.pop()
            out.append((name, args))
        return out


def slice_increments(cm, x, dt, p, rng):
    """The effective increment of each exit, in cascade order, over one
    slice from x, read back from the probability its binomial is drawn
    with: where each source has one exit, that is 1 - exp(-r d) for the
    exit's per-capita rate r."""
    sim.psr_step(cm, x, 0.0, dt, 1, p, rng)
    (_, (_, prob)), = [c for c in rng.calls if c[0] == "binomial"]
    rows = x.T
    rate = (cm.propensities(rows, 0.0, p)[:, cm.exit_reactions]
            / rows[:, cm.exit_sources])
    return -np.log1p(-prob.T) / rate


class TestPsrMatchesCascade:
    """psr_step over whole intervals against n_sub slices of the
    per-source reference: equal states after every interval, the same
    variates drawn with bit-identical arguments in the same order (joining
    consecutive calls of one distribution on both sides, since psr_step
    shares calls between draws that do not depend on each other, and
    leaving out on both sides the entries numpy answers without drawing,
    which psr_step skips for reactions no row can fire), and the generator
    left in the same state."""

    def assert_same_steps(self, cm, x, params, steps=2, dt=0.25, seed=0,
                          n_sub=10):
        rng_new = RecordingGenerator(seed)
        rng_ref = RecordingGenerator(seed)
        x_new = x_ref = np.array(x, dtype=float)
        for i in range(steps):
            t = t0 = i * n_sub * dt
            x_new = sim.psr_step(cm, x_new, t0, dt, n_sub, params, rng_new)
            for _ in range(n_sub):
                x_ref = reference_psr_step(cm, x_ref, t, dt, params, rng_ref)
                t += dt
            assert np.array_equal(x_new, x_ref), f"interval {i}"
        new, ref = rng_new.joined(), rng_ref.joined()
        assert [name for name, _ in new] == [name for name, _ in ref]
        for (name, args), (_, args_ref) in zip(new, ref):
            assert len(args) == len(args_ref)
            for a, b in zip(args, args_ref):
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert np.array_equal(a, b), name
        assert (rng_new.rng.bit_generator.state
                == rng_ref.rng.bit_generator.state)
        return x_new

    @pytest.mark.parametrize("name", sorted(SHIPPED_VALUES))
    def test_shipped_models_at_random_states(self, name):
        cm = CompiledModel(load_model(MODELS / f"{name}.json"))
        values = cm.spec.resolve_values(SHIPPED_VALUES[name])
        rng = np.random.default_rng(len(name))
        x = cm.init_state(values, size=64)
        x = sim.advance(cm, x, 0.0, 3.0, values, rng=rng, formalism="psr")
        # empty some compartments, some rows wholly
        comp = x[cm.comp_slice].T
        comp[rng.random(comp.shape) < 0.3] = 0.0
        comp[:4] = 0.0
        self.assert_same_steps(cm, x, values, dt=0.1, seed=len(name) + 1)

    @pytest.mark.parametrize("name, binomials, poissons", [
        ("sir", 1, 0), ("plague", 3, 1), ("seir-h1n1", 1, 0),
        ("dengue-2strain", 4, 0)])
    def test_calls_per_slice(self, name, binomials, poissons):
        # with every compartment populated, dengue-2strain's 11 exits take
        # 4 calls, one a run of 4 exits; at the initial state its R1, R2,
        # I12, I21 and Rboth are empty, and so is plague's R, and the exits
        # they drain are not drawn: dengue-2strain's 4 live exits take 2
        # calls, and plague's last call holds I's second exit alone
        cm = CompiledModel(load_model(MODELS / f"{name}.json"))
        values = cm.spec.resolve_values(SHIPPED_VALUES[name])
        x0 = cm.init_state(values, size=8)
        full = x0.copy()
        full[cm.comp_slice] += 5.0
        initial = {"sir": 1, "plague": 3, "seir-h1n1": 1,
                   "dengue-2strain": 2}[name]
        for x, want in ((full, binomials), (x0, initial)):
            rng = RecordingGenerator(3)
            sim.psr_step(cm, x, 0.0, 0.1, 1, values, rng)
            names = [c for c, _ in rng.calls]
            assert names.count("binomial") == want
            assert names.count("poisson") == poissons
        if name == "dengue-2strain":
            plan = sim.psr_plan(cm, np.ones(len(cm.step_order), dtype=bool))
            assert max(a.stop - a.start for a, _ in plan.runs) == 4

    def test_runs_recut_among_live_exits(self):
        # with I1 and I21 empty in every row, strain 1 infects no one: S's
        # and R2's first exits are dead, and their second exits join the
        # runs before them, so the 7 live exits take 2 calls, not 3
        cm = CompiledModel(load_model(MODELS / "dengue-2strain.json"))
        values = cm.spec.resolve_values(SHIPPED_VALUES["dengue-2strain"])
        x = cm.init_state(values, size=8)
        x[cm.comp_slice] += 5.0
        x[[cm.state_names.index("I1"), cm.state_names.index("I21")]] = 0.0
        rng = RecordingGenerator(3)
        sim.psr_step(cm, x, 0.0, 0.1, 1, values, rng)
        assert [c for c, _ in rng.calls].count("binomial") == 2

    def test_single_state(self):
        cm = compiled_sir()
        x = cm.init_state(SIR_PARAMS)[:, None]
        out = self.assert_same_steps(cm, x, SIR_PARAMS)
        assert out.shape == (cm.nx, 1)

    def test_three_competing_exits(self):
        cm = compiled(THREE_EXITS)
        assert max(len(ks) for _, ks in cm.reactions_by_source) == 3
        p = {"C0": 300.0, "mu": 0.6}
        x = cm.init_state(p, size=200)
        self.assert_same_steps(cm, x, p, dt=0.5, seed=4)

    def test_noise_with_positive_and_zero_sd(self):
        cm = noisy_sir()
        x = cm.init_state(SIR_PARAMS, size=100)
        for sd in (0.3, 0.0):
            p = dict(SIR_PARAMS, sigma_env=sd)
            self.assert_same_steps(cm, x, p, seed=5)

    @pytest.mark.parametrize("zeros", [slice(None, None, 3), slice(None)])
    def test_noise_sd_column_with_zeros(self, zeros):
        cm = noisy_sir()
        sd = np.random.default_rng(2).uniform(0.0, 0.5, 100)
        sd[zeros] = 0.0
        p = dict(SIR_PARAMS, sigma_env=sd)
        self.assert_same_steps(cm, cm.init_state(p, size=100), p, seed=5)

    def test_per_row_parameter_columns(self):
        cm = noisy_sir()
        rng = np.random.default_rng(6)
        j = 120
        sd = rng.uniform(0.0, 0.5, j)
        sd[::3] = 0.0
        p = dict(SIR_PARAMS, beta=rng.uniform(0.2, 2.0, j),
                 gamma=rng.uniform(0.1, 0.5, j), sigma_env=sd)
        x = cm.init_state(p, size=j)
        self.assert_same_steps(cm, x, p, seed=7)

    def test_two_driven_parameters(self):
        cm = compiled(SIR, **TWO_DRIVEN_SIR)
        assert cm.n_diff == 2
        p = dict(SIR_PARAMS, sigma_env=0.3)
        self.assert_same_steps(cm, cm.init_state(p, size=50), p, seed=12)

    def test_capped_absolute_removals(self):
        cm = compiled(DRAINED)
        p = {"C0": 100.0, "mu": 0.5, "kappa": 60.0}
        x = cm.init_state(p, size=300)
        self.assert_same_steps(cm, x, p, dt=1.0, seed=53)

    def test_interacting_removal_caps(self):
        # at these rates both removals are often capped in one slice, the
        # second by what the first left
        cm = compiled(TWO_DRAINS)
        p = {"C0": 100.0, "mu": 0.5, "kappa": 40.0, "lam": 30.0}
        x = cm.init_state(p, size=300)
        out = self.assert_same_steps(cm, x, p, dt=1.0, seed=11)
        assert np.all(out[0] >= 0.0)


    def test_plans_switch_within_an_interval(self):
        # C's three members leave within a few slices in every row, and
        # its exits stop being drawn halfway through the call
        cm = compiled(THREE_EXITS)
        p = {"C0": 3.0, "mu": 6.0}
        self.assert_same_steps(cm, cm.init_state(p, size=50), p, steps=1,
                               dt=0.25, seed=9)
        assert len(cm.psr_plans) >= 2

    def test_dead_noise_group_draws_no_gamma(self):
        # I is empty in every row: neither the infection, the noise group's
        # only member, nor the recovery can fire, and the waning R -> S
        # is the one live exit
        cm = compiled(SIR, parameters=SIR["parameters"] + [
            {"name": "sigma_env", "prior": {"dirac": 0.3}, "role": "fixed"}
        ], reactions=[
            {"from": "S", "to": "I", "rate": "beta*I/N",
             "accumulators": ["cases"],
             "white_noise": {"group": "transmission", "sd": "sigma_env"}},
            {"from": "I", "to": "R", "rate": "gamma"},
            {"from": "R", "to": "S", "rate": "gamma"},
        ])
        p = dict(SIR_PARAMS, sigma_env=np.linspace(0.0, 0.5, 40))
        x = cm.init_state(p, size=40)
        x[0], x[1], x[2] = 700.0, 0.0, 300.0
        rng, rng_ref = RecordingGenerator(4), RecordingGenerator(4)
        dead = RecordingGenerator(5)
        got = sim.psr_step(cm, x, 0.0, 0.2, 5, p, rng)
        want = x
        for i in range(5):
            want = reference_psr_step(cm, want, 0.2 * i, 0.2, p, rng_ref,
                                      dead_rng=dead)
        assert np.array_equal(got, want)
        assert [c for c, _ in dead.calls] == ["gamma"] * 5
        assert "gamma" not in [c for c, _ in rng.calls]
        for recorded in (rng, rng_ref):
            assert {c for c, _ in recorded.calls} == {"binomial"}
        drawn = []
        for recorded in (rng, rng_ref):
            trials, prob, n = (
                np.concatenate([a.ravel() for a in parts])
                for parts in zip(*[(*args, v) for (_, args), v
                                   in zip(recorded.calls, recorded.variates)]))
            drawing = (trials != 0) & (prob != 0)
            drawn.append((trials[drawing], prob[drawing], n[drawing]))
        for a, b in zip(*drawn):
            assert np.array_equal(a, b)
        assert (rng.rng.bit_generator.state
                == rng_ref.rng.bit_generator.state)

    def test_property_matches_reference_as_rows_die(self):
        # compartments empty in every row, or holding a few members that
        # fast exits drain within a few slices, so that plans switch
        # inside one call
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        shipped = {}

        def shipped_model(name):
            if name not in shipped:
                cm = CompiledModel(load_model(MODELS / f"{name}.json"))
                shipped[name] = cm, cm.spec.resolve_values(
                    SHIPPED_VALUES[name])
            return shipped[name]

        @st.composite
        def cases(draw):
            seed = draw(st.integers(0, 2**32 - 1))
            dt = draw(st.floats(0.05, 1.0))
            if draw(st.booleans()):
                name = draw(st.sampled_from(sorted(SHIPPED_VALUES)))
                cm, values = shipped_model(name)
                x = cm.init_state(values, size=8)
                rng = np.random.default_rng(seed)
                for c in range(cm.n_comp):
                    kind = draw(st.sampled_from(("keep", "empty", "few")))
                    if kind == "empty":
                        x[c] = 0.0
                    elif kind == "few":
                        x[c] = rng.integers(0, 4, x.shape[1])
                return cm, x, values, dt, seed
            n = draw(st.integers(2, 5))
            pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
            edges = draw(st.lists(st.sampled_from(pairs), min_size=1,
                                  max_size=6, unique=True))
            rates = draw(st.lists(
                st.floats(0.05, 3.0) | st.floats(10.0, 60.0),
                min_size=len(edges), max_size=len(edges)))
            initial = draw(st.lists(st.integers(0, 3) | st.integers(0, 60),
                                    min_size=n, max_size=n))
            cm = random_closed_graph(n, edges, rates, initial)
            return cm, cm.init_state({}, size=6), {}, dt, seed

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(cases())
        def check(case):
            cm, x, values, dt, seed = case
            self.assert_same_steps(cm, x, values, dt=dt, seed=seed, n_sub=5)

        check()


def shipped(name):
    cm = CompiledModel(load_model(MODELS / f"{name}.json"))
    return cm, cm.spec.resolve_values(SHIPPED_VALUES[name])


class TestPsrOraclesAt500Rows:
    """psr_step on the shipped models at 500 rows against the per-source
    reference, draw for draw (`TestPsrMatchesCascade.assert_same_steps`),
    in the cases its buffers, its kernel's step order and its single
    count update are shaped around."""

    same = TestPsrMatchesCascade.assert_same_steps
    J = 500

    @pytest.mark.parametrize("name", sorted(SHIPPED_VALUES))
    def test_every_parameter_a_row_column(self, name):
        # mif's case, a driven plague beta included.  Each row draws each
        # parameter around its value; gamma is negative in some rows, a
        # propensity the clamp zeroes, and 0 in others.  In others it is
        # 1e12 times larger: I's members all leave within a slice, and on
        # plague I's first exit leaves its second less than 1e-12 of them
        cm, values = shipped(name)
        rng = np.random.default_rng(len(name))
        p = {k: v * np.exp(0.2 * rng.standard_normal(self.J))
             for k, v in values.items()}
        p["gamma"][:40] *= -1.0
        p["gamma"][40:80] *= 1e12
        p["gamma"][80:120] = 0.0
        x = cm.init_state(p, size=self.J)
        x[cm.comp_slice] = np.floor(x[cm.comp_slice])
        x = sim.advance(cm, x, 0.0, 2.0, p, rng=rng, formalism="psr")
        self.same(cm, x, p, dt=0.1, seed=len(name) + 3)

    @pytest.mark.parametrize("name", sorted(SHIPPED_VALUES))
    def test_non_integer_compartments(self, name):
        # the counts, integers, combine exactly and are added to a
        # non-integer state once, as in the reference; added one reaction
        # at a time they would round at each addition
        cm, values = shipped(name)
        rng = np.random.default_rng(len(name) + 1)
        x = cm.init_state(values, size=self.J)
        x[cm.comp_slice] += rng.uniform(0.0, 1.0, (self.J, cm.n_comp)).T
        x[cm.comp_slice] *= rng.uniform(1.0, 1.5, (self.J, cm.n_comp)).T
        out = self.same(cm, x, values, dt=0.2, seed=len(name) + 5)
        assert not np.all(out[cm.comp_slice] % 1.0 == 0.0)

    # per model, the compartments set in every row so that the live set
    # changes within the call: an exit's source is empty until a live
    # reaction fills it, or on sir, whose S is empty, I's last members leave
    CHANGING = {"sir": {"S": 0.0, "I": 1.0}, "plague": {"R": 0.0},
                "seir-h1n1": {"E": 0.0}, "dengue-2strain": {}}

    @pytest.mark.parametrize("name", sorted(SHIPPED_VALUES))
    def test_live_set_changing_within_a_call(self, name):
        cm, values = shipped(name)
        x = cm.init_state(values, size=self.J)
        for comp, value in self.CHANGING[name].items():
            x[cm.state_names.index(comp)] = value
        self.same(cm, x, values, dt=0.5, seed=len(name) + 7)
        assert len(cm.psr_plans) >= 2


def random_closed_graph(n_comp, edges, rates, initial):
    """A closed model over compartments C0..C{n-1} whose per-capita
    reactions move members along the given edges."""
    return compiled({
        "ssm_model": 1,
        "name": "closed",
        "compartments": [{"name": f"C{i}", "initial": str(v)}
                         for i, v in enumerate(initial[:n_comp])],
        "parameters": [],
        "reactions": [
            {"from": f"C{a}", "to": f"C{b}",
             "rate": f"{r!r}*(1 + C{b})/(1 + C{a} + C{b})"}
            for (a, b), r in zip(edges, rates)
        ],
        "observations": [],
    })


def test_property_closed_graphs_conserve_mass():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def graphs(draw):
        n = draw(st.integers(2, 5))
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        edges = draw(st.lists(st.sampled_from(pairs), min_size=1,
                              max_size=6, unique=True))
        rates = draw(st.lists(st.floats(0.05, 3.0), min_size=len(edges),
                              max_size=len(edges)))
        initial = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))
        return n, edges, rates, initial

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(graphs(), st.floats(0.05, 2.0),
                      st.integers(0, 2**32 - 1))
    def check(graph, dt, seed):
        n, edges, rates, initial = graph
        cm = random_closed_graph(n, edges, rates, initial)
        total = float(sum(initial))
        rng = np.random.default_rng(seed)
        for formalism in ("psr", "jump"):
            x = cm.init_state({}, size=6)
            for i in range(4):
                x = sim.advance(cm, x, i * dt, (i + 1) * dt, {}, rng=rng,
                                formalism=formalism, dt=dt / 2)
                comp = x[cm.comp_slice]
                assert np.all(comp >= 0.0), formalism
                assert np.all(comp.sum(axis=0) == total), formalism

    check()


class TestJump:
    def test_external_inflow_is_poisson(self):
        doc = build(DECAY, reactions=[
            {"from": "EXTERNAL", "to": "C", "rate": "12.0"}
        ], compartments=[{"name": "C", "initial": "0"}])
        cm = CompiledModel(doc)
        p = {"C0": 0.0, "mu": 0.5}
        rng = np.random.default_rng(19)
        counts = np.array([
            sim.gillespie_interval(cm, cm.init_state(p)[:, None], 0.0, 2.0,
                                   p, rng, dt_max=5.0)[0, 0]
            for _ in range(800)
        ])
        lam = 24.0
        assert counts.mean() == pytest.approx(lam, abs=5 * np.sqrt(lam / 800))
        assert counts.var() == pytest.approx(lam, rel=0.2)

    def test_single_individual_survival_curve(self):
        cm = compiled(DECAY, parameters=[
            {"name": "C0", "prior": {"dirac": 1.0}, "role": "fixed"},
            {"name": "mu", "prior": {"dirac": 0.7}, "role": "fixed"},
        ])
        p = {"C0": 1.0, "mu": 0.7}
        rng = np.random.default_rng(29)
        n = 3000
        for t in (0.5, 1.0, 2.0):
            alive = sum(
                sim.gillespie_interval(cm, cm.init_state(p)[:, None], 0.0, t,
                                       p, rng, dt_max=10.0)[0, 0]
                for _ in range(n)
            )
            surv = np.exp(-0.7 * t)
            se = np.sqrt(surv * (1 - surv) / n)
            assert alive / n == pytest.approx(surv, abs=5 * se)

    def test_competing_exits_split_by_rate(self):
        doc = build(DECAY, compartments=[
            {"name": "C", "initial": "C0"},
            {"name": "A", "initial": "0"},
            {"name": "B", "initial": "0"},
        ], reactions=[
            {"from": "C", "to": "A", "rate": "0.3"},
            {"from": "C", "to": "B", "rate": "0.7"},
        ])
        cm = CompiledModel(doc)
        p = {"C0": 40.0, "mu": 0.5}
        rng = np.random.default_rng(37)
        tot_a = tot_b = 0.0
        for _ in range(300):
            x = sim.gillespie_interval(cm, cm.init_state(p)[:, None], 0.0,
                                       25.0, p, rng, dt_max=25.0)[:, 0]
            tot_a += x[1]
            tot_b += x[2]
        n = tot_a + tot_b
        se = np.sqrt(0.3 * 0.7 / n)
        assert tot_a / n == pytest.approx(0.3, abs=5 * se)

    def test_conservation_and_integrality(self):
        cm = compiled_sir()
        rng = np.random.default_rng(43)
        x = sim.gillespie_interval(cm, cm.init_state(SIR_PARAMS)[:, None],
                                   0.0, 8.0, SIR_PARAMS, rng,
                                   dt_max=0.5)[:, 0]
        assert x[:3].sum() == 1000.0
        assert np.array_equal(x, np.round(x))
        assert x[3] == 990.0 - x[0]

    def test_infeasible_removal_never_fires(self):
        # three members removed at the absolute rate 5 while any are left:
        # C(t) = 0 exactly when a rate-5 Poisson process has counted three
        # events by t
        from scipy.stats import poisson

        cm = compiled(DRAINED, reactions=[DRAINED["reactions"][1]])
        p = {"C0": 3.0, "mu": 0.0, "kappa": 5.0}
        rng = np.random.default_rng(59)
        n = 2000
        for t in (0.2, 0.5, 1.0):
            x = sim.gillespie_interval(cm, cm.init_state(p, size=n), 0.0, t,
                                       p, rng, dt_max=t)
            assert np.all(x >= 0.0)
            assert np.all(x[0] + x[2] == 3.0)
            want = poisson.sf(2, 5.0 * t)
            se = np.sqrt(want * (1 - want) / n)
            assert np.mean(x[0] == 0.0) == pytest.approx(want, abs=5 * se)

    def test_per_row_parameter_columns(self):
        cm = compiled(DECAY)
        n, c0 = 2000, 20.0
        mu = np.tile([0.3, 1.2], n // 2)
        p = {"C0": c0, "mu": mu}
        rng = np.random.default_rng(61)
        x = cm.init_state(p, size=n)
        t = 0.0
        for t_next in (0.5, 1.5):
            x = sim.gillespie_interval(cm, x, t, t_next, p, rng)
            t = t_next
            for rate in (0.3, 1.2):
                rows = mu == rate
                surv = np.exp(-rate * t)
                se = np.sqrt(surv * (1 - surv) / (rows.sum() * c0))
                assert x[0, rows].mean() / c0 == pytest.approx(
                    surv, abs=5 * se)

    def test_paths_reproducible_by_seed(self):
        cm = compiled_sir()
        times = np.arange(0.0, 6.0)
        a = sim.simulate_paths(cm, SIR_PARAMS, times, formalism="jump",
                               rng=np.random.default_rng(3), trajectories=3)
        b = sim.simulate_paths(cm, SIR_PARAMS, times, formalism="jump",
                               rng=np.random.default_rng(3), trajectories=3)
        assert np.array_equal(a, b)


class TestPaths:
    def test_shapes_and_monotone_accumulator(self):
        cm = compiled_sir()
        times = np.arange(0.0, 13.0)
        for formalism in ("ode", "sde", "psr"):
            out = sim.simulate_paths(
                cm, SIR_PARAMS, times, formalism=formalism,
                rng=np.random.default_rng(6), trajectories=4, dt=0.25,
            )
            assert out.shape == (4, 13, 4)
            assert np.all(np.diff(out[:, :, 3], axis=1) >= -1e-9)
            assert np.array_equal(out[:, 0, :], np.tile(
                cm.init_state(SIR_PARAMS), (4, 1)))

    def test_mean_of_stochastic_paths_tracks_ode(self):
        cm = compiled_sir()
        big = dict(SIR_PARAMS, N=100000.0, I0=1000.0)
        times = np.array([0.0, 5.0, 10.0])
        ode = sim.simulate_paths(cm, big, times, formalism="ode", dt=0.1)
        psr = sim.simulate_paths(cm, big, times, formalism="psr",
                                 rng=np.random.default_rng(12),
                                 trajectories=200, dt=0.25)
        rel = np.abs(psr[:, -1, 1].mean() - ode[0, -1, 1]) / ode[0, -1, 1]
        assert rel < 0.02
