"""The interval kernels against per-substep references.

`simulate.integrate_ode`, `CompiledModel.moments_interval` and
`simulate.sde_step` run every substep of an observation interval in one
generated call.  The references below step one substep at a time through
the model's single-call kernels (`drift_and_vols`, `moments`,
`propensities`), with the domain check, the clamp and the draws of a
substep written out in numpy.  Both must give equal arrays, raise the same
errors and leave the generator in the same state.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from helpers import SIR, build
from ssm import simulate as sim
from ssm.compiled import CompiledModel, DomainError
from ssm.model import load_model

MODELS = Path(__file__).resolve().parent.parent / "src" / "ssm" / "models"

SHIPPED = {
    "sir": {"beta": 1.5, "gamma": 1.0},
    "plague": {"beta0": 2.5},
    "seir-h1n1": {"beta": 3.0, "rho": 0.35},
    "dengue-2strain": {"beta1": 2.1, "beta2": 1.9, "xi": 1.7},
}
# observation intervals, and substep bounds: a tenth of each interval, and
# one that divides none of them
INTERVALS = [(0.0, 1.0), (1.0, 2.5), (2.5, 3.0)]
DTS = [None, 0.4]


# ----------------------------------------------------------------------
# references, one substep at a time

def reference_check_domain(cm, x):
    if not np.all(np.isfinite(x)):
        raise DomainError("non-finite state during deterministic integration")
    tol = 1e-6 * max(1.0, float(np.max(np.abs(x))))
    if np.min(x - cm.floor) < -tol:
        raise DomainError("negative population during deterministic "
                          "integration")
    return np.maximum(x, cm.floor)


def reference_ode(cm, x, t0, t1, p, dt=None):
    def drift(x, t, p):
        return cm.drift_and_vols(x, t, p)[0]

    n_sub, h = sim.substeps(t1 - t0, dt)
    x = np.array(x, dtype=float)
    t = t0
    for _ in range(n_sub):
        k1 = drift(x, t, p)
        k2 = drift(x + 0.5 * h * k1, t + 0.5 * h, p)
        k3 = drift(x + 0.5 * h * k2, t + 0.5 * h, p)
        k4 = drift(x + h * k3, t + h, p)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = reference_check_domain(cm, x)
        t += h
    return x


def reference_moments(cm, y, t0, t1, p, dt=None):
    n_sub, h = sim.substeps(t1 - t0, dt)
    y = np.array(y, dtype=float)
    t = t0
    for _ in range(n_sub):
        k1 = cm.moments(y, t, p)
        k2 = cm.moments(y + 0.5 * h * k1, t + 0.5 * h, p)
        k3 = cm.moments(y + 0.5 * h * k2, t + 0.5 * h, p)
        k4 = cm.moments(y + h * k3, t + h, p)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        np.maximum(y[: cm.nx], cm.floor, out=y[: cm.nx])
        t += h
    return y


def reference_sde_substep(cm, x, t, dt, p, rng):
    """One Euler-Maruyama substep of a (J, nx) batch: three draws, the
    increments reaction by reaction, the check, then the clamp."""
    j = len(x)
    xi_demo = rng.standard_normal((j, cm.n_react)) if cm.n_react else None
    xi_env = (rng.standard_normal((j, len(cm.noise_groups)))
              if cm.noise_groups else None)
    xi_diff = rng.standard_normal((j, cm.n_diff)) if cm.n_diff else None
    sq = math.sqrt(dt)
    a = cm.propensities(x, t, p)
    drift, vols = cm.drift_and_vols(x, t, p)
    ap = np.maximum(a, 0.0)
    inc = dt * a + sq * np.sqrt(ap) * xi_demo if cm.n_react else a
    for g, (sd_name, members) in enumerate(cm.noise_groups):
        w = sq * p[sd_name] * xi_env[:, g]
        inc[:, members] = inc[:, members] + np.asarray(w)[:, None] * ap[:, members]
    new = np.empty_like(x)
    for i in range(cm.nx):
        if cm.n_comp <= i < cm.n_comp + cm.n_diff:
            d = i - cm.n_comp
            new[:, i] = (x[:, i] + dt * drift[:, i]
                         + sq * vols[:, d] * xi_diff[:, d])
            continue
        col = x[:, i]
        for k in range(cm.n_react):
            coef = cm.stoich_full[i, k]
            if coef == 1:
                col = col + inc[:, k]
            elif coef == -1:
                col = col - inc[:, k]
            elif coef:
                col = col + int(coef) * inc[:, k]
        new[:, i] = col
    if not np.isfinite(new).all():
        raise DomainError("non-finite state during diffusion step")
    return np.maximum(new, cm.floor)


def reference_sde(cm, x, t0, t1, p, rng, dt=None):
    n_sub, h = sim.substeps(t1 - t0, dt)
    x = np.asarray(x, dtype=float)
    rows = x.reshape(-1, cm.nx)
    t = t0
    for _ in range(n_sub):
        rows = reference_sde_substep(cm, rows, t, h, p, rng)
        t += h
    return rows[0] if x.ndim == 1 else rows


# ----------------------------------------------------------------------
# comparison

def outcome(fn, *args, **kwargs):
    """What a call gives: ('ok', array) or ('error', type, message)."""
    try:
        return ("ok", fn(*args, **kwargs))
    except DomainError as err:
        return ("error", type(err), str(err))


def assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert got[1].shape == want[1].shape
        # bytes, so that -0.0 and 0.0 differ
        assert got[1].tobytes() == want[1].tobytes(), (got[1], want[1])
    else:
        assert got[1:] == want[1:]


def assert_same_generator(rng, rng_ref):
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def shipped(name):
    cm = CompiledModel(load_model(MODELS / f"{name}.json"))
    return cm, cm.spec.resolve_values(SHIPPED[name])


def spread(cm, x0, n, rng):
    """n states around x0: compartments moved by up to a fifth, driven
    coordinates by 0.3."""
    x = np.repeat(x0[None], n, axis=0)
    x[:, cm.comp_slice] *= rng.uniform(0.8, 1.2, size=(n, cm.n_comp))
    x[:, cm.diff_slice] += 0.3 * rng.standard_normal((n, cm.n_diff))
    return x


def run_intervals(step, reference, x, *args, **kwargs):
    """Both steppers over INTERVALS from x; the accumulators reset after
    each interval as the filters do."""
    for t0, t1 in INTERVALS:
        got = outcome(step, x, t0, t1, *args, **kwargs)
        want = outcome(reference, x, t0, t1, *args, **kwargs)
        assert_same(got, want)
        if got[0] != "ok":
            return got
        x = got[1].copy()
        x[..., -1] = 0.0
    return got


# ----------------------------------------------------------------------
# the shipped models

@pytest.mark.parametrize("name", sorted(SHIPPED))
@pytest.mark.parametrize("dt", DTS)
def test_ode_matches_substeps(name, dt):
    cm, p = shipped(name)
    x0 = cm.init_state(p)
    batch = spread(cm, x0, 16, np.random.default_rng(1))

    def step(x, t0, t1):
        return sim.integrate_ode(cm, x, t0, t1, p, dt=dt)

    def ref(x, t0, t1):
        return reference_ode(cm, x, t0, t1, p, dt=dt)

    for x in (x0, batch):
        assert run_intervals(step, ref, x)[0] == "ok"


@pytest.mark.parametrize("name", sorted(SHIPPED))
@pytest.mark.parametrize("dt", DTS)
def test_moments_match_substeps(name, dt):
    cm, p = shipped(name)
    x0 = cm.init_state(p)
    a = np.random.default_rng(2).standard_normal((cm.nx, cm.nx))
    cov = a @ a.T + np.diag(np.abs(x0) + 1.0)
    y = np.concatenate([x0, cov[cm.tri_index]])
    for t0, t1 in INTERVALS:
        n_sub, h = sim.substeps(t1 - t0, dt)
        got = cm.moments_interval(y, t0, h, n_sub, p)
        want = reference_moments(cm, y, t0, t1, p, dt=dt)
        np.testing.assert_array_equal(got, want)
        y = got


@pytest.mark.parametrize("name", sorted(SHIPPED))
@pytest.mark.parametrize("dt", DTS)
def test_sde_matches_substeps(name, dt):
    cm, p = shipped(name)
    x0 = cm.init_state(p)
    for x in (x0, spread(cm, x0, 64, np.random.default_rng(3))):
        rng, rng_ref = np.random.default_rng(4), np.random.default_rng(4)

        def step(x, t0, t1):
            return sim.advance(cm, x, t0, t1, p, rng=rng, formalism="sde",
                               dt=dt)

        def ref(x, t0, t1):
            return reference_sde(cm, x, t0, t1, p, rng_ref, dt=dt)

        assert run_intervals(step, ref, x)[0] == "ok"
        assert_same_generator(rng, rng_ref)


# ----------------------------------------------------------------------
# per-row parameter columns

NOISY_SIR = dict(
    parameters=SIR["parameters"] + [
        {"name": "sigma_env", "prior": {"dirac": 0.3}, "role": "fixed"}],
    reactions=[
        {"from": "S", "to": "I", "rate": "beta*I/N",
         "accumulators": ["cases"],
         "white_noise": {"group": "transmission", "sd": "sigma_env"}},
        {"from": "I", "to": "R", "rate": "gamma"},
    ],
)


def per_row_columns(j, rng):
    sd = rng.uniform(0.0, 0.5, j)
    sd[::3] = 0.0
    return {"N": 1000.0, "I0": 10.0, "beta": rng.uniform(0.2, 2.0, j),
            "gamma": rng.uniform(0.1, 0.5, j), "sigma_env": sd}


def test_ode_per_row_parameter_columns():
    cm = CompiledModel(build(SIR, **NOISY_SIR))
    p = per_row_columns(40, np.random.default_rng(5))
    x = cm.init_state(p, size=40)
    for dt in DTS:
        assert run_intervals(
            lambda x, t0, t1: sim.integrate_ode(cm, x, t0, t1, p, dt=dt),
            lambda x, t0, t1: reference_ode(cm, x, t0, t1, p, dt=dt),
            x)[0] == "ok"


def test_sde_per_row_parameter_columns():
    cm = CompiledModel(build(SIR, **NOISY_SIR))
    p = per_row_columns(40, np.random.default_rng(6))
    x = cm.init_state(p, size=40)
    for dt in DTS:
        rng, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
        assert run_intervals(
            lambda x, t0, t1: sim.advance(cm, x, t0, t1, p, rng=rng,
                                          formalism="sde", dt=dt),
            lambda x, t0, t1: reference_sde(cm, x, t0, t1, p, rng_ref, dt=dt),
            x)[0] == "ok"
        assert_same_generator(rng, rng_ref)


# ----------------------------------------------------------------------
# exceptional arithmetic

# C decays at a rate mu everywhere; at t == 2 exactly, 1/(t - 2) divides by
# zero, which Python floats raise on and numpy takes to inf, and
# 1/(1/(t - 2)) is then 0, so numpy's rate stays finite
DECAY_AT_TWO = {
    "ssm_model": 1,
    "name": "decay_at_two",
    "compartments": [{"name": "C", "initial": "C0"}],
    "parameters": [
        {"name": "C0", "prior": {"dirac": 500.0}, "role": "fixed"},
        {"name": "mu", "prior": {"dirac": 0.5}, "role": "fixed"},
    ],
    "reactions": [{"from": "C", "to": "EXTERNAL",
                   "rate": "mu*(1 + 1/(1/(t - 2)) - (t - 2))",
                   "accumulators": ["lost"]}],
    "observations": [],
}


def test_division_by_zero_mid_interval_takes_numpys_result():
    cm = CompiledModel(build(DECAY_AT_TWO))
    p = {"C0": 500.0, "mu": 0.5}
    x = cm.init_state(p)
    # ten substeps of 0.25 from 1.0: the stages of the fifth meet t == 2
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        got = sim.integrate_ode(cm, x, 1.0, 3.5, p)
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        want = reference_ode(cm, x, 1.0, 3.5, p)
    np.testing.assert_array_equal(got, want)
    assert np.isfinite(got).all()
    y = np.concatenate([x, np.zeros(len(cm.tri_index[0]))])
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        got = cm.moments_interval(y, 1.0, 0.25, 10, p)
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        want = reference_moments(cm, y, 1.0, 3.5, p)
    np.testing.assert_array_equal(got, want)
    assert np.isfinite(got).all()


# C dies out at a rate that is zero except at t == 0.5 exactly, where it
# overflows to inf: the death increment is +inf (or nan, with a negative
# normal), so C becomes -inf, which the clamp would turn into 0
SPIKE = {
    **DECAY_AT_TWO,
    "name": "spike",
    "reactions": [{"from": "C", "to": "EXTERNAL",
                   "rate": "mu*exp(800 - 1000000*(t - 0.5)^2)"}],
}


def seed_with_positive_normal(substep):
    """A seed whose generator's normal number `substep` is positive."""
    return next(s for s in range(100)
                if np.random.default_rng(s).standard_normal(substep + 1)[-1] > 0)


@pytest.mark.parametrize("rows", [None, 1, 50])
def test_sde_domain_error_on_a_clamped_infinity(rows):
    cm = CompiledModel(build(SPIKE))
    p = {"C0": 500.0, "mu": 0.5}
    x = cm.init_state(p) if rows is None else cm.init_state(p, size=rows)
    # ten substeps of 0.1 from 0: the sixth starts at t == 0.5
    seed = seed_with_positive_normal(5)
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        got = outcome(sim.advance, cm, x, 0.0, 1.0, p, rng=rng,
                      formalism="sde")
        want = outcome(reference_sde, cm, x, 0.0, 1.0, p, rng_ref)
    assert got[0] == "error" and "non-finite" in got[2]
    assert_same(got, want)
    # the draws stop after the failing substep, as one substep at a time
    assert_same_generator(rng, rng_ref)


def test_ode_domain_errors_match():
    cm = CompiledModel(build(DECAY_AT_TWO, reactions=[
        {"effect": {"C": -1}, "source": "EXTERNAL", "rate": "60.0",
         "absolute_outflow": True}]))
    p = {"C0": 500.0, "mu": 0.5}
    for x in (cm.init_state(p), cm.init_state(p, size=3)):
        got = outcome(sim.integrate_ode, cm, x, 0.0, 20.0, p, dt=0.25)
        assert got[0] == "error" and "negative population" in got[2]
        assert_same(got, outcome(reference_ode, cm, x, 0.0, 20.0, p, dt=0.25))
    # the rate overflows to inf at t == 0.5 (on numpy scalars: times come
    # from arrays): a non-finite state
    cm = CompiledModel(build(SPIKE, reactions=[
        {"from": "C", "to": "EXTERNAL",
         "rate": "mu*10^(800 - 1000000*(t - 0.5)^2)"}]))
    t0, t1 = np.float64(0.0), np.float64(1.0)
    for x in (cm.init_state(p), cm.init_state(p, size=2)):
        with np.errstate(over="ignore", invalid="ignore"):
            got = outcome(sim.integrate_ode, cm, x, t0, t1, p)
            want = outcome(reference_ode, cm, x, t0, t1, p)
        assert got[0] == "error" and "non-finite" in got[2]
        assert_same(got, want)


# C and D stand still, D with a drift of -0.0; only the check and the
# clamp act on them
STILL = {
    **DECAY_AT_TWO,
    "name": "still",
    "compartments": [{"name": "C", "initial": "C0"},
                     {"name": "D", "initial": "-0"}],
    "reactions": [{"effect": {"D": -1}, "source": "EXTERNAL",
                   "rate": "0*mu", "absolute_outflow": True}],
}


@pytest.mark.parametrize("d, ok", [(-0.0, True), (-1e-7, True),
                                   (-2e-6, False)])
def test_ode_tolerance_and_clamp(d, ok):
    # a count below zero by up to 1e-6 of the largest magnitude (here 1)
    # is clamped to +0.0, as numpy's maximum does with -0.0; further below
    # is a DomainError
    cm = CompiledModel(build(STILL))
    p = {"C0": 1.0, "mu": 0.5}
    x = np.array([1.0, d])
    for x in (x, np.array([x, [1.0, 0.0]])):
        got = outcome(sim.integrate_ode, cm, x, 0.0, 1.0, p)
        assert_same(got, outcome(reference_ode, cm, x, 0.0, 1.0, p))
        assert (got[0] == "ok") == ok
        if ok:
            assert not np.signbit(got[1]).any()


def test_moments_clamp_the_mean():
    # a constant outflow empties C within the interval: the mean is held
    # at zero after each substep
    cm = CompiledModel(build(DECAY_AT_TWO, reactions=[
        {"effect": {"C": -1}, "source": "EXTERNAL", "rate": "60.0",
         "absolute_outflow": True}]))
    p = {"C0": 50.0, "mu": 0.5}
    y = np.concatenate([cm.init_state(p), np.zeros(len(cm.tri_index[0]))])
    got = cm.moments_interval(y, 0.0, 0.1, 10, p)
    want = reference_moments(cm, y, 0.0, 1.0, p)
    assert got.tobytes() == want.tobytes()
    assert got[0] == 0.0
