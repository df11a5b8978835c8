"""The interval kernels against per-substep references.

`simulate.ode_step`, `CompiledModel.moments_interval` and
`simulate.sde_step` run every substep of an observation interval in one
generated call, and `simulate.gillespie_interval` every event of one
state's interval.  The references below step one substep (one event) at a
time, with the domain check, the clamp and the draws of a substep written
out in numpy.  The ode, sde and jump references take the propensities,
drift and volatilities from the `Expr` interpreter (`dynamics`,
`propensities`), which shares no generated code with the kernels; the
moment reference takes each substep's derivative from the moment kernel's
own `moments`, which `test_kernels.py` checks against the interpreter, so
that it checks the substep loop bit for bit.  Both must give equal arrays,
raise the same errors and, but for the diffusion stepper after an error,
leave the generator in the same state.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import SIR, TWO_DRIVEN_SIR, build, local_level_model
from test_simulate import reference_psr_step
from ssm import simulate as sim
from ssm.compiled import CompiledModel, DomainError
from ssm.model import load_model, parse_model

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
    """RK4 on one state, or on a batch laid out (nx, J) taken one row per
    state, as `dynamics` reads it."""
    def drift(x, t, p):
        return cm.dynamics(x, t, p)[1]

    n_sub, h = sim.substeps(t1 - t0, dt)
    x = np.array(x, dtype=float).T
    t = t0
    for _ in range(n_sub):
        k1 = drift(x, t, p)
        k2 = drift(x + 0.5 * h * k1, t + 0.5 * h, p)
        k3 = drift(x + 0.5 * h * k2, t + 0.5 * h, p)
        k4 = drift(x + h * k3, t + h, p)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = reference_check_domain(cm, x)
        t += h
    return x.T


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
    """One Euler-Maruyama substep of a batch laid out (nx, J): one (K, J)
    draw whose rows are the reactions, the noise groups and the driven
    parameters in turn, the increments reaction by reaction, the check,
    then the clamp."""
    n_groups = len(cm.noise_groups)
    xi = rng.standard_normal((cm.n_react + n_groups + cm.n_diff, x.shape[1]))
    xi_demo, xi_env, xi_diff = np.split(xi, [cm.n_react,
                                             cm.n_react + n_groups])
    sq = math.sqrt(dt)
    # `dynamics` reads one row per state
    a, drift, vols = (v.T for v in cm.dynamics(x.T, t, p)[:3])
    ap = np.maximum(a, 0.0)
    inc = dt * a + sq * np.sqrt(ap) * xi_demo if cm.n_react else a
    for g, (sd_name, members) in enumerate(cm.noise_groups):
        w = sq * p[sd_name] * xi_env[g]
        inc[members] = inc[members] + np.asarray(w) * ap[members]
    new = np.empty_like(x)
    for i in range(cm.nx):
        if cm.n_comp <= i < cm.n_comp + cm.n_diff:
            d = i - cm.n_comp
            new[i] = x[i] + dt * drift[i] + sq * vols[d] * xi_diff[d]
            continue
        col = x[i]
        for k in range(cm.n_react):
            coef = cm.stoich_full[i, k]
            if coef == 1:
                col = col + inc[k]
            elif coef == -1:
                col = col - inc[k]
            elif coef:
                col = col + int(coef) * inc[k]
        new[i] = col
    if not np.isfinite(new).all():
        raise DomainError("non-finite state during diffusion step")
    return np.maximum(new, cm.floor[:, None])


def static(cm):
    """No driven parameter, and no rate that reads the time."""
    return not cm.spec.diffusions and all(
        "t" not in r.rate.free_symbols() for r in cm.spec.reactions)


def at_fixed_point(cm, x, t, p):
    """A static model and a finite batch whose propensities are all
    exactly zero in every row: it cannot move."""
    return (static(cm) and np.isfinite(x).all()
            and not cm.propensities(x.T, t, p).any())


def reference_sde(cm, x, t0, t1, p, rng, dt=None):
    """`reference_sde_substeps`, except that a batch at a fixed point comes
    back clamped at the floor, the first substep's clamp, with nothing
    drawn."""
    x = np.asarray(x, dtype=float)
    if at_fixed_point(cm, x, t0, p):
        return np.maximum(x, cm.floor[:, None])
    return reference_sde_substeps(cm, x, t0, t1, p, rng, dt=dt)


def reference_sde_substeps(cm, x, t0, t1, p, rng, dt=None):
    n_sub, h = sim.substeps(t1 - t0, dt)
    x = np.asarray(x, dtype=float)
    t = t0
    for _ in range(n_sub):
        x = reference_sde_substep(cm, x, t, h, p, rng)
        t += h
    return x


def reference_jump_row(cm, x, t, t1, dt_max, p, exps, unis, normals):
    """One state's jump process, one event at a time: the propensities
    clamped at zero, those of reactions that would overdraw a compartment
    zeroed by a product, the check on the total, the wait (none when the
    total is zero) capped at min(dt_max, t1 - t), Euler-Maruyama on the
    driven coordinates over the elapsed stretch, and the reaction whose
    cumulative propensity first exceeds the target."""
    x = np.array(x, dtype=float)
    while t < t1 - 1e-12:
        a = np.maximum(cm.propensities(x, t, p), 0.0)
        feasible = (x[cm.comp_slice, None] >= cm.removals).all(axis=0)
        a = np.where(feasible, a, 0.0 * a)
        cum = np.cumsum(a)
        total = cum[-1] if cm.n_react else 0.0
        if not np.isfinite(total):
            raise DomainError("non-finite rate during jump simulation")
        tau = next(exps) / total if total > 0.0 else np.inf
        cap = min(dt_max, t1 - t)
        elapsed = min(tau, cap)
        if cm.n_diff:
            _, drift, vols, _ = cm.dynamics(x, t, p)
            xi = np.array([next(normals) for _ in range(cm.n_diff)])
            x[cm.diff_slice] = x[cm.diff_slice] + (
                elapsed * drift[cm.diff_slice] + np.sqrt(elapsed) * vols * xi)
        t = t + elapsed
        if tau < cap:
            target = min(next(unis) * total, np.nextafter(total, 0.0))
            k = int(np.sum(cum <= target))
            moves = cm.stoich_full[:, k] != 0
            x[moves] = x[moves] + cm.stoich_full[moves, k]
    return x


def reference_jump(cm, x, t0, t1, p, rng, dt_max=None):
    """State after state of a batch laid out (nx, J), on one set of
    `jump_streams`, each state with its own parameter values."""
    if dt_max is None:
        dt_max = (t1 - t0) / sim.SUBSTEPS_PER_INTERVAL
    rows = np.asarray(x, dtype=float).T
    streams = sim.jump_streams(rng)
    out = [reference_jump_row(
        cm, row, t0, t1, dt_max,
        {k: np.broadcast_to(v, len(rows))[j] if np.ndim(v) else v
         for k, v in p.items()}, *streams)
        for j, row in enumerate(rows)]
    return np.array(out, dtype=float).T


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
    """n states around x0, laid out (nx, n): compartments moved by up to a
    fifth, driven coordinates by 0.3."""
    x = np.repeat(x0[:, None], n, axis=1)
    x[cm.comp_slice] *= rng.uniform(0.8, 1.2, size=(n, cm.n_comp)).T
    x[cm.diff_slice] += 0.3 * rng.standard_normal((n, cm.n_diff)).T
    return x


def run_intervals(step, reference, x, *args, same=assert_same, **kwargs):
    """Both steppers over INTERVALS from x, their outcomes compared by
    `same`; the accumulators reset after each interval as the filters
    do."""
    for t0, t1 in INTERVALS:
        got = outcome(step, x, t0, t1, *args, **kwargs)
        want = outcome(reference, x, t0, t1, *args, **kwargs)
        same(got, want)
        if got[0] != "ok":
            return got
        x = got[1].copy()
        x[-1] = 0.0
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
        return sim.advance(cm, x, t0, t1, p, formalism="ode", dt=dt)

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
    for x in (x0[:, None], spread(cm, x0, 64, np.random.default_rng(3))):
        rng, rng_ref = np.random.default_rng(4), np.random.default_rng(4)

        def step(x, t0, t1):
            return sim.advance(cm, x, t0, t1, p, rng=rng, formalism="sde",
                               dt=dt)

        def ref(x, t0, t1):
            return reference_sde(cm, x, t0, t1, p, rng_ref, dt=dt)

        assert run_intervals(step, ref, x)[0] == "ok"
        assert_same_generator(rng, rng_ref)


def same_jump(cm):
    """`assert_same` for jump outcomes, with the driven coordinates to 1e-12
    relative.  math.exp, which the kernel on Python floats calls, and
    numpy's exp differ in the last bit on some arguments (about one in
    twenty with numpy 2.4 on x86-64); the total then moves by an ulp now
    and then, and with it the clock and a driven coordinate.  The counts
    must still match exactly."""
    counts = np.r_[0:cm.n_comp, cm.n_comp + cm.n_diff:cm.nx]

    def same(got, want):
        if got[0] != "ok" or not cm.n_diff:
            return assert_same(got, want)
        assert_same(("ok", got[1][counts]), ("ok", want[1][counts]))
        np.testing.assert_allclose(got[1][cm.diff_slice],
                                   want[1][cm.diff_slice],
                                   rtol=1e-12, atol=0.0)
    return same


def integral_spread(cm, x0, n, rng):
    """`spread` with the compartments rounded to whole members."""
    x = spread(cm, x0, n, rng)
    x[cm.comp_slice] = np.round(x[cm.comp_slice])
    return x


@pytest.mark.parametrize("name", sorted(SHIPPED))
@pytest.mark.parametrize("dt", DTS)
def test_jump_matches_events(name, dt):
    cm, p0 = shipped(name)
    x0 = cm.init_state(p0)
    # the batch takes every parameter value as a column, each row's value
    # moved by up to a tenth
    scale = np.random.default_rng(7).uniform(0.9, 1.1, (len(p0), 6))
    columns = {k: v * f for (k, v), f in zip(p0.items(), scale)}
    for x, p in ((x0[:, None], p0),
                 (integral_spread(cm, x0, 6, np.random.default_rng(8)),
                  columns)):
        rng, rng_ref = np.random.default_rng(9), np.random.default_rng(9)

        def step(x, t0, t1):
            return sim.advance(cm, x, t0, t1, p, rng=rng, formalism="jump",
                               dt=dt)

        def ref(x, t0, t1):
            return reference_jump(cm, x, t0, t1, p, rng_ref, dt_max=dt)

        assert run_intervals(step, ref, x)[0] == "ok"
        assert_same_generator(rng, rng_ref)


# the shipped models with no births or deaths
CLOSED = {"sir", "seir-h1n1", "dengue-2strain"}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_jump_invariants(name):
    cm, p = shipped(name)
    closed = bool((cm.stoich_full[cm.comp_slice].sum(axis=0) == 0).all())
    assert closed == (name in CLOSED)
    paths = sim.simulate_paths(cm, p, np.arange(0.0, 4.5, 0.5),
                               formalism="jump",
                               rng=np.random.default_rng(10), trajectories=4)
    counts = paths[..., np.r_[cm.comp_slice, cm.acc_slice]]
    assert np.array_equal(counts, np.round(counts))
    assert (counts >= 0.0).all()
    assert (np.diff(paths[..., cm.acc_slice], axis=1) >= 0.0).all()
    totals = paths[..., cm.comp_slice].sum(axis=-1)
    assert (totals == totals[:, :1]).all() == closed


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
            lambda x, t0, t1: sim.advance(cm, x, t0, t1, p, formalism="ode",
                                          dt=dt),
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


def test_sde_two_driven_parameters():
    cm = CompiledModel(build(SIR, **TWO_DRIVEN_SIR))
    assert (cm.n_react, len(cm.noise_groups), cm.n_diff) == (2, 1, 2)
    p = {"N": 1000.0, "I0": 10.0, "beta": 1.5, "gamma": 0.5,
         "sigma_env": 0.3}
    x = spread(cm, cm.init_state(p), 32, np.random.default_rng(13))
    for dt in DTS:
        rng, rng_ref = np.random.default_rng(14), np.random.default_rng(14)
        assert run_intervals(
            lambda x, t0, t1: sim.advance(cm, x, t0, t1, p, rng=rng,
                                          formalism="sde", dt=dt),
            lambda x, t0, t1: reference_sde(cm, x, t0, t1, p, rng_ref, dt=dt),
            x)[0] == "ok"
        assert_same_generator(rng, rng_ref)


# SIR whose transmission rate is driven, with a drift that reads the time
# and a compartment and a volatility that reads a compartment
DRIVEN_SIR = dict(
    parameters=[p for p in SIR["parameters"] if p["name"] != "beta"] + [
        {"name": "beta0", "prior": {"dirac": 1.5}, "role": "fixed"}],
    diffusions=[{"name": "beta", "transform": "log",
                 "drift": "0.3*(0.5 - I/N) - 0.01*t",
                 "volatility": "0.1 + I/N", "initial": "beta0"}],
)


def test_jump_per_row_parameter_columns():
    cm = CompiledModel(build(SIR, **DRIVEN_SIR))
    rng = np.random.default_rng(11)
    p = {"N": 1000.0, "I0": 10.0, "beta0": rng.uniform(0.5, 2.5, 12),
         "gamma": rng.uniform(0.1, 0.5, 12)}
    x = cm.init_state(p, size=12)
    for dt in DTS:
        rng, rng_ref = np.random.default_rng(12), np.random.default_rng(12)
        assert run_intervals(
            lambda x, t0, t1: sim.advance(cm, x, t0, t1, p, rng=rng,
                                          formalism="jump", dt=dt),
            lambda x, t0, t1: reference_jump(cm, x, t0, t1, p, rng_ref,
                                             dt_max=dt),
            x, same=same_jump(cm))[0] == "ok"
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
        got = sim.advance(cm, x, 1.0, 3.5, p, formalism="ode")
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


@pytest.mark.parametrize("rows", [1, 50])
def test_sde_domain_error_on_a_clamped_infinity(rows):
    cm = CompiledModel(build(SPIKE))
    p = {"C0": 500.0, "mu": 0.5}
    x = cm.init_state(p, size=rows)
    # ten substeps of 0.1 from 0: the sixth starts at t == 0.5
    seed = seed_with_positive_normal(5)
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        got = outcome(sim.advance, cm, x, 0.0, 1.0, p, rng=rng,
                      formalism="sde")
        want = outcome(reference_sde, cm, x, 0.0, 1.0, p, rng_ref)
    assert got[0] == "error" and "non-finite" in got[2]
    assert_same(got, want)
    # the whole interval's block is drawn, the substeps after the failing
    # one included
    rng_ref = np.random.default_rng(seed)
    rng_ref.standard_normal((10, cm.n_react, rows))
    assert_same_generator(rng, rng_ref)


def test_ode_domain_errors_match():
    cm = CompiledModel(build(DECAY_AT_TWO, reactions=[
        {"effect": {"C": -1}, "source": "EXTERNAL", "rate": "60.0",
         "absolute_outflow": True}]))
    p = {"C0": 500.0, "mu": 0.5}
    for x in (cm.init_state(p), cm.init_state(p, size=3)):
        got = outcome(sim.advance, cm, x, 0.0, 20.0, p, formalism="ode",
                      dt=0.25)
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
            got = outcome(sim.advance, cm, x, t0, t1, p, formalism="ode")
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
    for x in (x, np.column_stack([x, [1.0, 0.0]])):
        got = outcome(sim.advance, cm, x, 0.0, 1.0, p, formalism="ode")
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


# ----------------------------------------------------------------------
# the rules of the jump kernel, one by one

def jump_outcomes(cm, x, t0, t1, p, seed, dt_max=None):
    """The outcomes of the kernel and the reference from one seed, and
    their generators."""
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = outcome(sim.gillespie_interval, cm, x, t0, t1, p, rng,
                  dt_max=dt_max)
    want = outcome(reference_jump, cm, x, t0, t1, p, rng_ref, dt_max=dt_max)
    assert_same(got, want)
    assert_same_generator(rng, rng_ref)
    return got


# C dies out at rate mu and has no members to lose; a driven coordinate
# moves at a constant drift and volatility
IDLE = {
    **DECAY_AT_TWO,
    "name": "idle",
    "parameters": DECAY_AT_TWO["parameters"] + [
        {"name": "lam0", "prior": {"dirac": 1.0}, "role": "fixed"}],
    "reactions": [{"from": "C", "to": "EXTERNAL", "rate": "mu"}],
    "diffusions": [{"name": "lam", "transform": "identity", "drift": "0.5",
                    "volatility": "0.2", "initial": "lam0"}],
}


def test_jump_row_with_nothing_to_fire_waits_out_its_cap():
    cm = CompiledModel(build(IDLE))
    p = {"C0": 0.0, "mu": 0.5, "lam0": 1.0}
    x = cm.init_state(p, size=2)
    got = jump_outcomes(cm, x, 0.0, 1.0, p, 13, dt_max=0.25)[1]
    # four stretches of 0.25 per row, one normal each from the first block
    # of normals; no exponential or uniform is drawn
    rng = np.random.default_rng(13)
    xi = rng.standard_normal(sim.JUMP_BLOCK)
    for row, draws in zip(got.T, (xi[:4], xi[4:8])):
        lam = 1.0
        for v in draws:
            lam = lam + (0.25 * 0.5 + 0.5 * 0.2 * v)
        assert row.tolist() == [0.0, lam]
    rng_kernel = np.random.default_rng(13)
    sim.gillespie_interval(cm, x, 0.0, 1.0, p, rng_kernel, dt_max=0.25)
    assert_same_generator(rng_kernel, rng)


def test_jump_model_without_reactions():
    # only the driven coordinate moves, by the cap at a time
    cm = CompiledModel(local_level_model())
    p = {"x0": 1.0, "c_drift": 0.3, "q_sd": 0.5, "tau2": 1.0}
    got = jump_outcomes(cm, cm.init_state(p, size=3), 0.0, 1.0, p, 21)[1]
    assert len(set(got[0].tolist())) == 3


def test_jump_streams_draw_fixed_blocks_when_they_run_dry():
    rng, rng_ref = np.random.default_rng(14), np.random.default_rng(14)
    exps, unis, normals = sim.jump_streams(rng)
    assert_same_generator(rng, rng_ref)
    first = next(unis)
    assert first == rng_ref.random(sim.JUMP_BLOCK)[0]
    assert type(first) is float
    assert [next(exps) for _ in range(sim.JUMP_BLOCK + 1)] == (
        rng_ref.standard_exponential(sim.JUMP_BLOCK).tolist()
        + rng_ref.standard_exponential(sim.JUMP_BLOCK)[:1].tolist())
    assert_same_generator(rng, rng_ref)


# C loses three members at once at a high absolute rate, which never fits
# in what is left, and one at a time to D
OVERDRAWN = {
    **DECAY_AT_TWO,
    "name": "overdrawn",
    "compartments": [{"name": "C", "initial": "C0"},
                     {"name": "D", "initial": "0"}],
    "reactions": [
        {"effect": {"C": -3}, "source": "EXTERNAL", "rate": "1000.0",
         "absolute_outflow": True},
        {"from": "C", "to": "D", "rate": "mu"}],
}


def test_jump_never_fires_an_infeasible_reaction():
    cm = CompiledModel(build(OVERDRAWN))
    p = {"C0": 2.0, "mu": 0.5}
    x = cm.init_state(p, size=50)
    got = sim.gillespie_interval(cm, x, 0.0, 20.0, p,
                                 np.random.default_rng(15))
    assert (got >= 0.0).all()
    assert (got.sum(axis=0) == 2.0).all()
    assert (got[1] > 0.0).any()
    jump_outcomes(cm, x, 0.0, 20.0, p, 15)


def test_jump_target_stays_below_the_total():
    # a uniform of 1.0 puts the target on the total, where the reaction of
    # zero propensity listed last would fire
    cm = CompiledModel(build(OVERDRAWN, compartments=[
        {"name": "C", "initial": "C0"}, {"name": "A", "initial": "0"},
        {"name": "B", "initial": "0"}], reactions=[
        {"from": "C", "to": "A", "rate": "mu"},
        {"from": "C", "to": "B", "rate": "0*mu"}]))
    kernel, _ = cm.jump
    p = {"C0": 5.0, "mu": 0.3}
    got = kernel([5.0, 0.0, 0.0], 0.0, 1.0, 1.0, p, iter([1e-3, 1e9]),
                 iter([1.0]), iter([]))
    assert got == (4.0, 1.0, 0.0)


def test_jump_negative_propensity_is_clamped():
    # above K the birth rate is negative: no births, and the deaths come at
    # their own rate
    cm = CompiledModel(build(OVERDRAWN, compartments=[
        {"name": "C", "initial": "C0"}, {"name": "D", "initial": "0"}],
        reactions=[{"effect": {"C": 1}, "source": "C", "rate": "mu*(1 - C/5)"},
                   {"from": "C", "to": "D", "rate": "mu"}]))
    p = {"C0": 40.0, "mu": 0.5}
    got = jump_outcomes(cm, cm.init_state(p, size=20), 0.0, 1.0, p, 16)[1]
    assert (got.sum(axis=0) == 40.0).all()


@pytest.mark.parametrize("reactions", [
    [{"from": "C", "to": "EXTERNAL", "rate": "mu*1e308*10"}],
    [{"from": "C", "to": "EXTERNAL", "rate": "mu*(1e308*10 - 1e308*10)"}],
    # max keeps the nan, as numpy's maximum does
    [{"from": "C", "to": "EXTERNAL",
      "rate": "max(0, mu*(1e308*10 - 1e308*10))*C"}],
    # C is empty, so this reaction cannot fire; its rate still counts
    [{"effect": {"C": -1}, "source": "EXTERNAL", "rate": "mu*1e308*10",
      "absolute_outflow": True}],
])
def test_jump_domain_error_on_a_non_finite_rate(reactions):
    cm = CompiledModel(build(DECAY_AT_TWO, reactions=reactions))
    p = {"C0": 0.0 if "effect" in reactions[0] else 5.0, "mu": 0.5}
    for x in (cm.init_state(p)[:, None], cm.init_state(p, size=3)):
        with np.errstate(over="ignore", invalid="ignore"):
            got = jump_outcomes(cm, x, 0.0, 1.0, p, 17)
        assert got[:2] == ("error", DomainError)
        assert "non-finite rate" in got[2]


def test_jump_division_by_zero_reruns_on_numpy():
    # 1/(C - 5) divides by zero when C reaches 5, which Python floats raise
    # on and numpy takes to inf, and 1/(1/(C - 5)) is then 0: numpy's rate
    # is finite.  The second row never reaches 5, but the whole call runs
    # again from the generator state at entry.
    cm = CompiledModel(build(DECAY_AT_TWO, reactions=[
        {"from": "C", "to": "EXTERNAL",
         "rate": "mu*(1 + 1/(1/(C - 5)) - (C - 5))"}]))
    p = {"C0": np.array([10.0, 3.0]), "mu": 0.5}
    x = cm.init_state(p, size=2)
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        got = jump_outcomes(cm, x, 0.0, 10.0, p, 18)[1]
    assert got[0, 0] < 5.0
    kernel, _ = cm.jump
    streams = sim.jump_streams(np.random.default_rng(18))
    with pytest.raises(ZeroDivisionError):
        kernel([10.0], 0.0, 10.0, 1.0, {"mu": 0.5}, *streams)


def test_jump_seasonal_forcing():
    doc = json.loads((MODELS / "plague.json").read_text())
    doc["reactions"][1]["rate"] = "beta*(1 + 0.3*sin(2*pi*t/12))*I/N"
    cm = CompiledModel(parse_model(json.dumps(doc)))
    p = cm.spec.resolve_values(SHIPPED["plague"])
    x0 = cm.init_state(p)
    for x in (x0[:, None], np.repeat(x0[:, None], 3, axis=1)):
        rng, rng_ref = np.random.default_rng(20), np.random.default_rng(20)
        assert run_intervals(
            lambda x, t0, t1: sim.advance(cm, x, t0, t1, p, rng=rng,
                                          formalism="jump"),
            lambda x, t0, t1: reference_jump(cm, x, t0, t1, p, rng_ref),
            x, same=same_jump(cm))[0] == "ok"
        assert_same_generator(rng, rng_ref)


# ----------------------------------------------------------------------
# fixed points: on a static model, a batch whose propensities are all
# zero stays where it is, and the sde and psr steppers draw nothing

# the compartments each shipped static model's outbreak leaves empty
EXTINCT = {"sir": ("I",), "seir-h1n1": ("E", "I")}


def extinct(cm, name, rows):
    """A batch of `rows` states (rows None: one state, as a batch of one)
    after an outbreak: its infected compartments empty, the others and the
    accumulators spread, one susceptible count and one accumulator at
    -0.0."""
    p = cm.spec.resolve_values(SHIPPED[name])
    x = spread(cm, cm.init_state(p), rows or 1, np.random.default_rng(30))
    x[[cm.state_names.index(c) for c in EXTINCT[name]]] = 0.0
    x[cm.acc_slice] = np.arange(rows or 1) + 3.0
    x[0, 0] = x[-1, 0] = -0.0
    return x


def reference_psr(cm, x, t0, t1, p, rng, dt=None):
    """The per-source cascade of `test_simulate`, slice by slice."""
    n_sub, h = sim.substeps(t1 - t0, dt)
    t = t0
    for _ in range(n_sub):
        x = reference_psr_step(cm, x, t, h, p, rng)
        t += h
    return x


REFERENCES = {"sde": reference_sde_substeps, "psr": reference_psr}


def stepped(cm, x, t0, t1, p, formalism, seed=31):
    """The stepper's and the reference substeps' results from one seed,
    and their generators."""
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sim.advance(cm, x, t0, t1, p, rng=rng, formalism=formalism)
    want = REFERENCES[formalism](cm, x, t0, t1, p, rng_ref)
    return got, want, rng, rng_ref


def sde_block(cm, x, n_sub=10, seed=31):
    """A generator after drawing one interval's whole block of normals."""
    rng = np.random.default_rng(seed)
    rng.standard_normal((n_sub, cm.n_react + len(cm.noise_groups)
                         + cm.n_diff, x.shape[1]))
    return rng


@pytest.mark.parametrize("name", sorted(EXTINCT))
@pytest.mark.parametrize("formalism", ["sde", "psr"])
@pytest.mark.parametrize("rows", [None, 50])
def test_extinct_batch_is_a_fixed_point(name, formalism, rows):
    cm, p = shipped(name)
    assert cm.static
    x = extinct(cm, name, rows)
    got, want, rng, _ = stepped(cm, x, 1.0, 2.0, p, formalism)
    # the substeps' bytes, -0.0 turned into 0.0, and nothing drawn
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == np.maximum(x, 0.0).tobytes()
    assert not np.signbit(got).any()
    assert_same_generator(rng, np.random.default_rng(31))
    if formalism == "sde":
        assert_same(outcome(reference_sde, cm, x, 1.0, 2.0, p, rng),
                    ("ok", got))


@pytest.mark.parametrize("name", sorted(EXTINCT))
@pytest.mark.parametrize("formalism", ["sde", "psr"])
@pytest.mark.parametrize("rows", [None, 50])
def test_one_live_particle_draws_as_before(name, formalism, rows):
    cm, p = shipped(name)
    x = extinct(cm, name, rows)
    # one member of the last row is infectious
    x[cm.state_names.index("I"), -1] = 1.0
    got, want, rng, rng_ref = stepped(cm, x, 1.0, 2.0, p, formalism)
    assert got.tobytes() == want.tobytes()
    assert_same_generator(rng, rng_ref)
    if formalism == "sde":
        assert_same_generator(rng, sde_block(cm, x))


# SIR with immigration into I, after t = 5 only
LATE_IMMIGRATION = dict(reactions=SIR["reactions"] + [
    {"from": "EXTERNAL", "to": "I", "rate": "ifelse(t > 5, 20*gamma, 0)"}])
# C is born per capita at a rate negative above 5 members, and dies at
# a zero rate
CROWDED = {
    **DECAY_AT_TWO,
    "name": "crowded",
    "compartments": [{"name": "C", "initial": "C0"},
                     {"name": "D", "initial": "0"}],
    "reactions": [{"effect": {"C": 1}, "source": "C",
                   "rate": "mu*(1 - C/5)"},
                  {"from": "C", "to": "D", "rate": "0*mu"}],
}


def moving_batch(label):
    """(model, values, batch) whose propensities are all zero, or one of
    them negative, at t = 4 in every row, yet which moves within the
    interval to t = 6: by a rate that reads the time, by a driven
    parameter, or by a negative propensity."""
    p = {"N": 1000.0, "I0": 0.0, "beta": 1.5, "gamma": 0.5}
    if label == "negative":
        cm, p = CompiledModel(build(CROWDED)), {"C0": 40.0, "mu": 0.5}
    elif label == "driven":
        cm, p = CompiledModel(build(SIR, **DRIVEN_SIR)), {**p, "beta0": 1.5}
    else:
        cm = CompiledModel(build(SIR, **LATE_IMMIGRATION))
    return cm, p, cm.init_state(p, size=20)


# psr clips a negative propensity to zero: such a batch cannot move
@pytest.mark.parametrize("label, formalism", [
    ("time", "sde"), ("time", "psr"), ("driven", "sde"), ("driven", "psr"),
    ("negative", "sde")])
@pytest.mark.parametrize("single", [False, True])
def test_batch_that_can_move_is_stepped(label, formalism, single):
    cm, p, x = moving_batch(label)
    if single:
        x = x[:, :1]
    a = cm.propensities(x.T, 4.0, p)
    assert (a <= 0.0).all() and (a == 0.0).all() == (label != "negative")
    assert static(cm) == cm.static == (label == "negative")
    got, want, rng, rng_ref = stepped(cm, x, 4.0, 6.0, p, formalism)
    assert got.tobytes() == want.tobytes()
    assert_same_generator(rng, rng_ref)
    assert not np.array_equal(got, x)
    if formalism == "sde":
        assert_same_generator(rng, sde_block(cm, x))
        assert_same(outcome(reference_sde, cm, x, 4.0, 6.0, p,
                            np.random.default_rng(31)), ("ok", got))
