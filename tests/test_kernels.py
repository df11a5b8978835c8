"""Oracle checks of the generated kernels on the four shipped models, and
on SIR with rates whose operations nest on both sides.

Each kernel is checked against a reference built another way, through the
expression interpreter, which shares no generated code with the kernels:
the Poisson slice kernel's propensities, drifts and volatilities and the
moment kernel's drift against the interpreter written out here, the moment
equations against the dense Jacobian and covariance of `dynamics`, and the
fused Euler-Maruyama step against its formula over `dynamics`.  The
single-state checks of `dynamics` and `propensities` below test shapes
and broadcasting (a state with no leading dimensions, a time per row) of
the reference itself.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from helpers import sir_model
from ssm.compiled import CompiledModel
from ssm.model import parse_model
from ssm.observe import PARTS

MODELS = Path(__file__).resolve().parent.parent / "src" / "ssm" / "models"

# parameter values the shipped observation files were simulated at
SETTINGS = {
    "sir": {"beta": 1.5, "gamma": 1.0},
    "plague": {"beta0": 2.5},
    "seir-h1n1": {"beta": 3.0, "rho": 0.35},
    "dengue-2strain": {"beta1": 2.1, "beta2": 1.9, "xi": 1.7},
}
N_STATES = 100

# the shipped SIR's rates, rewritten so that an operation on the state sits
# right of a parameter under a subtraction and a division: the sde kernel
# forms such operands in place (`kernels.in_row`)
NESTED_SIR_RATES = ("beta*(2 - S/N)*I/N", "gamma/(1 + I/N)")


def random_states(cm, base_state, n, rng):
    """Compartments share the population, driven coordinates wander around
    their start, accumulators take arbitrary nonnegative values."""
    total = base_state[cm.comp_slice].sum()
    out = np.empty((n, cm.nx))
    out[:, cm.comp_slice] = total * rng.dirichlet(np.ones(cm.n_comp), size=n)
    out[:, cm.diff_slice] = (base_state[cm.diff_slice]
                             + 0.3 * rng.standard_normal((n, cm.n_diff)))
    out[:, cm.acc_slice] = rng.uniform(0.0, 50.0, size=(n, cm.n_acc))
    return out


@pytest.fixture(scope="module", params=[*sorted(SETTINGS), "sir-nested"])
def case(request):
    name = request.param
    doc = json.loads((MODELS / f"{name.removesuffix('-nested')}.json")
                     .read_text())
    if name == "sir-nested":
        for reaction, rate in zip(doc["reactions"], NESTED_SIR_RATES):
            reaction["rate"] = rate
    spec = parse_model(json.dumps(doc))
    cm = CompiledModel(spec)
    p = spec.resolve_values(SETTINGS[name.removesuffix("-nested")])
    rng = np.random.default_rng(3)
    states = random_states(cm, cm.init_state(p), N_STATES, rng)
    times = rng.uniform(0.0, 40.0, size=N_STATES)
    return cm, p, states, times


def interpreter_env(cm, x, t, p):
    env = dict(p, t=t)
    env.update(zip(cm.state_names, x))
    for d, q in zip(cm.spec.diffusions, cm.natural_diffusions(x)):
        env[d.name] = float(q)
    return env


def test_rates_match_interpreter(case):
    # compartment and accumulator rows of the drift are the stoichiometry
    # times the propensities, driven rows their own formula
    cm, p, states, times = case
    spec = cm.spec
    want_rates, want_drift, want_vols = [], [], []
    for x, t in zip(states, times):
        env = interpreter_env(cm, x, t, p)
        rates = np.array([
            r.rate.eval(env)
            * (1.0 if r.source is None else env[spec.compartments[r.source]])
            for r in spec.reactions
        ])
        drift = cm.stoich_full @ rates
        drift[cm.diff_slice] = [d.drift.eval(env) for d in spec.diffusions]
        want_rates.append(rates)
        want_drift.append(drift)
        want_vols.append([d.volatility.eval(env) for d in spec.diffusions])
    want_rates, want_drift = np.array(want_rates), np.array(want_drift)
    want_vols = np.array(want_vols).reshape(len(states), cm.n_diff)
    # the Poisson stepper's kernel, on the states as rows, writes the
    # propensities in its step order, then the driven rows' drifts and
    # volatilities
    out = np.full((cm.n_react + 2 * cm.n_diff, len(states)), np.nan)
    cm.psr(np.ascontiguousarray(states.T), times, p, out)
    rates = out[:cm.n_react].T
    np.testing.assert_allclose(rates, want_rates[:, cm.step_order],
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(out[cm.n_react:].T,
                               np.hstack([want_drift[:, cm.diff_slice],
                                          want_vols]), rtol=1e-12, atol=0.0)
    # and, bit for bit, what `dynamics` gives: the two make the same
    # operations in the same order
    prop, drift, vols, _ = cm.dynamics(states, times, p)
    np.testing.assert_array_equal(rates, prop[:, cm.step_order])
    np.testing.assert_array_equal(out[cm.n_react:].T,
                                  np.hstack([drift[:, cm.diff_slice], vols]))
    # the moment kernel's drift, at a state with no covariance.  Inflow and
    # outflow of a compartment can cancel in the stoichiometry sum, so each
    # state's drift may be off on the scale of its own propensities
    zeros = np.zeros(len(cm.tri_index[0]))
    drift = np.array([cm.moments(np.concatenate([x, zeros]), t, p)[: cm.nx]
                      for x, t in zip(states, times)])
    scale = np.abs(want_rates).max(axis=1, initial=0.0)[:, None]
    err = np.abs(drift - want_drift)
    assert (err <= 1e-12 * (np.abs(want_drift) + scale)).all(), err.max()


def test_moments_match_dense_reference(case):
    cm, p, states, times = case
    rng = np.random.default_rng(5)
    upper = cm.tri_index
    for x, t in zip(states, times):
        a = rng.standard_normal((cm.nx, cm.nx)) * np.sqrt(np.abs(x) + 1.0)[:, None]
        C = a @ a.T
        got = cm.moments(np.concatenate([x, C[upper]]), t, p)
        prop, drift, vols, jac = cm.dynamics(x, t, p)
        dC = jac @ C + C @ jac.T + cm.process_cov_from(prop, vols, p)
        for g, w in ((got[: cm.nx], drift), (got[cm.nx :], dC[upper])):
            np.testing.assert_allclose(g, w, rtol=1e-10,
                                       atol=1e-10 * np.abs(w).max())


def normals(cm, n, rng):
    """Standard normals per reaction, noise group and driven parameter."""
    return tuple(rng.standard_normal((n, k)) if k else None
                 for k in (cm.n_react, len(cm.noise_groups), cm.n_diff))


def sde_substep(cm, states, t, p, dt, xis):
    """One substep of the sde interval kernel on states given one row per
    state, as `dynamics` reads them, and handed to the kernel in its
    layout (nx, J); the normals of each kind are given as (J, k), drawn by
    the kernel as one (1, K, J) array."""
    x = states.T.copy()
    xi = np.concatenate([xi.T for xi in xis if xi is not None])[None]

    def draw(shape):
        assert shape == xi.shape
        return xi

    assert cm.sde(x, t, dt, 1, p, draw) == 1
    return x.T


def test_sde_kernel_matches_reference_formula(case):
    cm, p, states, times = case
    rng = np.random.default_rng(7)
    dt, t = 0.1, float(times[0])
    xi_demo, xi_env, xi_diff = normals(cm, len(states), rng)
    got = sde_substep(cm, states, t, p, dt, (xi_demo, xi_env, xi_diff))

    prop, drift, vols, _ = cm.dynamics(states, t, p)
    a = np.clip(prop, 0.0, None)
    noise = (np.sqrt(a) * xi_demo) @ cm.stoich_full.T
    for g, (sd_name, members) in enumerate(cm.noise_groups):
        # the group's direction: its members' effect columns weighted by
        # their propensities, scaled by the group sd
        direction = a[:, members] @ cm.stoich_full[:, members].T
        noise += direction * (p[sd_name] * xi_env[:, g])[:, None]
    if cm.n_diff:
        noise[:, cm.diff_slice] += vols * xi_diff
    # the kernel clamps at the floor after the step
    want = np.maximum(states + dt * drift + np.sqrt(dt) * noise, cm.floor)
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


def test_batch_calls_match_stacked_single_calls(case):
    # the reference's part checks that a state with no leading dimensions
    # gives the row of the batch; the sde part runs the interval kernel on
    # the batch and on each row alone
    cm, p, states, times = case
    t = float(times[0])
    single = np.array([cm.propensities(x, t, p) for x in states])
    np.testing.assert_allclose(cm.propensities(states, t, p), single,
                               rtol=1e-13, atol=0.0)
    _, drift, vols, _ = cm.dynamics(states, t, p)
    for i, x in enumerate(states):
        _, d1, v1, _ = cm.dynamics(x, t, p)
        np.testing.assert_allclose(drift[i], d1, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(vols[i], v1, rtol=1e-13, atol=0.0)

    xis = normals(cm, len(states), np.random.default_rng(9))
    batch = sde_substep(cm, states, t, p, 0.1, xis)
    for i, x in enumerate(states):
        rows = [None if xi is None else xi[i : i + 1] for xi in xis]
        one = sde_substep(cm, x[None], t, p, 0.1, rows)
        np.testing.assert_allclose(batch[i], one[0], rtol=1e-13, atol=1e-13)


def test_batch_calls_take_a_time_per_row():
    # a batch of states may come with a time per row; plague gets seasonal
    # forcing on top of its driven transmission rate
    doc = json.loads((MODELS / "plague.json").read_text())
    doc["reactions"][1]["rate"] = "beta*(1 + 0.3*sin(2*pi*t/12))*I/N"
    spec = parse_model(json.dumps(doc))
    cm = CompiledModel(spec)
    p = spec.resolve_values(SETTINGS["plague"])
    rng = np.random.default_rng(11)
    states = random_states(cm, cm.init_state(p), N_STATES, rng)
    times = rng.uniform(0.0, 40.0, size=N_STATES)
    rates, drift, vols, _ = cm.dynamics(states, times, p)
    for i, (x, t) in enumerate(zip(states, times)):
        np.testing.assert_allclose(rates[i], cm.propensities(x, t, p),
                                   rtol=1e-12, atol=0.0)
        _, d1, v1, _ = cm.dynamics(x, t, p)
        np.testing.assert_allclose(drift[i], d1, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(vols[i], v1, rtol=1e-12, atol=0.0)


# a stream under each law, and for a two-part law the part that is exactly
# a known function of the `inc` row, which pins the order of the parts
OBSERVED = [
    ({"distribution": "poisson", "mean": "rho*inc*exp(-inc/(1 + t))"}, None),
    ({"distribution": "binomial", "trials": "inc",
      "probability": "rho*exp(-inc/(1 + t))"}, (0, lambda inc: inc)),
    ({"distribution": "discretized_normal",
      "mean": "rho*inc*exp(-inc/(1 + t))", "variance": "1 + inc"},
     (1, lambda inc: 1.0 + inc)),
]


def test_one_state_observation_is_its_batch_row():
    # the moment filter observes one state at a time; that state goes
    # through the stream's batch kernel, so its parts are, bit for bit, the
    # row of a batch.  The means take exp of an argument that moves with
    # the state and the time, where math.exp and numpy's exp may differ in
    # the last bit
    doc = json.loads((MODELS / "sir.json").read_text())
    for stream, known in OBSERVED:
        doc["observations"] = [dict(stream, name="cases")]
        spec = parse_model(json.dumps(doc))
        cm = CompiledModel(spec)
        p = spec.resolve_values(SETTINGS["sir"])
        rng = np.random.default_rng(23)
        states = random_states(cm, cm.init_state(p), 200, rng)
        times = rng.uniform(0.0, 40.0, size=200)
        batch, _ = cm.obs_values("cases", states.T, times, p)
        single = np.array([cm.obs_values("cases", x, t, p)[0]
                           for x, t in zip(states, times)]).T
        assert len(batch) == len(single) == len(PARTS[stream["distribution"]])
        for k, part in enumerate(batch):
            differ = np.flatnonzero(single[k].view(np.int64)
                                    != part.view(np.int64))
            assert differ.size == 0, (stream, k, f"{differ.size} of 200 "
                                      "rows differ")
        if known is not None:
            k, fn = known
            inc = states[:, cm.state_names.index("inc")]
            np.testing.assert_array_equal(batch[k].view(np.int64),
                                          fn(inc).view(np.int64))


def test_scalar_kernels_follow_numpy_arithmetic():
    # Python float arithmetic would raise on 0/0 and return a complex
    # number for a negative base to a fractional power; the moment kernel,
    # which runs on floats, must give numpy's nan, like the batch kernels.
    # The interpreter's propensities of one state are its batch's, so their
    # comparison checks only the single-state shape and dtype
    cm = CompiledModel(sir_model(reactions=[
        {"from": "S", "to": "I", "rate": "beta*I/(S+I)", "accumulators": ["cases"]},
        {"from": "I", "to": "R", "rate": "gamma*(R-1)^0.5"},
    ]))
    p = cm.spec.resolve_values({"beta": 1.5, "gamma": 1.0})
    n_tri = len(cm.tri_index[0])
    for x, bad in (([0.0, 0.0, 0.0, 0.0], 0), ([5.0, 1.0, 0.0, 0.0], 1)):
        x = np.array(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            single = cm.propensities(x, 0.0, p)
            batch = cm.propensities(x[None], 0.0, p)[0]
            moments = cm.moments(np.concatenate([x, np.zeros(n_tri)]), 0.0, p)
        assert single.dtype == np.float64 and moments.dtype == np.float64
        np.testing.assert_array_equal(single, batch)
        assert np.isnan(single[bad])
        assert np.isnan(moments[: cm.n_comp]).any()


def test_float_kernels_rerun_against_numpy_math():
    # exp overflows once t > 5.7: math.exp raises, so the whole interval
    # runs again on numpy scalars with numpy's exp, and min() caps its inf
    # at 1, as in a batch
    cm = CompiledModel(sir_model(reactions=[
        {"from": "S", "to": "I", "rate": "beta*min(1, exp(1000*(t - 5)))*I/N",
         "accumulators": ["cases"]},
        {"from": "I", "to": "R", "rate": "gamma"},
    ]))
    p = cm.spec.resolve_values({"beta": 1.5, "gamma": 1.0})
    x = cm.init_state(p)
    for t in (0.0, 5.0, 6.0):
        with np.errstate(over="ignore"):
            single = cm.ode(x, t, 0.1, 10, p)
            batch = cm.ode(np.stack([x, x], axis=1), t, 0.1, 10, p)
        assert np.isfinite(single).all()
        assert single.tobytes() == batch[:, 0].tobytes()
        x = single


def test_float_kernels_rerun_parameters_on_numpy():
    # beta/(gamma - 1) divides by zero among parameter values alone: Python
    # floats raise on it, and the rerun on numpy takes the parameter values
    # to numpy floats, so the moment kernel gives numpy's inf, as the
    # batch kernels and the interpreter do
    cm = CompiledModel(sir_model(reactions=[
        {"from": "S", "to": "I", "rate": "beta/(gamma - 1)*I/N",
         "accumulators": ["cases"]},
        {"from": "I", "to": "R", "rate": "gamma"},
    ]))
    p = cm.spec.resolve_values({"beta": 1.5, "gamma": 1.0})
    x = cm.init_state(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        moments = cm.moments(
            np.concatenate([x, np.zeros(len(cm.tri_index[0]))]), 0.0, p)
        drift = cm.dynamics(x, 0.0, p)[1]
    assert moments[0] == -np.inf and moments[1] == np.inf
    np.testing.assert_array_equal(moments[: cm.nx], drift)


def test_property_batch_equals_single():
    # one state goes through the batch kernels too: this checks that a
    # state with no leading dimensions, at any scale, gives its batch row
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    spec = parse_model((MODELS / "plague.json").read_text())
    cm = CompiledModel(spec)
    base = spec.resolve_values(SETTINGS["plague"])
    names = sorted(base)

    count = st.floats(0.0, 1e4)
    state = st.tuples(count, count, count, st.floats(-3.0, 3.0), count)
    factors = st.lists(st.floats(0.5, 2.0), min_size=len(names),
                       max_size=len(names))

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.lists(state, min_size=1, max_size=8), factors,
                      st.floats(0.0, 100.0))
    def check(rows, scale, t):
        p = {n: base[n] * f for n, f in zip(names, scale)}
        x = np.array(rows, dtype=float)
        single = np.array([cm.propensities(r, t, p) for r in x])
        np.testing.assert_allclose(cm.propensities(x, t, p), single,
                                   rtol=1e-13, atol=0.0)
        _, drift, vols, _ = cm.dynamics(x, t, p)
        for i, r in enumerate(x):
            _, d1, v1, _ = cm.dynamics(r, t, p)
            np.testing.assert_allclose(drift[i], d1, rtol=1e-13, atol=1e-9)
            np.testing.assert_allclose(vols[i], v1, rtol=1e-13, atol=0.0)

    check()
