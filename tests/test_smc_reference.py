"""The particle filter against its reference loop, bit for bit.

`reference_smc_filter` is the bootstrap particle filter as one loop of
allocating numpy calls, with its own systematic resampling and each stream
scored by its law's function: the loop `ssm.filters.smc_filter` ran before
it kept its working vectors for the whole call.  Each of its stepper calls
runs in fresh scratch.  `smc_filter` must give every one of its results,
bit for bit, and leave the generator where it leaves it.
"""

import json

import numpy as np
import pytest

from helpers import ROOT
from ssm import filters as fl
from ssm import observe as ob
from ssm import simulate as sim
from ssm.compiled import CompiledModel
from ssm.model import load_model, parse_model
from ssm.observe import DataSet

SHIPPED = ROOT / "src" / "ssm" / "models"
TRUTH = {
    "sir": {"beta": 1.5, "gamma": 1.0},
    "plague": {"beta0": 2.5},
    "seir-h1n1": {"beta": 3.0, "rho": 0.35},
    "dengue-2strain": {"beta1": 2.1, "beta2": 1.9, "xi": 1.7},
}


def reference_resample(weights, rng):
    n = len(weights)
    positions = (rng.random() + np.arange(n)) / n
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    return np.searchsorted(cum, positions)


def fresh_advance(cm, x, *args, **kwargs):
    cm.scratch.clear()
    return sim.advance(cm, x, *args, **kwargs)


def reference_smc_filter(cm, dataset, params, t0, rng, n_particles=500,
                         formalism="psr", dt=None, return_path=False,
                         after_resample=None, log_weight=None, floor=None):
    j = n_particles
    if log_weight is not None or after_resample is not None:
        floor = None
    floor = fl._stop_floor(cm, floor)
    x = cm.init_state(params, size=j)
    n_obs = len(dataset)
    loglik = 0.0
    terms = np.full(n_obs, np.nan)
    means = np.full((n_obs, cm.nx), np.nan)
    ess = np.full(n_obs, np.nan)
    history = [] if return_path else None
    ancestry = [] if return_path else None
    final_weights = None
    path = None
    instants = n_obs
    prev_t = t0
    for i, (t, obs) in enumerate(dataset):
        x = fresh_advance(cm, x, prev_t, t, params, rng=rng,
                          formalism=formalism, dt=dt)
        logw = np.zeros(j)
        if log_weight is not None:
            logw += log_weight
        for stream, y in obs:
            o = cm.obs(stream)
            parts, _ = cm.obs_values(stream, x, t, params)
            logw += ob.stream_loglik(o.kind, parts, y)
        peak = logw.max()
        if not np.isfinite(peak):
            loglik, instants = -np.inf, i + 1
            break
        w = np.exp(logw - peak)
        total = w.sum()
        terms[i] = peak + np.log(total / j)
        loglik += terms[i]
        norm = w / total
        ess[i] = 1.0 / (norm ** 2).sum()
        means[i] = x @ norm
        if floor is not None and loglik <= floor:
            instants = i + 1
            break
        if return_path:
            history.append(x)
        idx = reference_resample(norm, rng)
        x = x.take(idx, axis=1)
        x[cm.acc_slice] = 0.0
        if return_path:
            ancestry.append(idx)
        if after_resample is not None:
            params, log_weight = after_resample(i, idx)
        final_weights = norm
        prev_t = t
    else:
        if return_path and n_obs:
            path = np.empty((n_obs, cm.nx))
            pick = int(rng.choice(j, p=final_weights))
            path[-1] = history[-1][:, pick]
            for i in range(n_obs - 2, -1, -1):
                pick = int(ancestry[i][pick])
                path[i] = history[i][:, pick]
    return fl.FilterResult(
        loglik=float(loglik), times=dataset.times, means=means,
        loglik_terms=terms, ess=ess, path=path, instants=instants,
    )


def run(filter_fn, cm, ds, values, seed, **kwargs):
    """(result, generator state after the run) of one filter call."""
    rng = np.random.default_rng(seed)
    res = filter_fn(cm, ds, values, 0.0, rng, **kwargs)
    return res, rng.bit_generator.state


def assert_identical(a, b):
    (ra, sa), (rb, sb) = a, b
    assert np.float64(ra.loglik).tobytes() == np.float64(rb.loglik).tobytes()
    assert ra.instants == rb.instants
    for field in ("loglik_terms", "means", "ess", "path"):
        x, y = getattr(ra, field), getattr(rb, field)
        assert (x is None) == (y is None), field
        if x is not None:
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), field
    assert sa == sb


def assert_matches_reference(cm, ds, values, seed, **kwargs):
    got = run(fl.smc_filter, cm, ds, values, seed, **kwargs)
    assert_identical(got, run(reference_smc_filter, cm, ds, values, seed,
                              **kwargs))
    return got[0]


_MODELS = {}


def shipped(name):
    """The shipped model `name` compiled once per test module, its data
    and its values at the truth; its steppers' scratch lives on between
    tests."""
    if name not in _MODELS:
        cm = CompiledModel(load_model(SHIPPED / f"{name}.json"))
        ds = DataSet.from_csv(SHIPPED / f"{name}-data.csv")
        _MODELS[name] = cm, ds, cm.spec.resolve_values(TRUTH[name])
    return _MODELS[name]


@pytest.mark.parametrize("name, formalism, j", [
    *((name, formalism, 500) for name in TRUTH
      for formalism in ("psr", "sde")),
    ("sir", "jump", 20)])
def test_shipped_models_match_the_reference(name, formalism, j):
    cm, ds, values = shipped(name)
    res = assert_matches_reference(cm, ds, values, 30, n_particles=j,
                                   formalism=formalism)
    assert np.isfinite(res.loglik)


@pytest.mark.parametrize("formalism", ["psr", "sde"])
def test_a_run_stopped_at_its_floor_matches_the_reference(formalism):
    cm, ds, values = shipped("sir")
    full, _ = run(reference_smc_filter, cm, ds, values, 31, n_particles=100,
                  formalism=formalism)
    floor = float(np.cumsum(full.loglik_terms)[len(ds) // 3])
    res = assert_matches_reference(cm, ds, values, 31, n_particles=100,
                                   formalism=formalism, floor=floor)
    assert res.instants <= len(ds) // 3 + 1


@pytest.mark.parametrize("formalism", ["psr", "sde"])
@pytest.mark.parametrize("dt", [None, 0.4])
def test_the_sampled_path_matches_the_reference(formalism, dt):
    # the path holds the swarms the stepper returned; at dt 0.4 a unit
    # interval takes three substeps, so psr's copy and its scratch have
    # taken turns an odd number of times
    cm, ds, values = shipped("sir")
    res = assert_matches_reference(cm, ds, values, 32, n_particles=100,
                                   formalism=formalism, return_path=True,
                                   dt=dt)
    assert res.path.shape == (len(ds), cm.nx)


def hooks(values, j, seed):
    """Per-particle parameter columns, a log weight and an after-resample
    hook that carries the columns through the ancestors and moves them, as
    iterated filtering does, from a generator of their own."""
    rng = np.random.default_rng(seed)
    beta = values["beta"] * np.exp(0.1 * rng.standard_normal(j))

    def columns():
        return dict(values, beta=beta)

    def log_weight():
        return -0.5 * np.log(beta) ** 2

    def after_resample(i, idx):
        nonlocal beta
        beta = beta[idx] * np.exp(0.05 * rng.standard_normal(j))
        return columns(), log_weight()

    return dict(params=columns(), log_weight=log_weight(),
                after_resample=after_resample)


@pytest.mark.parametrize("formalism", ["psr", "sde"])
def test_iterated_filtering_hooks_match_the_reference(formalism):
    cm, ds, values = shipped("sir")
    j = 100
    a, b = hooks(values, j, 5), hooks(values, j, 5)
    got = run(fl.smc_filter, cm, ds, a.pop("params"), 33, n_particles=j,
              formalism=formalism, **a)
    want = run(reference_smc_filter, cm, ds, b.pop("params"), 33,
               n_particles=j, formalism=formalism, **b)
    assert_identical(got, want)


def gate_variant(name):
    """The byte gate's SIR variants: `sir-negmean`, a Poisson mean that is
    negative where `inc` is 0 and 0 where it is 1, and `sir-twolaws`, a
    Poisson and a discretized normal stream reporting the same counts."""
    doc = json.loads((SHIPPED / "sir.json").read_text())
    ds = DataSet.from_csv(SHIPPED / "sir-data.csv")
    if name == "sir-negmean":
        doc["observations"] = [{"name": "cases", "distribution": "poisson",
                                "mean": "rho*inc - 0.5"}]
    else:
        doc["observations"].append({
            "name": "cases_n", "distribution": "discretized_normal",
            "mean": "rho*inc", "variance": "1 + rho*inc"})
        ds = DataSet([(t, stream, v) for t, obs in ds
                      for _, v in obs for stream in ("cases", "cases_n")])
    cm = CompiledModel(parse_model(doc))
    return cm, ds, cm.spec.resolve_values(TRUTH["sir"])


@pytest.mark.parametrize("name", ["sir-negmean", "sir-twolaws"])
@pytest.mark.parametrize("formalism", ["psr", "sde"])
def test_gate_variants_match_the_reference(name, formalism):
    cm, ds, values = gate_variant(name)
    assert_matches_reference(cm, ds, values, 34, n_particles=200,
                             formalism=formalism)


@pytest.mark.parametrize("formalism", ["psr", "sde"])
def test_calls_in_a_row_at_other_widths_equal_fresh_calls(formalism):
    # the steppers keep their scratch per model and width: a call after
    # calls at other widths gives what a call on a fresh model does
    cm, ds, values = shipped("sir")
    for seed, j in enumerate((500, 50, 500), 35):
        got = run(fl.smc_filter, cm, ds, values, seed, n_particles=j,
                  formalism=formalism)
        fresh = CompiledModel(cm.spec)
        assert_identical(got, run(fl.smc_filter, fresh, ds, values, seed,
                                  n_particles=j, formalism=formalism))


@pytest.mark.parametrize("n", [1, 7, 50, 500])
def test_resampling_writes_the_positions_and_sums_of_the_reference(n):
    # the filter's buffers hold (u + k)/n and the cumulative sums, formed
    # as the reference forms them
    for seed in range(5):
        weights = np.random.default_rng(seed).dirichlet(np.ones(n))
        work = np.arange(n, dtype=float), np.empty(n), np.empty(n)
        idx = fl.systematic_resample(weights, np.random.default_rng(seed),
                                     work)
        rng = np.random.default_rng(seed)
        positions = (rng.random() + np.arange(n)) / n
        cum = np.cumsum(weights)
        cum[-1] = 1.0
        assert work[1].tobytes() == positions.tobytes()
        assert work[2].tobytes() == cum.tobytes()
        want = reference_resample(weights, np.random.default_rng(seed))
        np.testing.assert_array_equal(idx, want)
