"""The forecast swarm against one draw at a time."""

import numpy as np
import pytest

from helpers import sir_model
from ssm.compiled import CompiledModel
from ssm.forecast import QUANTILES, forecast_table, quantiles
from ssm.observe import stream_mean
from ssm.simulate import simulate_paths


def test_ode_swarm_matches_draws_one_at_a_time():
    cm = CompiledModel(sir_model())
    draws = [(0.5, 0.25), (0.8, 0.3), (0.35, 0.2), (1.1, 0.6), (0.6, 0.45)]
    thetas = [cm.spec.resolve_values({"beta": b, "gamma": g})
              for b, g in draws]
    times = np.arange(1.0, 13.0)
    streams, table = forecast_table(cm, thetas, 0.0, times, formalism="ode")

    grid = np.concatenate([[0.0], times])
    means = np.empty((len(thetas), len(times), len(streams)))
    for j, values in enumerate(thetas):
        path = simulate_paths(cm, values, grid, formalism="ode")[0]
        for i, t in enumerate(times):
            # the observation sees what accumulated since the last instant
            state = path[i + 1].copy()
            state[cm.acc_slice] -= path[i, cm.acc_slice]
            for k, obs in enumerate(cm.observations):
                parts, _ = cm.obs_values(obs.name, state, t, values)
                means[j, i, k] = stream_mean(obs.kind, parts)
    want = np.moveaxis(np.quantile(means, QUANTILES, axis=0), 0, -1)
    np.testing.assert_allclose(table, want, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 199, 200, 201])
def test_quantiles_are_numpys_bit_for_bit(n):
    # ties, zeros of both signs, infinities and a NaN in one column; equal
    # zeros land where numpy's partition puts them, and a last bit off
    # would show in the bits, not within a tolerance
    rng = np.random.default_rng(n)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, np.inf, -np.inf])
    a = np.concatenate([rng.choice(pool, size=(n, 2, 2)),
                        rng.choice(pool[:2], size=(n, 1, 2)),
                        rng.standard_normal((n, 2, 2)) * 1e3], axis=1)
    a[rng.integers(n), 0, 1] = np.nan
    with np.errstate(invalid="ignore"):
        want = np.quantile(a, QUANTILES, axis=0)
        got = quantiles(a)
    assert got.shape == want.shape == (5, 5, 2)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
