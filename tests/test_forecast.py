"""The forecast swarm against one draw at a time."""

import numpy as np

from helpers import sir_model
from ssm.compiled import CompiledModel
from ssm.forecast import QUANTILES, forecast_table
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
