"""Predictive summaries of the observation process.

Trajectories are simulated forward under a collection of parameter draws and
reduced to quantile ribbons of the conditional observation mean, so the
bands show parameter plus process uncertainty without reporting-noise
jitter.  Accumulators reset at each grid instant, mirroring how the fitting
tools treat windowed counts.
"""

from __future__ import annotations

import numpy as np

from ssm.observe import stream_mean
from ssm.simulate import advance

QUANTILES = (0.025, 0.25, 0.5, 0.75, 0.975)


def forecast_table(cm, thetas, t0, times, *, formalism="psr", rng=None,
                   dt=None):
    """Quantiles of each stream's conditional mean over one simulated
    trajectory per parameter draw.

    The draws become per-state parameter columns and all trajectories advance
    together as one batch.  Returns (stream names, array of shape
    (n_times, n_streams, 5))."""
    times = np.asarray(times, dtype=float)
    streams = [o.name for o in cm.observations]
    n = len(thetas)
    if n == 0:
        raise ValueError("forecast needs at least one parameter draw")
    values = {k: np.array([th[k] for th in thetas], dtype=float)
              for k in thetas[0]}
    x = cm.init_state(values, size=n)
    means = np.empty((n, len(times), len(streams)))
    t = t0
    for i, t_next in enumerate(times):
        x = advance(cm, x, t, t_next, values, rng=rng, formalism=formalism,
                    dt=dt)
        for k, obs in enumerate(cm.observations):
            parts, _ = cm.obs_values(obs.name, x, t_next, values)
            means[:, i, k] = stream_mean(obs.kind, parts)
        x[cm.acc_slice] = 0.0
        t = t_next
    return streams, np.moveaxis(quantiles(means), 0, -1)


def quantiles(a):
    """np.quantile(a, QUANTILES, axis=0), bit for bit, without the
    numpy.ma import its np.unique call makes.

    numpy's `linear` method: the virtual index (n - 1) q, its floor and
    the next index, clipped to the last row, taken from `a` partitioned
    along axis 0 at numpy's own kth (so that equal values of either sign
    land where np.quantile puts them), the two neighbours blended by
    numpy's lerp, and a column holding a NaN giving NaN."""
    n = len(a)
    q = np.array(QUANTILES)
    virtual = (n - 1) * q
    below = np.floor(virtual)
    above = below + 1
    last = virtual >= n - 1
    below[last] = above[last] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    t = (virtual - below).reshape(-1, *[1] * (a.ndim - 1))
    arr = a.copy()
    arr.partition(sorted({0, -1, *below.tolist(), *above.tolist()}), axis=0)
    lo, hi = arr[below], arr[above]
    diff = hi - lo
    out = lo + diff * t
    np.subtract(hi, diff * (1 - t), out=out, where=t >= 0.5)
    np.copyto(out, arr[-1], where=np.isnan(arr[-1]))
    return out


def forecast_rows(cm, thetas, t0, times, *, formalism="psr", rng=None,
                  dt=None):
    """CSV-ready rows (time, stream, q025, q25, q50, q75, q975)."""
    streams, table = forecast_table(
        cm, thetas, t0, times, formalism=formalism, rng=rng, dt=dt
    )
    rows = []
    for i, t in enumerate(np.asarray(times, dtype=float)):
        for k, name in enumerate(streams):
            rows.append((float(t), name, *[float(v) for v in table[i, k]]))
    return rows
