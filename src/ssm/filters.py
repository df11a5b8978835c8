"""Likelihood evaluation: particle filter, moment filter, deterministic.

All filters share the same observation protocol: propagate from the previous
instant to the observation time, weight or update against every stream
reporting at that instant, record the filtered state, then zero the
accumulator coordinates so each window measures what accumulated since the
last instant.

The particle and moment filters take an optional `floor`.  Where every
stream of the model follows a count law (`observe.COUNT_KINDS`), each
term the filter adds has a ceiling, and so the estimate has a bound: the
running sum plus the ceiling of each term still to come.  Once that bound
is at or below `floor` the filter stops and returns it: an upper bound on
the full estimate, itself at or below `floor`.  A chain that rejects every
estimate at or below its floor takes the same decision from the stopped
filter as from the full one.  The particle filter's terms are logs of
means of probabilities, so its ceiling per term is 0 and it stops once
its running sum is at or below `floor` (adding a non-positive float never
raises a float sum).  The moment filter floors each innovation variance
at one count, so each of its updates adds at most -log(2 pi)/2, and its
bound falls by that much per update still to come (see `_ceiling`).  A
model with a stream of another law (a density, such as the discretized
normal's, can exceed 1) never stops early.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ssm import observe as ob
from ssm.compiled import DomainError
from ssm.simulate import advance, substeps


class FilterError(RuntimeError):
    """The filter could not produce a finite, well-defined likelihood."""


def _stop_floor(cm, floor):
    """`floor` where every stream of the model is a count stream, else
    None: a filter with another stream never stops early."""
    if floor is None or any(o.kind not in ob.COUNT_KINDS
                            for o in cm.observations):
        return None
    return floor


# the most one update of the moment filter can add on a count stream: the
# filter's term at the floored innovation variance of one count and no
# error, taken four ulps toward zero against a log that rounds out of order
UPDATE_CEILING = -0.5 * float(np.log(2.0 * np.pi * 1.0))
for _ in range(4):
    UPDATE_CEILING = math.nextafter(UPDATE_CEILING, 0.0)


def _ceiling(running, k):
    """An upper bound on the float sum `running` reaches after k more
    additions of terms each at most UPDATE_CEILING; `running` for k = 0.

    Float addition is monotone, so that sum is at most the float sum of
    `running` and k copies of the ceiling, which lies within
    k * 2^-53 * (|running| + k |UPDATE_CEILING|) of the exact one; the
    margin adds four such units for the roundings of this expression."""
    if not k:
        return running
    c = UPDATE_CEILING
    return running + k * c + (k + 4) * 2.0 ** -53 * (abs(running)
                                                    + k * abs(c))


class FilterResult(NamedTuple):
    loglik: float
    times: np.ndarray
    means: np.ndarray                 # filtered means, before accumulator reset
    loglik_terms: np.ndarray          # per-instant contribution
    ess: np.ndarray | None = None     # particle filter only
    path: np.ndarray | None = None    # one ancestral trajectory, if requested
    covs: np.ndarray | None = None    # moment filter only
    # particle and moment filters: the instants filtered, all of them
    # unless the filter stopped early (a run stopped at the last instant,
    # where no term is left to bound, reports all of them)
    instants: int | None = None
    # moment filter only: the scalar updates made and, per silent repair,
    # how many of them it changed
    repairs: dict | None = None


def systematic_resample(weights, rng):
    """Indices drawn by systematic resampling from normalized weights."""
    n = len(weights)
    positions = (rng.random() + np.arange(n)) / n
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    return np.searchsorted(cum, positions)


def smc_filter(cm, dataset, params, t0, rng, n_particles=500,
               formalism="psr", dt=None, return_path=False,
               after_resample=None, log_weight=None, floor=None):
    """Bootstrap particle filter with systematic resampling at every
    observation instant.

    The likelihood estimate multiplies, per instant, the mean unnormalized
    weight.  If every particle has zero weight the estimate is minus
    infinity and filtering stops early.  With a `floor` and only count
    streams, and without `log_weight` or `after_resample` (whose terms may
    be positive), it also stops after the first instant whose running log
    likelihood is at or below `floor`, before resampling, and returns that
    running sum (see the module docstring); a stopped run draws no path.

    Parameter values may be per-particle columns.  `after_resample(i, idx)`,
    when given, is called after the resampling at instant i with the
    ancestor indices; it returns the parameters of the next interval and a
    per-particle term added to the next instant's log weights, as
    `log_weight` is to the first instant's.
    """
    j = n_particles
    if log_weight is not None or after_resample is not None:
        floor = None
    floor = _stop_floor(cm, floor)
    x = cm.init_state(params, size=j)
    if not np.all(np.isfinite(x)):
        raise FilterError("non-finite initial state")
    n_obs = len(dataset)
    loglik = 0.0
    terms = np.full(n_obs, np.nan)
    means = np.full((n_obs, cm.nx), np.nan)
    ess = np.full(n_obs, np.nan)
    history = [] if return_path else None
    ancestry = [] if return_path else None
    final_weights = None
    prev_t = t0
    for i, (t, obs) in enumerate(dataset):
        x = advance(cm, x, prev_t, t, params, rng=rng, formalism=formalism,
                    dt=dt)
        logw = np.zeros(j)
        if log_weight is not None:
            logw += log_weight
        for stream, y in obs:
            o = cm.obs(stream)
            parts, _ = cm.obs_values(stream, x, t, params)
            logw += ob.stream_loglik(o.kind, parts, y)
        peak = logw.max()
        if not np.isfinite(peak):
            return FilterResult(
                loglik=-np.inf, times=dataset.times, means=means,
                loglik_terms=terms, ess=ess, path=None, instants=i + 1,
            )
        w = np.exp(logw - peak)
        total = w.sum()
        terms[i] = peak + np.log(total / j)
        loglik += terms[i]
        norm = w / total
        ess[i] = 1.0 / (norm ** 2).sum()
        means[i] = norm @ x
        if floor is not None and loglik <= floor:
            return FilterResult(
                loglik=float(loglik), times=dataset.times, means=means,
                loglik_terms=terms, ess=ess, path=None, instants=i + 1,
            )
        if return_path:
            history.append(x.copy())
        idx = systematic_resample(norm, rng)
        x = x[idx]
        x[:, cm.acc_slice] = 0.0
        if return_path:
            ancestry.append(idx)
        if after_resample is not None:
            params, log_weight = after_resample(i, idx)
        final_weights = norm
        prev_t = t
    path = None
    if return_path and n_obs:
        path = np.empty((n_obs, cm.nx))
        pick = int(rng.choice(j, p=final_weights))
        path[-1] = history[-1][pick]
        for i in range(n_obs - 2, -1, -1):
            pick = int(ancestry[i][pick])
            path[i] = history[i][pick]
    return FilterResult(
        loglik=float(loglik), times=dataset.times, means=means,
        loglik_terms=terms, ess=ess, path=path, instants=n_obs,
    )


# ----------------------------------------------------------------------
# moment filter

def _project_psd(C):
    """C made positive semi-definite, and the repair that did it: None when
    C already was, "psd_rounding" when its lowest eigenvalue was a
    rounding-sized negative that a diagonal shift removes, "psd_eigen" when
    the negative eigenvalues had to be cut to zero."""
    vals = np.linalg.eigvalsh(C)
    lo = vals[0]
    if lo >= 0.0:
        return C, None
    if lo < -1e-8 * max(1.0, abs(vals[-1])):
        vals2, vecs = np.linalg.eigh(C)
        return (vecs * np.clip(vals2, 0.0, None)) @ vecs.T, "psd_eigen"
    return C - lo * np.eye(C.shape[0]), "psd_rounding"


def ekf_filter(cm, dataset, params, t0, dt=None, floor=None):
    """Continuous-discrete moment filter.

    Between observations the mean follows the drift and the covariance the
    linearized flow plus process dispersion, integrated jointly by RK4 in
    one call per interval, the mean clamped at the floor after each
    substep.
    Each reporting stream then applies a scalar update with the innovation
    variance taken from the stream's observation model.  The result's
    `repairs` counts the updates and, per repair, the updates where it
    changed something: compartments of the mean clipped at zero, the
    innovation variance floored at one count, the covariance projected back
    to positive semi-definite (see _project_psd); and the updates whose
    observation variance sat at its floor (`observe.stream_moments`).

    With a `floor` and only count streams, whose terms the one-count floor
    of the innovation variance keeps at or below UPDATE_CEILING, it stops
    after the first instant where the running log likelihood plus that
    ceiling for each update still to come (with a rounding margin,
    `_ceiling`) is at or below `floor`, and returns that bound (see the
    module docstring); the instants it did not reach keep nan means and
    covariances.  A likelihood that counted the mass of the one-count bin
    in place of the density at its centre (ROADMAP item 2) would have
    terms at most 0, and this ceiling would go back to 0.
    """
    floor = _stop_floor(cm, floor)
    x0 = cm.init_state(params)
    if not np.all(np.isfinite(x0)):
        raise FilterError("non-finite initial state")
    upper = cm.tri_index
    lower = upper[::-1]
    flat = np.zeros(cm.nx + len(upper[0]))
    flat[: cm.nx] = x0
    n_obs = len(dataset)
    # the updates still to come after the current instant
    left = sum(len(obs) for _, obs in dataset)
    loglik = 0.0
    terms = np.zeros(n_obs)
    means = np.full((n_obs, cm.nx), np.nan)
    covs = np.full((n_obs, cm.nx, cm.nx), np.nan)
    prev_t = t0
    eye = np.eye(cm.nx)
    repairs = dict.fromkeys(("updates", "mean_clipped", "variance_floored",
                             "psd_rounding", "psd_eigen",
                             "obs_variance_floored"), 0)
    for i, (t, obs) in enumerate(dataset):
        span = t - prev_t
        if span > 0:
            n_sub, h = substeps(span, dt)
            flat = cm.moments_interval(flat, prev_t, h, n_sub, params)
        if not np.isfinite(flat).all():
            raise FilterError("moments diverged during propagation")
        m = flat[: cm.nx].copy()
        C = np.empty((cm.nx, cm.nx))
        C[upper] = C[lower] = flat[cm.nx :]
        for stream, y in obs:
            o = cm.obs(stream)
            parts, grad = cm.obs_values(stream, m, t, params)
            mean, var = ob.stream_moments(o.kind, parts)
            repairs["obs_variance_floored"] += bool(var == ob.VARIANCE_FLOOR)
            hch = float(grad @ C @ grad)
            s = hch + float(var)
            if not np.isfinite(s):
                raise FilterError(
                    f"non-finite innovation variance on stream {stream}"
                )
            # counts sit on a unit grid: a predictive density narrower than
            # one bin would overstate the probability mass, so the
            # innovation variance is bounded below by one bin
            repairs["updates"] += 1
            repairs["variance_floored"] += s < 1.0
            s = max(s, 1.0)
            r_eff = s - hch
            # every law's data lie on the integers (count data are checked)
            e = round(y) - float(mean)
            k = (C @ grad) / s
            contribution = -0.5 * (np.log(2.0 * np.pi * s) + e * e / s)
            terms[i] += contribution
            loglik += contribution
            m = m + k * e
            comps = m[cm.comp_slice]
            repairs["mean_clipped"] += bool((comps < 0.0).any())
            np.maximum(comps, 0.0, out=comps)
            ikh = eye - k[:, None] * grad
            C = ikh @ C @ ikh.T + k[:, None] * k * r_eff
            C, repair = _project_psd(0.5 * (C + C.T))
            if repair:
                repairs[repair] += 1
        means[i] = m
        covs[i] = C
        left -= len(obs)
        if floor is not None and (bound := _ceiling(loglik, left)) <= floor:
            return FilterResult(
                loglik=float(bound), times=dataset.times, means=means,
                loglik_terms=terms, covs=covs, repairs=repairs,
                instants=i + 1,
            )
        m[cm.acc_slice] = 0.0
        C[cm.acc_slice, :] = 0.0
        C[:, cm.acc_slice] = 0.0
        flat = np.concatenate([m, C[upper]])
        prev_t = t
    if not np.isfinite(loglik):
        raise FilterError("non-finite log likelihood")
    return FilterResult(
        loglik=float(loglik), times=dataset.times, means=means,
        loglik_terms=terms, covs=covs, repairs=repairs, instants=n_obs,
    )


# ----------------------------------------------------------------------
# deterministic likelihood

def ode_loglik(cm, dataset, params, t0, dt=None):
    """Log likelihood of the data along the deterministic trajectory."""
    x = cm.init_state(params)
    n_obs = len(dataset)
    loglik = 0.0
    terms = np.zeros(n_obs)
    means = np.empty((n_obs, cm.nx))
    prev_t = t0
    for i, (t, obs) in enumerate(dataset):
        x = advance(cm, x, prev_t, t, params, dt=dt)
        for stream, y in obs:
            o = cm.obs(stream)
            parts, _ = cm.obs_values(stream, x, t, params)
            terms[i] += ob.stream_loglik(o.kind, parts, y)
        loglik += terms[i]
        means[i] = x
        x = x.copy()
        x[cm.acc_slice] = 0.0
        prev_t = t
    return FilterResult(
        loglik=float(loglik), times=dataset.times, means=means,
        loglik_terms=terms,
    )
