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
from operator import itemgetter
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


def zero_likelihood(res):
    """Why the estimate of the particle filter or of the deterministic
    trajectory in `res` is not finite: the first instant whose term is
    not, where every particle weight vanished or the trajectory gives the
    data zero probability."""
    bad = np.flatnonzero(~np.isfinite(res.loglik_terms))
    if not bad.size:
        return "the log likelihood is not finite"
    t = float(res.times[bad[0]])
    if res.ess is not None:
        return f"every particle weight vanished at t = {t:g}"
    return f"the data at t = {t:g} have zero probability on the trajectory"


def systematic_resample(weights, rng, work):
    """Indices, a new array, drawn by systematic resampling from
    normalized weights: positions (u + k)/n for one uniform u, searched in
    the cumulative sums, the last set to 1.  `work` holds arange(n) as
    floats and buffers for the positions and the sums, which a filter
    makes once per call."""
    n = len(weights)
    base, positions, cum = work
    np.add(base, rng.random(), out=positions)
    np.divide(positions, n, out=positions)
    weights.cumsum(out=cum)
    cum[-1] = 1.0
    return cum.searchsorted(positions)


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

    The working vectors, made once per call, serve every instant: the log
    weights, into which each stream's density is added in place under one
    error state per call (`observe.stream_loglik`), the weights, their
    squares and the resampling's buffers.  An instant makes the stepper's
    swarm, the stream kernels' parts, the ancestor indices and the
    resampled swarm, and besides only the densities of a law other than
    Poisson and the fix-ups of a mean not positive and finite.  No working
    vector reaches the caller.
    """
    j = n_particles
    if log_weight is not None or after_resample is not None:
        floor = None
    floor = _stop_floor(cm, floor)
    x = cm.init_state(params, size=j)
    n_obs = len(dataset)
    loglik = 0.0
    terms = np.full(n_obs, np.nan)
    means = np.full((n_obs, cm.nx), np.nan)
    ess = np.full(n_obs, np.nan)
    kinds = {o.name: o.kind for o in cm.observations}
    logw, w, sq = np.empty(j), np.empty(j), np.empty(j)
    resampling = np.arange(j, dtype=float), np.empty(j), np.empty(j)
    history = [] if return_path else None
    ancestry = [] if return_path else None
    path = None
    instants = n_obs
    prev_t = t0
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, ((t, obs), data_terms) in enumerate(
                zip(dataset, dataset.log_factorials)):
            x = advance(cm, x, prev_t, t, params, rng=rng,
                        formalism=formalism, dt=dt)
            if log_weight is None:
                logw.fill(0.0)
            else:
                np.add(0.0, log_weight, out=logw)
            for (stream, y), data_term in zip(obs, data_terms):
                parts, _ = cm.obs_values(stream, x, t, params)
                ob.stream_loglik(kinds[stream], parts, y, logw, w, data_term)
            peak = np.maximum.reduce(logw)
            if not math.isfinite(peak):
                loglik, instants = -np.inf, i + 1
                break
            np.subtract(logw, peak, out=w)
            np.exp(w, out=w)
            total = np.add.reduce(w)
            terms[i] = peak + np.log(total / j)
            loglik += terms[i]
            # w holds the normalized weights from here to the next instant
            np.divide(w, total, out=w)
            np.multiply(w, w, out=sq)
            ess[i] = 1.0 / np.add.reduce(sq)
            np.matmul(x, w, out=means[i])
            if floor is not None and loglik <= floor:
                instants = i + 1
                break
            if return_path:
                history.append(x)
            idx = systematic_resample(w, rng, resampling)
            x = x.take(idx, axis=1)
            x[cm.acc_slice] = 0.0
            if return_path:
                ancestry.append(idx)
            if after_resample is not None:
                params, log_weight = after_resample(i, idx)
            prev_t = t
        else:
            # a run that filtered every instant draws the path, if asked,
            # from the last instant's weights
            if return_path and n_obs:
                path = np.empty((n_obs, cm.nx))
                pick = int(rng.choice(j, p=w))
                path[-1] = history[-1][:, pick]
                for i in range(n_obs - 2, -1, -1):
                    pick = int(ancestry[i][pick])
                    path[i] = history[i][:, pick]
    return FilterResult(
        loglik=float(loglik), times=dataset.times, means=means,
        loglik_terms=terms, ess=ess, path=path, instants=instants,
    )


# ----------------------------------------------------------------------
# moment filter

def _project_psd(C):
    """C made positive semi-definite, and the repair that did it: None when
    C already was, "psd_rounding" when its lowest eigenvalue was a
    rounding-sized negative that a diagonal shift removes, "psd_eigen" when
    the negative eigenvalues had to be cut to zero.  FilterError where the
    eigenvalues do not converge, as on a covariance that overflowed."""
    try:
        vals = np.linalg.eigvalsh(C)
        lo = vals[0]
        if lo >= 0.0:
            return C, None
        if lo < -1e-8 * max(1.0, abs(vals[-1])):
            vals2, vecs = np.linalg.eigh(C)
            return (vecs * np.clip(vals2, 0.0, None)) @ vecs.T, "psd_eigen"
    except np.linalg.LinAlgError as err:
        raise FilterError(f"covariance projection failed: {err}") from err
    return C - lo * np.eye(C.shape[0]), "psd_rounding"


def ekf_filter(cm, dataset, params, t0, dt=None, floor=None):
    """Continuous-discrete moment filter.

    The filter carries y = [mean, upper triangle of covariance] as Python
    floats from instant to instant (`CompiledModel.moment_kernels`), and
    forms the result's arrays once, at the end.  Between observations the
    mean follows the drift and the covariance the linearized flow plus
    process dispersion, integrated jointly by RK4 in one call per
    interval, the mean clamped at the floor after each substep.
    Each reporting stream then applies a scalar update with the innovation
    variance s taken from the stream's observation model: with P = C g for
    the gradient g of the observed mean, C becomes C - P P'/s, which
    equals the Joseph form (see `kernels.update_source`).  The new
    covariance first meets a Cholesky test on floats; only a matrix it
    rejects goes to _project_psd.  The result's `repairs` counts the
    updates and, per repair, the updates where it changed something:
    compartments of the mean clipped at zero, the innovation variance
    floored at one count, a covariance the Cholesky test rejected projected
    back to positive semi-definite (see _project_psd); and the updates
    whose observation variance sat at its floor (`observe.stream_moments`).

    With a `floor` and only count streams, whose terms the one-count floor
    of the innovation variance keeps at or below UPDATE_CEILING, it stops
    after the first instant where the running log likelihood plus that
    ceiling for each update still to come (with a rounding margin,
    `_ceiling`) is at or below `floor`, and returns that bound (see the
    module docstring); the instants it did not reach keep nan means and
    covariances.  A likelihood that counted the mass of the one-count bin
    in place of the density at its centre (ROADMAP item 4) would have
    terms at most 0, and this ceiling would go back to 0.
    """
    floor = _stop_floor(cm, floor)
    interval, updates = cm.moment_kernels
    nx = cm.nx
    upper = cm.tri_index
    lower = upper[::-1]
    columns = (*range(nx), *upper[1])
    # y's entries in an accumulator's row or column, zeroed after each
    # instant: reset((*y, 0.0)) takes them from the 0.0 appended
    reset = itemgetter(*(len(columns) if j >= cm.acc_slice.start else k
                         for k, j in enumerate(columns)))
    y = (*cm.init_state(params).tolist(), *(0.0,) * len(upper[0]))
    # the updates still to come after the current instant
    left = sum(len(obs) for _, obs in dataset)
    loglik = 0.0
    terms, rows = [], []
    prev_t = t0
    repairs = dict.fromkeys(("updates", "mean_clipped", "variance_floored",
                             "psd_rounding", "psd_eigen",
                             "obs_variance_floored"), 0)
    for t, obs in dataset:
        t = float(t)
        span = t - prev_t
        if span > 0:
            n_sub, h = substeps(span, dt)
            y = interval(y, float(prev_t), float(h), n_sub, params)
        if not all(map(math.isfinite, y)):
            raise FilterError("moments diverged during propagation")
        term = 0.0
        for stream, v in obs:
            # every law's data lie on the integers (count data are checked)
            out = updates[stream](y, round(v), t, params)
            if out is None:
                raise FilterError(
                    f"non-finite innovation variance on stream {stream}"
                )
            y, contribution, flags = out
            term += contribution
            loglik += contribution
            repairs["updates"] += 1
            for key, flag in zip(("variance_floored", "obs_variance_floored",
                                  "mean_clipped"), flags):
                repairs[key] += flag
            if not flags[3]:
                C = np.empty((nx, nx))
                C[upper] = C[lower] = y[nx:]
                C, repair = _project_psd(C)
                if repair:
                    repairs[repair] += 1
                    y = (*y[:nx], *C[upper].tolist())
        terms.append(term)
        rows.append(y)
        left -= len(obs)
        if floor is not None and (bound := _ceiling(loglik, left)) <= floor:
            loglik = bound
            break
        y = reset((*y, 0.0))
        prev_t = t
    else:
        # a stopped run returns its bound as it is
        if not np.isfinite(loglik):
            raise FilterError("non-finite log likelihood")
    n_obs, done = len(dataset), len(rows)
    means = np.full((n_obs, nx), np.nan)
    covs = np.full((n_obs, nx, nx), np.nan)
    if done:
        packed = np.array(rows)
        means[:done] = packed[:, :nx]
        covs[:done, upper[0], upper[1]] = packed[:, nx:]
        covs[:done, lower[0], lower[1]] = packed[:, nx:]
    return FilterResult(
        loglik=float(loglik), times=dataset.times, means=means,
        loglik_terms=np.array(terms + [0.0] * (n_obs - done)), covs=covs,
        repairs=repairs, instants=done,
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
        x[cm.acc_slice] = 0.0
        prev_t = t
    return FilterResult(
        loglik=float(loglik), times=dataset.times, means=means,
        loglik_terms=terms,
    )
