"""Maximization: simplex search and iterated filtering.

Both operate on the unconstrained parameter scale and climb the one log
posterior of `log_posterior`, whose likelihood comes from one of the
backends of `backend`.  The simplex drives a deterministic objective
(trajectory or moment-filter posterior).  Iterated filtering is IF2
(Ionides, Nguyen, Atchade, Stoev & King 2015, PNAS 112:719): it perturbs
the parameters particle-wise inside the particle filter, through the
filter's resampling hook, cooling the perturbation between passes, and takes
the mean of the final filtered parameter swarm as the new estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ssm.compiled import DomainError
from ssm.filters import FilterError, ekf_filter, ode_loglik, smc_filter
# the benchmark tracer (perfbench/tracer.py) patches these two names here
from ssm.filters import systematic_resample  # noqa: F401
from ssm.observe import stream_loglik  # noqa: F401

# variance factor of the regular parameters' perturbation at the initial
# time of a pass, relative to one unit of time of random walk
INITIAL_VARIANCE_FACTOR = 2.0


@dataclass
class SimplexResult:
    x: np.ndarray
    value: float
    iterations: int
    converged: bool
    simplex: np.ndarray
    values: np.ndarray


class NoFiniteVertex(ValueError):
    """The objective is -inf at every vertex of the initial simplex."""


def nelder_mead(f, x0, step=0.1, iterations=300, xtol=1e-5):
    """Maximize f by the Nelder-Mead simplex method.

    The initial simplex is x0 plus `step` along each coordinate.  Search
    stops when every vertex is within xtol of the best one, when all
    vertices have the same value, or after `iterations` reflections.  A
    constant objective therefore stops before any move, leaving the simplex
    untouched.
    """
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    step = np.broadcast_to(np.asarray(step, dtype=float), (d,))
    simplex = np.tile(x0, (d + 1, 1))
    for i in range(d):
        simplex[i + 1, i] += step[i]
    g = np.array([-f(v) for v in simplex])
    if np.all(np.isinf(g)):
        raise NoFiniteVertex("objective is not finite at any initial vertex")

    n_iter = 0
    converged = False
    while True:
        order = np.argsort(g, kind="stable")
        simplex = simplex[order]
        g = g[order]
        finite = g[np.isfinite(g)]
        spread_x = np.max(np.abs(simplex[1:] - simplex[0]))
        spread_f = (finite.max() - finite.min()) if finite.size else np.inf
        if len(finite) == len(g) and (spread_x <= xtol or spread_f == 0.0):
            converged = True
            break
        if n_iter >= iterations:
            break
        n_iter += 1
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        g_r = -f(reflected)
        if g_r < g[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            g_e = -f(expanded)
            if g_e < g_r:
                simplex[-1], g[-1] = expanded, g_e
            else:
                simplex[-1], g[-1] = reflected, g_r
            continue
        if g_r < g[-2]:
            simplex[-1], g[-1] = reflected, g_r
            continue
        if g_r < g[-1]:
            contracted = centroid + 0.5 * (reflected - centroid)
            g_c = -f(contracted)
            if g_c <= g_r:
                simplex[-1], g[-1] = contracted, g_c
                continue
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            g_c = -f(contracted)
            if g_c < g[-1]:
                simplex[-1], g[-1] = contracted, g_c
                continue
        for i in range(1, d + 1):
            simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
            g[i] = -f(simplex[i])
    order = np.argsort(g, kind="stable")
    simplex = simplex[order]
    g = g[order]
    return SimplexResult(
        x=simplex[0].copy(), value=-g[0], iterations=n_iter,
        converged=converged, simplex=simplex, values=-g,
    )


def backend(cm, dataset, t0, kind, *, dt=None, rng=None, n_particles=500,
            formalism="psr", return_path=False):
    """The likelihood of one backend as `values -> FilterResult`: the
    deterministic trajectory ("ode"), the moment filter ("ekf") or the
    particle filter ("smc", drawing from `rng`).  The two filters also take
    the `floor` at which they may stop early (`ssm.filters`)."""
    if kind == "ode":
        return lambda values: ode_loglik(cm, dataset, values, t0, dt=dt)
    if kind == "ekf":
        return lambda values, floor=None: ekf_filter(
            cm, dataset, values, t0, dt=dt, floor=floor)
    if kind == "smc":
        return lambda values, floor=None: smc_filter(
            cm, dataset, values, t0, rng=rng, n_particles=n_particles,
            formalism=formalism, dt=dt, return_path=return_path, floor=floor,
        )
    raise ValueError(f"unknown likelihood backend: {kind!r}")


def attempt(run, values, floor=None):
    """(log likelihood, path) of the backend `run` at natural-scale values;
    minus infinity where it fails or gives a non-finite estimate.  A
    `floor` is passed on to the filter, which may then return a running sum
    at or below it in place of the full estimate."""
    try:
        # probing far corners is expected to overflow into the -inf branch
        with np.errstate(all="ignore"):
            res = run(values) if floor is None else run(values, floor=floor)
    except (DomainError, FilterError):
        return -np.inf, None
    if not np.isfinite(res.loglik):
        return -np.inf, None
    return res.loglik, res.path


def log_posterior(space, base_values, run):
    """The target every fitting stage climbs or samples:
    `(u, bar=None) -> (log likelihood, log prior on the unconstrained
    scale, path)` for the backend `run`.  Invalid regions get a
    minus-infinity likelihood, so the simplex walks around them and the
    chain rejects them.  A chain passes as `bar` the log posterior that a
    proposal must exceed; the filter may then stop once the likelihood
    cannot exceed `bar - lp`, returning a value at or below it."""

    def target(u, bar=None):
        with np.errstate(all="ignore"):
            lp = space.log_prior_unconstrained(u)
            if not np.isfinite(lp):
                return -np.inf, lp, None
            values = dict(base_values)
            values.update(space.to_natural(u))
        ll, path = attempt(run, values, None if bar is None else bar - lp)
        return ll, lp, path

    return target


def maximize_stage(cm, dataset, space, base_values, t0, kind,
                   iterations=300, step=0.1, dt=None, xtol=1e-5):
    """Run the simplex on the chosen likelihood backend; returns the merged
    natural-scale values and the log likelihood at the optimum.  FilterError
    when the posterior is zero at every initial vertex."""
    target = log_posterior(space, base_values,
                           backend(cm, dataset, t0, kind, dt=dt))

    def objective(u):
        ll, lp, _ = target(u)
        return ll + lp if np.isfinite(ll) else -np.inf

    try:
        res = nelder_mead(objective, space.to_unconstrained(base_values),
                          step=step, iterations=iterations, xtol=xtol)
    except NoFiniteVertex as err:
        raise FilterError(f"simplex: {err}") from err
    values = dict(base_values)
    values.update(space.to_natural(res.x))
    return {
        "values": values,
        "log_likelihood": target(res.x)[0],
        "iterations": res.iterations,
        "converged": res.converged,
    }


# ----------------------------------------------------------------------
# iterated filtering

@dataclass
class MifResult:
    values: dict
    log_likelihood: float
    theta_trace: np.ndarray       # (iterations+1, dim) unconstrained
    loglik_trace: np.ndarray
    failed_iterations: int


def mif(cm, dataset, space, base_values, t0, rng, *, perturbation_sd,
        n_particles=500, iterations=30, cooling=0.975, formalism="psr",
        dt=None):
    """Iterated filtering by the IF2 update of Ionides, Nguyen, Atchade,
    Stoev & King (2015, PNAS 112:719).

    Each pass runs the particle filter with a parameter vector per particle.
    Regular parameters start from the current estimate with a perturbation
    of variance b * a^(m-1) * sd^2 (b = INITIAL_VARIANCE_FACTOR) and take a
    random-walk step of variance a^(m-1) * gap * sd^2 after each resampling
    but the last; initial-condition parameters are perturbed at the initial
    time only.  Weights carry a 1/n power of the prior, so that n
    observations jointly apply it once.  The new estimate is the mean of the
    filtered parameter swarm at the last instant.  The perturbation cools by
    `cooling` per completed pass.  A pass whose filter fails or whose
    weights all vanish is discarded without cooling; ten in a row raise
    FilterError.
    """
    sds = np.array([float(perturbation_sd.get(n, 0.0)) for n in space.names])
    moving = sds > 0
    # regular parameters walk through the record; initial conditions only
    # take the perturbation at the start
    walk = moving & np.array([p.role == "estimated" for p in space.params])
    start_sds = np.where(walk, np.sqrt(INITIAL_VARIANCE_FACTOR), 1.0) * sds
    theta = space.to_unconstrained(base_values)
    n_obs = len(dataset)
    final = backend(cm, dataset, t0, "smc", rng=rng, n_particles=n_particles,
                    formalism=formalism, dt=dt)

    def merged(u_vec):
        out = dict(base_values)
        out.update(space.to_natural(u_vec))
        return out

    def columns(u):
        out = dict(base_values)
        out.update(space.natural_columns(u))
        return out

    theta_trace = [theta.copy()]
    ll_trace = []
    if not moving.any() or n_obs == 0:
        ll = attempt(final, merged(theta))[0]
        return MifResult(merged(theta), ll, np.array(theta_trace),
                         np.array([ll]), 0)

    j = n_particles
    lags = np.diff(dataset.times, prepend=t0)
    completed = 0
    failures = 0
    consecutive_failures = 0
    while completed < iterations:
        a_m = cooling ** completed
        u = np.tile(theta, (j, 1))
        u[:, moving] += rng.standard_normal((j, moving.sum())) * np.sqrt(
            a_m
        ) * start_sds[moving]

        def rejuvenate(i, idx):
            nonlocal u
            u = u[idx]
            if i + 1 < n_obs:
                u[:, walk] += rng.standard_normal((j, walk.sum())) * np.sqrt(
                    a_m * lags[i]
                ) * sds[walk]
            return columns(u), space.log_prior_unconstrained(u) / n_obs

        with np.errstate(all="ignore"):
            try:
                ll = smc_filter(
                    cm, dataset, columns(u), t0, rng=rng, n_particles=j,
                    formalism=formalism, dt=dt, after_resample=rejuvenate,
                    log_weight=space.log_prior_unconstrained(u) / n_obs,
                ).loglik
            except (DomainError, FilterError):
                ll = -np.inf
        proposal = theta.copy()
        proposal[moving] = u[:, moving].mean(axis=0)
        if not (np.isfinite(ll) and np.all(np.isfinite(proposal))):
            failures += 1
            consecutive_failures += 1
            if consecutive_failures >= 10:
                raise FilterError(
                    "iterated filtering failed ten passes in a row"
                )
            continue
        consecutive_failures = 0
        theta = proposal
        completed += 1
        theta_trace.append(theta.copy())
        ll_trace.append(ll)
    return MifResult(
        values=merged(theta),
        log_likelihood=attempt(final, merged(theta))[0],
        theta_trace=np.array(theta_trace),
        loglik_trace=np.array(ll_trace),
        failed_iterations=failures,
    )
