"""Random-walk Metropolis on the unconstrained scale, with adaptation.

The proposal is a two-component mixture: a fixed component built from the
initial covariance guess, and an adapted component scaled by 2.38^2/d around
the empirical covariance of the whole chain so far (rejection repeats
included), kept as a running mean and sum of squared deviations (Welford's
update, as in Haario, Saksman & Tamminen 2001, Bernoulli 7:223).  A global
step multiplier chases a 23.4% acceptance rate with a geometrically cooling
learning rate, so adaptation provably dies out.

The same engine serves both the moment-filter chain and the particle chain;
for the latter the incumbent's likelihood estimate is stored and never
recomputed, which keeps the stationary distribution exact despite the noisy
estimates (Andrieu & Roberts 2009, Ann. Statist. 37:697).

Each iteration draws, in this order: the mixture uniform (once adapting,
after BURN_FLOOR draws), the proposal's standard normals, then the
acceptance uniform u.  u is drawn before the proposal is scored, so the
target learns the bar its log posterior must exceed,
`bar = log u + (incumbent log likelihood + log prior)`, and the proposal
is accepted iff `loglik > bar - logprior`: the Metropolis rule
`log u < log ratio`.  This allows early rejection (Solonen et al. 2012,
Bayesian Analysis 7:715): on a model whose streams are all count streams
every term a filter adds has a ceiling (0 for the particle filter's
per-instant terms, -log(2 pi)/2 for each of the moment filter's updates),
so a filter stops once its running sum plus the ceiling of every term
still to come has fallen to `bar - logprior`, and returns that bound
(`ssm.filters`).  The stopped estimate is rejected, as the full one would
have been, and since only accepted estimates are ever stored the chain's
law is unchanged.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from typing import NamedTuple

import numpy as np

from ssm.filters import FilterError
# the benchmark tracer (perfbench/tracer.py) patches these two names here
from ssm.filters import ekf_filter, smc_filter  # noqa: F401
from ssm.observe import DataError
from ssm.optimize import backend, log_posterior

TARGET_ACCEPT = 0.234
OPT_SCALE = 2.38 ** 2   # over d, a d-dimensional proposal's covariance factor
MIX_FIXED = 0.05
BURN_FLOOR = 200        # draws from the fixed component before adapting
ADAPT_COOLING = 0.999   # per-iteration decay of the step multiplier's rate
BURN_FRACTION = 0.1     # leading share of a chain left out of its summaries


class Trace:
    """A chain's rows: per iteration the parameter values on the natural
    scale, (n, d), the log likelihood, the natural-scale log prior and
    whether the proposal was accepted."""

    __slots__ = ("names", "values", "loglik", "logprior", "accepted")

    def __init__(self, names, values, loglik, logprior, accepted):
        self.names = names
        self.values = values
        self.loglik = loglik
        self.logprior = logprior
        self.accepted = accepted

    def __len__(self):
        return len(self.loglik)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", *self.names, "log_likelihood",
                        "log_prior", "accepted"])
            for i in range(len(self)):
                w.writerow(
                    [i]
                    + [repr(float(v)) for v in self.values[i]]
                    + [repr(float(self.loglik[i])),
                       repr(float(self.logprior[i])),
                       int(self.accepted[i])]
                )

    @classmethod
    def from_csv(cls, path):
        """Read what `to_csv` writes; any other file is a DataError."""
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            header = next(r, [])
            if header[:1] != ["iteration"] or header[-3:] != [
                "log_likelihood", "log_prior", "accepted"
            ]:
                raise DataError(f"{path}: not a chain trace")
            names = header[1:-3]
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise DataError(f"{path}: parameter column '{name}' is repeated")
            rows = []
            for row in filter(None, r):
                if len(row) != len(header):
                    raise DataError(f"{path}:{r.line_num}: expected "
                                    f"{len(header)} cells, got {len(row)}")
                try:
                    rows.append([*map(float, row[1:-1]), int(row[-1])])
                except ValueError:
                    raise DataError(f"{path}:{r.line_num}: a cell is not "
                                    f"a number") from None
                # a chain that starts at an invalid point writes -inf as
                # its log likelihood, never as a parameter value
                if not all(map(math.isfinite, rows[-1][:-3])):
                    raise DataError(f"{path}:{r.line_num}: a parameter "
                                    f"value is not finite")
        cells = np.array(rows, dtype=float).reshape(len(rows),
                                                    len(header) - 1)
        return cls(tuple(names), cells[:, :-3], cells[:, -3],
                   cells[:, -2], cells[:, -1] != 0)


def ess(series):
    """Effective sample size from the autocorrelation time, truncated at the
    first lag whose autocorrelation falls below 0.05, and capped at 1.05 n.

    A constant chain carries one effective draw at most: every lag is taken
    as perfectly correlated.
    """
    x = np.asarray(series, dtype=float)
    n = len(x)
    if n < 2:
        return float(n)
    centered = x - x.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        return n / (1.0 + 2.0 * (n - 1))
    rho_sum = 0.0
    for k in range(1, n):
        rho = float(centered[:-k] @ centered[k:]) / denom
        if rho < 0.05:
            break
        rho_sum += rho
    return float(min(n / (1.0 + 2.0 * rho_sum), 1.05 * n))


def _cholesky(cov):
    d = cov.shape[0]
    jitter = 1e-12
    for _ in range(12):
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(d))
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise FilterError("proposal covariance is not positive definite")


class ChainResult(NamedTuple):
    unconstrained: np.ndarray
    loglik: np.ndarray
    accepted: np.ndarray
    payloads: list
    acceptance_rate: float


def adaptive_chain(target, u0, sigma0, rng, iterations, *, adapt=True):
    """Metropolis chain over `target(u, bar) -> (loglik, logprior_u,
    payload)`.

    `bar` is None for the starting point and, for a proposal, the log
    posterior it must exceed; a target may return any log likelihood at or
    below `bar - logprior_u` for a proposal it can tell will fall short.
    payload travels with the accepted state (the particle chain stores its
    sampled trajectory there); where the likelihood or the prior is zero,
    it is the cause, an exception (`optimize.log_posterior`).  Proposals
    with non-finite posterior are rejected outright, and the incumbent
    values are re-recorded.  A start of zero density is a FilterError,
    which names the cause there where the payload is an exception.
    """
    u = np.asarray(u0, dtype=float).copy()
    d = u.size
    ll, lp, payload = target(u, None)
    if not np.isfinite(ll + lp):
        reason = f": {payload}" if isinstance(payload, Exception) else ""
        raise FilterError(
            f"chain cannot start from a zero-density point{reason}")
    chol_fixed = _cholesky(np.asarray(sigma0, dtype=float))
    lam = 1.0
    opt_scale = OPT_SCALE / d
    mean = u.copy()
    m2 = np.zeros((d, d))   # sum of outer products of deviations from mean
    count = 1
    window = deque(maxlen=100)
    us = np.empty((iterations, d))
    lls = np.empty(iterations)
    acc = np.zeros(iterations, dtype=bool)
    payloads = [None] * iterations
    for i in range(iterations):
        use_fixed = (not adapt) or count <= BURN_FLOOR \
            or rng.random() < MIX_FIXED
        if use_fixed:
            chol = chol_fixed
            scale = lam if adapt else 1.0
        else:
            chol = _cholesky(opt_scale * (m2 / count))
            scale = lam
        v = u + scale * (chol @ rng.standard_normal(d))
        bar = np.log(rng.random()) + ll + lp
        ll_new, lp_new, payload_new = target(v, bar)
        accepted = bool(np.isfinite(ll_new + lp_new)
                        and ll_new > bar - lp_new)
        if accepted:
            u, ll, lp, payload = v, ll_new, lp_new, payload_new
        window.append(1.0 if accepted else 0.0)
        if adapt:
            rate = sum(window) / len(window)
            lam *= np.exp((ADAPT_COOLING ** i) * (rate - TARGET_ACCEPT))
        count += 1
        delta = u - mean
        mean = mean + delta / count
        m2 = m2 + np.outer(delta, delta) * ((count - 1) / count)
        us[i] = u
        lls[i] = ll
        acc[i] = accepted
        payloads[i] = payload if accepted else None
    return ChainResult(
        unconstrained=us, loglik=lls, accepted=acc,
        payloads=payloads,
        acceptance_rate=float(acc.mean()) if iterations else 0.0,
    )


def _finish(space, base_values, chain):
    burn = int(BURN_FRACTION * len(chain.loglik))
    kept = chain.unconstrained[burn:]
    cov_u = np.cov(kept.T, ddof=1).reshape(space.dim, space.dim) \
        if len(kept) > 1 else None
    nat = space.natural_columns(chain.unconstrained)
    values = np.column_stack([nat[name] for name in space.names])
    mean_values = dict(base_values)
    if len(kept):
        for k, name in enumerate(space.names):
            mean_values[name] = float(values[burn:, k].mean())
    trace = Trace(
        names=space.names, values=values, loglik=chain.loglik,
        logprior=space.log_prior_natural(nat), accepted=chain.accepted,
    )
    return trace, mean_values, cov_u


class McmcResult(NamedTuple):
    trace: Trace
    mean_values: dict             # after burn-in; base values if none kept
    covariance: np.ndarray | None  # unconstrained; None below 2 kept rows
    acceptance_rate: float
    paths: list                   # (iteration, path array) pairs
    times: np.ndarray | None
    # over the filter runs that returned an estimate: those that stopped
    # before the last instant, the instants filtered, and the instants
    # full runs would have filtered
    early_rejections: int
    instants_run: int
    instants_full: int


def _chain_stage(space, base_values, run, n_obs, rng, iterations, sigma0,
                 adapt, times=None):
    """Chain over the log posterior with the likelihood backend `run` on
    n_obs instants."""
    tally = [0, 0, 0]

    def counted(values, floor=None):
        res = run(values, floor=floor)
        tally[0] += res.instants < n_obs
        tally[1] += res.instants
        tally[2] += n_obs
        return res

    target = log_posterior(space, base_values, counted)
    u0 = space.to_unconstrained(base_values)
    chain = adaptive_chain(target, u0, sigma0, rng, iterations, adapt=adapt)
    trace, mean_values, cov_u = _finish(space, base_values, chain)
    paths = [
        (i, p) for i, p in enumerate(chain.payloads) if p is not None
    ]
    return McmcResult(
        trace=trace, mean_values=mean_values, covariance=cov_u,
        acceptance_rate=chain.acceptance_rate, paths=paths, times=times,
        early_rejections=tally[0], instants_run=tally[1],
        instants_full=tally[2],
    )


def kmcmc_stage(cm, dataset, space, base_values, t0, rng, *, iterations,
                sigma0, adapt=True, dt=None):
    """Chain over the moment-filter likelihood."""
    return _chain_stage(space, base_values,
                        backend(cm, dataset, t0, "ekf", dt=dt), len(dataset),
                        rng, iterations, sigma0, adapt)


def pmcmc_stage(cm, dataset, space, base_values, t0, rng, *, iterations,
                sigma0, n_particles=500, formalism="psr", adapt=False,
                dt=None, keep_paths=True):
    """Pseudo-marginal chain over the particle-filter estimate.

    The incumbent's estimate is stored, never refreshed; each accepted state
    carries one trajectory drawn from the filter's ancestry."""
    run = backend(cm, dataset, t0, "smc", rng=rng, n_particles=n_particles,
                  formalism=formalism, dt=dt, return_path=keep_paths)
    return _chain_stage(space, base_values, run, len(dataset), rng,
                        iterations, sigma0, adapt, times=dataset.times)
