"""Trajectory generation under the four process formalisms.

All steppers share the full state layout produced by CompiledModel:
compartments, then driven parameter coordinates on their transformed scale,
then accumulators.  The deterministic backend integrates the drift with
classic fourth-order Runge-Kutta; the diffusion backend takes Euler-Maruyama
steps with demographic, environmental and parameter-diffusion noise entering
through separate factor columns; the Poisson backend draws integer reaction
counts per time slice with competing exits handled as conditional binomials;
the jump backend simulates the underlying Markov jump process event by
event, one trajectory after another.

Environmental (white) noise multiplies the rates of the reactions in a noise
group by the increment of a gamma process with mean dt and variance sd^2 dt.
The Poisson backend draws those increments explicitly; the diffusion backend
uses the matching second-moment contribution.  The jump backend keeps rates
unmodulated between events.

The deterministic and diffusion backends make one call per observation
interval: `ode_step` and `sde_step` run every substep of the interval in
the model's generated `ode` and `sde` interval kernels, with the domain
check and the clamp after each substep.  The diffusion backend draws the
interval's normals in one call, in the (substep, noise row, state) layout
its kernel reads.  The Poisson backend also makes one call per interval,
`psr_step` looping over the interval's slices in numpy on a state held
one row per coordinate; within a slice, draws that do not depend on each
other share a numpy call, with the variates and order of one call per
draw.  A slice works only on the reactions that some row of the batch can
fire, through a plan cached per set of such reactions: the others would
draw nothing, so the variates are those of the full slice, except that a
noise group none of whose members can fire draws no gamma increments.
The jump backend makes one call of the generated `jump` kernel per
trajectory and interval, on Python floats, the trajectories of a batch
taking their variates from shared streams.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from ssm.compiled import FLOAT_FAILURES, DomainError

# dt=None everywhere means one tenth of the interval being advanced
SUBSTEPS_PER_INTERVAL = 10


# ----------------------------------------------------------------------
# substeps

def substeps(span, dt=None):
    """(n, h): the fewest equal substeps of length h <= dt that cover span,
    dt=None taking a tenth of the span."""
    if dt is None:
        dt = span / SUBSTEPS_PER_INTERVAL
    n_sub = max(1, int(np.ceil(span / dt - 1e-9)))
    return n_sub, span / n_sub


# ----------------------------------------------------------------------
# deterministic backend

def ode_step(cm, x, t, h, n_sub, params):
    """n_sub RK4 substeps of the drift over the full state, one call of the
    model's `ode` interval kernel."""
    return cm.ode(x, t, h, n_sub, params)


def integrate_ode(cm, x, t0, t1, params, dt=None):
    """Advance the deterministic system from t0 to t1 in substeps of at most
    dt, landing exactly on t1.  Raises DomainError if the state leaves the
    admissible region by more than integration tolerance."""
    span = t1 - t0
    if span <= 0:
        return np.array(x, dtype=float, copy=True)
    n_sub, h = substeps(span, dt)
    return ode_step(cm, x, t0, h, n_sub, params)


# ----------------------------------------------------------------------
# diffusion backend

def sde_step(cm, x, t, h, n_sub, params, rng):
    """n_sub Euler-Maruyama substeps of length h, one call of the model's
    `sde` interval kernel.

    Noise is applied through factor columns so that the increment covariance
    is exactly h times the assembled dispersion: one standard normal per
    reaction scaled by sqrt(propensity), one per noise group through the
    group column, one per driven parameter scaled by its volatility.  The
    interval's normals come from one draw of shape (n_sub, K, J), the
    layout the kernel reads: per substep, K rows (reactions, noise groups,
    driven parameters) of one normal per state of the batch.  A non-finite
    state raises DomainError, the whole draw taken.  Compartments and
    accumulators are clamped at zero after every substep.
    """
    x = np.asarray(x, dtype=float)
    state = x.reshape(-1, cm.nx).T.copy()
    k = cm.n_react + len(cm.noise_groups) + cm.n_diff
    xi = rng.standard_normal((n_sub, k, state.shape[1]))
    if cm.sde(state, t, h, n_sub, params, xi) < n_sub:
        raise DomainError("non-finite state during diffusion step")
    return state[:, 0].copy() if x.ndim == 1 else np.ascontiguousarray(state.T)


# ----------------------------------------------------------------------
# Poisson backend

class PsrPlan(NamedTuple):
    """The work of a Poisson slice with a given set of live rows, indexing
    the step's rows (`CompiledModel.step_order`)."""
    rows: object            # the live rows (a slice where consecutive)
    n_exit: int             # how many of them are per-capita exits
    exit_sources: object    # the state column of each live exit's source
    sources: object         # the state columns of sources with a live exit
    exit_groups: object     # the index in `sources` of each exit's source
    # per position within a source among the live exits (first exits, then
    # second, ...): the indices of the exits there and of their sources
    levels: tuple
    # the binomial calls: runs of consecutive live exits from different
    # sources, as (exits, sources); a source's next exit starts a run, as
    # its trials are what the exit before left
    runs: tuple
    # per live absolute-rate reaction: its index among the live rows, the
    # compartments it drains, and what a firing of each live row before it
    # and of itself takes from them
    caps: tuple
    stoich: np.ndarray      # the stoichiometry columns of the live rows
    noisy: tuple            # per noise group: is a member live?


def _span(idx):
    """An increasing run of distinct indices as a slice where it has no
    gaps, else as it is."""
    if len(idx) and idx[-1] - idx[0] == len(idx) - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _build_plan(cm, live):
    rows = np.flatnonzero(live)
    reactions = cm.step_order[rows]
    exits = rows[rows < len(cm.exit_reactions)]
    n_exit = len(exits)
    groups = cm.exit_groups[exits]
    live_groups, at_source = np.unique(groups, return_inverse=True)
    position = np.arange(n_exit) - np.searchsorted(groups, groups)
    levels = tuple(
        (np.flatnonzero(position == level), at_source[position == level])
        for level in range(position.max(initial=-1) + 1))
    cuts = [0, *np.flatnonzero(position > 0).tolist(), n_exit]
    runs = tuple((slice(a, b), _span(at_source[a:b]))
                 for a, b in zip(cuts, cuts[1:]) if b > a)
    removals = cm.removals[:, reactions]
    caps = []
    for row in range(n_exit, len(rows)):
        drains = np.flatnonzero(removals[:, row] > 0)
        caps.append((row, drains, removals[drains, :row],
                     removals[drains, row, None]))
    fires = np.zeros(cm.n_react, dtype=bool)
    fires[reactions] = True
    return PsrPlan(
        rows=_span(rows), n_exit=n_exit, exit_sources=cm.exit_sources[exits],
        sources=cm.source_columns[live_groups], exit_groups=at_source,
        levels=levels, runs=runs, caps=tuple(caps),
        stoich=cm.stoich_full[:, reactions],
        noisy=tuple(bool(fires[members].any())
                    for _, members in cm.noise_groups))


def psr_plan(cm, live):
    """The `PsrPlan` of a slice whose live rows, in the step's order, are
    the booleans `live`, built once per model and set."""
    key = live.tobytes()
    plan = cm.psr_plans.get(key)
    if plan is None:
        plan = cm.psr_plans[key] = _build_plan(cm, live)
    return plan


def psr_step(cm, x, t, h, n_sub, params, rng):
    """n_sub time slices of length h of the Poisson approximation with
    stochastic rates, in one call, for one state or a batch of shape
    (J, nx) whose parameter values may be per-row columns.

    Per source compartment, the members leaving within a slice follow a
    multinomial over the competing exits: with per-capita rates r_k and
    effective increments d_k, the exit probabilities are
    (1 - exp(-sum r d)) r_k d_k / sum r d, drawn as a cascade of conditional
    binomials.  The rates and probabilities of all exits are formed at once
    (sums run over the positions within a source, in listing order).
    Absolute-rate reactions fire Poisson counts, each capped, in listing
    order, by what is left of the compartments it drains after the exits
    and earlier removals of the slice, so no count can go negative.

    A slice draws, in turn: a gamma increment (mean h, variance sd^2 h)
    per noise group with a positive sd, the exit binomials source by source
    and exit by exit, the Poisson counts, a normal per driven parameter.
    Draws whose arguments do not depend on each other share a numpy call
    (the exits of a run, all Poisson counts), with the variates and
    generator state of one call per draw.

    A slice works only on its live rows: the reactions whose clipped
    propensity is positive in at least one row of the batch (an empty
    source and a zero rate both give 0), through the cached `psr_plan` of
    that set.  A dead reaction's binomial has a zero probability and its
    Poisson count a zero mean, which numpy answers with 0 without drawing,
    and it adds or subtracts only zeros in the hazard and tail sums and
    the count update, all exact; so skipping it leaves every variate, its
    arguments, the order of the draws and the generator's state as they
    would be with it.  A noise group none of whose member reactions is
    live draws no gamma increments: they would multiply zero rates only,
    so the counts and the law of the process are those with the draw, but
    the later variates of a seed shift.
    """
    x = np.asarray(x, dtype=float)
    state = x.reshape(-1, cm.nx).T.copy()
    j = state.shape[1]
    order = cm.step_order
    delta = np.full((len(order), j), h)
    # per noise group drawn: its index, rows, the columns drawn, gamma
    # shape and scale
    noises = []
    rank = np.argsort(order)
    for g, (sd_name, members) in enumerate(cm.noise_groups):
        sd = np.broadcast_to(np.asarray(params[sd_name], dtype=float), (j,))
        pos = sd > 0
        if np.any(pos):
            var = sd[pos] ** 2
            noises.append((g, rank[members, None], pos, h / var, var))
    counts = np.empty((len(order), j))
    sqrt_h = np.sqrt(h)
    for _ in range(n_sub):
        prop = cm.propensities(state.T, t, params).T[order]
        np.maximum(prop, 0.0, out=prop)
        if not np.isfinite(prop).all():
            raise DomainError("non-finite rate during Poisson step")
        plan = psr_plan(cm, prop.any(axis=1))
        for g, rows, pos, shape, scale in noises:
            if plan.noisy[g]:
                delta[rows, pos] = rng.gamma(shape, scale)
        # from here on, the live rows only
        prop, d = prop[plan.rows], delta[plan.rows]
        n_exit = plan.n_exit

        z = state[plan.exit_sources]
        rd = np.divide(prop[:n_exit], z, out=np.zeros(z.shape), where=z > 0)
        rd *= d[:n_exit]
        hazard = np.zeros((len(plan.sources), j))
        for at_level, groups in plan.levels:
            hazard[groups] += rd[at_level]
        p_leave = -np.expm1(-hazard)
        safe = np.where(hazard > 0, hazard, 1.0)
        q = p_leave[plan.exit_groups] * rd / safe[plan.exit_groups]
        # tail: the probability mass not yet assigned when each exit is
        # drawn
        tail = np.empty_like(q)
        unassigned = np.ones(hazard.shape)
        for at_level, groups in plan.levels:
            tail[at_level] = unassigned[groups]
            unassigned[groups] -= q[at_level]
        cond = np.divide(q, tail, out=np.zeros(q.shape), where=tail > 1e-12)
        np.clip(cond, 0.0, 1.0, out=cond)
        remaining = np.floor(state[plan.sources]).astype(np.int64)
        for at, groups in plan.runs:
            n = rng.binomial(remaining[groups], cond[at])
            counts[at] = n
            remaining[groups] -= n

        caps = plan.caps
        drawn = rng.poisson(prop[n_exit:] * d[n_exit:]) if caps else ()
        for (row, drains, before, each), n in zip(caps, drawn):
            if len(drains):
                # removals come out of what the exits and the earlier
                # removals left behind
                left = state[drains] - before @ counts[:row]
                n = np.minimum(n, np.floor(left / each).min(axis=0))
            counts[row] = n

        new = state + plan.stoich @ counts[:len(prop)]
        # reachable only by a per-capita reaction that drains more than one
        # member of its source, or another compartment
        if (new[cm.comp_slice] < 0.0).any():
            raise DomainError("Poisson step overdrew a compartment")
        if cm.n_diff:
            drift_vols = cm.driven(state.T, np.asarray(t, dtype=float),
                                   params).T
            xi = rng.standard_normal((cm.n_diff, j))
            new[cm.diff_slice] = (state[cm.diff_slice]
                                  + h * drift_vols[:cm.n_diff]
                                  + sqrt_h * drift_vols[cm.n_diff:] * xi)
        state = new
        t += h
    return state[:, 0].copy() if x.ndim == 1 else np.ascontiguousarray(state.T)


# ----------------------------------------------------------------------
# jump backend

# variates drawn per block by each stream of the jump kernel; a block is
# drawn when the stream runs dry, so it is a constant, not an option
JUMP_BLOCK = 512


def jump_streams(rng):
    """The exponential, uniform and normal variates the jump kernel takes
    with next(), as Python floats, each drawn from rng JUMP_BLOCK at a time
    when its stream runs dry."""
    return tuple(
        chain.from_iterable(map(np.ndarray.tolist,
                                map(draw, repeat(JUMP_BLOCK))))
        for draw in (rng.standard_exponential, rng.random,
                     rng.standard_normal))


def _jump_rows(kernel, scalar, rows, t0, t1, dt_max, params, rng):
    """One kernel call per row of `rows`, with the row's parameter columns
    and the times converted by `scalar`; the rows share one set of
    streams.  A complex result is a TypeError."""
    streams = jump_streams(rng)
    n = len(rows)
    p = {k: scalar(v) for k, v in params.items() if not np.ndim(v)}
    columns = {k: list(map(scalar, np.broadcast_to(v, n)))
               for k, v in params.items() if np.ndim(v)}
    times = scalar(t0), scalar(t1), scalar(dt_max)
    out = []
    for j, row in enumerate(rows):
        p.update({k: col[j] for k, col in columns.items()})
        out.append(kernel(row, *times, p, *streams))
    return np.array(out, dtype=float)


def gillespie_interval(cm, x, t0, t1, params, rng, dt_max=None):
    """Exact simulation of the jump process over [t0, t1] for one state or
    a batch, one call of the model's `jump` kernel per row (see
    `kernels.jump_source`); parameter values may be per-row columns.

    Rates are frozen at the current state between events; a wait beyond
    dt_max is discarded and the clock advanced by dt_max, so time-varying
    rates and driven parameters are refreshed at least that often.  A
    reaction that would overdraw a compartment has zero propensity, and a
    non-finite total raises DomainError.  Driven parameters move by
    Euler-Maruyama over each elapsed stretch.  The rows run in turn on
    Python floats, taking their variates from one set of `jump_streams`, so
    a row's draws depend on the rows before it in the batch.  Where Python
    float arithmetic raises (or turns complex) in any row, the whole call
    runs again on numpy scalars from the generator state at entry, so the
    result is numpy's.
    """
    x = np.asarray(x, dtype=float)
    rows = x.reshape(-1, cm.nx)
    if dt_max is None:
        dt_max = (t1 - t0) / SUBSTEPS_PER_INTERVAL
    kernel, on_numpy = cm.jump
    start = rng.bit_generator.state
    try:
        out = _jump_rows(kernel, float, rows.tolist(), t0, t1, dt_max,
                         params, rng)
    except FLOAT_FAILURES:
        rng.bit_generator.state = start
        out = _jump_rows(on_numpy(), np.float64, rows, t0, t1, dt_max,
                         params, rng)
    return out.reshape(x.shape)


# ----------------------------------------------------------------------
# dispatch

FORMALISMS = ("ode", "sde", "psr", "jump")


def advance(cm, x, t0, t1, params, rng=None, formalism="ode", dt=None):
    """Advance states from t0 to t1 under the chosen formalism, applying
    substeps of at most dt; dt=None takes a tenth of the interval.  x may
    be a single state or a batch."""
    if t1 - t0 <= 0:
        return np.array(x, dtype=float, copy=True)
    if formalism == "ode":
        return integrate_ode(cm, x, t0, t1, params, dt=dt)
    if formalism == "jump":
        return gillespie_interval(cm, x, t0, t1, params, rng, dt_max=dt)
    if formalism not in ("sde", "psr"):
        raise ValueError(f"unknown formalism: {formalism!r}")
    n_sub, h = substeps(t1 - t0, dt)
    step = sde_step if formalism == "sde" else psr_step
    return step(cm, x, t0, h, n_sub, params, rng)


def simulate_paths(cm, params, times, formalism="ode", rng=None,
                   trajectories=1, dt=None):
    """Simulate forward from the parameter-determined initial state.

    times is an increasing grid whose first entry is the initial time; the
    result has shape (trajectories, len(times), nx) with accumulators
    growing monotonically (no windowed resets here).
    """
    times = np.asarray(times, dtype=float)
    if rng is None:
        rng = np.random.default_rng(0)
    x = cm.init_state(params, size=trajectories)
    out = np.empty((trajectories, len(times), cm.nx))
    out[:, 0] = x
    for i in range(1, len(times)):
        x = advance(cm, x, times[i - 1], times[i], params, rng=rng,
                    formalism=formalism, dt=dt)
        out[:, i] = x
    return out
