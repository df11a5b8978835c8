"""Trajectory generation under the four process formalisms.

All steppers share the full state layout produced by CompiledModel:
compartments, then driven parameter coordinates on their transformed scale,
then accumulators; they take and return a batch as (nx, J), a column per
state, and only `ode_step` also takes one state.  The deterministic backend
integrates the drift with classic fourth-order Runge-Kutta; the diffusion
backend takes Euler-Maruyama steps with demographic, environmental and
parameter-diffusion noise entering through separate factor columns; the
Poisson backend draws integer reaction counts per time slice with competing
exits handled as conditional binomials; the jump backend simulates the
underlying Markov jump process event by event, one trajectory after another.

Environmental (white) noise multiplies the rates of the reactions in a noise
group by the increment of a gamma process with mean dt and variance sd^2 dt.
The Poisson backend draws those increments explicitly; the diffusion backend
uses the matching second-moment contribution.  The jump backend keeps rates
unmodulated between events.

The deterministic and diffusion backends make one call per observation
interval: `ode_step` and `sde_step` run every substep of the interval in
the model's generated `ode` and `sde` interval kernels, with the domain
check and the clamp after each substep.  The diffusion kernel draws the
interval's normals in one call, in the (substep, noise row, state) layout
it reads, once the first substep's propensities are formed.  The Poisson
backend also makes one call per interval, `psr_step` looping over the
interval's slices in numpy on a state held one row per coordinate; within a
slice, draws that do not depend on each other share a numpy call, with the
variates and order of one call per draw.  Each slice starts with one call
of the model's generated `psr` kernel (`psr_source`), which writes the
propensities in the order the slice draws them, and the driven drifts and
volatilities, into the rows of one buffer.  A slice works only on the
reactions that some row of the batch can fire, through a plan cached per
set of such reactions, in buffers made once per call: the other reactions
would draw nothing, so the variates are those of the full slice, except
that a noise group none of whose members can fire draws no gamma
increments.
The jump backend makes one call of the generated `jump` kernel per
trajectory and interval, on Python floats, the trajectories of a batch
taking their variates from shared streams.

A model is static (`CompiledModel.static`) when it has no driven
parameter and no propensity reads the time.  There a batch whose
propensities are all zero is at a fixed point, as an extinct epidemic is:
the diffusion stepper returns it at once, drawing nothing for the rest of
the interval.  The Poisson stepper draws nothing there either, slice by
slice.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from ssm import expr as ex
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


# ----------------------------------------------------------------------
# diffusion backend

def sde_step(cm, x, t, h, n_sub, params, rng):
    """n_sub Euler-Maruyama substeps of length h over a batch laid out
    (nx, J), one call of the model's `sde` interval kernel on a copy.
    The kernel works in the scratch the model keeps for the batch width
    (`CompiledModel.work`); the caller receives the copy, never that
    scratch; a call still makes the copy and what `kernels.sde_source`
    names.

    Noise is applied through factor columns so that the increment covariance
    is exactly h times the assembled dispersion: one standard normal per
    reaction scaled by sqrt(propensity), one per noise group through the
    group column, one per driven parameter scaled by its volatility.  The
    kernel draws the interval's normals from rng in one call of shape
    (n_sub, K, J), the layout it reads: per substep, K rows (reactions,
    noise groups, driven parameters) of one normal per state of the batch.
    A non-finite state raises DomainError, the whole draw taken.
    Compartments and accumulators are clamped at zero after every substep.

    On a static model (`CompiledModel.static`), a batch whose
    propensities are all exactly zero in every row cannot move: it comes
    back clamped at zero, as the substeps would leave it, and nothing is
    drawn.  The later variates of a seed shift, but not the law of the
    process.
    """
    state = np.array(x, dtype=float)
    if cm.sde(state, t, h, n_sub, params, rng.standard_normal) < n_sub:
        raise DomainError("non-finite state during diffusion step")
    return state


# ----------------------------------------------------------------------
# Poisson backend

# the least positive float: a floor that leaves every positive value as it
# is and turns a zero divisor into one that gives 0/x = 0
TINY = 5e-324


def psr_source(cm):
    """Source of `psr(x, t, p, out)` for a batch x laid out as (nx, J), one
    row per state column: it writes into the rows of out the propensity
    of every reaction, in the step's order (`CompiledModel.step_order`),
    then the drift and then the volatility of every driven parameter.
    Where a propensity reads the state, its operations write into its row
    directly (`expr.to_python_into`), so no intermediate array is made;
    each value is that of the `rates` and `drift` kernels bit for bit."""
    names = set(cm.state_names)
    needed = set(cm._blocks["rates"][1])
    driven = [f"_d{i}" for i in range(cm.nx)[cm.diff_slice]]
    driven += [f"_v{d}" for d in range(cm.n_diff)]
    if driven:
        needed |= cm._blocks["driven"][1] | cm._blocks["vols"][1]
    lines = ["def psr(x, t, p, out):"]
    cm._prologue(lines, needed, unpack="x")
    rows = [f"_r{k}" for k in cm.step_order] + [f"_w{d}" for d in driven]
    if rows:
        lines.append(f"    {''.join(row + ', ' for row in rows)}= out")
    for k, tree in enumerate(cm._prop_exprs):
        lines += ex.to_python_into(tree, cm._resolve, f"_r{k}", names)
    if driven:
        lines += cm._blocks["driven"][0] + cm._blocks["vols"][0]
        lines += [f"    _w{d}[...] = {d}" for d in driven]
    return "\n".join(lines) + "\n"


class PsrPlan(NamedTuple):
    """The work of a Poisson slice with a given set of live rows, indexing
    the step's rows (`CompiledModel.step_order`).

    The exits' arithmetic runs level-major: first the first live exit of
    every source with one, then the second ones, and so on, the sources
    of each level ordered by their number of live exits (most first), so
    that the sources with an exit at a level are a leading block of the
    first level's."""
    n_exit: int             # how many live rows are per-capita exits
    order: object           # the step row of each exit, level-major
    exit_sources: object    # the state column of each exit's source, the same
    # per level: its block of exits and how many sources have one
    levels: tuple
    cascade: object         # the level-major index of each exit, in step order
    sources: object         # the state columns of sources with a live exit
    # the binomial calls: runs of consecutive live exits from different
    # sources, as (exits, sources); a source's next exit starts a run, as
    # its trials are what the exit before left
    runs: tuple
    absolute: object        # the step rows of the live absolute-rate reactions
    # per live absolute-rate reaction: its index among the live rows, the
    # compartments it drains, and what a firing of each live row before it
    # and of itself takes from them
    caps: tuple
    stoich: np.ndarray      # the stoichiometry columns of the live rows
    noisy: tuple            # per noise group: is a member live?


def _span(idx):
    """Indices as a slice where they run up one by one, else as they
    are."""
    if len(idx) and np.array_equal(idx, np.arange(idx[0], idx[0] + len(idx))):
        return slice(int(idx[0]), int(idx[0]) + len(idx))
    return idx


def _build_plan(cm, live):
    rows = np.flatnonzero(live)
    reactions = cm.step_order[rows]
    exits = rows[rows < len(cm.exit_reactions)]
    n_exit = len(exits)
    groups = cm.exit_groups[exits]
    live_groups, at_source = np.unique(groups, return_inverse=True)
    position = np.arange(n_exit) - np.searchsorted(groups, groups)
    # sources by their number of live exits, most first; exits by level,
    # then by the rank of their source
    rank = np.argsort(np.argsort(-np.bincount(at_source), kind="stable"))
    order = np.lexsort((rank[at_source], position))
    bounds = np.searchsorted(position[order], np.arange(position.max(
        initial=-1) + 2))
    levels = tuple((slice(int(a), int(b)), int(b - a))
                   for a, b in zip(bounds, bounds[1:]))
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
        n_exit=n_exit, order=_span(exits[order]),
        exit_sources=_span(cm.exit_sources[exits[order]]), levels=levels,
        cascade=_span(np.argsort(order)),
        sources=_span(cm.source_columns[live_groups]), runs=runs,
        absolute=_span(rows[n_exit:]), caps=tuple(caps),
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


def _rows(a, idx, out=None):
    """The rows idx of a: a view where idx is a slice, else taken (into
    out, if given)."""
    if type(idx) is slice:
        return a[idx]
    # the plan's indices are in range: with mode "clip" take writes into
    # out without a buffer
    return a.take(idx, 0, out, "clip")


class _Work:
    """The scratch of `psr_step` for a batch of width j, kept per model
    and width (`CompiledModel.work`): the state buffer that takes turns
    with the step's copy; the `psr` kernel's rows (propensities in step
    order, driven drifts, volatilities) and the counts; and the exits'
    buffers, sized for every exit and source of the model, a plan working
    in their leading rows.  Per exit, in the plan's level-major order:
    rate times increment, share q, binomial probability (before that, the
    propensities and increments taken in the plan's order); per source:
    hazard, leave probability (after that, its state), whole members and
    the share not yet assigned.  Also the rank of each reaction in the
    step's order."""

    def __init__(self, cm, j):
        n_rows = len(cm.step_order)
        self.new = np.empty((cm.nx, j))
        self.out = np.empty((n_rows + 2 * cm.n_diff, j))
        self.prop, self.drift, self.vol = np.split(
            self.out, [n_rows, n_rows + cm.n_diff])
        self.counts = np.empty((n_rows, j))
        self.rank = np.argsort(cm.step_order)
        exits, sources = len(cm.exit_reactions), len(cm.source_columns)
        self.rd, self.q, self.cond = (np.empty((exits, j)) for _ in range(3))
        self.hazard, self.leave, self.tail = (np.empty((sources, j))
                                              for _ in range(3))
        self.remaining = np.empty((sources, j), dtype=np.int64)


def _exit_probabilities(plan, w, state, prop, h, delta):
    """The probability of each live exit's binomial, in step order: its
    share q of its source's leavers over the share not yet assigned when it
    is drawn, 0 where that is not above 1e-12, clipped to [0, 1].  The work
    runs level-major in the leading rows of the buffers `w`."""
    levels = plan.levels
    rd, q, cond = w.rd[:plan.n_exit], w.q[:plan.n_exit], w.cond[:plan.n_exit]
    hazard, leave = w.hazard[:levels[0][1]], w.leave[:levels[0][1]]
    # rate times increment: the propensity over its source, floored at
    # TINY so that an empty source gives 0, times the increment
    np.maximum(_rows(state, plan.exit_sources, rd), TINY, out=rd)
    np.divide(_rows(prop, plan.order, q), rd, out=rd)
    rd *= h if delta is None else _rows(delta, plan.order, cond)
    # hazard per source, its exits' terms summed in listing order; leave =
    # 1 - exp(-hazard); an exit's share q = leave rd / hazard
    np.copyto(hazard, rd[levels[0][0]])
    for at, n in levels[1:]:
        np.add(hazard[:n], rd[at], out=hazard[:n])
    np.negative(hazard, out=leave)
    np.expm1(leave, out=leave)
    np.negative(leave, out=leave)
    safe = np.maximum(hazard, TINY, out=hazard)
    # at the first level the whole share is unassigned, and q is the
    # probability as it is: a term of a sum of nonnegative terms is at most
    # the rounded sum, so q lies in [0, 1] as rounded too
    for i, (at, n) in enumerate(levels):
        share = q[at] if i else cond[at]
        np.multiply(leave[:n], rd[at], out=share)
        np.divide(share, safe[:n], out=share)
    for i, (at, n) in enumerate(levels[1:]):
        tail = w.tail[:n]
        before = q[levels[i][0]] if i else cond
        np.subtract(tail if i else 1.0, before[:n], out=tail)
        if np.minimum.reduce(tail, axis=None) <= 1e-12:
            # q over inf: 0, where no mass is left
            tail = np.where(tail > 1e-12, tail, np.inf)
        np.divide(q[at], tail, out=cond[at])
        np.clip(cond[at], 0.0, 1.0, out=cond[at])
    return _rows(cond, plan.cascade, q)


def psr_step(cm, x, t, h, n_sub, params, rng):
    """n_sub time slices of length h of the Poisson approximation with
    stochastic rates, in one call, for a batch laid out (nx, J) whose
    parameter values may be per-state columns.

    Per source compartment, the members leaving within a slice follow a
    multinomial over the competing exits: with per-capita rates r_k and
    effective increments d_k, the exit probabilities are
    (1 - exp(-sum r d)) r_k d_k / sum r d, drawn as a cascade of conditional
    binomials.  The rates and probabilities of all exits are formed at once
    (sums run over the positions within a source, in listing order).
    Absolute-rate reactions fire Poisson counts, each capped, in listing
    order, by what is left of the compartments it drains after the exits
    and earlier removals of the slice, so no count can go negative.  The
    counts, integers, are combined by the stoichiometry exactly and added
    to the state once.

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
    the later variates of a seed shift.  A slice with no live reaction and
    no driven parameter draws nothing at all.

    The batch is held one row per coordinate, in its copy and one more
    buffer that take turns; the model's `psr` kernel (`psr_source`) writes
    the propensities into the rows of one buffer in the step's order, and
    the exits' work runs in more buffers.  Those buffers are the scratch
    kept per model and width (`_Work`): each slice writes them before it
    reads them, and what the caller receives is the copy, never them.
    """
    copy = state = np.array(x, dtype=float)
    j = state.shape[1]
    w = cm.work("psr", j, _Work)
    new, out, prop, drift, vol, counts = (w.new, w.out, w.prop, w.drift,
                                          w.vol, w.counts)
    # per noise group drawn: its index, rows, the columns drawn, gamma
    # shape and scale
    noises = []
    for g, (sd_name, members) in enumerate(cm.noise_groups):
        sd = np.broadcast_to(np.asarray(params[sd_name], dtype=float), (j,))
        pos = sd > 0
        if np.any(pos):
            var = sd[pos] ** 2
            noises.append((g, w.rank[members, None], pos, h / var, var))
    delta = np.full((len(cm.step_order), j), h) if noises else None
    sqrt_h = np.sqrt(h)
    for _ in range(n_sub):
        cm.psr(state, np.asarray(t, dtype=float), params, out)
        np.maximum(prop, 0.0, out=prop)
        top = np.maximum.reduce(prop, axis=1, initial=0.0)
        if not np.maximum.reduce(top, initial=0.0) < np.inf:
            raise DomainError("non-finite rate during Poisson step")
        plan = psr_plan(cm, top > 0.0)
        for g, rows, pos, shape, scale in noises:
            if plan.noisy[g]:
                delta[rows, pos] = rng.gamma(shape, scale)

        if plan.n_exit:
            cond = _exit_probabilities(plan, w, state, prop, h, delta)
            n_source = plan.levels[0][1]
            remaining = np.floor(
                _rows(state, plan.sources, w.leave[:n_source]),
                out=w.remaining[:n_source], casting="unsafe")
            for at, groups in plan.runs:
                n = rng.binomial(remaining[groups], cond[at])
                counts[at] = n
                remaining[groups] -= n
        if plan.caps:
            mean = _rows(prop, plan.absolute)
            drawn = rng.poisson(mean * (
                h if delta is None else _rows(delta, plan.absolute)))
            for (row, drains, before, each), n in zip(plan.caps, drawn):
                if len(drains):
                    # removals come out of what the exits and the earlier
                    # removals left behind
                    left = state[drains] - before @ counts[:row]
                    n = np.minimum(n, np.floor(left / each).min(axis=0))
                counts[row] = n

        np.matmul(plan.stoich, counts[:plan.stoich.shape[1]], out=new)
        np.add(new, state, out=new)
        # reachable only by a per-capita reaction that drains more than one
        # member of its source, or another compartment
        if np.minimum.reduce(new[cm.comp_slice], axis=None,
                             initial=0.0) < 0.0:
            raise DomainError("Poisson step overdrew a compartment")
        if cm.n_diff:
            xi = rng.standard_normal((cm.n_diff, j))
            new[cm.diff_slice] = (state[cm.diff_slice] + h * drift
                                  + sqrt_h * vol * xi)
        state, new = new, state
        t += h
    if state is not copy:
        # the caller receives the copy, never the scratch
        np.copyto(copy, state)
    return copy


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
    """Exact simulation of the jump process over [t0, t1] for a batch laid
    out (nx, J), one call of the model's `jump` kernel per column (see
    `kernels.jump_source`); parameter values may be per-column arrays.

    Rates are frozen at the current state between events; a wait beyond
    dt_max is discarded and the clock advanced by dt_max, so time-varying
    rates and driven parameters are refreshed at least that often.  A
    reaction that would overdraw a compartment has zero propensity, and a
    non-finite total raises DomainError.  Driven parameters move by
    Euler-Maruyama over each elapsed stretch.  The states run in turn on
    Python floats, taking their variates from one set of `jump_streams`, so
    a state's draws depend on the states before it.  Where Python float
    arithmetic raises (or turns complex) for any state, the whole call
    runs again on numpy scalars from the generator state at entry, so the
    result is numpy's.
    """
    rows = np.asarray(x, dtype=float).T
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
    return np.ascontiguousarray(out.T)


# ----------------------------------------------------------------------
# dispatch

FORMALISMS = ("ode", "sde", "psr", "jump")


def advance(cm, x, t0, t1, params, rng=None, formalism="ode", dt=None):
    """Advance a batch laid out (nx, J), or under ode one state, from t0 to
    t1: ode, sde and psr in `substeps` of at most dt (dt=None takes a
    tenth of the interval), jump with rates refreshed at least every dt.
    Raises DomainError when a state leaves the admissible region."""
    if t1 - t0 <= 0:
        return np.array(x, dtype=float, copy=True)
    if formalism == "jump":
        return gillespie_interval(cm, x, t0, t1, params, rng, dt_max=dt)
    if formalism not in FORMALISMS:
        raise ValueError(f"unknown formalism: {formalism!r}")
    n_sub, h = substeps(t1 - t0, dt)
    if formalism == "ode":
        return ode_step(cm, x, t0, h, n_sub, params)
    step = sde_step if formalism == "sde" else psr_step
    return step(cm, x, t0, h, n_sub, params, rng)


def simulate_paths(cm, params, times, formalism="ode", rng=None,
                   trajectories=1, dt=None):
    """Simulate forward from the parameter-determined initial state.

    times is an increasing grid whose first entry is the initial time; the
    result has shape (trajectories, len(times), nx), each time's batch
    transposed, accumulators growing monotonically (no windowed resets).
    """
    times = np.asarray(times, dtype=float)
    if rng is None:
        rng = np.random.default_rng(0)
    x = cm.init_state(params, size=trajectories)
    out = np.empty((trajectories, len(times), cm.nx))
    out[:, 0] = x.T
    for i in range(1, len(times)):
        x = advance(cm, x, times[i - 1], times[i], params, rng=rng,
                    formalism=formalism, dt=dt)
        out[:, i] = x.T
    return out
