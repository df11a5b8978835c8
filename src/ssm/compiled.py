"""Compilation of a ModelSpec into fast numeric evaluators.

The state vector is laid out as

    x = [compartments | driven parameter coordinates | accumulators]

where a driven (diffusing) parameter occupies one coordinate on its
transformed scale and rate formulas see the natural-scale quantity.  From the
declared reactions we build, symbolically, the propensity of each reaction,
the drift of every coordinate and the exact Jacobian of the drift, and emit
straight-line Python source for them, with the stoichiometry, noise-group
membership and Jacobian sparsity folded in.  Scalar kernels bind the math
functions to math.* (one state); vector kernels bind them to numpy.* so a
whole swarm of J states, or per-particle parameter values, goes through in
one call.  A swarm is laid out (nx, J), one column per state, from
`init_state` through every stepper, filter and batch kernel; one state is
stepped only by `ode` and `moments`.

Each stage gets a kernel shaped to what it runs per substep or per
observation instant, generated and compiled the first time it is used:

    psr      a Poisson slice's propensities in step order, then driven
             drifts and volatilities, for a batch laid out (nx, J)
    ode      every RK4 substep of one observation interval, for one state
             or a batch
    moments  every RK4 substep of one interval of the moment equations,
             over [mean, upper triangle of covariance], and the update
             by each stream in that layout, for the moment filter
    sde      every Euler-Maruyama substep of one interval over a batch of
             states, drawing the interval's normals as one array laid out
             (substep, noise row, state), none at a fixed point, in
             scratch kept per batch width
    jump     every event of one interval of the jump process, for one
             state
    obs      each observation stream's parts and the gradient of its mean,
             for a batch

The interval kernels hold the loop over substeps, so a stepper makes one
call per observation interval (jump: per state and interval);
`ssm.kernels` writes their source.  A kernel runs in one of two
arithmetics.  The kernels for one state (ode, moments, jump) return
tuples and run on Python floats, and again in numpy's where that raises
(see `_on_floats`); the moment filter's update calls the `obs` kernels
compiled with them.  Every batch kernel runs in numpy's: its prologue
takes each parameter value to a numpy float, so parameter values alone
give numpy's inf or nan, never an exception.  Elsewhere a single state
goes through the `obs` kernels as a batch of one value per row.  The
initial state (once per filter call) and
`dynamics`, `propensities` and `process_cov_from`, the references for
tests, go through the `Expr` interpreter instead, with parameter values as
numpy floats too.
"""

from __future__ import annotations

import math
from functools import cache, cached_property, partial
from typing import NamedTuple

import numpy as np

from ssm import expr as ex
from ssm.model import ModelSpec
from ssm.observe import mean_formula, stream_moments

ODE_WHERE = "during deterministic integration"


class DomainError(RuntimeError):
    """State or propensity left the valid domain during integration."""


def state_local(name):
    return f"_s_{name}"


def param_local(name):
    return f"_p_{name}"


def natural_local(name):
    return f"_q_{name}"


def combine(pairs):
    """Source for a signed integer combination of (coefficient, local)."""
    terms = []
    for coef, local in pairs:
        if coef == 1:
            terms.append(f"+ {local}")
        elif coef == -1:
            terms.append(f"- {local}")
        else:
            terms.append(f"+ ({coef})*{local}")
    s = " ".join(terms)
    return s[2:] if s.startswith("+ ") else s


# what Python float arithmetic raises where numpy's would go on (see
# `_on_floats`); a complex result is a TypeError
FLOAT_FAILURES = (ZeroDivisionError, OverflowError, TypeError, ValueError)


def _as_numpy(value):
    """A parameter value as numpy's arithmetic takes it: a number as a
    numpy float, an array as it is."""
    return value if type(value) is np.ndarray else np.float64(value)


def _columns(lead, trees, env):
    """Each tree evaluated at `env`, along the last axis of an array with
    leading dimensions `lead`."""
    out = np.empty(lead + (len(trees),))
    for i, tree in enumerate(trees):
        out[..., i] = tree.eval(env)
    return out


def _on_floats(kernel, on_numpy):
    """Wrap a scalar kernel `kernel(x, *args)`, x a sequence of Python
    floats, to run on Python floats, several times faster than on numpy
    scalars.  Python float arithmetic raises on division by zero, math.exp
    on overflow and math.log outside its domain, and takes a negative
    number to a fractional power as a complex number (a TypeError where it
    meets a comparison, a math function or the floats returned); in those
    cases the whole call, for an interval kernel the whole interval, runs
    again on numpy scalars (x as an array, the times here, the parameter
    values in the kernel's prologue) through `on_numpy()`, the same kernel
    compiled against numpy's math functions, so the result is numpy's,
    taken back to Python floats and bools."""
    def run(x, *args):
        try:
            return kernel(x, *args)
        except FLOAT_FAILURES:
            pass
        args = [np.float64(a) if type(a) is float else a for a in args]
        return _python(on_numpy()(np.array(x), *args))
    return run


def _python(out):
    """A kernel's result, tuples of numpy scalars, as Python floats and
    bools."""
    if out is None or type(out) is tuple:
        return out and tuple(map(_python, out))
    return bool(out) if isinstance(out, (bool, np.bool_)) else float(out)


def _float_kernels(namespaces, *functions):
    """The `functions` of the namespaces `CompiledModel._float_namespaces`
    returns, on Python floats, each wrapped by `_on_floats`."""
    ns, on_numpy = namespaces
    return tuple(_on_floats(ns[fn], lambda fn=fn: on_numpy()[fn])
                 for fn in functions)


def _settle_batch(cols, floor):
    """After an RK4 substep of a batch: stack the state columns to (nx, J),
    raise DomainError on a non-finite entry or on one below its floor by
    more than 1e-6 of the largest magnitude in the batch (at least 1), and
    clamp at the floor (a column of shape (nx, 1))."""
    x = np.array(cols)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"non-finite state {ODE_WHERE}")
    tol = 1e-6 * max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
    # driven coordinates sit at +inf above their -inf floor
    if x.size and np.min(x - floor) < -tol:
        raise DomainError(f"negative population {ODE_WHERE}")
    return np.maximum(x, floor, out=x)


def _sde_work(cm, j):
    """The sde kernel's scratch for a batch of width j (`kernels.sde_source`):
    the buffers for the new state, its finiteness and, a row per reaction,
    the propensities, their positive parts, the noise terms and the
    increments, then the views of the rows of the new state, the
    propensities, their positive parts and the increments."""
    new = np.empty((cm.nx, j))
    a = np.empty((cm.n_react, j))
    ap, q, inc = np.empty_like(a), np.empty_like(a), np.empty_like(a)
    return (new, np.empty(new.shape, bool), a, ap, q, inc,
            *new, *a, *ap, *inc)


# a kernel's prologue binds each parameter value through `param`: as it is
# on Python floats, as a numpy value on numpy's arithmetic; so do the
# observation laws' moments, `law_moments`
_SCALAR_NS = dict(ex.SCALAR_NAMESPACE, inf=math.inf, sqrt=math.sqrt,
                  nextafter=math.nextafter, DomainError=DomainError,
                  param=lambda value: value,
                  law_moments=partial(stream_moments,
                                      namespace=ex.SCALAR_NAMESPACE))
_VECTOR_NS = dict(ex.VECTOR_NAMESPACE, param=_as_numpy, sqrt=np.sqrt,
                  isfinite=np.isfinite, count_nonzero=np.count_nonzero,
                  scalar_sqrt=math.sqrt,
                  **{name: getattr(np, name) for name in ex.UFUNCS.values()})


class ObsFns(NamedTuple):
    """What one observation stream's generated function `kernel` returns:
    the law's parts in `observe.PARTS` order, then the gradient entries of
    `observe.mean_formula` at the state columns `grad_cols`.
    """

    name: str
    kind: str
    grad_cols: tuple
    kernel: str


class CompiledModel:
    """Evaluators and structural matrices derived from a ModelSpec."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.state_names = (*spec.compartments,
                            *(d.name for d in spec.diffusions),
                            *spec.accumulators)
        self.n_comp = len(spec.compartments)
        self.n_diff = len(spec.diffusions)
        self.n_acc = len(spec.accumulators)
        self.nx = len(self.state_names)
        self.n_react = spec.n_reactions
        self.comp_slice = slice(0, self.n_comp)
        self.diff_slice = slice(self.n_comp, self.n_comp + self.n_diff)
        self.acc_slice = slice(self.n_comp + self.n_diff, self.nx)
        # order of the covariance entries in the moments kernel's vector
        self.tri_index = np.triu_indices(self.nx)
        # clamp floor per column: counts stay nonnegative, driven
        # coordinates are free
        self.floor = np.zeros(self.nx)
        self.floor[self.diff_slice] = -np.inf

        # stoichiometry over the full state: accumulators count one firing
        # per reaction that feeds them, driven parameters take no jumps
        full = np.zeros((self.nx, self.n_react))
        full[: self.n_comp, :] = spec.stoichiometry
        for r in spec.reactions:
            for acc in r.accumulators:
                full[self.state_names.index(acc), r.index] = 1.0
        self.stoich_full = full
        # what one firing of each reaction takes from each compartment
        self.removals = np.maximum(-full[: self.n_comp], 0.0)

        by_source = {}
        for r in spec.reactions:
            by_source.setdefault(r.source, []).append(r.index)
        external = by_source.pop(None, [])
        # competing exits grouped by the compartment they drain, plus the
        # absolute-rate reactions
        self.reactions_by_source = tuple(
            (src, tuple(ks)) for src, ks in sorted(by_source.items())
        )
        # the Poisson step's rows: the per-capita exits in cascade order
        # (by source, then as listed), with the index of each one's source
        # in reactions_by_source and its source column, then the
        # absolute-rate reactions; psr_plans caches the step's work per set
        # of live rows (`simulate.psr_plan`)
        exits = [(g, k) for g, (_, ks) in enumerate(self.reactions_by_source)
                 for k in ks]
        self.source_columns = np.array(
            [src for src, _ in self.reactions_by_source], dtype=int)
        self.exit_groups = np.array([g for g, _ in exits], dtype=int)
        self.exit_reactions = np.array([k for _, k in exits], dtype=int)
        self.exit_sources = self.source_columns[self.exit_groups]
        self.step_order = np.array(
            [*self.exit_reactions, *external], dtype=int)
        self.psr_plans = {}
        # the steppers' scratch per (stepper, batch width) (`work`)
        self.scratch = {}

        # noise groups: (sd parameter name, member reaction indices)
        self.noise_groups = tuple(
            (g.sd_param, np.array(g.members, dtype=int)) for g in spec.noise_groups
        )

        self._build_symbols()
        # the propensity of each reaction: per-capita rates times the source
        self._prop_exprs = [
            r.rate if r.source is None
            else ex.mul(r.rate, ex.Sym(spec.compartments[r.source]))
            for r in spec.reactions]
        self._build_blocks()
        self._build_observations()

    # ------------------------------------------------------------------
    # symbol bookkeeping

    def _build_symbols(self):
        spec = self.spec
        # symbol name -> its local in the generated source
        resolve = {name: state_local(name)
                   for name in (*spec.compartments, *spec.accumulators)}
        resolve.update({d.name: natural_local(d.name)
                        for d in spec.diffusions})
        resolve.update({p.name: param_local(p.name) for p in spec.parameters},
                       t="t")
        self._resolve = resolve.__getitem__

        # chain factor d(natural)/d(coordinate) for every state column,
        # written against natural-scale symbols
        self._column_chains = (
            [(name, ex.ONE) for name in spec.compartments]
            + [(d.name, d.transform.chain(ex.Sym(d.name)))
               for d in spec.diffusions]
            + [(name, ex.ONE) for name in spec.accumulators])

    def _partials(self, tree):
        """Nonzero (state column, derivative Expr) pairs, chain applied."""
        out = []
        syms = tree.free_symbols()
        for j, (name, chain) in enumerate(self._column_chains):
            if name not in syms:
                continue
            d = ex.mul(ex.differentiate(tree, name), chain)
            if d != ex.ZERO:
                out.append((j, d))
        return out

    # ------------------------------------------------------------------
    # code generation

    def _prologue(self, lines, needed, unpack=None, extra=(),
                  read="x[..., {}]"):
        """Bind the needed state columns and parameter values to locals.

        Column i is read as `read` formatted with i; with `unpack`, the
        source of a flat sequence, the columns are unpacked from it in one
        statement, followed by the `extra` names.
        """
        spec = self.spec
        targets = []
        naturals = []
        for i, name in enumerate(self.state_names):
            if name not in needed:
                targets.append("_")
            elif self.n_comp <= i < self.n_comp + self.n_diff:
                d = spec.diffusions[i - self.n_comp]
                u = f"_u{i}"
                naturals.append(f"    {natural_local(d.name)} = "
                                f"{d.transform.inverse_source.format(u)}")
                targets.append(u)
            else:
                targets.append(state_local(name))
        if unpack is None:
            for i, local in enumerate(targets):
                if local != "_":
                    lines.append(f"    {local} = {read.format(i)}")
        else:
            names = targets + list(extra)
            if names:
                lines.append(f"    {', '.join(names)}, = {unpack}")
        lines.extend(naturals)
        for p in spec.parameters:
            if p.name in needed:
                lines.append(f"    {param_local(p.name)} = "
                             f"param(p['{p.name}'])")

    def _build_blocks(self):
        """Source lines of the model's intermediate quantities, shared by
        every kernel, with the symbols each block reads:

            rates   _a{k}     propensity of reaction k
            drift   _d{i}     drift of state column i
            driven  _d{i}     the same, driven columns only
            vols    _v{d}     volatility of driven parameter d
            jac     _j{i}_{j} Jacobian nonzero, after its propensity
                              partials _g{k}_{j}
        """
        spec = self.spec
        S = self.stoich_full

        def code(tree):
            return ex.to_python(tree, self._resolve)

        def syms(trees):
            return set().union(*(tree.free_symbols() for tree in trees))

        rates = [f"    _a{k} = {code(tree)}" for k, tree in enumerate(self._prop_exprs)]

        # compartment and accumulator rows combine propensities; driven rows
        # evaluate their own drift formula
        drift = []
        for i in range(self.nx):
            pairs = [(int(S[i, k]), f"_a{k}") for k in range(self.n_react) if S[i, k]]
            drift.append(f"    _d{i} = {combine(pairs) or '0.0'}")
        drift[self.diff_slice] = driven = [
            f"    _d{i} = {code(d.drift)}"
            for i, d in enumerate(spec.diffusions, self.n_comp)]

        vols = [f"    _v{d_i} = {code(d.volatility)}"
                for d_i, d in enumerate(spec.diffusions)]

        # jacobian nonzeros: compartment and accumulator rows combine the
        # propensity partials, driven rows differentiate their drift formula
        prop_partials = [self._partials(tree) for tree in self._prop_exprs]
        diff_drift_partials = [self._partials(d.drift) for d in spec.diffusions]
        jac = []
        jac_cols = {}
        for k, plist in enumerate(prop_partials):
            for j, tree in plist:
                jac.append(f"    _g{k}_{j} = {code(tree)}")
                jac_cols.setdefault(j, set()).add(k)
        jac_index = []
        for i in range(self.nx):
            if self.n_comp <= i < self.n_comp + self.n_diff:
                for j, tree in diff_drift_partials[i - self.n_comp]:
                    jac.append(f"    _j{i}_{j} = {code(tree)}")
                    jac_index.append((i, j))
                continue
            for j, ks in sorted(jac_cols.items()):
                pairs = [(int(S[i, k]), f"_g{k}_{j}") for k in sorted(ks) if S[i, k]]
                if pairs:
                    jac.append(f"    _j{i}_{j} = {combine(pairs)}")
                    jac_index.append((i, j))
        self.jac_index = tuple(jac_index)

        rate_syms = syms(self._prop_exprs)
        driven_syms = syms(d.drift for d in spec.diffusions)
        # with no driven parameter and no propensity that reads the time, a
        # batch whose propensities are all zero stays where it is: the
        # sde kernel leaves such an interval at once
        self.static = not self.n_diff and "t" not in rate_syms
        self._blocks = {
            "rates": (rates, rate_syms),
            "drift": (drift, rate_syms | driven_syms),
            "driven": (driven, driven_syms),
            "vols": (vols, syms(d.volatility for d in spec.diffusions)),
            "jac": (jac, syms(tree for plist in prop_partials + diff_drift_partials
                               for _, tree in plist)),
        }

    def _kernel_source(self, header, blocks, body, unpack=None, extra=(),
                       needed=(), params=True):
        needed = set(needed)
        for name in blocks:
            needed |= self._blocks[name][1]
        if not params:
            # the header takes every parameter's value as an argument
            needed -= {p.name for p in self.spec.parameters}
        lines = [header]
        self._prologue(lines, needed, unpack, extra)
        for name in blocks:
            lines.extend(self._blocks[name][0])
        lines.extend(body)
        return "\n".join(lines) + "\n"

    def _compile(self, name, source, vector, **names):
        """Namespace of the compiled source, with the math bound for arrays
        or for floats, plus `names`."""
        ns = dict(_VECTOR_NS if vector else _SCALAR_NS, **names)
        exec(compile(source, f"<model {self.spec.name}: {name}>", "exec"), ns)
        return ns

    def _build_observations(self):
        """The observation streams' metadata and the source of their
        kernels, `obs{i}(x, t, p)` returning the parts and then the nonzero
        entries of the gradient of the observed mean over the state; x is
        unpacked, so a batch comes state axis first."""
        spec = self.spec
        sources = []
        observations = []
        for i, o in enumerate(spec.observations):
            grads = self._partials(mean_formula(o.distribution, o.parts))
            trees = [*o.parts, *(tree for _, tree in grads)]
            body = [f"    _o{k} = {ex.to_python(tree, self._resolve)}"
                    for k, tree in enumerate(trees)]
            body.append(f"    return ({''.join(f'_o{k}, ' for k in range(len(trees)))})")
            needed = set().union(*(tree.free_symbols() for tree in trees))
            sources.append(self._kernel_source(
                f"def obs{i}(x, t, p):", (), body, unpack="x", needed=needed))
            observations.append(ObsFns(o.name, o.distribution,
                                       tuple(j for j, _ in grads), f"obs{i}"))
        self.observations = tuple(observations)
        self._obs_by_name = {o.name: o for o in observations}
        self._obs_source = "\n".join(sources)

    # ------------------------------------------------------------------
    # kernels shaped to their callers, compiled on first use

    def _float_namespaces(self, name, source):
        """Namespace of `source` compiled for Python floats, and a function
        returning it compiled against numpy's math functions, on first
        call."""
        ns = self._compile(name, source, vector=False)
        return ns, cache(lambda: self._compile(
            name, source, vector=False, param=_as_numpy,
            law_moments=stream_moments, **ex.VECTOR_NAMESPACE))

    @cached_property
    def _obs(self):
        return self._compile("obs", self._obs_source, vector=True)

    # the interval kernels import ssm.kernels, which writes their source,
    # on first use: processes that step neither ode, moments, sde nor jump
    # never load it

    @cached_property
    def _ode_single(self):
        from ssm import kernels
        return _float_kernels(self._float_namespaces(
            "ode", kernels.ode_source(self, batch=False)), "ode")[0]

    @cached_property
    def _ode_batch(self):
        from ssm import kernels
        return self._compile("ode", kernels.ode_source(self, batch=True),
                             vector=True, settle=_settle_batch,
                             floor=self.floor[:, None])["ode"]

    def ode(self, x, t, h, n_sub, p):
        """n_sub RK4 substeps of length h from time t, in one call: x is one
        state or a batch laid out (nx, J), whose parameter values may be
        per-state columns.  After each substep the state is clamped at the
        floor; DomainError if it is not finite or lies below the floor by
        more than 1e-6 of its largest magnitude (the batch's, for a batch).
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return np.array(self._ode_single(x.tolist(), float(t), float(h),
                                             n_sub, p))
        return np.array(self._ode_batch(tuple(x), np.float64(t),
                                        np.float64(h), n_sub, p))

    @cached_property
    def _moment_namespaces(self):
        """The moment filter's kernels for one state: the moment equations
        and their interval (`kernels.moments_source`), and each stream's
        update (`kernels.update_source`) with the observation kernels it
        calls."""
        from ssm import kernels
        return self._float_namespaces("moments", kernels.moments_source(self)
                                      + self._obs_source
                                      + kernels.update_source(self))

    @cached_property
    def moment_kernels(self):
        """The moment filter's kernels on Python floats, over tuples
        y = [m, upper triangle of C]: `interval(y, t, h, n, p)`, n RK4
        substeps of length h from time t with the mean clamped at the floor
        after each, and per stream name `update(y, v, t, p)`
        (`kernels.update_source`)."""
        interval, *updates = _float_kernels(
            self._moment_namespaces, "interval",
            *(f"update{i}" for i in range(len(self.observations))))
        return interval, {o.name: fn for o, fn in zip(self.observations,
                                                      updates)}

    def moments(self, y, t, p):
        """dy for one state's moment equations at y = [m, upper triangle of
        C] (see `kernels.moments_source`)."""
        run, = _float_kernels(self._moment_namespaces, "moments")
        return np.array(run(np.asarray(y, dtype=float).tolist(), t, p))

    def moments_interval(self, y, t, h, n_sub, p):
        """n_sub RK4 substeps of length h of the moment equations from time
        t, in one call, with the mean clamped at the floor after each."""
        return np.array(self.moment_kernels[0](
            np.asarray(y, dtype=float).tolist(), float(t), float(h), n_sub,
            p))

    @cached_property
    def _sde(self):
        from ssm import kernels
        return self._compile("sde", kernels.sde_source(self), vector=True,
                             floor=self.floor[:, None], asarray=np.asarray,
                             zero=np.zeros(()))["sde"]

    def sde(self, x, t, dt, n, p, draw):
        """The Euler-Maruyama interval kernel (see `kernels.sde_source`) on
        the batch x, in place, in the scratch kept for x's width."""
        return self._sde(x, t, dt, n, p, draw,
                         self.work("sde", x.shape[1], _sde_work))

    def work(self, stepper, j, make):
        """The scratch of `stepper` for a batch of width j, made by
        make(self, j) the first time and kept: buffers that every call
        writes before it reads and that no caller receives."""
        buffers = self.scratch.get((stepper, j))
        if buffers is None:
            buffers = self.scratch[stepper, j] = make(self, j)
        return buffers

    @cached_property
    def psr(self):
        """The Poisson slice kernel (`simulate.psr_source`)."""
        from ssm import simulate
        return self._compile("psr", simulate.psr_source(self),
                             vector=True)["psr"]

    @cached_property
    def jump(self):
        """The jump kernel (`kernels.jump_source`) on Python floats, and a
        function returning it compiled for a rerun on numpy scalars."""
        from ssm import kernels
        ns, on_numpy = self._float_namespaces("jump",
                                              kernels.jump_source(self))
        return ns["jump"], lambda: on_numpy()["jump"]

    # ------------------------------------------------------------------
    # through the `Expr` interpreter, sharing no code with the kernels: the
    # initial state, and the references the tests check the kernels against

    def _env(self, x, t, p):
        """The interpreter's symbols at state x and time t: the state
        columns, the driven parameters' natural values, and the parameter
        values as numpy floats, as in the batch kernels."""
        env = {name: _as_numpy(value) for name, value in p.items()}
        env.update({name: x[..., i] for i, name in enumerate(self.state_names)},
                   t=np.asarray(t, dtype=float))
        for i, d in enumerate(self.spec.diffusions, self.n_comp):
            env[d.name] = d.transform.inverse(x[..., i])
        return env

    @cached_property
    def _row_exprs(self):
        """The drift of every state column as a tree: compartment and
        accumulator rows sum their propensities in `combine`'s order,
        driven rows are their own formula."""
        rows = []
        for coefs in self.stoich_full.astype(int):
            row = None
            for coef, tree in zip(coefs, self._prop_exprs):
                if coef:
                    term = (tree if coef in (1, -1)
                            else ex.BinOp("*", ex.Const(float(coef)), tree))
                    row = ((ex.Neg(term) if coef == -1 else term) if row is None
                           else ex.BinOp("-" if coef == -1 else "+", row, term))
            rows.append(ex.ZERO if row is None else row)
        rows[self.diff_slice] = [d.drift for d in self.spec.diffusions]
        return rows

    @cached_property
    def _row_partials(self):
        """(row, column, tree) of each nonzero of the drift Jacobian."""
        return [(i, j, tree) for i, row in enumerate(self._row_exprs)
                for j, tree in self._partials(row)]

    def dynamics(self, x, t, p):
        """Propensities, drift, volatilities and dense drift Jacobian at x.

        For tests, off the hot paths.  x may carry leading batch
        dimensions; parameter values may be arrays broadcasting against
        them.
        """
        x = np.asarray(x, dtype=float)
        env = self._env(x, t, p)
        lead = x.shape[:-1]
        jac = np.zeros(lead + (self.nx, self.nx))
        for i, j, tree in self._row_partials:
            jac[..., i, j] = tree.eval(env)
        vols = [d.volatility for d in self.spec.diffusions]
        return (_columns(lead, self._prop_exprs, env),
                _columns(lead, self._row_exprs, env),
                _columns(lead, vols, env), jac)

    def propensities(self, x, t, p):
        x = np.asarray(x, dtype=float)
        return _columns(x.shape[:-1], self._prop_exprs, self._env(x, t, p))

    def init_state(self, p, size=None):
        """Initial state from parameter values; accumulator coordinates are 0.

        With `size`, returns (nx, size); parameter values may then be arrays
        of matching length.  A compartment that starts below zero is a
        DomainError, and then any other entry that is not finite.
        """
        env = {name: _as_numpy(value) for name, value in p.items()}
        out = np.zeros((self.nx, 1 if size is None else size))
        for i, tree in enumerate(self.spec.compartment_initials):
            out[i] = tree.eval(env)
        # a driven coordinate starts at the transform of its initial value,
        # under the identity at the value itself, -0.0 kept
        for i, d in enumerate(self.spec.diffusions, self.n_comp):
            value = env[d.initial_param]
            out[i] = (value if d.transform.name == "identity"
                      else d.transform.forward(value))
        below = np.any(out[self.comp_slice] < 0.0, axis=1)
        if below.any():
            raise DomainError(f"initial {self.state_names[below.argmax()]} "
                              f"is negative")
        if not np.isfinite(out).all():
            raise DomainError("non-finite initial state")
        return out[:, 0] if size is None else out

    def process_cov_from(self, prop, vols, p, demographic=True, environmental=True):
        """Full-state instantaneous covariance of the diffusion approximation
        given the propensities and volatilities (see `dynamics`); a noise
        group's direction sums its members' effect columns weighted by their
        propensities, times the group sd."""
        lead = prop.shape[:-1]
        cov = np.zeros(lead + (self.nx, self.nx))
        a = np.clip(prop, 0.0, None)
        if demographic and self.n_react:
            cov += np.einsum("...k,ik,jk->...ij", a, self.stoich_full, self.stoich_full)
        for sd_name, members in self.noise_groups if environmental else ():
            col = (a[..., members] @ self.stoich_full[:, members].T
                   * np.asarray(p[sd_name], dtype=float)[..., None])
            cov += col[..., :, None] * col[..., None, :]
        for d_i in range(self.n_diff):
            row = self.n_comp + d_i
            cov[..., row, row] += vols[..., d_i] ** 2
        return cov

    # ------------------------------------------------------------------
    # observations

    def obs(self, name):
        return self._obs_by_name[name]

    def obs_values(self, name, x, t, p):
        """Evaluate one stream; returns (parts, gradient over the state of
        the observed mean, `observe.mean_formula`), the parts a tuple in
        `observe.PARTS` order.
        Parts are floats for one state (the moment filter), which goes
        through the batch kernel as it is, and arrays (J,) for a batch laid
        out (nx, J), whose gradient is None.  A batch's parts are the
        arrays the kernel made, views of the state and parameter columns
        among them, read-only by contract; a part that is no such array is
        spread over the batch.
        """
        o = self._obs_by_name[name]
        x = np.asarray(x, dtype=float)
        lead = x.shape[1:]
        raw = self._obs[o.kernel](x, np.asarray(t, dtype=float), p)
        n = len(raw) - len(o.grad_cols)
        if lead:
            return tuple(v if type(v) is np.ndarray and v.shape == lead
                         else np.full(lead, v) for v in raw[:n]), None
        grad = np.zeros(self.nx)
        for j, v in zip(o.grad_cols, raw[n:]):
            grad[j] = v
        return tuple(map(float, raw[:n])), grad

    def natural_diffusions(self, x):
        """Natural-scale values of the driven parameters for reporting."""
        x = np.asarray(x, dtype=float)
        return [np.asarray(d.transform.inverse(x[..., i]), dtype=float)
                for i, d in enumerate(self.spec.diffusions, self.n_comp)]
