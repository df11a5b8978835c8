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
whole swarm of states, or per-particle parameter values, goes through in one
call.

Each caller gets a kernel shaped to what it needs, generated and compiled the
first time it is used:

    rates    propensities only (Poisson and jump steppers)
    drift    drift rows and driven-parameter volatilities (the driven
             coordinates of the Poisson and jump steppers)
    ode      every RK4 substep of one observation interval, for one state
             or a batch
    moments  every RK4 substep of one interval of the moment equations,
             over [mean, upper triangle of covariance], for the moment
             filter
    sde      every Euler-Maruyama substep of one interval over a batch of
             states

The interval kernels hold the loop over substeps, so a stepper makes one
call per observation interval; `ssm.kernels` writes their source.  The
scalar kernels return tuples and run on Python floats (see `_on_floats`).
The reference evaluators (`dynamics`, `jacobian`, `process_cov`) assemble
dense arrays from the same blocks and a Jacobian kernel; they serve tests,
not the hot paths.  The initial state and the observation streams are
compiled when the model is loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ssm import expr as ex
from ssm.model import Identity, Log, Logit, ModelSpec

ODE_WHERE = "during deterministic integration"

# the numpy function of each binary operator, for writes into a buffer
UFUNCS = {"+": "add", "-": "subtract", "*": "multiply", "/": "divide",
          "^": "power"}


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


def _on_floats(kernel):
    """Wrap a scalar kernel, which returns a tuple, to run on Python floats,
    several times faster than on numpy scalars, and return an array.
    Python float arithmetic raises on division by zero and on overflow in a
    power, and takes a negative number to a fractional power as a complex
    number (a TypeError where it meets a comparison or a math function); in
    those cases the whole call, for an interval kernel the whole interval,
    runs again on numpy scalars (the times too), so the result is numpy's."""
    def run(x, *args):
        try:
            out = np.array(kernel(x.tolist(), *args))
            if out.dtype.kind == "f":
                return out
        except (ZeroDivisionError, OverflowError, TypeError):
            pass
        args = [np.float64(a) if type(a) is float else a for a in args]
        return np.array(kernel(x, *args))
    return run


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


_SCALAR_NS = dict(ex.SCALAR_NAMESPACE, inf=math.inf, DomainError=DomainError)
_VECTOR_NS = dict(ex.VECTOR_NAMESPACE, sqrt=np.sqrt, empty=np.empty,
                  empty_like=np.empty_like, isfinite=np.isfinite,
                  all_of=np.logical_and.reduce, scalar_sqrt=math.sqrt,
                  **{name: getattr(np, name) for name in UFUNCS.values()})


@dataclass
class ObsFns:
    """Compiled pieces of one observation stream.

    `parts` lists what the generated function returns before the gradient
    entries: ('mean',) for poisson, ('mean', 'variance') for
    discretized_normal, ('trials', 'probability') for binomial.
    """

    name: str
    kind: str
    parts: tuple
    grad_cols: tuple
    scalar: callable
    vector: callable


class CompiledModel:
    """Evaluators and structural matrices derived from a ModelSpec."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        comp = list(spec.compartments)
        diff = [d.name for d in spec.diffusions]
        accs = list(spec.accumulators)
        self.state_names = tuple(comp + diff + accs)
        self.n_comp = len(comp)
        self.n_diff = len(diff)
        self.n_acc = len(accs)
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

        self.source_index = tuple(r.source for r in spec.reactions)
        self.reaction_labels = tuple(r.label for r in spec.reactions)

        by_source = {}
        external = []
        for k, src in enumerate(self.source_index):
            if src is None:
                external.append(k)
            else:
                by_source.setdefault(src, []).append(k)
        # competing exits grouped by the compartment they drain, plus the
        # absolute-rate reactions
        self.reactions_by_source = tuple(
            (src, tuple(ks)) for src, ks in sorted(by_source.items())
        )
        self.external_reactions = tuple(external)
        # the Poisson step's exit plan: the per-capita exits in cascade
        # order (by source, then as listed), the index of each one's source
        # in reactions_by_source and its source column; exit_levels holds,
        # per position within a source (first exits, then second, ...), a
        # pair (at_level, groups): the indices into the exit arrays of the
        # exits at that position and the source index of each
        exits = [(g, k, pos)
                 for g, (_, ks) in enumerate(self.reactions_by_source)
                 for pos, k in enumerate(ks)]
        self.source_columns = np.array(
            [src for src, _ in self.reactions_by_source], dtype=int)
        self.exit_groups = np.array([g for g, _, _ in exits], dtype=int)
        self.exit_reactions = np.array([k for _, k, _ in exits], dtype=int)
        self.exit_sources = self.source_columns[self.exit_groups]
        position = np.array([pos for _, _, pos in exits], dtype=int)
        self.exit_levels = tuple(
            (np.flatnonzero(position == level),
             self.exit_groups[position == level])
            for level in range(position.max(initial=-1) + 1)
        )

        # noise groups: (sd parameter name, member reaction indices)
        self.noise_groups = tuple(
            (g.sd_param, np.array(g.members, dtype=int)) for g in spec.noise_groups
        )

        self._build_symbols()
        self._build_propensities()
        self._build_blocks()
        source = self._emit_module()
        scalar_ns = dict(ex.SCALAR_NAMESPACE)
        vector_ns = dict(ex.VECTOR_NAMESPACE)
        exec(compile(source, f"<model {spec.name}>", "exec"), scalar_ns)
        exec(compile(source, f"<model {spec.name}>", "exec"), vector_ns)
        self._init_vector = vector_ns["init"]
        self.observations = tuple(
            ObsFns(
                o.name,
                o.distribution,
                self._obs_parts[i],
                self._obs_grad_cols[i],
                scalar_ns[f"obs{i}"],
                vector_ns[f"obs{i}"],
            )
            for i, o in enumerate(spec.observations)
        )
        self._obs_by_name = {o.name: o for o in self.observations}

    # ------------------------------------------------------------------
    # symbol bookkeeping

    def _build_symbols(self):
        spec = self.spec
        resolve = {}
        for i, name in enumerate(spec.compartments):
            resolve[name] = state_local(name)
        for d in spec.diffusions:
            resolve[d.name] = natural_local(d.name)
        for name in spec.accumulators:
            resolve[name] = state_local(name)
        for p in spec.parameters:
            resolve[p.name] = param_local(p.name)
        resolve["t"] = "t"
        self._resolve_map = resolve

        # chain factor d(natural)/d(coordinate) for every state column,
        # written against natural-scale symbols
        chains = []
        for name in spec.compartments:
            chains.append((name, None))
        for d in spec.diffusions:
            q = ex.Sym(d.name)
            if isinstance(d.transform, Identity):
                chains.append((d.name, None))
            elif isinstance(d.transform, Log):
                chains.append((d.name, q))
            elif isinstance(d.transform, Logit):
                chains.append((d.name, ex.mul(q, ex.sub(ex.ONE, q))))
            else:
                raise ValueError(f"unsupported transform on driven parameter {d.name}")
        for name in spec.accumulators:
            chains.append((name, None))
        self._column_chains = chains

    def _resolve(self, name):
        return self._resolve_map[name]

    def _partials(self, tree):
        """Nonzero (state column, derivative Expr) pairs, chain applied."""
        out = []
        syms = tree.free_symbols()
        for j, (name, chain) in enumerate(self._column_chains):
            if name not in syms:
                continue
            d = ex.differentiate(tree, name)
            if chain is not None:
                d = ex.mul(d, chain)
            if d != ex.ZERO:
                out.append((j, d))
        return out

    def _build_propensities(self):
        spec = self.spec
        props = []
        for r in spec.reactions:
            if r.source is None:
                props.append(r.rate)
            else:
                props.append(ex.mul(r.rate, ex.Sym(spec.compartments[r.source])))
        self._prop_exprs = props

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
                q = natural_local(d.name)
                if isinstance(d.transform, Identity):
                    naturals.append(f"    {q} = {u}")
                elif isinstance(d.transform, Log):
                    naturals.append(f"    {q} = exp({u})")
                else:  # logit
                    naturals.append(f"    {q} = 1.0/(1.0 + exp(-({u})))")
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
                lines.append(f"    {param_local(p.name)} = p['{p.name}']")

    def _build_blocks(self):
        """Source lines of the model's intermediate quantities, shared by
        every kernel, with the symbols each block reads:

            rates   _a{k}     propensity of reaction k
            drift   _d{i}     drift of state column i
            vols    _v{d}     volatility of driven parameter d
            jac     _j{i}_{j} Jacobian nonzero, after its propensity
                              partials _g{k}_{j}
        """
        spec = self.spec
        S = self.stoich_full

        def code(tree):
            return ex.to_python(tree, self._resolve)

        def syms(trees):
            out = set()
            for tree in trees:
                out |= tree.free_symbols()
            return out

        rates = [f"    _a{k} = {code(tree)}" for k, tree in enumerate(self._prop_exprs)]

        # compartment and accumulator rows combine propensities; driven rows
        # evaluate their own drift formula
        drift = []
        for i in range(self.nx):
            if self.n_comp <= i < self.n_comp + self.n_diff:
                d = spec.diffusions[i - self.n_comp]
                drift.append(f"    _d{i} = {code(d.drift)}")
                continue
            pairs = [(int(S[i, k]), f"_a{k}") for k in range(self.n_react) if S[i, k]]
            drift.append(f"    _d{i} = {combine(pairs) if pairs else '0.0'}")

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
        self._blocks = {
            "rates": (rates, rate_syms),
            "drift": (drift, rate_syms | syms(d.drift for d in spec.diffusions)),
            "vols": (vols, syms(d.volatility for d in spec.diffusions)),
            "jac": (jac, syms(tree for plist in prop_partials + diff_drift_partials
                               for _, tree in plist)),
        }

    def _kernel_source(self, header, blocks, body, unpack=None, extra=(),
                       needed=()):
        needed = set(needed)
        for name in blocks:
            needed |= self._blocks[name][1]
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

    def _emit_module(self):
        spec = self.spec
        code = ex.to_python
        resolve = self._resolve

        # --- init: state from parameter values
        lines = ["def init(p):"]
        init_needed = set()
        for tree in spec.compartment_initials:
            init_needed |= tree.free_symbols()
        for d in spec.diffusions:
            init_needed.add(d.initial_param)
        for p in spec.parameters:
            if p.name in init_needed:
                lines.append(f"    {param_local(p.name)} = p['{p.name}']")
        entries = [code(tree, resolve) for tree in spec.compartment_initials]
        for d in spec.diffusions:
            v = param_local(d.initial_param)
            if isinstance(d.transform, Identity):
                entries.append(v)
            elif isinstance(d.transform, Log):
                entries.append(f"log({v})")
            else:
                entries.append(f"log(({v})/(1.0 - ({v})))")
        entries.extend(["0.0"] * self.n_acc)
        lines.append(f"    return ({', '.join(entries)}{',' if entries else ''})")

        # --- observation streams
        self._obs_parts = []
        self._obs_grad_cols = []
        for i, o in enumerate(spec.observations):
            lines.append("")
            lines.append(f"def obs{i}(x, t, p):")
            if o.distribution == "binomial":
                parts = ("trials", "probability")
                part_exprs = [o.trials, o.probability]
                mean_expr = ex.mul(o.trials, o.probability)
            elif o.distribution == "discretized_normal":
                parts = ("mean", "variance")
                part_exprs = [o.mean, o.variance]
                mean_expr = o.mean
            else:
                parts = ("mean",)
                part_exprs = [o.mean]
                mean_expr = o.mean
            grads = self._partials(mean_expr)
            needed = set()
            for tree in part_exprs:
                needed |= tree.free_symbols()
            for _, tree in grads:
                needed |= tree.free_symbols()
            body = []
            self._prologue(body, needed)
            outs = []
            for part_i, tree in enumerate(part_exprs):
                body.append(f"    _o{part_i} = {code(tree, resolve)}")
                outs.append(f"_o{part_i}")
            for j, tree in grads:
                body.append(f"    _og{j} = {code(tree, resolve)}")
                outs.append(f"_og{j}")
            lines.extend(body)
            lines.append(f"    return ({', '.join(outs)},)")
            self._obs_parts.append(parts)
            self._obs_grad_cols.append(tuple(j for j, _ in grads))

        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # kernels shaped to their callers, compiled on first use

    def _array_kernels(self, name, blocks, values):
        """(scalar, batch) kernels returning `values` along the last axis."""
        scalar = self._kernel_source(
            f"def {name}(x, t, p):", blocks,
            [f"    return ({''.join(v + ', ' for v in values)})"], unpack="x")
        batch = self._kernel_source(
            f"def {name}(x, t, p):", blocks,
            [f"    out = empty(x.shape[:-1] + ({len(values)},))"]
            + [f"    out[..., {i}] = {v}" for i, v in enumerate(values)]
            + ["    return out"])
        return (_on_floats(self._compile(name, scalar, vector=False)[name]),
                self._compile(name, batch, vector=True)[name])

    @cached_property
    def _rates(self):
        return self._array_kernels(
            "rates", ("rates",), [f"_a{k}" for k in range(self.n_react)])

    @cached_property
    def _drift(self):
        return self._array_kernels(
            "drift", ("rates", "drift", "vols"),
            [f"_d{i}" for i in range(self.nx)]
            + [f"_v{d_i}" for d_i in range(self.n_diff)])

    @cached_property
    def _jac(self):
        return self._array_kernels(
            "jac", ("jac",), [f"_j{i}_{j}" for i, j in self.jac_index])

    # the interval kernels import ssm.kernels, which writes their source,
    # on first use: processes that step neither ode, moments nor sde never
    # load it

    @cached_property
    def _ode_single(self):
        from ssm import kernels
        src = kernels.ode_source(self, batch=False)
        return _on_floats(self._compile("ode", src, vector=False)["ode"])

    @cached_property
    def _ode_batch(self):
        from ssm import kernels
        return self._compile("ode", kernels.ode_source(self, batch=True),
                             vector=True, settle=_settle_batch,
                             floor=self.floor[:, None])["ode"]

    def ode(self, x, t, h, n_sub, p):
        """n_sub RK4 substeps of length h from time t, in one call: x is one
        state or a batch of shape (J, nx), whose parameter values may be
        per-row columns.  After each substep the state is clamped at the
        floor; DomainError if it is not finite or lies below the floor by
        more than 1e-6 of its largest magnitude (the batch's, for a batch).
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self._ode_single(x, float(t), float(h), n_sub, p)
        out = self._ode_batch(tuple(x.T), np.float64(t), np.float64(h),
                              n_sub, p)
        return np.ascontiguousarray(np.array(out).T)

    @cached_property
    def _moments(self):
        from ssm import kernels
        ns = self._compile("moments", kernels.moments_source(self),
                           vector=False)
        return _on_floats(ns["moments"]), _on_floats(ns["interval"])

    def moments(self, y, t, p):
        """dy for one state's moment equations at y = [m, upper triangle of
        C] (see `kernels.moments_source`)."""
        return self._moments[0](np.asarray(y, dtype=float), t, p)

    def moments_interval(self, y, t, h, n_sub, p):
        """n_sub RK4 substeps of length h of the moment equations from time
        t, in one call, with the mean clamped at the floor after each."""
        return self._moments[1](np.asarray(y, dtype=float), float(t),
                                float(h), n_sub, p)

    @cached_property
    def sde(self):
        """The Euler-Maruyama interval kernel (see `kernels.sde_source`)."""
        from ssm import kernels
        return self._compile("sde", kernels.sde_source(self), vector=True,
                             floor=self.floor[:, None])["sde"]

    # ------------------------------------------------------------------
    # evaluation helpers

    def dynamics(self, x, t, p):
        """Propensities, drift, volatilities and dense drift Jacobian at x.

        The reference evaluator, off the hot paths.  x may carry leading
        batch dimensions; parameter values may be arrays broadcasting
        against them.
        """
        x = np.asarray(x, dtype=float)
        drift, vols = self.drift_and_vols(x, t, p)
        jac = np.zeros(x.shape[:-1] + (self.nx, self.nx))
        if self.jac_index:
            rows, cols = zip(*self.jac_index)
            jac[..., rows, cols] = self._jac[x.ndim > 1](x, t, p)
        return self.propensities(x, t, p), drift, vols, jac

    def propensities(self, x, t, p):
        x = np.asarray(x, dtype=float)
        return self._rates[x.ndim > 1](x, t, p)

    def drift_and_vols(self, x, t, p):
        """Drift of every state column and volatility of every driven
        parameter; x may carry leading batch dimensions."""
        x = np.asarray(x, dtype=float)
        out = self._drift[x.ndim > 1](x, t, p)
        return out[..., : self.nx], out[..., self.nx :]

    def drift(self, x, t, p):
        return self.drift_and_vols(x, t, p)[0]

    def jacobian(self, x, t, p):
        return self.dynamics(x, t, p)[3]

    def init_state(self, p, size=None):
        """Initial state from parameter values; accumulator coordinates are 0.

        With `size`, returns (size, nx); parameter values may then be arrays
        of matching length.
        """
        raw = self._init_vector(p)
        if size is None:
            out = np.empty(self.nx)
            for i, v in enumerate(raw):
                out[i] = v
            return out
        out = np.empty((size, self.nx))
        for i, v in enumerate(raw):
            out[:, i] = v
        return out

    def env_columns(self, prop, p):
        """Environmental dispersion columns: for each noise group, the
        state-space direction sum of member effect columns weighted by their
        propensities, scaled by the group sd."""
        lead = prop.shape[:-1]
        cols = np.zeros(lead + (self.nx, len(self.noise_groups)))
        for g_i, (sd_name, members) in enumerate(self.noise_groups):
            sd = np.asarray(p[sd_name], dtype=float)
            acc = np.zeros(lead + (self.nx,))
            for k in members:
                acc += self.stoich_full[:, k] * prop[..., k, None]
            cols[..., g_i] = acc * sd[..., None]
        return cols

    def process_cov(self, x, t, p, demographic=True, environmental=True):
        """Full-state instantaneous covariance of the diffusion approximation."""
        prop, _, vols, _ = self.dynamics(x, t, p)
        return self.process_cov_from(prop, vols, p, demographic, environmental)

    def process_cov_from(self, prop, vols, p, demographic=True, environmental=True):
        lead = prop.shape[:-1]
        cov = np.zeros(lead + (self.nx, self.nx))
        if demographic and self.n_react:
            a = np.clip(prop, 0.0, None)
            cov += np.einsum("...k,ik,jk->...ij", a, self.stoich_full, self.stoich_full)
        if environmental and self.noise_groups:
            cols = self.env_columns(np.clip(prop, 0.0, None), p)
            cov += np.einsum("...ig,...jg->...ij", cols, cols)
        for d_i in range(self.n_diff):
            row = self.n_comp + d_i
            cov[..., row, row] += vols[..., d_i] ** 2
        return cov

    # ------------------------------------------------------------------
    # observations

    def obs(self, name):
        return self._obs_by_name[name]

    def obs_values(self, name, x, t, p):
        """Evaluate one stream; returns (parts dict, grad over state or None).

        The gradient is of the observed mean (trials*probability for a
        binomial stream) and is only assembled when the state has no batch
        dimensions, which is the moment-filter case.
        """
        o = self._obs_by_name[name]
        x = np.asarray(x, dtype=float)
        lead = x.shape[:-1]
        fn = o.vector if lead else o.scalar
        raw = fn(x, t, p)
        n_parts = len(o.parts)
        parts = {}
        for i, part in enumerate(o.parts):
            parts[part] = _pack_scalar(raw[i], lead)
        grad = np.zeros(lead + (self.nx,))
        for j, v in zip(o.grad_cols, raw[n_parts:]):
            grad[..., j] = v
        return parts, grad

    def natural_diffusions(self, x):
        """Natural-scale values of the driven parameters for reporting."""
        x = np.asarray(x, dtype=float)
        out = []
        for d_i, d in enumerate(self.spec.diffusions):
            u = x[..., self.n_comp + d_i]
            out.append(np.asarray(d.transform.inverse(u), dtype=float))
        return out


def _pack_scalar(v, lead_shape):
    if lead_shape:
        return np.broadcast_to(np.asarray(v, dtype=float), lead_shape).copy()
    return float(v)
