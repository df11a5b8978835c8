"""Trajectory generation under the four process formalisms.

All steppers share the full state layout produced by CompiledModel:
compartments, then driven parameter coordinates on their transformed scale,
then accumulators.  The deterministic backend integrates the drift with
classic fourth-order Runge-Kutta; the diffusion backend takes Euler-Maruyama
steps with demographic, environmental and parameter-diffusion noise entering
through separate factor columns; the Poisson backend draws integer reaction
counts per time slice with competing exits handled as conditional binomials;
the jump backend simulates the underlying Markov jump process event by event.

Environmental (white) noise multiplies the rates of the reactions in a noise
group by the increment of a gamma process with mean dt and variance sd^2 dt.
The Poisson backend draws those increments explicitly; the diffusion backend
uses the matching second-moment contribution.  The jump backend keeps rates
unmodulated between events.
"""

from __future__ import annotations

import numpy as np

from ssm.compiled import CompiledModel, DomainError

# dt=None everywhere means one tenth of the interval being advanced
SUBSTEPS_PER_INTERVAL = 10


def assemble_dispersion(cm: CompiledModel, x, t, params,
                        demographic=True, environmental=True):
    """Instantaneous covariance of the diffusion approximation, restricted to
    the compartment block.

    The demographic part sums, over reactions, the outer product of the
    effect vector weighted by the propensity; the environmental part adds,
    per noise group, the outer product of the propensity-weighted sum of
    member effect columns scaled by the squared group sd.
    """
    cov = cm.process_cov(x, t, params, demographic=demographic,
                         environmental=environmental)
    return cov[..., : cm.n_comp, : cm.n_comp]


# ----------------------------------------------------------------------
# deterministic backend

def ode_step(cm, x, t, dt, params):
    """One RK4 step of the drift over the full state."""
    k1 = cm.drift(x, t, params)
    k2 = cm.drift(x + 0.5 * dt * k1, t + 0.5 * dt, params)
    k3 = cm.drift(x + 0.5 * dt * k2, t + 0.5 * dt, params)
    k4 = cm.drift(x + dt * k3, t + dt, params)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_domain(cm, x, where):
    if not np.all(np.isfinite(x)):
        raise DomainError(f"non-finite state during {where}")
    scale = max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
    tol = 1e-6 * scale
    # driven coordinates sit at +inf above their -inf floor
    if x.size and np.min(x - cm.floor) < -tol:
        raise DomainError(f"negative population during {where}")
    return np.maximum(x, cm.floor, out=x)


def integrate_ode(cm, x, t0, t1, params, dt=None):
    """Advance the deterministic system from t0 to t1 in substeps of at most
    dt, landing exactly on t1.  Raises DomainError if the state leaves the
    admissible region by more than integration tolerance."""
    span = t1 - t0
    if span <= 0:
        return np.array(x, dtype=float, copy=True)
    if dt is None:
        dt = span / SUBSTEPS_PER_INTERVAL
    n_sub = max(1, int(np.ceil(span / dt - 1e-9)))
    h = span / n_sub
    x = np.array(x, dtype=float, copy=True)
    t = t0
    for _ in range(n_sub):
        x = ode_step(cm, x, t, h, params)
        x = _check_domain(cm, x, "deterministic integration")
        t += h
    return x


# ----------------------------------------------------------------------
# diffusion backend

def sde_step(cm, x, t, dt, params, rng):
    """One Euler-Maruyama step.

    Noise is applied through factor columns so that the increment covariance
    is exactly dt times the assembled dispersion: one standard normal per
    reaction scaled by sqrt(propensity), one per noise group through the
    group column, one per driven parameter scaled by its volatility.  The
    normals are drawn in that order; the model's fused `sde` kernel forms
    the step.  Compartments and accumulators are clamped at zero afterwards.
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    lead = x.shape[:-1]
    xi_demo = xi_env = xi_diff = None
    if cm.n_react:
        xi_demo = rng.standard_normal(lead + (cm.n_react,))
    if cm.noise_groups:
        xi_env = rng.standard_normal(lead + (len(cm.noise_groups),))
    if cm.n_diff:
        xi_diff = rng.standard_normal(lead + (cm.n_diff,))
    new = cm.sde(x, t, params, dt, xi_demo, xi_env, xi_diff)
    if not np.isfinite(new).all():
        raise DomainError("non-finite state during diffusion step")
    np.maximum(new, cm.floor, out=new)
    return new[0] if squeeze else new


# ----------------------------------------------------------------------
# Poisson backend

def _noise_deltas(cm, dt, params, lead, rng):
    """Effective per-reaction time increments: dt for quiet reactions, a
    gamma increment with mean dt and variance sd^2 dt shared across the
    members of each noise group."""
    delta = np.full(lead + (cm.n_react,), float(dt))
    for sd_name, members in cm.noise_groups:
        sd = np.broadcast_to(np.asarray(params[sd_name], dtype=float), lead)
        draw = np.full(lead, float(dt))
        pos = sd > 0
        if np.any(pos):
            var = sd[pos] ** 2
            draw[pos] = rng.gamma(dt / var, var)
        delta[..., members] = draw[..., None]
    return delta


def psr_step(cm, x, t, dt, params, rng):
    """One time slice of the Poisson approximation with stochastic rates.

    Per source compartment, the members leaving within the slice follow a
    multinomial over the competing exits: with per-capita rates r_k and
    effective increments d_k, the exit probabilities are
    (1 - exp(-sum r d)) r_k d_k / sum r d, drawn as a cascade of conditional
    binomials.  Absolute-rate reactions fire Poisson counts, capped so that
    removals cannot overdraw a compartment.
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    lead = x.shape[:-1]
    prop = np.clip(cm.propensities(x, t, params), 0.0, None)
    if not np.all(np.isfinite(prop)):
        raise DomainError("non-finite rate during Poisson step")
    delta = _noise_deltas(cm, dt, params, lead, rng)
    counts = np.zeros(lead + (cm.n_react,))

    for src, ks in cm.reactions_by_source:
        z = x[..., src]
        hazard = np.zeros(lead)
        rd = []
        for k in ks:
            r = np.where(z > 0, prop[..., k] / np.where(z > 0, z, 1.0), 0.0)
            rd.append(r * delta[..., k])
            hazard += rd[-1]
        p_leave = -np.expm1(-hazard)
        safe = np.where(hazard > 0, hazard, 1.0)
        remaining = np.floor(z).astype(np.int64)
        tail = np.ones(lead)
        for k, rdk in zip(ks, rd):
            q = p_leave * rdk / safe
            with np.errstate(divide="ignore", invalid="ignore"):
                cond = np.where(tail > 1e-12, q / tail, 0.0)
            cond = np.clip(cond, 0.0, 1.0)
            n = rng.binomial(remaining, cond)
            counts[..., k] = n
            remaining = remaining - n
            tail = tail - q

    for k, caps in zip(cm.external_reactions, cm.external_caps):
        lam = prop[..., k] * delta[..., k]
        n = rng.poisson(lam).astype(np.int64)
        for comp, per_event in caps:
            avail = np.floor(x[..., comp] / per_event).astype(np.int64)
            n = np.minimum(n, avail)
        counts[..., k] = n

    new = x + counts @ cm.stoich_full.T
    if cm.n_diff:
        drift, vols = cm.drift_and_vols(x, t, params)
        xi = rng.standard_normal(lead + (cm.n_diff,))
        new[..., cm.diff_slice] = (
            x[..., cm.diff_slice]
            + dt * drift[..., cm.diff_slice]
            + np.sqrt(dt) * vols * xi
        )
    new[..., cm.comp_slice] = np.clip(new[..., cm.comp_slice], 0.0, None)
    return new[0] if squeeze else new


# ----------------------------------------------------------------------
# jump backend

def gillespie_interval(cm, x, t0, t1, params, rng, dt_max=None):
    """Exact simulation of the jump process over [t0, t1] for one trajectory.

    Rates are frozen at the current state; waiting times beyond dt_max are
    discarded and the clock advanced by dt_max so that time-varying rates
    and driven parameters are refreshed at least that often.  Driven
    parameters move by Euler-Maruyama over each elapsed stretch.
    """
    x = np.array(x, dtype=float, copy=True)
    if dt_max is None:
        dt_max = (t1 - t0) / SUBSTEPS_PER_INTERVAL
    t = t0
    while t < t1 - 1e-12:
        prop = np.clip(cm.propensities(x, t, params), 0.0, None)
        if not np.all(np.isfinite(prop)):
            raise DomainError("non-finite rate during jump simulation")
        total = float(prop.sum())
        cap = min(dt_max, t1 - t)
        tau = rng.exponential(1.0 / total) if total > 0 else np.inf
        elapsed = min(tau, cap)
        if cm.n_diff:
            drift, vols = cm.drift_and_vols(x, t, params)
            xi = rng.standard_normal(cm.n_diff)
            x[cm.diff_slice] += elapsed * drift[cm.diff_slice] + np.sqrt(
                elapsed
            ) * vols * xi
        t += elapsed
        if tau >= cap:
            continue
        u = rng.random() * total
        k = int(np.searchsorted(np.cumsum(prop), u))
        k = min(k, cm.n_react - 1)
        proposed = x + cm.stoich_full[:, k]
        if np.min(proposed[cm.comp_slice]) < 0:
            continue
        x = proposed
    return x


# ----------------------------------------------------------------------
# dispatch

FORMALISMS = ("ode", "sde", "psr", "jump")


def advance(cm, x, t0, t1, params, rng=None, formalism="ode", dt=None):
    """Advance states from t0 to t1 under the chosen formalism, applying
    substeps of at most dt; dt=None takes a tenth of the interval.  x may
    be a single state or a batch."""
    span = t1 - t0
    if span <= 0:
        return np.array(x, dtype=float, copy=True)
    if dt is None:
        dt = span / SUBSTEPS_PER_INTERVAL
    if formalism == "ode":
        return integrate_ode(cm, x, t0, t1, params, dt=dt)
    if formalism == "jump":
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return gillespie_interval(cm, x, t0, t1, params, rng, dt_max=dt)
        out = np.empty_like(x, dtype=float)
        for j in range(x.shape[0]):
            out[j] = gillespie_interval(cm, x[j], t0, t1, params, rng, dt_max=dt)
        return out
    if formalism not in ("sde", "psr"):
        raise ValueError(f"unknown formalism: {formalism!r}")
    n_sub = max(1, int(np.ceil(span / dt - 1e-9)))
    h = span / n_sub
    x = np.array(x, dtype=float, copy=True)
    t = t0
    step = sde_step if formalism == "sde" else psr_step
    for _ in range(n_sub):
        x = step(cm, x, t, h, params, rng)
        t += h
    return x


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
    if formalism == "jump":
        out = np.empty((trajectories, len(times), cm.nx))
        streams = rng.spawn(trajectories)
        for j in range(trajectories):
            x = cm.init_state(params)
            out[j, 0] = x
            for i in range(1, len(times)):
                x = gillespie_interval(
                    cm, x, times[i - 1], times[i], params, streams[j], dt_max=dt
                )
                out[j, i] = x
        return out
    x = cm.init_state(params, size=trajectories)
    out = np.empty((trajectories, len(times), cm.nx))
    out[:, 0] = x
    for i in range(1, len(times)):
        x = advance(cm, x, times[i - 1], times[i], params, rng=rng,
                    formalism=formalism, dt=dt)
        out[:, i] = x
    return out
