"""Command-line front end.

Every fitting tool follows the same pipe protocol: a parameter document
arrives on stdin (or via --theta), the updated document leaves on stdout,
and anything human-readable goes to stderr.  That makes stages chainable:

    cat theta.json | ssm ksimplex ... | ssm kmcmc ... | ssm pmcmc ...

Exit codes: 0 on success, 2 for schema or validation problems in models,
data, or parameter documents, 1 for numerical failures at runtime.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from ssm.compiled import CompiledModel, DomainError
from ssm.filters import FilterError
# the benchmark tracer (perfbench/tracer.py) patches these two names here
from ssm.filters import ekf_filter, smc_filter  # noqa: F401
from ssm.forecast import forecast_rows
from ssm.mcmc import BURN_FRACTION, Trace, ess, kmcmc_stage, pmcmc_stage
from ssm.model import ModelError, load_model
from ssm.observe import DataError, DataSet
from ssm.optimize import attempt, backend, maximize_stage, mif
from ssm.simulate import FORMALISMS, simulate_paths
from ssm.theta import ThetaDocument, ThetaError

OPT_SCALE = 2.38 ** 2


def _log(msg):
    print(msg, file=sys.stderr)


def _seed(args):
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("SSM_SEED", "0"))


def _load_compiled(path):
    return CompiledModel(load_model(path))


def _fit_space(cm):
    """The free parameters a fitting stage moves; a model with none has
    nothing to fit."""
    space = cm.spec.free_parameters()
    if not space.dim:
        raise ModelError(f"model '{cm.spec.name}' has no estimated "
                         f"parameters to fit")
    return space


def _read_theta(args, required=True):
    if args.theta:
        with open(args.theta) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    if not text.strip():
        if required:
            raise ThetaError(
                "no theta document: pass --theta PATH or pipe one on stdin"
            )
        return ThetaDocument()
    return ThetaDocument.parse_text(text)


def _load_data(cm, args):
    ds = DataSet.from_csv(args.data)
    problems = ds.validate(cm.spec)
    if problems:
        for p in problems:
            _log(f"{args.data}: {p}")
        raise DataError(f"{args.data}: {len(problems)} validation problem(s)")
    return ds


def _emit(doc):
    sys.stdout.write(doc.to_json())


def _update_values(doc, space, values):
    for name in space.names:
        doc.values[name] = float(values[name])


def _record_fit(doc, space, values, loglik):
    """Write the document's log likelihood and the log posterior it gives
    with the natural-scale prior at `values`; both always come from here so
    they describe the same values."""
    doc.log_likelihood = float(loglik)
    doc.log_posterior = float(loglik + space.log_prior_natural(values))


def _proposal_sigma(doc, space, default_sd=0.1):
    """Fixed proposal component: the document's covariance when it covers the
    free parameters (scaled by the usual 2.38^2/d rule), otherwise a diagonal
    built from perturbation_sd entries, otherwise a 0.1 step everywhere."""
    cov = doc.covariance_for(space)
    if cov is not None:
        return OPT_SCALE / space.dim * cov
    if any(doc.perturbation_sd.get(n, 0.0) > 0 for n in space.names):
        sds = {n: doc.perturbation_sd.get(n, default_sd) for n in space.names}
        return space.perturbation_matrix(sds)
    return np.diag(np.full(space.dim, default_sd ** 2))


def _write_trace(trace, path):
    trace.to_csv(path)
    _log(f"wrote {path}")


def _write_path_csv(out, cm, label_names, times, labelled):
    """Write trajectories as CSV: per (label, path) pair one row per
    instant, holding the label, the time, then compartments, driven
    parameters on their natural scale and accumulators."""
    w = csv.writer(out, lineterminator="\n")
    w.writerow([*label_names, *cm.state_names[cm.comp_slice],
                *(d.name for d in cm.spec.diffusions),
                *cm.state_names[cm.acc_slice]])
    for label, traj in labelled:
        nat = cm.natural_diffusions(traj)
        for i, t in enumerate(times):
            w.writerow([label, repr(float(t)),
                        *(repr(float(v)) for v in traj[i, cm.comp_slice]),
                        *(repr(float(col[i])) for col in nat),
                        *(repr(float(v)) for v in traj[i, cm.acc_slice])])


# --- commands -------------------------------------------------------------

def cmd_cat(args):
    doc = _read_theta(args)
    _emit(doc)
    return 0


def cmd_check_data(args):
    spec = load_model(args.model)
    ds = DataSet.from_csv(args.data)
    problems = ds.validate(spec)
    counts = {}
    for _, pairs in ds.records:
        for stream, _v in pairs:
            counts[stream] = counts.get(stream, 0) + 1
    summary = {
        "rows": int(sum(counts.values())),
        "instants": len(ds.records),
        "streams": counts,
        "problems": problems,
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    if problems:
        for p in problems:
            _log(f"{args.data}: {p}")
        return 2
    return 0


def cmd_simulate(args):
    cm = _load_compiled(args.model)
    doc = _read_theta(args, required=False)
    values = cm.spec.resolve_values(doc.values)
    rng = np.random.default_rng(_seed(args))
    times = np.arange(args.start, args.end + 1e-9, args.every)
    paths = simulate_paths(
        cm, values, times, formalism=args.formalism, rng=rng,
        trajectories=args.trajectories, dt=args.dt,
    )
    _write_path_csv(sys.stdout, cm, ("trajectory", "t"), times,
                    enumerate(paths))
    return 0


def _score(args, stage, kind, describe=lambda res: "", **options):
    """Score the document's values with one run of the likelihood backend
    `kind` (options as for `optimize.backend`); `describe(res)` gives the
    tail of the summary line on stderr."""
    cm = _load_compiled(args.model)
    doc = _read_theta(args)
    ds = _load_data(cm, args)
    values = cm.spec.resolve_values(doc.values)
    res = backend(cm, ds, args.t0, kind, dt=args.dt, **options)(values)
    _record_fit(doc, cm.spec.free_parameters(), values, res.loglik)
    doc.record_stage(stage, _seed(args))
    _log(f"{stage}: log likelihood {res.loglik:.6f}{describe(res)}")
    _emit(doc)
    return 0


def cmd_smc(args):
    def describe(res):
        text = f" (J={args.n_particles}, {args.formalism})"
        # instants after a filter failure hold no ESS
        frac = res.ess[np.isfinite(res.ess)] / args.n_particles
        if frac.size:
            text += (f", ess fraction min {frac.min():.3f} "
                     f"mean {frac.mean():.3f}")
        return text

    return _score(args, "smc", "smc", describe,
                  rng=np.random.default_rng(_seed(args)),
                  n_particles=args.n_particles, formalism=args.formalism)


def cmd_kalman(args):
    def describe(res):
        r = res.repairs
        return (f" ({r['updates']} updates; mean clipped {r['mean_clipped']}, "
                f"variance floored {r['variance_floored']}, psd rounding "
                f"{r['psd_rounding']}, psd eigen {r['psd_eigen']}, "
                f"observation variance floored {r['obs_variance_floored']})")

    return _score(args, "kalman", "ekf", describe)


def cmd_simplex(args, kind, stage):
    """simplex and ksimplex: the simplex on the likelihood backend `kind`."""
    cm = _load_compiled(args.model)
    doc = _read_theta(args)
    ds = _load_data(cm, args)
    space = _fit_space(cm)
    base = cm.spec.resolve_values(doc.values)
    out = maximize_stage(
        cm, ds, space, base, args.t0, kind, iterations=args.iterations,
        step=args.step, dt=args.dt,
    )
    _update_values(doc, space, out["values"])
    _record_fit(doc, space, out["values"], out["log_likelihood"])
    doc.record_stage(stage, _seed(args), out["iterations"])
    _log(f"{stage}: log likelihood {out['log_likelihood']:.6f} after "
         f"{out['iterations']} iteration(s), "
         f"{'converged' if out['converged'] else 'not converged'}")
    _emit(doc)
    return 0


def cmd_mif(args):
    cm = _load_compiled(args.model)
    doc = _read_theta(args)
    ds = _load_data(cm, args)
    space = _fit_space(cm)
    base = cm.spec.resolve_values(doc.values)
    if args.perturbation_sd is not None:
        sds = {name: args.perturbation_sd for name in space.names}
    else:
        sds = {name: doc.perturbation_sd.get(name, 0.02)
               for name in space.names}
    rng = np.random.default_rng(_seed(args))
    res = mif(
        cm, ds, space, base, args.t0, rng,
        perturbation_sd=sds, n_particles=args.n_particles,
        iterations=args.iterations, cooling=args.cooling,
        formalism=args.formalism, dt=args.dt,
    )
    _update_values(doc, space, res.values)
    _record_fit(doc, space, res.values, res.log_likelihood)
    doc.record_stage("mif", _seed(args), args.iterations)
    _log(f"mif: log likelihood {res.log_likelihood:.6f} "
         f"({res.failed_iterations} failed pass(es))")
    _emit(doc)
    return 0


def _chain(args, stage, run_stage, adapt, kind, **options):
    """Shared body of kmcmc and pmcmc: run the chain, put its posterior mean
    and covariance in the document, score the mean with the likelihood
    backend `kind` (options as for `optimize.backend`) and write the trace.
    `adapt` is the default of --adapt; None adapts when the document carries
    no covariance."""
    cm = _load_compiled(args.model)
    doc = _read_theta(args)
    ds = _load_data(cm, args)
    space = _fit_space(cm)
    base = cm.spec.resolve_values(doc.values)
    if args.adapt is not None:
        adapt = args.adapt
    elif adapt is None:
        adapt = doc.covariance_for(space) is None
    res = run_stage(
        cm, ds, space, base, args.t0, np.random.default_rng(_seed(args)),
        iterations=args.iterations, sigma0=_proposal_sigma(doc, space),
        adapt=adapt, dt=args.dt,
    )
    _update_values(doc, space, res.mean_values)
    doc.set_covariance(space.names, res.covariance)
    values = cm.spec.resolve_values(doc.values)
    ll, _ = attempt(backend(cm, ds, args.t0, kind, dt=args.dt, **options),
                    values)
    _record_fit(doc, space, values, ll)
    doc.record_stage(stage, _seed(args), args.iterations)
    _write_trace(res.trace, args.trace)
    return cm, doc, space, res


def _stops(res):
    """The chain's early-rejection counts, for its stderr line."""
    return (f"early rejections {res.early_rejections} of "
            f"{len(res.trace)} proposals, filter instants run "
            f"{res.instants_run} of {res.instants_full}")


def cmd_kmcmc(args):
    _, doc, space, res = _chain(args, "kmcmc", kmcmc_stage, True, "ekf")
    kept = res.trace.values[int(BURN_FRACTION * len(res.trace)):]
    min_ess = min(
        ess(kept[:, k]) for k in range(space.dim)
    ) if space.dim and len(kept) > 1 else 0.0
    _log(f"kmcmc: acceptance {res.acceptance_rate:.3f}, {_stops(res)}, "
         f"min ess {min_ess:.1f}, posterior mean log likelihood "
         f"{doc.log_likelihood:.6f}")
    _emit(doc)
    return 0


def cmd_pmcmc(args):
    particles = dict(n_particles=args.n_particles, formalism=args.formalism)
    stage = functools.partial(pmcmc_stage, keep_paths=args.paths is not None,
                              **particles)
    # the posterior mean is scored on a stream of its own
    cm, doc, _, res = _chain(
        args, "pmcmc", stage, None, "smc",
        rng=np.random.default_rng(_seed(args) + 1), **particles,
    )
    if args.paths is not None:
        with open(args.paths, "w", newline="") as fh:
            _write_path_csv(fh, cm, ("iteration", "time"), res.times,
                            res.paths)
        _log(f"wrote {args.paths}")
    _log(f"pmcmc: acceptance {res.acceptance_rate:.3f}, {_stops(res)}, "
         f"posterior mean log likelihood {doc.log_likelihood:.6f}")
    _emit(doc)
    return 0


def cmd_forecast(args):
    cm = _load_compiled(args.model)
    doc = _read_theta(args, required=False)
    rng = np.random.default_rng(_seed(args))
    times = np.arange(args.start + args.every, args.end + 1e-9, args.every)
    if args.trace:
        trace = Trace.from_csv(args.trace)
        burn = int(args.burn * len(trace))
        kept = trace.values[burn:]
        if not len(kept):
            raise DataError(f"{args.trace}: no rows left after burn-in")
        picks = rng.integers(0, len(kept), size=args.trajectories)
        thetas = []
        for i in picks:
            values = dict(doc.values)
            values.update(
                {n: float(kept[i, k]) for k, n in enumerate(trace.names)}
            )
            thetas.append(cm.spec.resolve_values(values))
    else:
        thetas = [cm.spec.resolve_values(doc.values)] * args.trajectories
    rows = forecast_rows(
        cm, thetas, args.start, times, formalism=args.formalism, rng=rng,
        dt=args.dt,
    )
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(["time", "stream", "q025", "q25", "q50", "q75", "q975"])
    for row in rows:
        w.writerow([repr(row[0]), row[1], *[repr(v) for v in row[2:]]])
    return 0


def cmd_diagnostics(args):
    trace = Trace.from_csv(args.trace)
    n = len(trace)
    burn = int(args.burn * n)
    kept = trace.values[burn:]
    out = {
        "iterations": n,
        "burn": burn,
        "acceptance_rate": float(trace.accepted.mean()) if n else 0.0,
        "ess": {
            name: float(ess(kept[:, k]))
            for k, name in enumerate(trace.names)
        },
        "posterior_mean": {
            name: float(kept[:, k].mean())
            for k, name in enumerate(trace.names)
        },
        "log_likelihood_max": float(trace.loglik.max()) if n else None,
    }
    sys.stdout.write(json.dumps(out, sort_keys=True, indent=2) + "\n")
    return 0


# --- parser ---------------------------------------------------------------

def _opt_model(p):
    p.add_argument("--model", required=True, metavar="PATH",
                   help="model definition (JSON)")


def _opt_data(p):
    p.add_argument("--data", required=True, metavar="PATH",
                   help="observation CSV with columns time,stream,value")


def _opt_theta(p):
    p.add_argument("--theta", metavar="PATH",
                   help="parameter document (default: read stdin)")


def _opt_run(p):
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: $SSM_SEED, else 0)")
    p.add_argument("--dt", type=float, default=None,
                   help="integration substep bound (default: a tenth of "
                        "each inter-observation interval)")


def _opt_t0(p):
    p.add_argument("--t0", type=float, default=0.0,
                   help="initial time of the state process")


def _opt_formalism(p, default):
    p.add_argument("--formalism", choices=FORMALISMS, default=default)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ssm",
        description="Simulation and inference for reaction-defined "
                    "state-space models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cat", help="validate and re-emit a theta document")
    _opt_theta(p)
    p.set_defaults(func=cmd_cat)

    p = sub.add_parser("check-data", help="validate an observation CSV")
    _opt_model(p)
    _opt_data(p)
    p.set_defaults(func=cmd_check_data)

    p = sub.add_parser("simulate", help="simulate trajectories to CSV")
    _opt_model(p)
    _opt_theta(p)
    _opt_run(p)
    _opt_formalism(p, "ode")
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--end", type=float, required=True)
    p.add_argument("--every", type=float, default=1.0,
                   help="output grid spacing")
    p.add_argument("--trajectories", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("smc", help="particle-filter log likelihood")
    _opt_model(p)
    _opt_data(p)
    _opt_theta(p)
    _opt_run(p)
    _opt_t0(p)
    _opt_formalism(p, "psr")
    p.add_argument("--n-particles", type=int, default=500)
    p.set_defaults(func=cmd_smc)

    p = sub.add_parser("kalman", help="moment-filter log likelihood")
    _opt_model(p)
    _opt_data(p)
    _opt_theta(p)
    _opt_run(p)
    _opt_t0(p)
    p.set_defaults(func=cmd_kalman)

    for name, kind, describe in (
        ("simplex", "ode", "maximize the trajectory-matching posterior"),
        ("ksimplex", "ekf", "maximize the moment-filter posterior"),
    ):
        p = sub.add_parser(name, help=describe)
        _opt_model(p)
        _opt_data(p)
        _opt_theta(p)
        _opt_run(p)
        _opt_t0(p)
        p.add_argument("--iterations", type=int, default=300)
        p.add_argument("--step", type=float, default=0.1,
                       help="initial simplex edge on the unconstrained scale")
        p.set_defaults(func=functools.partial(cmd_simplex, kind=kind,
                                              stage=name))

    p = sub.add_parser("mif", help="iterated filtering")
    _opt_model(p)
    _opt_data(p)
    _opt_theta(p)
    _opt_run(p)
    _opt_t0(p)
    _opt_formalism(p, "psr")
    p.add_argument("--iterations", type=int, default=30)
    p.add_argument("--n-particles", type=int, default=500)
    p.add_argument("--cooling", type=float, default=0.975)
    p.add_argument("--perturbation-sd", type=float, default=None,
                   help="random-walk intensity per square root of unit "
                        "time for every free parameter (default: the "
                        "document's perturbation_sd map, else 0.02)")
    p.set_defaults(func=cmd_mif)

    p = sub.add_parser("kmcmc", help="chain over the moment-filter posterior")
    _opt_model(p)
    _opt_data(p)
    _opt_theta(p)
    _opt_run(p)
    _opt_t0(p)
    p.add_argument("--iterations", type=int, default=10000)
    p.add_argument("--trace", default="trace.csv", metavar="PATH")
    p.add_argument("--adapt", action=argparse.BooleanOptionalAction,
                   default=None, help="adapt the proposal (default: on)")
    p.set_defaults(func=cmd_kmcmc)

    p = sub.add_parser("pmcmc", help="pseudo-marginal chain over the "
                                     "particle-filter posterior")
    _opt_model(p)
    _opt_data(p)
    _opt_theta(p)
    _opt_run(p)
    _opt_t0(p)
    _opt_formalism(p, "psr")
    p.add_argument("--iterations", type=int, default=5000)
    p.add_argument("--n-particles", type=int, default=500)
    p.add_argument("--trace", default="trace.csv", metavar="PATH")
    p.add_argument("--paths", default=None, metavar="PATH",
                   help="write accepted state trajectories to this CSV")
    p.add_argument("--adapt", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="adapt the proposal (default: off when the incoming "
                        "document carries a covariance, else on)")
    p.set_defaults(func=cmd_pmcmc)

    p = sub.add_parser("forecast", help="quantile ribbons of the observation "
                                        "mean")
    _opt_model(p)
    _opt_theta(p)
    _opt_run(p)
    _opt_formalism(p, "psr")
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--end", type=float, required=True)
    p.add_argument("--every", type=float, default=1.0)
    p.add_argument("--trajectories", type=int, default=200)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="sample parameter draws from this chain trace")
    p.add_argument("--burn", type=float, default=0.1)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("diagnostics", help="chain summaries as JSON")
    p.add_argument("--trace", required=True, metavar="PATH")
    p.add_argument("--burn", type=float, default=0.1)
    p.set_defaults(func=cmd_diagnostics)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, ThetaError, DataError) as err:
        _log(f"error: {err}")
        return 2
    except BrokenPipeError:
        # the reader stopped early (`ssm simulate ... | head`): that ends
        # the output, not the run in error; stdout goes to devnull so the
        # flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as err:
        _log(f"error: {err}")
        return 2
    except (DomainError, FilterError) as err:
        _log(f"error: {err}")
        return 1


def _alias(command):
    def run(argv=None):
        tail = sys.argv[1:] if argv is None else list(argv)
        return main([command, *tail])
    return run


main_simplex = _alias("simplex")
main_ksimplex = _alias("ksimplex")
main_mif = _alias("mif")
main_kmcmc = _alias("kmcmc")
main_pmcmc = _alias("pmcmc")
