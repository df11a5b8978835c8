"""Command-line front end.

Every document stage (`smc`, `kalman`, `simplex`, `ksimplex`, `mif`,
`kmcmc`, `pmcmc`) keeps one pipe protocol, written once in `_stage`: a
parameter document arrives on stdin (or via --theta), and the same document
leaves on stdout with the stage's values, the `log_likelihood` of those
values, their `log_posterior` (that likelihood plus the natural-scale log
prior) and one more `provenance` entry; keys the stage does not know pass
through.  Anything human-readable goes to stderr, one summary line per
stage.  That makes stages chainable:

    cat theta.json | ssm ksimplex ... | ssm kmcmc ... | ssm pmcmc ...

A chain that keeps no rows after burn-in (`--iterations 0`) passes its
incoming values on, and one that keeps fewer than two its incoming
covariance.

Exit codes: 0 on success, 2 for schema or validation problems in options,
models, data, or parameter documents, 1 for numerical failures at runtime
(an initial state with a negative compartment among them).
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
from ssm.mcmc import (BURN_FRACTION, OPT_SCALE, Trace, ess, kmcmc_stage,
                      pmcmc_stage)
from ssm.model import ModelError, load_model
from ssm.observe import DataError, DataSet
from ssm.optimize import attempt, backend, maximize_stage, mif
from ssm.simulate import FORMALISMS, simulate_paths
from ssm.theta import ThetaDocument, ThetaError

PROPOSAL_SD = 0.1     # a chain's proposal step where the document has none
MIF_SD = 0.02         # mif's perturbation intensity where none is given


def _log(msg):
    print(msg, file=sys.stderr)


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
    if len(ds) and ds.times[0] < args.t0:
        raise DataError(f"{args.data}: the first observation, at "
                        f"t={ds.times[0]:g}, precedes --t0 {args.t0:g}")
    return ds


def _emit(doc):
    sys.stdout.write(doc.to_json())


def _proposal_sigma(doc, space):
    """Fixed proposal component: the document's covariance when it covers the
    free parameters (scaled by the usual 2.38^2/d rule), otherwise a diagonal
    built from perturbation_sd entries, otherwise a PROPOSAL_SD step
    everywhere."""
    cov = doc.covariance_for(space)
    if cov is not None:
        return OPT_SCALE / space.dim * cov
    if any(doc.perturbation_sd.get(n, 0.0) > 0 for n in space.names):
        sds = {n: doc.perturbation_sd.get(n, PROPOSAL_SD) for n in space.names}
        return space.perturbation_matrix(sds)
    return np.diag(np.full(space.dim, PROPOSAL_SD ** 2))


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
    rng = np.random.default_rng(args.seed)
    times = np.arange(args.start, args.end + 1e-9, args.every)
    paths = simulate_paths(
        cm, values, times, formalism=args.formalism, rng=rng,
        trajectories=args.trajectories, dt=args.dt,
    )
    _write_path_csv(sys.stdout, cm, ("trajectory", "t"), times,
                    enumerate(paths))
    return 0


def _stage(args, stage, run, fit=True):
    """The pipe protocol of every document stage.  Load the model, the
    document and the data; `run(cm, dataset, space, base, doc)` returns the
    values to emit, their log likelihood, the iteration count to record
    (None for none) and the summary line's text after the stage name.  The
    document then carries those values, their log likelihood and log
    posterior, and one more provenance entry.  `fit` stages refuse a model
    without free parameters."""
    cm = _load_compiled(args.model)
    doc = _read_theta(args)
    ds = _load_data(cm, args)
    space = _fit_space(cm) if fit else cm.spec.free_parameters()
    base = cm.spec.resolve_values(doc.values)
    values, loglik, iterations, summary = run(cm, ds, space, base, doc)
    for name in space.names:
        doc.values[name] = float(values[name])
    # both from the same values: the natural-scale prior, not the
    # unconstrained one a fitting stage climbs
    doc.log_likelihood = float(loglik)
    doc.log_posterior = float(loglik + space.log_prior_natural(values))
    doc.record_stage(stage, args.seed, iterations)
    _log(f"{stage}: {summary}")
    _emit(doc)
    return 0


def cmd_smc(args):
    def run(cm, ds, space, base, doc):
        res = backend(cm, ds, args.t0, "smc", dt=args.dt,
                      rng=np.random.default_rng(args.seed),
                      n_particles=args.n_particles,
                      formalism=args.formalism)(base)
        text = (f"log likelihood {res.loglik:.6f} (J={args.n_particles}, "
                f"{args.formalism})")
        # instants after a filter failure hold no ESS
        frac = res.ess[np.isfinite(res.ess)] / args.n_particles
        if frac.size:
            text += (f", ess fraction min {frac.min():.3f} "
                     f"mean {frac.mean():.3f}")
        return base, res.loglik, None, text

    return _stage(args, "smc", run, fit=False)


def cmd_kalman(args):
    def run(cm, ds, space, base, doc):
        res = backend(cm, ds, args.t0, "ekf", dt=args.dt)(base)
        r = res.repairs
        return base, res.loglik, None, (
            f"log likelihood {res.loglik:.6f} ({r['updates']} updates; "
            f"mean clipped {r['mean_clipped']}, variance floored "
            f"{r['variance_floored']}, psd rounding {r['psd_rounding']}, "
            f"psd eigen {r['psd_eigen']}, observation variance floored "
            f"{r['obs_variance_floored']})")

    return _stage(args, "kalman", run, fit=False)


def cmd_simplex(args, kind, stage):
    """simplex and ksimplex: the simplex on the likelihood backend `kind`."""
    def run(cm, ds, space, base, doc):
        out = maximize_stage(
            cm, ds, space, base, args.t0, kind, iterations=args.iterations,
            step=args.step, dt=args.dt,
        )
        ll, n = out["log_likelihood"], out["iterations"]
        return out["values"], ll, n, (
            f"log likelihood {ll:.6f} after {n} iteration(s), "
            f"{'converged' if out['converged'] else 'not converged'}")

    return _stage(args, stage, run)


def cmd_mif(args):
    def run(cm, ds, space, base, doc):
        if args.perturbation_sd is not None:
            sds = {name: args.perturbation_sd for name in space.names}
        else:
            sds = {name: doc.perturbation_sd.get(name, MIF_SD)
                   for name in space.names}
        res = mif(
            cm, ds, space, base, args.t0, np.random.default_rng(args.seed),
            perturbation_sd=sds, n_particles=args.n_particles,
            iterations=args.iterations, cooling=args.cooling,
            formalism=args.formalism, dt=args.dt,
        )
        ll = res.log_likelihood
        return res.values, ll, args.iterations, (
            f"log likelihood {ll:.6f} ({res.failed_iterations} failed "
            f"pass(es))")

    return _stage(args, "mif", run)


def _chain(args, sampler, adapt, kind, report, **options):
    """The run of kmcmc and pmcmc: the chain `sampler` from the document's
    values, whose posterior mean is emitted and scored once more with the
    likelihood backend `kind` (options as for `optimize.backend`).  A chain
    that keeps no rows after burn-in emits the incoming values, and one
    that keeps fewer than two leaves the incoming covariance.  `adapt` is
    the default of --adapt; None adapts when the document carries no
    covariance.  `report(cm, space, res)` runs once the trace is written
    and gives the summary's text after the early-rejection counts."""
    def run(cm, ds, space, base, doc):
        on = args.adapt
        if on is None:
            on = doc.covariance_for(space) is None if adapt is None else adapt
        res = sampler(
            cm, ds, space, base, args.t0, np.random.default_rng(args.seed),
            iterations=args.iterations, sigma0=_proposal_sigma(doc, space),
            adapt=on, dt=args.dt,
        )
        if res.covariance is not None:
            doc.set_covariance(space.names, res.covariance)
        ll, _ = attempt(backend(cm, ds, args.t0, kind, dt=args.dt, **options),
                        res.mean_values)
        res.trace.to_csv(args.trace)
        _log(f"wrote {args.trace}")
        return res.mean_values, ll, args.iterations, (
            f"acceptance {res.acceptance_rate:.3f}, early rejections "
            f"{res.early_rejections} of {len(res.trace)} proposals, filter "
            f"instants run {res.instants_run} of {res.instants_full}"
            f"{report(cm, space, res)}, posterior mean log likelihood "
            f"{ll:.6f}")

    return run


def cmd_kmcmc(args):
    def report(cm, space, res):
        kept = res.trace.values[int(BURN_FRACTION * len(res.trace)):]
        min_ess = min(ess(kept[:, k]) for k in range(space.dim)) \
            if len(kept) > 1 else 0.0
        return f", min ess {min_ess:.1f}"

    return _stage(args, "kmcmc",
                  _chain(args, kmcmc_stage, True, "ekf", report))


def cmd_pmcmc(args):
    def report(cm, space, res):
        if args.paths is not None:
            with open(args.paths, "w", newline="") as fh:
                _write_path_csv(fh, cm, ("iteration", "time"), res.times,
                                res.paths)
            _log(f"wrote {args.paths}")
        return ""

    particles = dict(n_particles=args.n_particles, formalism=args.formalism)
    sampler = functools.partial(pmcmc_stage,
                                keep_paths=args.paths is not None, **particles)
    # the posterior mean is scored on a stream of its own
    return _stage(args, "pmcmc", _chain(
        args, sampler, None, "smc", report,
        rng=np.random.default_rng(args.seed + 1), **particles))


def _burned(args):
    """The chain trace at --trace and its rows after the --burn share."""
    trace = Trace.from_csv(args.trace)
    burn = int(args.burn * len(trace))
    kept = trace.values[burn:]
    if not len(kept):
        raise DataError(f"{args.trace}: no rows left after burn-in")
    return trace, burn, kept


def cmd_forecast(args):
    cm = _load_compiled(args.model)
    doc = _read_theta(args, required=False)
    rng = np.random.default_rng(args.seed)
    times = np.arange(args.start + args.every, args.end + 1e-9, args.every)
    if args.trace:
        trace, _, kept = _burned(args)
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
    trace, burn, kept = _burned(args)
    out = {
        "iterations": len(trace),
        "burn": burn,
        "acceptance_rate": float(trace.accepted.mean()),
        "ess": {
            name: float(ess(kept[:, k]))
            for k, name in enumerate(trace.names)
        },
        "posterior_mean": {
            name: float(kept[:, k].mean())
            for k, name in enumerate(trace.names)
        },
        "log_likelihood_max": float(trace.loglik.max()),
    }
    sys.stdout.write(json.dumps(out, sort_keys=True, indent=2) + "\n")
    return 0


# --- parser ---------------------------------------------------------------

def _checked(convert, ok, what):
    """An argparse type: the argument through `convert`, rejected (exit 2)
    unless `ok` holds of the value."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = convert.__name__
    return parse


# the sizes, loop counts and seeds, substep bounds and grid spacings,
# burn-in shares, times, cooling factors, perturbation intensities and
# simplex edges a run can take
_SIZE = _checked(int, lambda n: n >= 1, "at least 1")
_COUNT = _checked(int, lambda n: n >= 0, "at least 0")
_SPAN = _checked(float, lambda v: v > 0, "greater than 0")
_SHARE = _checked(float, lambda v: 0 <= v < 1, "in [0, 1)")
_TIME = _checked(float, np.isfinite, "finite")
_COOLING = _checked(float, lambda v: 0 < v <= 1, "in (0, 1]")
_SD = _checked(float, lambda v: 0 <= v < np.inf, "finite and at least 0")
_STEP = _checked(float, lambda v: np.isfinite(v) and v != 0,
                 "finite and not 0")


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
    p.add_argument("--seed", type=_COUNT, default=None,
                   help="RNG seed (default: $SSM_SEED, else 0)")
    p.add_argument("--dt", type=_SPAN, default=None,
                   help="integration substep bound (default: a tenth of "
                        "each inter-observation interval)")


def _opt_formalism(p, default):
    p.add_argument("--formalism", choices=FORMALISMS, default=default)


def _document_stage(sub, name, help, formalism=None):
    """A subcommand of the pipe protocol: a document and the data in, the
    document out (`_stage`)."""
    p = sub.add_parser(name, help=help)
    _opt_model(p)
    _opt_data(p)
    _opt_theta(p)
    _opt_run(p)
    p.add_argument("--t0", type=_TIME, default=0.0,
                   help="initial time of the state process")
    if formalism:
        _opt_formalism(p, formalism)
    return p


def _grid_command(sub, name, help, formalism, every_help=None):
    """simulate and forecast: a document in, rows on a time grid out."""
    p = sub.add_parser(name, help=help)
    _opt_model(p)
    _opt_theta(p)
    _opt_run(p)
    _opt_formalism(p, formalism)
    p.add_argument("--start", type=_TIME, default=0.0)
    p.add_argument("--end", type=_TIME, required=True)
    p.add_argument("--every", type=_SPAN, default=1.0, help=every_help)
    # --end is checked against --start once both are parsed (`main`)
    p.set_defaults(grid=p)
    return p


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

    p = _grid_command(sub, "simulate", "simulate trajectories to CSV", "ode",
                      every_help="output grid spacing")
    p.add_argument("--trajectories", type=_SIZE, default=1)
    p.set_defaults(func=cmd_simulate)

    p = _document_stage(sub, "smc", "particle-filter log likelihood", "psr")
    p.add_argument("--n-particles", type=_SIZE, default=500)
    p.set_defaults(func=cmd_smc)

    p = _document_stage(sub, "kalman", "moment-filter log likelihood")
    p.set_defaults(func=cmd_kalman)

    for name, kind, describe in (
        ("simplex", "ode", "maximize the trajectory-matching posterior"),
        ("ksimplex", "ekf", "maximize the moment-filter posterior"),
    ):
        p = _document_stage(sub, name, describe)
        p.add_argument("--iterations", type=_COUNT, default=300)
        p.add_argument("--step", type=_STEP, default=0.1,
                       help="initial simplex edge on the unconstrained scale")
        p.set_defaults(func=functools.partial(cmd_simplex, kind=kind,
                                              stage=name))

    p = _document_stage(sub, "mif", "iterated filtering", "psr")
    p.add_argument("--iterations", type=_COUNT, default=30)
    p.add_argument("--n-particles", type=_SIZE, default=500)
    p.add_argument("--cooling", type=_COOLING, default=0.975)
    p.add_argument("--perturbation-sd", type=_SD, default=None,
                   help="random-walk intensity per square root of unit "
                        "time for every free parameter (default: the "
                        f"document's perturbation_sd map, else {MIF_SD})")
    p.set_defaults(func=cmd_mif)

    p = _document_stage(sub, "kmcmc",
                        "chain over the moment-filter posterior")
    p.add_argument("--iterations", type=_COUNT, default=10000)
    p.add_argument("--trace", default="trace.csv", metavar="PATH")
    p.add_argument("--adapt", action=argparse.BooleanOptionalAction,
                   default=None, help="adapt the proposal (default: on)")
    p.set_defaults(func=cmd_kmcmc)

    p = _document_stage(sub, "pmcmc", "pseudo-marginal chain over the "
                                      "particle-filter posterior", "psr")
    p.add_argument("--iterations", type=_COUNT, default=5000)
    p.add_argument("--n-particles", type=_SIZE, default=500)
    p.add_argument("--trace", default="trace.csv", metavar="PATH")
    p.add_argument("--paths", default=None, metavar="PATH",
                   help="write accepted state trajectories to this CSV")
    p.add_argument("--adapt", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="adapt the proposal (default: off when the incoming "
                        "document carries a covariance, else on)")
    p.set_defaults(func=cmd_pmcmc)

    p = _grid_command(sub, "forecast", "quantile ribbons of the observation "
                                       "mean", "psr")
    p.add_argument("--trajectories", type=_SIZE, default=200)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="sample parameter draws from this chain trace")
    p.add_argument("--burn", type=_SHARE, default=BURN_FRACTION)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("diagnostics", help="chain summaries as JSON")
    p.add_argument("--trace", required=True, metavar="PATH")
    p.add_argument("--burn", type=_SHARE, default=BURN_FRACTION)
    p.set_defaults(func=cmd_diagnostics)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    grid = getattr(args, "grid", None)
    if grid is not None and not args.end >= args.start:
        grid.error(f"argument --end: must be at least --start, got "
                   f"{args.end:g}")
    if getattr(args, "seed", 0) is None:
        text = os.environ.get("SSM_SEED", "0")
        try:
            args.seed = _COUNT(text)
        except (ValueError, argparse.ArgumentTypeError):
            _log(f"error: SSM_SEED: must be an integer of at least 0, got "
                 f"{text!r}")
            return 2
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
