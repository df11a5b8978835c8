"""Run one ssm command in-process with spans around the calls between layers.

    python3 perfbench/tracer.py SPANS.json <ssm arguments...>

The command reads stdin and writes stdout exactly as `python3 -m ssm` would;
the tracer only replaces module attributes and class methods with timing
wrappers before calling `ssm.cli.main`.  Spans are aggregated in memory as
(parent, name) -> [calls, total seconds, self seconds], where self time is
the span's duration minus the time covered by its child spans, and written
to SPANS.json when the command returns.  Counters that are not durations
(iterations, acceptance, ESS) go to the same file.
"""

import json
import sys
import time
from pathlib import Path

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = {}        # (parent, name) -> [calls, total_s, self_s]
        self.counters = {}     # name -> value, summed over the command
        self._stack = []       # [name, child_s] per open span

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def wrap(self, fn, name, on_result=None):
        """Wrap fn in a span.  `name` is a string or a callable of the call's
        arguments; `on_result(tracer, result, args, kwargs)` records
        counters from what the call returned."""
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            frame = [label, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                key = (parent[0] if parent else "", label)
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr, name, on_result=None):
        """Replace owner.attr, a function or a classmethod, by its wrapper."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(original.__func__, name, on_result))
        else:
            wrapped = self.wrap(original, name, on_result)
        setattr(owner, attr, wrapped)

    def dump(self, path, extra):
        out = dict(extra)
        out["spans"] = [[p, n, *rec] for (p, n), rec in self.spans.items()]
        out["counters"] = self.counters
        Path(path).write_text(json.dumps(out, sort_keys=True))


def _shape(x):
    return "batch" if getattr(x, "ndim", 1) > 1 else "single"


def _model_of(path):
    return Path(path).stem.removesuffix("-data")


def _model_name(spec):
    # metric names use the file stem: "seir-h1n1" for model "seir_h1n1"
    return spec.name.replace("_", "-")


def install(tracer, command):
    """Put spans on the calls one ssm module makes into another."""
    import numpy as np

    from ssm import cli, compiled, filters, forecast, mcmc, model, observe
    from ssm import optimize, simulate

    cm_cls = compiled.CompiledModel

    def shaped(base):
        return lambda self, x, *a, **k: f"{base}.{_shape(x)}"

    tracer.patch(cm_cls, "__init__",
                 lambda self, spec: f"compiled.compile[{_model_name(spec)}]")
    tracer.patch(cm_cls, "dynamics", shaped("compiled.dynamics"))
    tracer.patch(cm_cls, "propensities", shaped("compiled.propensities"))
    tracer.patch(cm_cls, "obs_values", "compiled.obs_values")
    tracer.patch(cm_cls, "process_cov_from", "compiled.process_cov_from")

    tracer.patch(model.ParameterSpace, "log_prior_unconstrained",
                 "model.prior")
    tracer.patch(model.ParameterSpace, "to_natural", "model.prior")
    tracer.patch(cli, "load_model",
                 lambda path: f"model.load_model[{_model_of(path)}]")
    tracer.patch(observe.DataSet, "from_csv",
                 lambda cls, path: f"observe.load_data[{_model_of(path)}]")

    # filters and optimize reach the densities through the observe module;
    # optimize and forecast hold their own references
    tracer.patch(observe, "stream_loglik", "observe.stream_loglik")
    tracer.patch(observe, "stream_moments", "observe.stream_moments")
    tracer.patch(optimize, "stream_loglik", "observe.stream_loglik")
    tracer.patch(forecast, "stream_mean", "observe.stream_mean")

    tracer.patch(simulate, "ode_step", "simulate.ode_step")
    tracer.patch(simulate, "sde_step", "simulate.sde_step")
    tracer.patch(simulate, "psr_step",
                 lambda cm, x, *a, **k: f"simulate.psr_step.{_shape(x)}")
    tracer.patch(simulate, "gillespie_interval", "simulate.gillespie_interval")

    def ekf_name(cm, *a, **k):
        return f"filters.ekf_filter[{_model_name(cm.spec)}]"

    def smc_name(cm, *a, formalism="psr", **k):
        return f"filters.smc_filter[{_model_name(cm.spec)}.{formalism}]"

    def smc_ess(tr, res, args, kwargs):
        j = kwargs.get("n_particles", 500)
        ess = res.ess[np.isfinite(res.ess)]
        if ess.size:
            tr.count("filters.smc_filter.ess_frac_sum", ess.mean() / j)
            tr.count("filters.smc_filter.ess_frac_n", 1)

    for owner in (cli, mcmc, optimize):
        tracer.patch(owner, "ekf_filter", ekf_name)
        tracer.patch(owner, "smc_filter", smc_name, smc_ess)
    tracer.patch(optimize, "ode_loglik", "filters.ode_loglik")
    tracer.patch(filters, "systematic_resample", "filters.systematic_resample")
    tracer.patch(optimize, "systematic_resample",
                 "filters.systematic_resample")

    def simplex_counts(tr, res, args, kwargs):
        tr.count("optimize.nelder_mead.iterations", res.iterations)

    nelder_mead = optimize.nelder_mead

    def counted_nelder_mead(f, *args, **kwargs):
        def objective(u):
            tracer.count("optimize.nelder_mead.evals", 1)
            return f(u)
        return nelder_mead(objective, *args, **kwargs)

    optimize.nelder_mead = tracer.wrap(counted_nelder_mead,
                                       "optimize.nelder_mead", simplex_counts)
    tracer.patch(cli, "maximize_stage", "optimize.maximize_stage")

    def mif_counts(tr, res, args, kwargs):
        passes = kwargs["iterations"] + res.failed_iterations
        tr.count("optimize.mif.passes", passes)
        tr.count("optimize.mif.failed_passes", res.failed_iterations)

    tracer.patch(cli, "mif", "optimize.mif", mif_counts)

    def chain_counts(tr, res, args, kwargs):
        tr.count(f"mcmc.{command}.iterations", len(res.loglik))
        tr.count(f"mcmc.{command}.accepted", int(res.accepted.sum()))

    tracer.patch(mcmc, "adaptive_chain", "mcmc.adaptive_chain", chain_counts)
    tracer.patch(cli, "kmcmc_stage", "mcmc.kmcmc_stage")
    tracer.patch(cli, "pmcmc_stage", "mcmc.pmcmc_stage")
    tracer.patch(mcmc, "_finish", "mcmc.finish")
    tracer.patch(mcmc.Trace, "to_csv", "mcmc.trace_write")

    tracer.patch(cli, "forecast_rows", "forecast.forecast_rows")
    tracer.patch(forecast, "forecast_table", "forecast.forecast_table")
    tracer.patch(cli, "simulate_paths", "simulate.simulate_paths")

    tracer.patch(cli, "main", f"cli.main[{command}]")
    return cli.main


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import ssm.cli  # noqa: F401  (the timed import)
    import_s = perf_counter() - t0
    tracer = Tracer()
    entry = install(tracer, argv[0])
    try:
        code = entry(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out, {"command": argv[0], "import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
