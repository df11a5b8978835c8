"""Per-layer metrics from the spans and counters of a traced pass.

Every metric is listed with the end-to-end metric and workload it should
move, so a change that claims a gain on one layer says beforehand where the
gain must show.  Times and counts are per traced pass of the workload;
`ms_per_call` metrics are a mean per call; a layer the workload does not
reach reads 0.
"""

from collections import defaultdict

MODELS = ("sir", "plague", "seir-h1n1", "dengue-2strain")
COMMANDS = ("simplex", "ksimplex", "kmcmc", "pmcmc", "forecast", "simulate",
            "kalman", "smc", "mif")
STAGES = ("simplex", "ksimplex", "kmcmc", "pmcmc", "forecast",
          "simulate_jump", "kalman", "smc_psr", "smc_sde", "mif")

FIT = "fit-sir"
FORECAST = "forecast-sir"
SCORE = "score-models"


def _metrics():
    """(name, unit, better, what it should move) for every per-layer metric."""
    out = []

    def add(name, unit, moves, better="lower"):
        out.append((name, unit, better, moves))

    def calls_self(base, moves):
        add(f"{base}.calls", "count", moves)
        add(f"{base}.self_ms", "ms", moves)

    # compiled: the generated model kernels
    calls_self("compiled.dynamics.single",
               f"kmcmc_s, ksimplex_s, simplex_s on {FIT}; kalman_s on {SCORE}")
    calls_self("compiled.dynamics.batch",
               f"pmcmc_s on {FIT}; smc_sde_s on {SCORE}")
    calls_self("compiled.propensities.single",
               f"simulate_jump_s, forecast_s on {FORECAST}")
    calls_self("compiled.propensities.batch", f"smc_psr_s, mif_s on {SCORE}")
    add("compiled.process_cov_from.self_ms", "ms",
        f"kmcmc_s on {FIT}; kalman_s on {SCORE}")
    calls_self("compiled.obs_values", "pass_s on every workload")
    for m in MODELS:
        add(f"compiled.compile_ms.{m}", "ms", f"setup_s on {SCORE}")
    # model: documents, priors and transforms
    for m in MODELS:
        add(f"model.load_model_ms.{m}", "ms", f"setup_s on {SCORE}")
    add("model.prior_ms", "ms", f"kmcmc_s, pmcmc_s on {FIT}")
    # cli: start-up and each command's own work
    add("cli.import_ms", "ms", "setup_s on every workload")
    for c in COMMANDS:
        add(f"cli.self_ms.{c}", "ms", f"the {c} stage time")
    # simulate: the steppers
    calls_self("simulate.ode_step", f"simplex_s on {FIT}")
    calls_self("simulate.sde_step", f"pmcmc_s on {FIT}; smc_sde_s on {SCORE}")
    calls_self("simulate.psr_step.single", f"forecast_s on {FORECAST}")
    calls_self("simulate.psr_step.batch", f"smc_psr_s, mif_s on {SCORE}")
    calls_self("simulate.gillespie_interval",
               f"simulate_jump_s on {FORECAST}")
    add("simulate.gillespie.rate_evals_per_interval", "count",
        f"simulate_jump_s on {FORECAST}")
    # observe: data and observation densities
    calls_self("observe.stream_loglik",
               f"pmcmc_s on {FIT}; smc_psr_s, smc_sde_s, mif_s on {SCORE}")
    calls_self("observe.stream_moments",
               f"kmcmc_s on {FIT}; kalman_s on {SCORE}")
    calls_self("observe.stream_mean", f"forecast_s on {FORECAST}")
    for m in MODELS:
        add(f"observe.load_data_ms.{m}", "ms", "setup_s")
    # filters: the likelihoods
    calls_self("filters.ekf_filter",
               f"kmcmc_s, ksimplex_s on {FIT}; kalman_s on {SCORE}")
    for m in MODELS:
        add(f"filters.ekf_filter.ms_per_call.{m}", "ms", f"kalman_s on {SCORE}")
    add("filters.ode_loglik.ms_per_call", "ms", f"simplex_s on {FIT}")
    calls_self("filters.smc_filter",
               f"pmcmc_s on {FIT}; smc_psr_s, smc_sde_s on {SCORE}")
    for m in MODELS:
        for f in ("psr", "sde"):
            add(f"filters.smc_filter.ms_per_call.{m}.{f}", "ms",
                f"smc_{f}_s on {SCORE}; pmcmc_s on {FIT} for sir.sde")
    calls_self("filters.systematic_resample",
               f"pmcmc_s on {FIT}; smc_psr_s, smc_sde_s on {SCORE}")
    add("filters.smc_filter.ess_frac", "ratio",
        f"pmcmc_s on {FIT}; smc_psr_s, smc_sde_s on {SCORE}", "higher")
    # optimize: simplex and iterated filtering
    add("optimize.nelder_mead.iterations", "count",
        f"simplex_s, ksimplex_s on {FIT}")
    add("optimize.nelder_mead.evals", "count",
        f"simplex_s, ksimplex_s on {FIT}")
    add("optimize.nelder_mead.self_ms", "ms",
        f"simplex_s, ksimplex_s on {FIT}")
    add("optimize.mif.self_ms", "ms", f"mif_s on {SCORE}")
    add("optimize.mif.failed_pass_frac", "ratio", f"mif_s on {SCORE}")
    # mcmc: the chains
    add("mcmc.adaptive_chain.self_ms_per_iter", "ms",
        f"kmcmc_s, pmcmc_s on {FIT}")
    for s in ("kmcmc", "pmcmc"):
        add(f"mcmc.{s}.likelihood_evals_per_iter", "count",
            f"{s}_s on {FIT}")
        add(f"mcmc.{s}.accept_rate", "ratio", f"{s}_s on {FIT}", "higher")
    add("mcmc.finish_ms", "ms", f"kmcmc_s, pmcmc_s on {FIT}")
    add("mcmc.trace_write_ms", "ms", f"kmcmc_s, pmcmc_s on {FIT}")
    # forecast
    add("forecast.forecast_table.self_ms", "ms", f"forecast_s on {FORECAST}")
    # wall time of each stage in the untraced passes of the traced run, and
    # what tracing costs
    for s in STAGES:
        add(f"stage.{s}_s", "s", f"pass_s on the workload running {s}")
    add("trace.overhead_frac", "ratio", "nothing: traced against untraced")
    return out


METRICS = _metrics()


def _base(name):
    return name.split("[", 1)[0]


def _tag(name):
    return name[name.index("[") + 1:-1] if "[" in name else ""


class Spans:
    """Spans and counters summed over the commands of the traced passes."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(float)
        self.import_s = []

    def add(self, dump):
        for parent, name, calls, total, self_s in dump["spans"]:
            rec = self.spans[(parent, name)]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, value in dump["counters"].items():
            self.counters[name] += value
        self.import_s.append(dump["import_s"])

    def total(self, base=None, tag=None, name=None, parent=None):
        """[calls, total_s, self_s] over spans that match the filters."""
        out = [0, 0.0, 0.0]
        for (p, n), rec in self.spans.items():
            if name is not None and n != name:
                continue
            if base is not None and _base(n) != base:
                continue
            if tag is not None and _tag(n) != tag:
                continue
            if parent is not None and _base(p) != parent:
                continue
            for i in range(3):
                out[i] += rec[i]
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, passes, stage_walls, overhead):
    """Values for every name in METRICS.  `passes` is the number of traced
    passes the spans cover; `stage_walls` maps each stage label to its
    untraced wall seconds per pass."""
    v = {}
    c = spans.counters

    def calls_self(base):
        calls, _, self_s = spans.total(base=base)
        v[f"{base}.calls"] = calls / passes
        v[f"{base}.self_ms"] = 1e3 * self_s / passes

    def per_call(base, tag):
        calls, total_s, _ = spans.total(base=base, tag=tag)
        return 1e3 * _ratio(total_s, calls)

    for base in ("compiled.dynamics.single", "compiled.dynamics.batch",
                 "compiled.propensities.single", "compiled.propensities.batch",
                 "compiled.obs_values", "simulate.ode_step",
                 "simulate.sde_step", "simulate.psr_step.single",
                 "simulate.psr_step.batch", "simulate.gillespie_interval",
                 "observe.stream_loglik", "observe.stream_moments",
                 "observe.stream_mean", "filters.ekf_filter",
                 "filters.smc_filter", "filters.systematic_resample"):
        calls_self(base)
    v["compiled.process_cov_from.self_ms"] = \
        1e3 * spans.total(base="compiled.process_cov_from")[2] / passes
    for m in MODELS:
        v[f"compiled.compile_ms.{m}"] = per_call("compiled.compile", m)
        v[f"model.load_model_ms.{m}"] = per_call("model.load_model", m)
        v[f"observe.load_data_ms.{m}"] = per_call("observe.load_data", m)
        v[f"filters.ekf_filter.ms_per_call.{m}"] = \
            per_call("filters.ekf_filter", m)
        for f in ("psr", "sde"):
            v[f"filters.smc_filter.ms_per_call.{m}.{f}"] = \
                per_call("filters.smc_filter", f"{m}.{f}")
    v["model.prior_ms"] = 1e3 * spans.total(base="model.prior")[1] / passes
    v["cli.import_ms"] = 1e3 * _ratio(sum(spans.import_s),
                                      len(spans.import_s))
    for cmd in COMMANDS:
        v[f"cli.self_ms.{cmd}"] = \
            1e3 * spans.total(name=f"cli.main[{cmd}]")[2] / passes
    v["simulate.gillespie.rate_evals_per_interval"] = _ratio(
        spans.total(base="compiled.propensities.single",
                    parent="simulate.gillespie_interval")[0],
        spans.total(base="simulate.gillespie_interval")[0])
    v["filters.ode_loglik.ms_per_call"] = per_call("filters.ode_loglik", "")
    v["filters.smc_filter.ess_frac"] = _ratio(
        c["filters.smc_filter.ess_frac_sum"], c["filters.smc_filter.ess_frac_n"])
    v["optimize.nelder_mead.iterations"] = \
        c["optimize.nelder_mead.iterations"] / passes
    v["optimize.nelder_mead.evals"] = c["optimize.nelder_mead.evals"] / passes
    v["optimize.nelder_mead.self_ms"] = \
        1e3 * spans.total(base="optimize.nelder_mead")[2] / passes
    v["optimize.mif.self_ms"] = \
        1e3 * spans.total(base="optimize.mif")[2] / passes
    v["optimize.mif.failed_pass_frac"] = _ratio(
        c["optimize.mif.failed_passes"], c["optimize.mif.passes"])
    iters = {s: c[f"mcmc.{s}.iterations"] for s in ("kmcmc", "pmcmc")}
    v["mcmc.adaptive_chain.self_ms_per_iter"] = 1e3 * _ratio(
        spans.total(base="mcmc.adaptive_chain")[2], sum(iters.values()))
    for s, filt in (("kmcmc", "filters.ekf_filter"),
                    ("pmcmc", "filters.smc_filter")):
        v[f"mcmc.{s}.likelihood_evals_per_iter"] = _ratio(
            spans.total(base=filt, parent="mcmc.adaptive_chain")[0], iters[s])
        v[f"mcmc.{s}.accept_rate"] = _ratio(c[f"mcmc.{s}.accepted"], iters[s])
    v["mcmc.finish_ms"] = 1e3 * spans.total(base="mcmc.finish")[1] / passes
    v["mcmc.trace_write_ms"] = \
        1e3 * spans.total(base="mcmc.trace_write")[1] / passes
    v["forecast.forecast_table.self_ms"] = \
        1e3 * spans.total(base="forecast.forecast_table")[2] / passes
    for s in STAGES:
        v[f"stage.{s}_s"] = stage_walls.get(s, 0.0)
    v["trace.overhead_frac"] = overhead
    return v
