"""Model intermediate representation.

A model file declares compartments, parameters with priors and transforms,
reactions written against a small formula grammar, optional diffusing
parameters and the observation streams.  `parse_model` validates a JSON text
against the shipped schema plus the semantic rules (symbol resolution, source
compartments, transform/prior consistency) and returns an immutable
`ModelSpec` that every simulation and inference backend consumes.
"""

from __future__ import annotations

import json
import math
import re
from importlib import resources
from typing import NamedTuple

import numpy as np

from ssm import expr as ex
from ssm.observe import PARTS

EXTERNAL = "EXTERNAL"

# symbols with a built-in meaning inside formulas
TIME_SYMBOL = "t"
_RESERVED = {TIME_SYMBOL, "pi", EXTERNAL, "ifelse"} | set(
    ("sin", "cos", "exp", "log", "min", "max")
)


class ModelError(ValueError):
    """Model file failed schema or semantic validation."""


# ---------------------------------------------------------------------------
# parameter transforms

# Identity, Log and Logit, the transforms a driven parameter may take, also
# carry the source of the inverse, coordinate to natural value, formatted
# with its operand's source, and the chain factor d(natural)/d(coordinate)
# as a formula in the natural value q

class Identity:
    name = "identity"
    inverse_source = "{}"

    def chain(self, q):
        return ex.ONE

    def forward(self, x):
        return np.asarray(x, dtype=float) + 0.0

    def inverse(self, u):
        return np.asarray(u, dtype=float) + 0.0

    def log_jacobian(self, u):
        """log |d inverse / du|, the correction when sampling in u."""
        return np.zeros_like(np.asarray(u, dtype=float))

    def domain(self):
        return (-math.inf, math.inf)


class Log:
    name = "log"
    inverse_source = "exp({})"

    def chain(self, q):
        return q

    def forward(self, x):
        return np.log(x)

    def inverse(self, u):
        return np.exp(u)

    def log_jacobian(self, u):
        return np.asarray(u, dtype=float) + 0.0

    def domain(self):
        return (0.0, math.inf)


class Logit:
    name = "logit"
    inverse_source = "1.0/(1.0 + exp(-({0})))"

    def chain(self, q):
        return ex.mul(q, ex.sub(ex.ONE, q))

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        return np.log(x / (1.0 - x))

    def inverse(self, u):
        return 1.0 / (1.0 + np.exp(-np.asarray(u, dtype=float)))

    def log_jacobian(self, u):
        x = self.inverse(u)
        return np.log(x) + np.log1p(-x)

    def domain(self):
        return (0.0, 1.0)


class ScaledLogit(NamedTuple):
    low: float
    high: float
    name = "scaled_logit"

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        return np.log((x - self.low) / (self.high - x))

    def inverse(self, u):
        s = 1.0 / (1.0 + np.exp(-np.asarray(u, dtype=float)))
        return self.low + (self.high - self.low) * s

    def log_jacobian(self, u):
        x = self.inverse(u)
        return np.log(x - self.low) + np.log(self.high - x) - math.log(self.high - self.low)

    def domain(self):
        return (self.low, self.high)


def _parse_transform(raw):
    if raw is None or raw == "identity":
        return Identity()
    if raw == "log":
        return Log()
    if raw == "logit":
        return Logit()
    # the schema leaves {"scaled_logit": [low, high]}
    low, high = raw["scaled_logit"]
    if not low < high:
        raise ModelError(f"scaled_logit bounds must satisfy low < high, got [{low}, {high}]")
    return ScaledLogit(float(low), float(high))


# ---------------------------------------------------------------------------
# priors: `log_density(x)` is the natural-scale log density of a value, a
# float for a float and an array for a column, -inf outside the support

_LOG_2PI = math.log(2.0 * math.pi)


def _shaped(out):
    """A float for a float argument, the array for a column."""
    return out if out.ndim else float(out)


class Uniform(NamedTuple):
    low: float
    high: float
    name = "uniform"

    def log_density(self, x):
        x = np.asarray(x, dtype=float)
        return _shaped(np.where((x >= self.low) & (x <= self.high),
                                -math.log(self.high - self.low), -np.inf))

    def support(self):
        return (self.low, self.high)


class Normal(NamedTuple):
    mean: float
    sd: float
    name = "normal"

    def log_density(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        return _shaped(-0.5 * (z * z + _LOG_2PI) - math.log(self.sd))

    def support(self):
        return (-math.inf, math.inf)


class LogNormal(NamedTuple):
    mean_log: float
    sd_log: float
    name = "lognormal"

    def log_density(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            lx = np.log(np.where(x > 0, x, 1.0))
            z = (lx - self.mean_log) / self.sd_log
            out = -0.5 * (z * z + _LOG_2PI) - math.log(self.sd_log) - lx
        return _shaped(np.where(x > 0, out, -np.inf))

    def support(self):
        return (0.0, math.inf)


class Dirac(NamedTuple):
    value: float
    name = "dirac"

    def log_density(self, x):
        return _shaped(np.where(np.asarray(x) == self.value, 0.0, -np.inf))

    def support(self):
        return (self.value, self.value)


def _parse_prior(raw):
    ((kind, args),) = raw.items()
    if kind == "uniform":
        low, high = map(float, args)
        if not low < high:
            raise ModelError(f"uniform prior needs low < high, got [{low}, {high}]")
        return Uniform(low, high)
    if kind == "normal":
        mean, sd = map(float, args)
        if sd <= 0:
            raise ModelError(f"normal prior needs sd > 0, got {sd}")
        return Normal(mean, sd)
    if kind == "lognormal":
        mean, sd = map(float, args)
        if sd <= 0:
            raise ModelError(f"lognormal prior needs sd > 0, got {sd}")
        return LogNormal(mean, sd)
    # the schema leaves dirac
    return Dirac(float(args))


# ---------------------------------------------------------------------------
# definition records

class ParameterDef(NamedTuple):
    name: str
    prior: object
    transform: object
    role: str  # estimated | fixed | initial_condition

    @property
    def free(self):
        return self.role in ("estimated", "initial_condition")


class ReactionDef(NamedTuple):
    index: int
    effect: tuple  # pairs (compartment index, integer change)
    source: int | None  # compartment index, None for EXTERNAL
    rate: ex.Expr
    accumulators: tuple


class NoiseGroup(NamedTuple):
    name: str
    sd_param: str
    members: tuple  # reaction indices


class DiffusionDef(NamedTuple):
    name: str
    transform: object  # transform linking natural quantity to the driven coordinate
    drift: ex.Expr
    volatility: ex.Expr
    initial_param: str


class ObservationDef(NamedTuple):
    name: str
    distribution: str  # a key of observe.PARTS
    parts: tuple       # the law's formulas, in observe.PARTS order


class ModelSpec(NamedTuple):
    name: str
    compartments: tuple
    compartment_initials: tuple
    parameters: tuple
    reactions: tuple
    noise_groups: tuple
    diffusions: tuple
    observations: tuple
    accumulators: tuple
    stoichiometry: np.ndarray  # (compartments, reactions)

    @property
    def n_reactions(self):
        return len(self.reactions)

    def free_parameters(self):
        return ParameterSpace(tuple(p for p in self.parameters if p.free))

    def resolve_values(self, values):
        """Merge document values over dirac defaults into a full parameter map.

        Raises ModelError when a non-dirac parameter has no value.
        """
        out = {}
        for p in self.parameters:
            if values is not None and p.name in values:
                out[p.name] = float(values[p.name])
            elif isinstance(p.prior, Dirac):
                out[p.name] = p.prior.value
            else:
                raise ModelError(f"no value supplied for parameter '{p.name}'")
        if values:
            unknown = set(values) - {p.name for p in self.parameters}
            if unknown:
                raise ModelError(
                    f"unknown parameter name(s) in values: {', '.join(sorted(unknown))}"
                )
        return out


class ParameterSpace:
    """The free parameters in declaration order, with the machinery to move
    between natural scale and the unconstrained sampling scale."""

    def __init__(self, params):
        self.params = tuple(params)
        self.names = tuple(p.name for p in self.params)
        self.dim = len(self.params)

    def to_unconstrained(self, values):
        return np.array(
            [float(p.transform.forward(values[p.name])) for p in self.params]
        )

    def to_natural(self, u):
        """natural_columns of one unconstrained vector, as floats."""
        return {name: float(v) for name, v in self.natural_columns(u).items()}

    def log_prior_natural(self, values):
        """Natural-scale log prior of a value or a column per parameter."""
        return sum(p.prior.log_density(values[p.name]) for p in self.params)

    def perturbation_matrix(self, sds):
        """Diagonal covariance on the unconstrained scale from per-parameter
        standard deviations; parameters missing from `sds` get zero."""
        diag = np.array([float(sds.get(name, 0.0)) ** 2 for name in self.names])
        return np.diag(diag)

    def natural_columns(self, u):
        """Natural-scale values per free parameter for a batch of
        unconstrained vectors; u has the parameter axis last."""
        u = np.asarray(u, dtype=float)
        return {
            p.name: p.transform.inverse(u[..., i])
            for i, p in enumerate(self.params)
        }

    def zero_prior(self, u):
        """Why the log prior at the unconstrained vector u is not finite:
        the first parameter whose term is not, with its value and its
        prior's support (a value on its edge can still have a zero density
        on this scale), or else the sum of the terms."""
        for i, p in enumerate(self.params):
            value = float(p.transform.inverse(u[i]))
            if not np.isfinite(p.prior.log_density(value)
                               + p.transform.log_jacobian(u[i])):
                lo, hi = p.prior.support()
                where = "lies on the edge of" if lo <= value <= hi else \
                    "lies outside"
                return (f"{p.name} = {value:g} {where} the support "
                        f"[{lo:g}, {hi:g}] of its {p.prior.name} prior")
        return "the log prior, a sum of finite terms, is not finite"

    def log_prior_unconstrained(self, u):
        """Log prior density on the unconstrained scale, batched like
        natural_columns: the natural density times the transform Jacobian."""
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape[:-1])
        for i, p in enumerate(self.params):
            ui = u[..., i]
            nat = p.transform.inverse(ui)
            out = out + p.prior.log_density(nat) + p.transform.log_jacobian(ui)
        return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# parsing and validation

def _schema():
    text = resources.files("ssm.schema").joinpath("model-v1.schema.json").read_text()
    return json.loads(text)


# draft 7 types: a bool is no number, an integral float is an integer
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def _json_equal(a, b):
    """Equality as JSON Schema's const and enum see it: 1 == 1.0, True != 1."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _violation(value, schema, root, path=()):
    """The first place where `value` breaks `schema`, as (path, message), or
    None.  Draft 7, for the keywords model-v1.schema.json uses: type, $ref
    into definitions, properties, required, additionalProperties, items,
    minItems, maxItems, enum, anyOf, pattern, const, minLength and
    min/maxProperties; annotations such as title are ignored."""
    if "$ref" in schema:  # draft 7 ignores the keywords beside a $ref
        name = schema["$ref"].removeprefix("#/definitions/")
        return _violation(value, root["definitions"][name], root, path)
    if "type" in schema and not _JSON_TYPES[schema["type"]](value):
        return path, f"{value!r} is not of type {schema['type']!r}"
    if "const" in schema and not _json_equal(value, schema["const"]):
        return path, f"{schema['const']!r} was expected"
    if "enum" in schema and not any(_json_equal(value, e)
                                    for e in schema["enum"]):
        return path, f"{value!r} is not one of {schema['enum']!r}"
    if "anyOf" in schema and all(_violation(value, s, root, path)
                                 for s in schema["anyOf"]):
        return path, f"{value!r} is not valid under any of the given schemas"
    if isinstance(value, str):
        if len(value) < schema.get("minLength", 0):
            return path, f"{value!r} is too short"
        if "pattern" in schema and not re.search(schema["pattern"], value):
            return path, f"{value!r} does not match {schema['pattern']!r}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, f"{value!r} is too short"
        if len(value) > schema.get("maxItems", math.inf):
            return path, f"{value!r} is too long"
        for i, item in enumerate(value if "items" in schema else ()):
            found = _violation(item, schema["items"], root, (*path, i))
            if found:
                return found
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return path, f"{key!r} is a required property"
        if len(value) < schema.get("minProperties", 0):
            return path, f"{value!r} does not have enough properties"
        if len(value) > schema.get("maxProperties", math.inf):
            return path, f"{value!r} has too many properties"
        known = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            sub = known.get(key, extra)
            if sub is False:
                return path, (f"Additional properties are not allowed "
                              f"({key!r} was unexpected)")
            found = sub is not True and _violation(item, sub, root,
                                                   (*path, key))
            if found:
                return found
    return None


def _parse_formula(raw, where):
    if isinstance(raw, (int, float)):
        return ex.Const(float(raw))
    try:
        return ex.parse(raw)
    except ex.ExprError as err:
        raise ModelError(f"bad formula in {where}: {err}") from None


def _check_symbols(tree, allowed, where, condition_allowed=None):
    unknown = tree.free_symbols() - allowed
    if unknown:
        name = sorted(unknown)[0]
        raise ModelError(f"unknown symbol '{name}' in {where}")
    if condition_allowed is None:
        return
    # branch conditions may only involve time and parameters, which keeps
    # linearization exact between observation times
    for node in tree.walk():
        sides = (node.lhs, node.rhs) if isinstance(node, ex.Ifelse) else ()
        for part in sides:
            bad = part.free_symbols() - condition_allowed
            if bad:
                raise ModelError(
                    f"ifelse condition in {where} may only use time and "
                    f"parameters, found '{sorted(bad)[0]}'"
                )


def parse_model(text):
    """Parse and validate a model document given as JSON text (or a dict)."""
    if isinstance(text, (str, bytes)):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            raise ModelError(f"model file is not valid JSON: {err}") from None
    else:
        raw = text

    schema = _schema()
    found = _violation(raw, schema, schema)
    if found:
        path = "/".join(str(p) for p in found[0]) or "(document root)"
        raise ModelError(f"model schema violation at {path}: {found[1]}")

    name = raw.get("name", "model")

    # --- compartments
    comp_names = []
    comp_initials = []
    for c in raw["compartments"]:
        if c["name"] in comp_names:
            raise ModelError(f"duplicate compartment '{c['name']}'")
        if c["name"] in _RESERVED:
            raise ModelError(f"compartment name '{c['name']}' is reserved")
        comp_names.append(c["name"])
        comp_initials.append(_parse_formula(c["initial"], f"initial of '{c['name']}'"))
    comp_index = {n: i for i, n in enumerate(comp_names)}

    # --- parameters
    params = []
    seen = set(comp_names)
    for p in raw["parameters"]:
        if p["name"] in seen or p["name"] in _RESERVED:
            raise ModelError(f"duplicate or reserved parameter name '{p['name']}'")
        seen.add(p["name"])
        prior = _parse_prior(p["prior"])
        transform = _parse_transform(p.get("transform"))
        role = p.get("role", "estimated")
        if isinstance(prior, Dirac) and role != "fixed":
            raise ModelError(
                f"parameter '{p['name']}' has a dirac prior; declare it with "
                f"role 'fixed'"
            )
        lo, hi = transform.domain()
        plo, phi = prior.support()
        if plo < lo or phi > hi:
            raise ModelError(
                f"prior support [{plo}, {phi}] of '{p['name']}' escapes the "
                f"domain of its {transform.name} transform"
            )
        params.append(ParameterDef(p["name"], prior, transform, role))
    param_names = {p.name for p in params}

    # --- diffusions
    diffusions = []
    for d in raw.get("diffusions", []):
        if d["name"] in seen or d["name"] in _RESERVED:
            raise ModelError(f"duplicate or reserved diffusion name '{d['name']}'")
        seen.add(d["name"])
        if d["initial"] not in param_names:
            raise ModelError(
                f"diffusion '{d['name']}' starts from unknown parameter "
                f"'{d['initial']}'"
            )
        diffusions.append(
            DiffusionDef(
                d["name"],
                _parse_transform(d.get("transform")),
                _parse_formula(d.get("drift", 0.0), f"drift of '{d['name']}'"),
                _parse_formula(d["volatility"], f"volatility of '{d['name']}'"),
                d["initial"],
            )
        )
    diff_names = [d.name for d in diffusions]

    # --- reactions
    c = len(comp_names)
    reactions = []
    accumulators = []
    groups = {}
    rate_symbols = set(comp_names) | param_names | set(diff_names) | {TIME_SYMBOL}
    condition_symbols = param_names | {TIME_SYMBOL}
    for k, r in enumerate(raw["reactions"]):
        has_sugar = "from" in r or "to" in r
        if has_sugar and "effect" in r:
            raise ModelError(
                f"reaction {k}: give either from/to or an explicit effect, not both"
            )
        if has_sugar:
            frm = r.get("from", EXTERNAL)
            to = r.get("to", EXTERNAL)
            effect = {}
            if frm != EXTERNAL:
                if frm not in comp_index:
                    raise ModelError(f"reaction {k}: unknown compartment '{frm}'")
                effect[frm] = effect.get(frm, 0) - 1
            if to != EXTERNAL:
                if to not in comp_index:
                    raise ModelError(f"reaction {k}: unknown compartment '{to}'")
                effect[to] = effect.get(to, 0) + 1
            effect = {n: v for n, v in effect.items() if v != 0}
            source_name = r.get("source", frm)
            label = f"{frm}->{to}"
        else:
            effect = dict(r.get("effect", {}))
            for n in effect:
                if n not in comp_index:
                    raise ModelError(f"reaction {k}: unknown compartment '{n}' in effect")
            effect = {n: int(v) for n, v in effect.items() if int(v) != 0}
            source_name = r.get("source")
            label = r.get("source", "?") + ":" + ",".join(sorted(effect))
        if not effect:
            raise ModelError(f"reaction {k}: empty effect")

        negatives = [n for n, v in effect.items() if v < 0]
        if source_name is None:
            if len(negatives) == 1:
                source_name = negatives[0]
            else:
                raise ModelError(
                    f"reaction {k}: source compartment is ambiguous, declare "
                    f"'source' explicitly"
                )
        if source_name == EXTERNAL:
            source = None
            if negatives and not r.get("absolute_outflow", False):
                raise ModelError(
                    f"reaction {k}: an EXTERNAL source cannot remove individuals "
                    f"unless 'absolute_outflow' is set"
                )
        else:
            if source_name not in comp_index:
                raise ModelError(f"reaction {k}: unknown source '{source_name}'")
            source = comp_index[source_name]

        rate = _parse_formula(r["rate"], f"rate of reaction {k} ({label})")
        _check_symbols(
            rate,
            rate_symbols,
            f"rate of reaction {k} ({label})",
            condition_allowed=condition_symbols,
        )

        accs = tuple(r.get("accumulators", ()))
        for a in accs:
            if a in seen and a not in accumulators:
                raise ModelError(f"accumulator '{a}' collides with another name")
            if a not in accumulators:
                accumulators.append(a)
                seen.add(a)

        wn = r.get("white_noise")
        if wn:
            group_name = wn["group"]
            if wn["sd"] not in param_names:
                raise ModelError(
                    f"reaction {k}: white noise sd '{wn['sd']}' is not a parameter"
                )
            if group_name in groups and groups[group_name][0] != wn["sd"]:
                raise ModelError(
                    f"noise group '{group_name}' declared with two different sds"
                )
            groups.setdefault(group_name, (wn["sd"], []))[1].append(k)

        reactions.append(
            ReactionDef(
                index=k,
                effect=tuple(sorted((comp_index[n], v) for n, v in effect.items())),
                source=source,
                rate=rate,
                accumulators=accs,
            )
        )

    noise_groups = tuple(
        NoiseGroup(g, sd, tuple(members)) for g, (sd, members) in groups.items()
    )

    # --- observations
    observations = []
    obs_symbols = rate_symbols | set(accumulators)
    obs_names = set()
    for o in raw.get("observations", []):
        if o["name"] in obs_names:
            raise ModelError(f"duplicate observation stream '{o['name']}'")
        obs_names.add(o["name"])
        dist = o["distribution"]
        where = f"observation '{o['name']}'"
        foreign = sorted(set(o) - {"name", "distribution", *PARTS[dist]})
        if foreign:
            raise ModelError(f"{where}: {dist} reads no '{foreign[0]}'")
        parts = []
        for part in PARTS[dist]:
            if part not in o:
                raise ModelError(f"{where}: {dist} needs '{part}'")
            parts.append(_parse_formula(o[part], where))
            _check_symbols(parts[-1], obs_symbols, where, condition_symbols)
        observations.append(ObservationDef(o["name"], dist, tuple(parts)))

    # --- cross checks
    for tree, where in zip(comp_initials, comp_names):
        _check_symbols(tree, param_names, f"initial of '{where}'")
    for d in diffusions:
        where = f"diffusion '{d.name}'"
        allowed = rate_symbols
        _check_symbols(d.drift, allowed, where, condition_symbols)
        _check_symbols(d.volatility, allowed, where, condition_symbols)
        init_prior = next(p for p in params if p.name == d.initial_param).prior
        lo, hi = d.transform.domain()
        plo, phi = init_prior.support()
        if plo < lo or phi > hi:
            raise ModelError(
                f"diffusion '{d.name}': initial parameter '{d.initial_param}' can "
                f"fall outside the {d.transform.name} domain"
            )

    # the schema's identifier pattern is matched with re.search, whose $
    # also matches before a final newline
    bad = sorted(n for n in seen | obs_names | set(groups) if n.endswith("\n"))
    if bad:
        raise ModelError(f"name {bad[0]!r} is not an identifier")

    pop_param = raw.get("population_size")
    if pop_param is not None and pop_param not in param_names:
        raise ModelError(f"population_size names unknown parameter '{pop_param}'")

    stoich = np.zeros((c, len(reactions)), dtype=float)
    for r in reactions:
        for idx, change in r.effect:
            stoich[idx, r.index] = change

    return ModelSpec(
        name=name,
        compartments=tuple(comp_names),
        compartment_initials=tuple(comp_initials),
        parameters=tuple(params),
        reactions=tuple(reactions),
        noise_groups=noise_groups,
        diffusions=tuple(diffusions),
        observations=tuple(observations),
        accumulators=tuple(accumulators),
        stoichiometry=stoich,
    )


def load_model(path):
    """Read and validate a model file from disk."""
    with open(path) as fh:
        return parse_model(fh.read())
