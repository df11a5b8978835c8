"""Model parsing, validation, transforms and priors."""

import copy
import json
import math
import random

import numpy as np
import pytest

from ssm.model import (
    EXTERNAL,
    Dirac,
    Identity,
    Log,
    Logit,
    ModelError,
    ScaledLogit,
    Uniform,
    parse_model,
    _schema,
)
from ssm.observe import PARTS

from helpers import ROOT, SIR, LOCAL_LEVEL, sir_model, local_level_model

SHIPPED = ("sir", "plague", "seir-h1n1", "dengue-2strain")
ALL_PARTS = {part for parts in PARTS.values() for part in parts}


def variant(base, mutate):
    doc = copy.deepcopy(base)
    mutate(doc)
    return json.dumps(doc)


class TestStructure:
    def test_sir_shapes(self):
        m = sir_model()
        assert m.compartments == ("S", "I", "R")
        assert m.n_reactions == 2
        assert m.accumulators == ("cases",)
        np.testing.assert_array_equal(
            m.stoichiometry, [[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]]
        )

    def test_source_defaults_to_unique_negative(self):
        m = sir_model()
        assert m.reactions[0].source == 0  # S
        assert m.reactions[1].source == 1  # I

    def test_exit_reaction_breaks_conservation(self):
        m = sir_model(
            reactions=[
                {"from": "S", "to": "I", "rate": "beta*I/N"},
                {"from": "I", "rate": "gamma"},  # death, leaves the population
            ],
            observations=[],
        )
        assert m.reactions[1].effect == ((1, -1),)

    def test_external_inflow(self):
        m = sir_model(
            reactions=[
                {"from": EXTERNAL, "to": "S", "rate": "0.1"},
                {"from": "I", "to": "R", "rate": "gamma"},
            ],
            observations=[],
        )
        assert m.reactions[0].source is None
        assert m.reactions[0].effect == ((0, 1),)

    def test_pure_diffusion_model_accepted(self):
        m = local_level_model()
        assert len(m.compartments) == 0
        assert m.n_reactions == 0
        assert m.diffusions[0].name == "x"

    def test_explicit_effect_with_source(self):
        m = sir_model(
            reactions=[
                {
                    "effect": {"I": 1},
                    "source": "I",
                    "rate": "beta*(1 - I/N)",
                }
            ],
            observations=[],
        )
        assert m.reactions[0].effect == ((1, 1),)
        assert m.reactions[0].source == 1

    def test_noise_groups_collected(self):
        m = sir_model(
            parameters=SIR["parameters"]
            + [{"name": "sig", "prior": {"uniform": [0.01, 1]}, "transform": "log"}],
            reactions=[
                {
                    "from": "S",
                    "to": "I",
                    "rate": "beta*I/N",
                    "white_noise": {"group": "g1", "sd": "sig"},
                },
                {
                    "from": "I",
                    "to": "R",
                    "rate": "gamma",
                    "white_noise": {"group": "g1", "sd": "sig"},
                },
            ],
            observations=[],
        )
        assert len(m.noise_groups) == 1
        assert m.noise_groups[0].members == (0, 1)
        assert m.noise_groups[0].sd_param == "sig"


class TestValidation:
    def test_unknown_symbol_names_symbol_and_reaction(self):
        bad = variant(
            SIR, lambda d: d["reactions"].__setitem__(
                0, {"from": "S", "to": "I", "rate": "beta*J/N"}
            )
        )
        with pytest.raises(ModelError, match="'J'.*reaction 0|unknown symbol 'J'"):
            parse_model(bad)

    def test_duplicate_compartment(self):
        bad = variant(
            SIR,
            lambda d: d["compartments"].append({"name": "S", "initial": 0}),
        )
        with pytest.raises(ModelError, match="duplicate compartment 'S'"):
            parse_model(bad)

    def test_empty_effect(self):
        bad = variant(
            SIR,
            lambda d: d["reactions"].__setitem__(0, {"effect": {}, "rate": "1"}),
        )
        with pytest.raises(ModelError, match="empty effect"):
            parse_model(bad)

    def test_ambiguous_source_needs_declaration(self):
        bad = variant(
            SIR,
            lambda d: d["reactions"].__setitem__(
                0, {"effect": {"S": -1, "I": -1}, "rate": "beta"}
            ),
        )
        with pytest.raises(ModelError, match="ambiguous"):
            parse_model(bad)

    def test_external_cannot_remove_without_flag(self):
        bad = variant(
            SIR,
            lambda d: (
                d["reactions"].__setitem__(
                    0, {"effect": {"S": -1}, "source": "EXTERNAL", "rate": "5"}
                ),
                d.__setitem__("observations", []),
            ),
        )
        with pytest.raises(ModelError, match="absolute_outflow"):
            parse_model(bad)
        ok = variant(
            SIR,
            lambda d: (
                d["reactions"].__setitem__(
                    0,
                    {
                        "effect": {"S": -1},
                        "source": "EXTERNAL",
                        "rate": "5",
                        "absolute_outflow": True,
                    },
                ),
                d.__setitem__("observations", []),
            ),
        )
        assert parse_model(ok).reactions[0].source is None

    def test_transform_prior_mismatch(self):
        bad = variant(
            SIR,
            lambda d: d["parameters"].__setitem__(
                2,
                {"name": "beta", "prior": {"normal": [0, 1]}, "transform": "log"},
            ),
        )
        with pytest.raises(ModelError, match="escapes the domain"):
            parse_model(bad)

    def test_dirac_must_be_fixed(self):
        bad = variant(
            SIR,
            lambda d: d["parameters"].__setitem__(
                0, {"name": "N", "prior": {"dirac": 1000}, "role": "estimated"}
            ),
        )
        with pytest.raises(ModelError, match="dirac"):
            parse_model(bad)

    def test_state_in_branch_condition_rejected(self):
        bad = variant(
            SIR,
            lambda d: d["reactions"].__setitem__(
                0,
                {"from": "S", "to": "I", "rate": "ifelse(I < 50, beta, beta/2)*I/N"},
            ),
        )
        with pytest.raises(ModelError, match="condition"):
            parse_model(bad)
        ok = variant(
            SIR,
            lambda d: (
                d["reactions"].__setitem__(
                    0,
                    {"from": "S", "to": "I", "rate": "ifelse(t < 50, beta, beta/2)*I/N"},
                ),
                d.__setitem__("observations", []),
            ),
        )
        assert parse_model(ok).n_reactions == 2

    def test_schema_rejects_unknown_keys(self):
        bad = variant(SIR, lambda d: d.__setitem__("extra_block", {}))
        with pytest.raises(ModelError, match="schema"):
            parse_model(bad)

    def test_version_marker_required(self):
        bad = variant(SIR, lambda d: d.pop("ssm_model"))
        with pytest.raises(ModelError):
            parse_model(bad)

    def test_initial_may_only_use_parameters(self):
        bad = variant(
            SIR,
            lambda d: d["compartments"].__setitem__(
                0, {"name": "S", "initial": "N - I"}
            ),
        )
        with pytest.raises(ModelError, match="'I'"):
            parse_model(bad)

    def test_population_size_must_exist(self):
        bad = variant(SIR, lambda d: d.__setitem__("population_size", "M"))
        with pytest.raises(ModelError, match="'M'"):
            parse_model(bad)

    @pytest.mark.parametrize("law", sorted(PARTS))
    def test_stream_reads_exactly_its_laws_formulas(self, law):
        def parsed(stream):
            return parse_model(variant(
                SIR, lambda d: d.__setitem__("observations", [stream])))

        ok = {"name": "obs", "distribution": law,
              **dict.fromkeys(PARTS[law], "cases")}
        assert len(parsed(ok).observations[0].parts) == len(PARTS[law])
        foreign = min(ALL_PARTS - set(PARTS[law]))
        with pytest.raises(ModelError,
                           match=f"'obs': {law} reads no '{foreign}'"):
            parsed(dict(ok, **{foreign: "1"}))
        for part in PARTS[law]:
            with pytest.raises(ModelError,
                               match=f"'obs': {law} needs '{part}'"):
                parsed({k: v for k, v in ok.items() if k != part})


def shipped_model(stem):
    return json.loads((ROOT / "src" / "ssm" / "models" / f"{stem}.json")
                      .read_text())


def nodes(doc, path=()):
    """Every (path, value) in a JSON document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from nodes(value, (*path, key))


WRONG_TYPED = ["x", 7, 2.0, 0.5, True, None, [], {}, [1, 2]]
BAD_IDENTIFIERS = ["1S", "a-b", "two words", "", "\u00e9", "S\n"]
WRONG_VERSIONS = [0, 2, 1.0, True, "1", None, [1]]


def mutate(doc, rng):
    """One seeded mutation in place: a value swapped for one of another
    type, a deleted key, a key unknown where it lands, an emptied array, a
    string that is no identifier, or another ssm_model marker."""
    found = list(nodes(doc))
    kind = rng.choice(("retype", "delete", "unknown", "empty", "identifier",
                       "version"))
    dicts = [v for _, v in found if isinstance(v, dict)]
    if kind == "delete":
        target = rng.choice([d for d in dicts if d])
        del target[rng.choice(sorted(target))]
    elif kind == "unknown":
        # a key and value from elsewhere in the document, or a new one
        donor = rng.choice(dicts)
        key, value = (rng.choice(sorted(donor.items())) if donor
                      and rng.random() < 0.5 else
                      ("zz_unknown", rng.choice(WRONG_TYPED + [[0, 1, 2]])))
        rng.choice(dicts)[key] = copy.deepcopy(value)
    elif kind == "version":
        doc["ssm_model"] = rng.choice(WRONG_VERSIONS)
    else:
        want = {"retype": object, "empty": list, "identifier": str}[kind]
        paths = [p for p, v in found if p and isinstance(v, want)]
        path = rng.choice(paths)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        parent[path[-1]] = (
            [] if kind == "empty" else
            rng.choice(BAD_IDENTIFIERS) if kind == "identifier" else
            rng.choice([v for v in WRONG_TYPED if type(v) is not type(old)]))


def schema_verdict(doc):
    """parse_model's schema verdict on a document: None when the schema
    accepts it, else the path its message names."""
    try:
        parse_model(json.dumps(doc))
    except ModelError as err:
        prefix = "model schema violation at "
        if str(err).startswith(prefix):
            return str(err)[len(prefix):].split(": ", 1)[0]
    return None


class TestSchemaValidator:
    def test_observation_laws_are_the_declared_ones(self):
        stream = _schema()["properties"]["observations"]["items"]
        assert sorted(stream["properties"]["distribution"]["enum"]) == sorted(
            PARTS)
        assert set(stream["properties"]) == {"name", "distribution",
                                             *ALL_PARTS}

    # the keywords the validator in ssm.model implements, and the
    # annotations it ignores
    KEYWORDS = {"type", "$ref", "definitions", "properties", "required",
                "additionalProperties", "items", "minItems", "maxItems",
                "enum", "anyOf", "pattern", "const", "minLength",
                "minProperties", "maxProperties"}
    ANNOTATIONS = {"$schema", "$id", "title"}

    def test_schema_uses_only_implemented_keywords(self):
        def walk(schema, where):
            assert isinstance(schema, dict), f"{where}: not an object"
            unknown = set(schema) - self.KEYWORDS - self.ANNOTATIONS
            assert not unknown, f"{where}: unimplemented {sorted(unknown)}"
            if "$ref" in schema:
                assert schema["$ref"].startswith("#/definitions/"), where
            if "type" in schema:  # one type name, not a list of them
                assert schema["type"] in {
                    "object", "array", "string", "boolean", "null",
                    "number", "integer"}, where
            for key in ("properties", "definitions"):
                for name, sub in schema.get(key, {}).items():
                    walk(sub, f"{where}/{key}/{name}")
            for key in ("items", "additionalProperties"):
                if schema.get(key) not in (None, True, False):
                    walk(schema[key], f"{where}/{key}")
            for i, sub in enumerate(schema.get("anyOf", ())):
                walk(sub, f"{where}/anyOf/{i}")

        walk(_schema(), "#")

    @pytest.mark.parametrize("value,ok", [
        (1, True), (1.0, True), (True, False), ("1", False), (2, False)])
    def test_version_marker_compares_as_json(self, value, ok):
        doc = dict(shipped_model("sir"), ssm_model=value)
        assert (schema_verdict(doc) is None) == ok

    @pytest.mark.parametrize("value,ok", [
        (-1, True), (1.0, True), (1.5, False), (True, False), ("1", False)])
    def test_effect_entries_are_integers(self, value, ok):
        doc = shipped_model("sir")
        doc["reactions"][0]["effect"] = {"S": value, "I": 1}
        verdict = schema_verdict(doc)
        assert verdict is None if ok else verdict == "reactions/0/effect/S"

    @pytest.mark.parametrize("bounds,where", [
        ([0.05, 5], None), ([0, 5.0], None), ([0.05], ""), ([], ""),
        ([0.05, 5, 9], ""), ([0.05, True], "/1")])
    def test_prior_bounds_are_pairs(self, bounds, where):
        doc = copy.deepcopy(SIR)
        doc["parameters"][2]["prior"] = {"uniform": bounds}
        want = None if where is None else "parameters/2/prior/uniform" + where
        assert schema_verdict(doc) == want

    def test_agrees_with_jsonschema_on_mutants(self):
        jsonschema = pytest.importorskip("jsonschema")
        validator = jsonschema.Draft7Validator(_schema())
        rng = random.Random(20261018)
        bases = {stem: shipped_model(stem) for stem in SHIPPED}
        rejected = 0
        for n in range(2400):
            doc = copy.deepcopy(bases[SHIPPED[n % len(SHIPPED)]])
            for _ in range(rng.randint(1, 3)):
                mutate(doc, rng)
            doc = json.loads(json.dumps(doc))
            errors = list(validator.iter_errors(doc))
            verdict = schema_verdict(doc)
            assert (verdict is None) == (not errors), (n, doc, errors)
            if len(errors) == 1:
                want = "/".join(map(str, errors[0].absolute_path))
                assert verdict == (want or "(document root)"), (n, doc)
            rejected += bool(errors)
        # the mutants exercise both verdicts
        assert 600 < rejected < 2300, rejected


class TestTransforms:
    @pytest.mark.parametrize(
        "transform,values",
        [
            (Identity(), [-3.0, 0.0, 7.5]),
            (Log(), [0.01, 1.0, 250.0]),
            (Logit(), [0.01, 0.5, 0.99]),
            (ScaledLogit(2.0, 10.0), [2.5, 6.0, 9.9]),
        ],
    )
    def test_round_trip(self, transform, values):
        for x in values:
            u = float(transform.forward(x))
            assert float(transform.inverse(u)) == pytest.approx(x, rel=1e-12, abs=1e-12)

    def test_scaled_logit_midpoint_maps_to_zero(self):
        tr = ScaledLogit(2.0, 10.0)
        assert float(tr.forward(6.0)) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize(
        "transform,u_values",
        [
            (Identity(), [-1.0, 0.3]),
            (Log(), [-2.0, 0.0, 1.5]),
            (Logit(), [-3.0, 0.0, 2.0]),
            (ScaledLogit(1.0, 4.0), [-2.0, 0.5]),
        ],
    )
    def test_log_jacobian_matches_numeric_derivative(self, transform, u_values):
        h = 1e-6
        for u in u_values:
            numeric = (float(transform.inverse(u + h)) - float(transform.inverse(u - h))) / (
                2 * h
            )
            assert float(transform.log_jacobian(u)) == pytest.approx(
                math.log(abs(numeric)), abs=1e-8
            )

    def test_round_trip_through_prior_draws(self):
        rng = np.random.default_rng(3)
        m = sir_model()
        for p in m.parameters:
            for _ in range(100):
                x = rng.uniform(*p.prior.support())
                u = float(p.transform.forward(x))
                assert float(p.transform.inverse(u)) == pytest.approx(
                    x, rel=1e-12, abs=1e-12
                )


class TestParameterSpace:
    def test_free_subset_and_round_trip(self):
        m = sir_model()
        space = m.free_parameters()
        assert space.names == ("beta", "gamma")
        values = {"beta": 0.7, "gamma": 0.2}
        u = space.to_unconstrained(values)
        np.testing.assert_allclose(u, [math.log(0.7), math.log(0.2)])
        back = space.to_natural(u)
        assert back["beta"] == pytest.approx(0.7, rel=1e-14)
        assert back["gamma"] == pytest.approx(0.2, rel=1e-14)

    def test_log_prior_and_jacobian(self):
        m = sir_model()
        space = m.free_parameters()
        values = {"beta": 0.7, "gamma": 0.2}
        expected = 2 * -math.log(5 - 0.05)
        assert space.log_prior_natural(values) == pytest.approx(expected)
        u = space.to_unconstrained(values)
        # log transform: jacobian of the inverse is exp(u), log of it is u
        assert space.log_prior_unconstrained(u) == pytest.approx(
            expected + float(u.sum()))

    def test_initial_condition_names(self):
        m = local_level_model()
        space = m.free_parameters()
        assert space.names == ("x0", "c_drift")
        assert [p.role for p in space.params] == [
            "initial_condition", "estimated"]

    def test_perturbation_matrix(self):
        m = sir_model()
        space = m.free_parameters()
        sigma = space.perturbation_matrix({"beta": 0.2})
        np.testing.assert_allclose(sigma, [[0.04, 0.0], [0.0, 0.0]])

    def test_resolve_values_fills_dirac_defaults(self):
        m = sir_model()
        vals = m.resolve_values({"beta": 1.0, "gamma": 0.5})
        assert vals["N"] == 1000
        assert vals["I0"] == 10
        with pytest.raises(ModelError, match="beta"):
            m.resolve_values({"gamma": 0.5})
        with pytest.raises(ModelError, match="unknown parameter"):
            m.resolve_values({"beta": 1.0, "gamma": 0.5, "typo": 3})


class TestPriors:
    def test_uniform_density(self):
        pr = Uniform(2.0, 4.0)
        assert pr.log_density(3.0) == pytest.approx(-math.log(2.0))
        assert pr.log_density(4.5) == -math.inf

    def test_dirac(self):
        pr = Dirac(7.0)
        assert pr.log_density(7.0) == 0.0
        assert pr.log_density(7.1) == -math.inf

    def test_lognormal_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        m = sir_model(
            parameters=SIR["parameters"]
            + [
                {
                    "name": "rho",
                    "prior": {"lognormal": [-1.0, 0.5]},
                    "transform": "log",
                }
            ]
        )
        pr, = (p.prior for p in m.parameters if p.name == "rho")
        ref = scipy_stats.lognorm(s=0.5, scale=math.exp(-1.0))
        for x in (0.1, 0.37, 1.2):
            assert pr.log_density(x) == pytest.approx(ref.logpdf(x), rel=1e-12)


class TestRecords:
    """The contract of the record classes that the code relies on."""

    def test_fields_cannot_be_assigned(self):
        m = sir_model()
        for record, field in ((m, "name"), (m.parameters[0], "prior"),
                              (m.reactions[0], "rate"),
                              (Uniform(0.0, 1.0), "low"),
                              (ScaledLogit(0.0, 2.0), "high")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_class_constants_beside_fields(self):
        assert (Uniform(2.0, 4.0).name, Dirac(1.0).name) == ("uniform",
                                                               "dirac")
        assert ScaledLogit(0.0, 2.0).name == "scaled_logit"
        assert [t.name for t in (Identity(), Log(), Logit())] == [
            "identity", "log", "logit"]
        assert Uniform(low=2.0, high=4.0) == Uniform(2.0, 4.0)

    def test_defaults_hold(self):
        from ssm.filters import FilterResult

        res = FilterResult(-1.5, np.zeros(2), np.zeros((2, 3)), np.zeros(2))
        assert res.loglik == -1.5
        assert (res.ess, res.path, res.covs, res.instants,
                res.repairs) == (None,) * 5
