"""Theta documents survive the trip through their own JSON form."""

import math
import re

import numpy as np
import pytest

from ssm.theta import _KNOWN, ThetaDocument, ThetaError


def test_empty_covariance_reads_back():
    doc = ThetaDocument()
    doc.set_covariance((), np.zeros((0, 0)))
    back = ThetaDocument.parse_text(doc.to_json())
    assert back.covariance[0] == ()
    assert back.covariance[1].shape == (0, 0)


@pytest.mark.parametrize("order,matrix", [
    pytest.param(["a", "b"], matrix, id=f"matrix{i}")
    for i, matrix in enumerate([[[1.0, 0.0], [0.0]], [["a", 1.0]], []])
] + [
    # asymmetric: Cholesky would read the lower triangle alone
    pytest.param(["a", "b"], matrix, id=f"asymmetric-{name}")
    for name, matrix in [("upper", [[0.01, 5.0], [0.0, 0.01]]),
                         ("lower", [[0.01, 0.0], [5.0, 0.01]])]
] + [
    # an order that is no list of distinct names, beside a matrix that fits
    pytest.param(order, np.eye(n).tolist(), id=f"order-{name}")
    for name, order, n in [("number", 5, 1), ("nested", [["beta"]], 1),
                           ("string", "ab", 2),
                           ("repeated", ["beta", "beta"], 2),
                           ("numbers", [1, 2], 2)]
])
def test_malformed_covariance_is_a_theta_error(order, matrix):
    with pytest.raises(ThetaError, match="covariance"):
        ThetaDocument.parse({"ssm_theta": 1, "values": {},
                             "covariance": {"order": order,
                                            "matrix": matrix}})


@pytest.mark.parametrize("field,text", [
    ("values.beta", '"values": {"beta": NaN}'),
    ("values.beta", '"values": {"beta": Infinity}'),
    ("values.beta", '"values": {"beta": -Infinity}'),
    pytest.param("values.beta", '"values": {"beta": 1' + "0" * 400 + "}",
                 id="values.beta-beyond-the-floats"),
    ("perturbation_sd.beta", '"perturbation_sd": {"beta": "x"}'),
    ("perturbation_sd.beta", '"perturbation_sd": {"beta": true}'),
    ("perturbation_sd.beta", '"perturbation_sd": {"beta": null}'),
    ("perturbation_sd.beta", '"perturbation_sd": {"beta": -0.1}'),
    ("perturbation_sd.beta", '"perturbation_sd": {"beta": NaN}'),
    ("perturbation_sd.beta", '"perturbation_sd": {"beta": Infinity}'),
    ("covariance.matrix",
     '"covariance": {"order": ["a"], "matrix": [[NaN]]}'),
    ("covariance.matrix",
     '"covariance": {"order": ["a", "b"], "matrix": [[1, -Infinity], '
     '[0, 1]]}'),
])
def test_numbers_no_stage_can_use_are_theta_errors(field, text):
    with pytest.raises(ThetaError, match=re.escape(f"field '{field}' ")):
        ThetaDocument.parse_text('{"ssm_theta": 1, ' + text + "}")


def test_failed_scores_and_zero_perturbations_stay_valid():
    # a stage whose filter failed writes -Infinity as its scores
    text = ('{"ssm_theta": 1, "values": {"beta": 1}, "log_likelihood": '
            '-Infinity, "log_posterior": -Infinity, "perturbation_sd": '
            '{"beta": 0, "gamma": 0.25}}')
    doc = ThetaDocument.parse_text(text)
    assert doc.log_likelihood == doc.log_posterior == -math.inf
    assert doc.perturbation_sd == {"beta": 0.0, "gamma": 0.25}
    assert ThetaDocument.parse_text(doc.to_json()).to_json() == doc.to_json()


def test_property_parse_emit_parse_round_trip():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    name = st.text("abcdefghij_0123456789", min_size=1, max_size=8)
    number = st.floats(allow_nan=False)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    json_value = st.recursive(
        st.none() | st.booleans() | st.integers() | finite | st.text(),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=5), inner, max_size=3),
        max_leaves=8,
    )

    @st.composite
    def covariance(draw):
        order = draw(st.lists(name, unique=True, max_size=4))
        n = len(order)
        entries = draw(st.lists(finite, min_size=n * n, max_size=n * n))
        # a covariance is symmetric: the upper triangle, mirrored
        return {"order": order,
                "matrix": [[entries[min(i, j) * n + max(i, j)]
                            for j in range(n)] for i in range(n)]}

    provenance = st.lists(st.fixed_dictionaries(
        {"stage": st.text(max_size=8), "seed": st.integers(0, 2 ** 32),
         "timestamp": st.text(max_size=20)},
        optional={"iterations": st.integers(0, 10 ** 6)},
    ), max_size=4)

    @st.composite
    def documents(draw):
        obj = {"ssm_theta": 1,
               "values": draw(st.dictionaries(
                   name, finite | st.integers(-2 ** 53, 2 ** 53), max_size=6))}
        optional = {
            "covariance": covariance(),
            "log_likelihood": number,
            "log_posterior": number,
            "perturbation_sd": st.dictionaries(
                name, st.floats(min_value=0.0, allow_infinity=False),
                max_size=4),
            "provenance": provenance,
        }
        for key, strategy in optional.items():
            if draw(st.booleans()):
                obj[key] = draw(strategy)
        extra = draw(st.dictionaries(
            st.text(max_size=6).filter(lambda k: k not in _KNOWN),
            json_value, max_size=3))
        obj.update(extra)
        return obj, extra

    def same_number(a, b):
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(documents())
    def check(case):
        obj, extra = case
        first = ThetaDocument.parse(obj)
        text = first.to_json()
        back = ThetaDocument.parse_text(text)
        assert back.to_json() == text

        assert back.values.keys() == obj["values"].keys()
        for key, v in obj["values"].items():
            assert same_number(back.values[key], float(v))
        if obj.get("covariance") is None:
            assert back.covariance is None
        else:
            order, matrix = back.covariance
            assert order == tuple(obj["covariance"]["order"])
            n = len(order)
            want = np.asarray(obj["covariance"]["matrix"],
                              dtype=float).reshape(n, n)
            assert matrix.shape == (n, n)
            assert np.array_equal(matrix, want)
        for key in ("log_likelihood", "log_posterior"):
            if obj.get(key) is None:
                assert getattr(back, key) is None
            else:
                assert same_number(getattr(back, key), obj[key])
        assert back.perturbation_sd == obj.get("perturbation_sd", {})
        assert back.provenance == obj.get("provenance", [])
        assert back.extra == extra

    check()
