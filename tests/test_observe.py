"""Measurement densities and the log factorial against frozen values and
scipy, data loading."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from helpers import SIR, sir_model
from ssm import observe as ob
from ssm.compiled import CompiledModel


def assert_close_to_gammaln(got, k):
    """Within 4e-16 relative or 2 ulp of scipy's gammaln(k + 1), whichever
    is looser."""
    ref = scipy.special.gammaln(np.asarray(k, dtype=float) + 1.0)
    bound = np.maximum(4e-16 * np.abs(ref), 2 * np.spacing(np.abs(ref)))
    bad = np.abs(np.asarray(got) - ref) > bound
    assert not bad.any(), np.asarray(k)[bad][:10]


class TestLogFactorial:
    BOUNDARIES = [0, 1, 2, 11, 12, 13, 14, 998, 999, 1000, 1001,
                  10**8 - 1, 10**8, 10**8 + 1, 10**10]

    def test_array_matches_gammaln_to_a_million(self):
        k = np.arange(0, 10**6 + 1, dtype=float)
        assert_close_to_gammaln(ob.log_factorial(k), k)

    def test_scalar_matches_gammaln(self):
        ks = list(range(0, 5000)) + list(range(10**6 - 1000, 10**6 + 1))
        got = np.array([ob.log_factorial(float(k)) for k in ks])
        assert_close_to_gammaln(got, ks)

    def test_branch_boundaries(self):
        got = [ob.log_factorial(float(k)) for k in self.BOUNDARIES]
        assert_close_to_gammaln(got, self.BOUNDARIES)
        k = np.array(self.BOUNDARIES, dtype=float)
        assert_close_to_gammaln(ob.log_factorial(k), k)

    def test_log_spaced_to_ten_billion(self):
        k = np.unique(np.round(np.logspace(0, 10, 20001)))
        assert_close_to_gammaln(ob.log_factorial(k), k)
        assert_close_to_gammaln([ob.log_factorial(v) for v in k[::20]],
                                k[::20])

    def test_exact_small_values(self):
        assert ob.log_factorial(0) == 0.0
        assert ob.log_factorial(1.0) == 0.0
        assert ob.log_factorial(5) == math.log(120)
        assert ob.log_factorial(np.array([3.0]))[0] == math.log(6)

    def test_negative_is_infinite_without_raising(self):
        with np.errstate(all="raise"):
            assert ob.log_factorial(-1.0) == np.inf
            out = ob.log_factorial(np.array([-3.0, -1.0, 0.0, np.nan]))
        assert list(out[:2]) == [np.inf, np.inf]
        assert out[2] == 0.0


class TestPoisson:
    def test_frozen_value(self):
        # log(4^4 e^-4 / 4!) computed by hand
        assert ob.poisson_logpmf(4, 4.0) == pytest.approx(-1.632876385868, abs=1e-10)

    def test_normalizes(self):
        ys = np.arange(0, 200)
        total = np.exp(ob.poisson_logpmf(ys, 4.0)).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_matches_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            mu = rng.uniform(0.01, 80.0)
            y = rng.integers(0, 120)
            assert ob.poisson_logpmf(y, mu) == pytest.approx(
                scipy.stats.poisson.logpmf(y, mu), rel=1e-12
            )

    def test_zero_mean_boundary(self):
        assert ob.poisson_logpmf(0, 0.0) == 0.0
        assert ob.poisson_logpmf(3, 0.0) == -np.inf
        assert ob.poisson_logpmf(1, -2.0) == -np.inf

    def test_vectorized_over_means(self):
        means = np.array([1.0, 2.0, 0.0, 5.0])
        out = ob.poisson_logpmf(2, means)
        assert out.shape == (4,)
        assert out[2] == -np.inf


def general_poisson_logpmf(y, mean):
    """The Poisson log mass as the general formula forms it, masked where
    the mean is not positive or is infinite."""
    y = np.asarray(y, dtype=float)
    mean = np.asarray(mean, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = y * np.log(mean) - mean - ob.log_factorial(y)
    out = np.where(mean > 0, out, np.where(y == 0, -mean, -np.inf))
    return np.where((mean < 0) | (mean == np.inf), -np.inf, out)


class TestPoissonOverMeans:
    """Means that are all positive skip the fix-ups of the others, which
    must keep the general formula's bits."""

    SPECIAL = [0.0, -0.0, -3.0, np.nan, np.inf, -np.inf, 1e-300, 1e300]

    @pytest.mark.parametrize("y", [0, 1, 12, 13, 1e6])
    def test_bit_identical_to_the_general_formula(self, y):
        rng = np.random.default_rng(int(y) % 97)
        positive = rng.lognormal(2.0, 3.0, size=500)
        cases = [positive, np.array([1e-300, 1e300, 1.0]),
                 np.array(self.SPECIAL)]
        cases += [np.append(positive[:20], v) for v in self.SPECIAL]
        cases += [positive.reshape(20, 25)]
        for means in cases:
            # positive finite means take no operation that warns
            lean = np.all((means > 0) & (means < np.inf))
            with np.errstate(all="raise" if lean else "warn"):
                got = ob.poisson_logpmf(y, means)
            want = general_poisson_logpmf(y, means)
            assert got.shape == means.shape
            np.testing.assert_array_equal(got.view(np.int64),
                                          want.view(np.int64))

    def test_leaves_the_means_alone(self):
        means = np.array([0.5, 3.0, 40.0])
        kept = means.copy()
        ob.poisson_logpmf(12, means)
        np.testing.assert_array_equal(means, kept)


# each law with parts that are a view of the state (`cases`), a parameter
# value (`rho`) and arrays the kernel makes
SCORED = [
    ("poisson", {"mean": "cases"}),
    ("poisson", {"mean": "rho"}),
    ("poisson", {"mean": "rho*cases"}),
    ("binomial", {"trials": "cases", "probability": "rho"}),
    ("binomial", {"trials": "2*cases", "probability": "rho*I/N"}),
    ("discretized_normal", {"mean": "cases", "variance": "rho"}),
    ("discretized_normal", {"mean": "rho*cases", "variance": "1 + cases"}),
]


@pytest.mark.parametrize("kind, formulas", SCORED, ids=[
    "poisson-view", "poisson-parameter", "poisson-fresh",
    "binomial-view-parameter", "binomial-fresh", "normal-view-parameter",
    "normal-fresh"])
def test_scoring_leaves_the_parts_and_the_state_alone(kind, formulas):
    # a batch's parts may be views of the state or the caller's parameter
    # columns (`CompiledModel.obs_values`): no density, moment or mean may
    # write them
    cm = CompiledModel(sir_model(
        parameters=[*SIR["parameters"],
                    {"name": "rho", "prior": {"dirac": 0.4}, "role": "fixed"}],
        observations=[{"name": "c", "distribution": kind, **formulas}]))
    rng = np.random.default_rng(5)
    xs = np.round(rng.uniform(1.0, 300.0, size=(cm.nx, 8)))
    values = cm.spec.resolve_values({"beta": 1.5, "gamma": 1.0})
    column = dict(values, rho=np.linspace(0.2, 0.6, 8))
    cases = cm.state_names.index("cases")
    for x, p in ((xs[:, 0].copy(), values), (xs, values), (xs, column)):
        parts, _ = cm.obs_values("c", x, 3.0, p)
        if x.ndim == 2 and "cases" in formulas.values():
            # the case this test is for: a part that is the state's row
            assert any(np.shares_memory(part, x[cases]) for part in parts)
        kept = [np.array(part) for part in parts]
        state = x.copy()
        for y in (0.0, 3.0, 7.0):
            ob.stream_loglik(kind, parts, y)
        ob.stream_moments(kind, parts)
        ob.stream_mean(kind, parts)
        for part, was in zip(parts, kept):
            np.testing.assert_array_equal(np.asarray(part).view(np.int64),
                                          was.view(np.int64))
        np.testing.assert_array_equal(x.view(np.int64), state.view(np.int64))


class TestDiscretizedNormal:
    def test_rounds_to_nearest_integer(self):
        a = ob.discretized_normal_logpdf(3.4, 2.0, 4.0)
        b = ob.discretized_normal_logpdf(3.0, 2.0, 4.0)
        assert a == b

    def test_matches_gaussian_density(self):
        assert ob.discretized_normal_logpdf(7, 5.5, 2.25) == pytest.approx(
            scipy.stats.norm.logpdf(7, 5.5, 1.5), rel=1e-12
        )

    def test_near_normalizes_for_unit_variance(self):
        ys = np.arange(-200, 220)
        total = np.exp(ob.discretized_normal_logpdf(ys, 7.3, 1.0)).sum()
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_nonpositive_variance(self):
        assert ob.discretized_normal_logpdf(1, 1.0, 0.0) == -np.inf


class TestBinomial:
    def test_matches_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(1, 400))
            p = rng.uniform(0.01, 0.99)
            y = int(rng.integers(0, n + 1))
            assert ob.binomial_logpmf(y, n, p) == pytest.approx(
                scipy.stats.binom.logpmf(y, n, p), rel=1e-10
            )

    def test_support_edges(self):
        with np.errstate(all="raise"):
            assert ob.binomial_logpmf(5, 4, 0.5) == -np.inf
            out = ob.binomial_logpmf(np.array([5.0, 7.0, 2.0]),
                                     np.array([4.0, 3.0, 4.0]), 0.5)
            assert ob.poisson_logpmf(-1, 2.0) == -np.inf
        assert list(out[:2]) == [-np.inf, -np.inf]
        assert out[2] == pytest.approx(scipy.stats.binom.logpmf(2, 4, 0.5))
        assert ob.binomial_logpmf(-1, 4, 0.5) == -np.inf
        assert ob.binomial_logpmf(2.5, 4, 0.5) == -np.inf
        assert ob.binomial_logpmf(0, 4, 0.0) == 0.0
        assert ob.binomial_logpmf(1, 4, 0.0) == -np.inf
        assert ob.binomial_logpmf(4, 4, 1.0) == 0.0

    def test_trials_rounded(self):
        assert ob.binomial_logpmf(3, 9.6, 0.3) == pytest.approx(
            scipy.stats.binom.logpmf(3, 10, 0.3), rel=1e-10
        )


def test_an_infinite_part_leaves_a_finite_count_no_mass():
    # y*log(inf) - inf and log(inf!) - log((inf - y)!) are nan; the mass
    # of a finite count there is 0, except of 0 at probability 0
    inf = np.inf
    assert ob.poisson_logpmf(3.0, inf) == -inf
    assert ob.poisson_logpmf(0.0, inf) == -inf
    assert ob.binomial_logpmf(3.0, inf, 0.5) == -inf
    assert ob.binomial_logpmf(0.0, inf, 0.5) == -inf
    assert ob.binomial_logpmf(0.0, inf, 0.0) == 0.0
    assert ob.binomial_logpmf(2.0, inf, 0.0) == -inf
    assert ob.binomial_logpmf(2.0, inf, 1.0) == -inf
    means = np.array([4.0, inf, 0.0, inf])
    for y in (0.0, 3.0):
        got = ob.poisson_logpmf(y, means)
        assert got[0] == pytest.approx(scipy.stats.poisson.logpmf(y, 4.0))
        assert list(got[1:]) == [-inf, -inf if y else 0.0, -inf]
    got = ob.binomial_logpmf(np.array([3.0, 3.0, 0.0, 0.0]),
                             np.array([10.0, inf, inf, inf]),
                             np.array([0.5, 0.5, 0.0, 0.5]))
    assert got[0] == pytest.approx(scipy.stats.binom.logpmf(3, 10, 0.5))
    assert list(got[1:]) == [-inf, 0.0, -inf]


@pytest.mark.parametrize("kind, parts", [
    ("poisson", (np.array([0.0, -0.0, -2.0, 1e-300, 3.5, 40.0, np.inf,
                           np.nan]),)),
    ("poisson", (np.linspace(0.5, 60.0, 8),)),
    ("discretized_normal", (np.linspace(-3.0, 40.0, 8),
                            np.array([0.0, 1e-6, 1.0, 2.5, 9.0, 40.0,
                                      np.inf, -1.0]))),
    ("binomial", (np.array([0.0, 3.0, 10.0, 14.4, 60.0, np.inf, 12.0,
                            20.0]),
                  np.array([0.5, 0.0, 1.0, 0.3, 0.25, 0.5, 1.5, np.nan]))),
])
def test_scoring_into_a_buffer_adds_the_laws_bits(kind, parts):
    # a batch's densities added into a buffer, the data term given, are
    # the law's function's, added to what the buffer held
    rng = np.random.default_rng(3)
    for y in (0.0, 1.0, 3.0, 12.0, 13.0, 40.0):
        start = rng.normal(size=8)
        out, scratch = start.copy(), np.full(8, np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            none = ob.stream_loglik(kind, parts, y, out, scratch,
                                    ob.log_factorial(y))
            want = start + ob.stream_loglik(kind, parts, y)
        assert none is None
        assert out.tobytes() == want.tobytes()


class TestMoments:
    def test_poisson_moments(self):
        mean, var = ob.stream_moments("poisson", (6.0,))
        assert mean == 6.0 and var == 6.0

    def test_poisson_negative_mean_floored(self):
        mean, var = ob.stream_moments("poisson", (-3.0,))
        assert mean == 0.0 and var == 1e-6

    def test_binomial_moments(self):
        mean, var = ob.stream_moments("binomial", (20.0, 0.25))
        assert mean == pytest.approx(5.0)
        assert var == pytest.approx(20 * 0.25 * 0.75)

    def test_stream_mean_binomial(self):
        assert ob.stream_mean("binomial", (10.0, 0.2)) == pytest.approx(2.0)


def test_property_count_laws_are_probability_masses():
    # early rejection in the chains is exact only while every count law's
    # log density is at most 0 (`ssm.filters`)
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # each part's domain, its edges drawn often; trials need not be integers
    domains = {
        "mean": st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
        "trials": st.one_of(st.sampled_from([0.0, 2.5, 3.5]),
                            st.floats(0.0, 1e6)),
        "probability": st.one_of(st.sampled_from([0.0, 1.0]),
                                 st.floats(0.0, 1.0)),
    }
    streams = st.sampled_from(ob.COUNT_KINDS).flatmap(
        lambda kind: st.tuples(st.just(kind), st.tuples(
            *(domains[part] for part in ob.PARTS[kind]))))
    counts = st.one_of(st.integers(0, 20), st.integers(0, 10**6))

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(streams, counts)
    @hypothesis.example(("poisson", (0.0,)), 0)
    @hypothesis.example(("binomial", (2.5, 1.0)), 3)
    @hypothesis.example(("binomial", (3.4, 0.0)), 0)
    def check(stream, y):
        kind, parts = stream
        assert ob.stream_loglik(kind, parts, float(y)) <= 0.0

    check()


class TestDataSet:
    def write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text)
        return p

    def test_round_trip_and_grouping(self, tmp_path):
        p = self.write(
            tmp_path,
            "time,stream,value\n"
            "1,cases_obs,4\n"
            "2,cases_obs,7\n"
            "2,deaths_obs,1\n"
            "3,cases_obs,0\n",
        )
        ds = ob.DataSet.from_csv(p)
        assert list(ds.times) == [1.0, 2.0, 3.0]
        assert ds.records[1] == (2.0, (("cases_obs", 7.0), ("deaths_obs", 1.0)))

    def test_unsorted_input_is_ordered(self, tmp_path):
        p = self.write(
            tmp_path,
            "time,stream,value\n3,y,1\n1,y,2\n2,y,3\n",
        )
        ds = ob.DataSet.from_csv(p)
        assert list(ds.times) == [1.0, 2.0, 3.0]

    def test_missing_values_skipped(self, tmp_path):
        p = self.write(
            tmp_path,
            "time,stream,value\n1,y,4\n2,y,\n3,y,NaN\n4,y,2\n",
        )
        ds = ob.DataSet.from_csv(p)
        assert list(ds.times) == [1.0, 4.0]

    def test_bad_header_rejected(self, tmp_path):
        p = self.write(tmp_path, "t,name,count\n1,y,4\n")
        with pytest.raises(ob.DataError, match="expected columns"):
            ob.DataSet.from_csv(p)

    def test_bad_value_rejected_with_line(self, tmp_path):
        p = self.write(tmp_path, "time,stream,value\n1,y,four\n")
        with pytest.raises(ob.DataError, match="data.csv:2"):
            ob.DataSet.from_csv(p)
        # missing is empty, NA or NaN: an infinite value is no observation
        for value in ("inf", "-inf", "Infinity", "1e400"):
            p = self.write(tmp_path,
                           f"time,stream,value\n1,y,4\n2,y,{value}\n")
            with pytest.raises(ob.DataError,
                               match=f"data.csv:3: bad value '{value}'"):
                ob.DataSet.from_csv(p)

    def test_validate_against_model(self, tmp_path):
        p = self.write(
            tmp_path,
            "time,stream,value\n"
            "1,cases_obs,4\n"
            "1,cases_obs,5\n"
            "2,nope,1\n"
            "3,cases_obs,-2\n"
            "4,cases_obs,2.5\n",
        )
        ds = ob.DataSet.from_csv(p)
        problems = ds.validate(sir_model())
        text = "\n".join(problems)
        assert "duplicate" in text
        assert "'nope'" in text
        assert "negative" in text
        assert "not an integer" in text
        assert len(problems) == 4

    def test_clean_data_validates(self, tmp_path):
        p = self.write(tmp_path, "time,stream,value\n1,cases_obs,4\n")
        ds = ob.DataSet.from_csv(p)
        assert ds.validate(sir_model()) == []
