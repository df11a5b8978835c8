"""Observed data handling, the observation laws and their densities.

This is the only module that knows the observation laws.  `PARTS`,
`COUNT_KINDS` and `mean_formula` declare them; the model parser, the
compiled kernels, the filters and `DataSet.validate` read them there.  A
stream's parts reach the densities as one tuple in PARTS order; a batch's
parts may be views of the state or of parameter columns, so they are
read-only by contract, and no function here writes its arguments.

Data arrives as a long-format CSV with columns time, stream, value; several
streams may report at the same instant and a stream may skip instants.  Rows
with an empty, NA or NaN value are treated as missing and dropped; any
other value that is not a finite number is an error.  Accumulator
coordinates reset to zero after each observation instant, so an accumulator
stream always reports what was gathered since the previous instant.
"""

from __future__ import annotations

import csv
import math
from functools import cached_property

import numpy as np

from ssm import expr as ex

# the formulas each law reads, in the order its stream's kernel returns them
PARTS = {"poisson": ("mean",), "discretized_normal": ("mean", "variance"),
         "binomial": ("trials", "probability")}
# laws whose log density is that of a probability mass, so at most 0: their
# data are non-negative integers, and filters over them may stop early
COUNT_KINDS = ("poisson", "binomial")


def mean_formula(kind, parts):
    """The observed mean, a formula of the law's parts in PARTS order."""
    return ex.mul(*parts) if kind == "binomial" else parts[0]


REQUIRED_COLUMNS = ("time", "stream", "value")


class DataError(ValueError):
    pass


class DataSet:
    """Long-format observations grouped by time."""

    def __init__(self, rows):
        # rows: iterable of (time, stream, value)
        grouped = {}
        self.file_problems = []
        last = None
        for t, stream, value in rows:
            t = float(t)
            if last is not None and t < last and not self.file_problems:
                self.file_problems.append(
                    f"time column is not sorted (t={t:g} follows t={last:g})"
                )
            last = t
            grouped.setdefault(t, []).append((stream, float(value)))
        self.times = np.array(sorted(grouped), dtype=float)
        self.records = [(t, tuple(grouped[t])) for t in self.times]

    def __len__(self):
        return len(self.records)

    @cached_property
    def log_factorials(self):
        """Per record, log(y!) of each value: the Poisson law's data term."""
        return [tuple(log_factorial(v) for _, v in obs)
                for _, obs in self.records]

    def __iter__(self):
        return iter(self.records)

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty data file") from None
            header = [h.strip() for h in header]
            if header != list(REQUIRED_COLUMNS):
                raise DataError(
                    f"{path}: expected columns time,stream,value, "
                    f"got {','.join(header)}"
                )
            rows = []
            for i, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != 3:
                    raise DataError(f"{path}:{i}: expected 3 columns")
                t_raw, stream, v_raw = (c.strip() for c in row)
                try:
                    t = float(t_raw)
                except ValueError:
                    raise DataError(f"{path}:{i}: bad time {t_raw!r}") from None
                if not math.isfinite(t):
                    raise DataError(f"{path}:{i}: bad time {t_raw!r}")
                if not stream:
                    raise DataError(f"{path}:{i}: empty stream name")
                if v_raw == "" or v_raw.lower() in ("nan", "na"):
                    continue
                try:
                    v = float(v_raw)
                except ValueError:
                    v = None
                if v is None or not math.isfinite(v):
                    raise DataError(f"{path}:{i}: bad value {v_raw!r}")
                rows.append((t, stream, v))
        return cls(rows)

    def validate(self, spec):
        """Model-aware consistency problems, as human-readable strings."""
        problems = list(self.file_problems)
        known = {o.name: o.distribution for o in spec.observations}
        seen = set()
        for t, obs in self.records:
            for stream, value in obs:
                if stream not in known:
                    problems.append(
                        f"t={t:g}: stream {stream!r} is not declared by the model"
                    )
                    continue
                if (t, stream) in seen:
                    problems.append(
                        f"t={t:g}: duplicate observation for stream {stream!r}"
                    )
                seen.add((t, stream))
                if known[stream] in COUNT_KINDS:
                    if value < 0:
                        problems.append(
                            f"t={t:g}: {stream} is a count stream but value "
                            f"{value:g} is negative"
                        )
                    elif value != round(value):
                        problems.append(
                            f"t={t:g}: {stream} is a count stream but value "
                            f"{value:g} is not an integer"
                        )
        return problems


# ----------------------------------------------------------------------
# log factorial, after the cephes `lgam` that scipy's `gammaln` uses: exact
# for k <= 12, the Stirling series with cephes' coefficients above

_LOG_FACTORIALS = tuple(math.log(math.factorial(k)) for k in range(13))
_LOG_FACTORIALS_ARRAY = np.array(_LOG_FACTORIALS)
_LOG_SQRT_2PI = 0.91893853320467274178
_SERIES = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_SERIES_1000 = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
                0.0833333333333333333333)


def _series(x, coefficients):
    """Correction to Stirling's formula at x: a polynomial in 1/x^2, over x."""
    p = 1.0 / (x * x)
    out = coefficients[0]
    for c in coefficients[1:]:
        out = out * p + c
    return out / x


def log_factorial(k):
    """log(k!) for integer-valued k >= 0, +inf for k < 0 (the poles of
    log Gamma(k + 1)); a scalar gives a float, an array an array."""
    if np.ndim(k) == 0:
        k = float(k)
        if k < 0.0:
            return math.inf
        if k <= 12.0:
            return _LOG_FACTORIALS[int(k)]
        x = k + 1.0
        q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
        if x > 1e8:
            return q
        return q + _series(x, _SERIES_1000 if x >= 1000.0 else _SERIES)
    k = np.asarray(k, dtype=float)
    x = np.maximum(k, 12.0) + 1.0
    q = (x - 0.5) * np.log(x) - x + _LOG_SQRT_2PI
    # adding zero leaves q exact above 1e8, where cephes drops the series
    out = q + np.where(x > 1e8, 0.0, np.where(
        x >= 1000.0, _series(x, _SERIES_1000), _series(x, _SERIES)))
    # fmax sends nan to index 0; nan compares false below and gives +inf
    small = _LOG_FACTORIALS_ARRAY[np.minimum(np.fmax(k, 0.0), 12.0)
                                  .astype(np.intp)]
    out = np.where(k <= 12.0, small, out)
    return np.where(k >= 0.0, out, np.inf)


# ----------------------------------------------------------------------
# measurement log densities; all vectorized over the parameter arguments

def poisson_logpmf(y, mean):
    y = np.asarray(y, dtype=float)
    mean = np.asarray(mean, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _poisson_into(y, mean, log_factorial(y),
                            np.empty(np.broadcast_shapes(y.shape,
                                                         mean.shape)))
    return out if out.shape else float(out)


def _poisson_into(y, mean, log_y_factorial, buf):
    """The Poisson log mass of y at `mean`, given log(y!), under the
    caller's error state: the general formula, formed in `buf` (of their
    broadcast shape), then, only where some mean is not positive and
    finite, the masses it misses there: at 0, 0 for y = 0 and -inf
    above; -inf at a negative or an infinite mean."""
    np.log(mean, out=buf)
    np.multiply(y, buf, out=buf)
    np.subtract(buf, mean, out=buf)
    np.subtract(buf, log_y_factorial, out=buf)
    if (np.minimum.reduce(mean, axis=None, initial=np.inf) > 0.0
            and np.maximum.reduce(mean, axis=None, initial=0.0) < np.inf):
        return buf
    out = np.where(mean > 0, buf, np.where(y == 0, -mean, -np.inf))
    return np.where((mean < 0) | (mean == np.inf), -np.inf, out)


def discretized_normal_logpdf(y, mean, var):
    """Density of the integer nearest to y under N(mean, var).

    The lattice probabilities are approximated by the density value; the
    approximation error is negligible once var is about 1 or larger.
    """
    y = np.round(np.asarray(y, dtype=float))
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -0.5 * (np.log(2.0 * np.pi * var) + (y - mean) ** 2 / var)
    out = np.where(var > 0, out, -np.inf)
    return out if out.shape else float(out)


def binomial_logpmf(y, trials, prob):
    y = np.asarray(y, dtype=float)
    n = np.round(np.asarray(trials, dtype=float))
    p = np.asarray(prob, dtype=float)
    ok = (y >= 0) & (y <= n) & (y == np.round(y)) & (p >= 0) & (p <= 1)
    p_in = np.clip(p, 1e-300, 1.0 - 1e-16)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            log_factorial(n)
            - log_factorial(y)
            - log_factorial(n - y)
            + y * np.log(p_in)
            + (n - y) * np.log1p(-p_in)
        )
        # exact boundary cases instead of the clipped approximation; a
        # finite count has no mass among infinitely many trials
        out = np.where(n < np.inf, out, -np.inf)
        out = np.where((p == 0), np.where(y == 0, 0.0, -np.inf), out)
        out = np.where((p == 1), np.where(y == n, 0.0, -np.inf), out)
    out = np.where(ok, out, -np.inf)
    return out if out.shape else float(out)


def stream_loglik(kind, parts, y, out=None, scratch=None, data_term=None):
    """Log density of observed value y given the stream's parts, a tuple
    in PARTS order (`CompiledModel.obs_values`), which it does not write.
    With `out`, a batch's (J,) buffer, the densities are added into it
    instead, with the law's function's bits, and nothing is returned: a
    Poisson stream takes `data_term`, log(y!) (`DataSet.log_factorials`),
    and works in `scratch`, another (J,) buffer, under the caller's error
    state."""
    if kind not in PARTS:
        raise ValueError(f"unknown observation distribution {kind!r}")
    if out is None:
        if kind == "poisson":
            return poisson_logpmf(y, *parts)
        if kind == "binomial":
            return binomial_logpmf(y, *parts)
        return discretized_normal_logpdf(y, *parts)
    if kind == "poisson":
        density = _poisson_into(y, *parts, data_term, scratch)
    elif kind == "binomial":
        density = binomial_logpmf(y, *parts)
    else:
        density = discretized_normal_logpdf(y, *parts)
    np.add(out, density, out=out)
    return None


VARIANCE_FLOOR = 1e-6


def stream_moments(kind, parts, namespace=ex.VECTOR_NAMESPACE):
    """Observation mean and variance used by the moment filter, the
    variance floored at VARIANCE_FLOOR.  `namespace` binds `maximum` and
    `minimum`: numpy's, or `expr.SCALAR_NAMESPACE`'s for parts that are
    Python floats, which follow numpy's rule and give its values."""
    maximum, minimum = namespace["maximum"], namespace["minimum"]
    if kind == "poisson":
        mean = maximum(parts[0], 0.0)
        return mean, maximum(mean, VARIANCE_FLOOR)
    if kind == "discretized_normal":
        mean, var = parts
        return mean, maximum(var, VARIANCE_FLOOR)
    if kind == "binomial":
        n, p = parts
        p = minimum(maximum(p, 0.0), 1.0)
        mean = n * p
        return mean, maximum(n * p * (1.0 - p), VARIANCE_FLOOR)
    raise ValueError(f"unknown observation distribution {kind!r}")


def stream_mean(kind, parts):
    if kind == "binomial":
        n, p = parts
        return n * np.clip(p, 0.0, 1.0)
    return parts[0]
