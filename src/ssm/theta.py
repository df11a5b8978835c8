"""Parameter documents passed between pipeline stages.

A stage reads one JSON document, updates it, and emits it again, so a chain
like `simplex | mif | pmcmc` threads one evolving estimate through every
tool.  Keys the reader does not understand are carried through untouched;
serialization is canonical (sorted keys, two-space indent) so identical
documents are identical bytes.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import time

import numpy as np

VERSION = 1
_KNOWN = {
    "ssm_theta", "values", "covariance", "log_likelihood", "log_posterior",
    "perturbation_sd", "provenance",
}


class ThetaError(ValueError):
    pass


def _number(value, field, ok=math.isfinite, what="a finite number"):
    """A JSON number (a bool is none) as a float; a ThetaError naming the
    field unless `ok` holds of it."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:       # an integer beyond the floats
            value = math.inf
        if ok(value):
            return value
    raise ThetaError(f"theta document: field '{field}' must be {what}")


def _utc_timestamp():
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    stamp = int(epoch) if epoch else int(time.time())
    return datetime.datetime.fromtimestamp(
        stamp, tz=datetime.timezone.utc
    ).strftime("%Y-%m-%dT%H:%M:%SZ")


class ThetaDocument:
    def __init__(self, values=None, covariance=None, log_likelihood=None,
                 log_posterior=None, perturbation_sd=None, provenance=None,
                 extra=None):
        self.values = dict(values or {})
        self.covariance = covariance      # (order tuple, matrix array) or None
        self.log_likelihood = log_likelihood
        self.log_posterior = log_posterior
        self.perturbation_sd = dict(perturbation_sd or {})
        self.provenance = list(provenance or [])
        self.extra = dict(extra or {})

    @classmethod
    def parse(cls, obj):
        if not isinstance(obj, dict):
            raise ThetaError("theta document: expected a JSON object")
        version = obj.get("ssm_theta")
        if version != VERSION:
            raise ThetaError(
                f"theta document: field 'ssm_theta' must be {VERSION}, "
                f"got {version!r}"
            )
        values = obj.get("values", {})
        if not isinstance(values, dict):
            raise ThetaError("theta document: field 'values' must be an object")
        values = {k: _number(v, f"values.{k}") for k, v in values.items()}
        covariance = None
        if obj.get("covariance") is not None:
            cov = obj["covariance"]
            if not isinstance(cov, dict) or "order" not in cov \
                    or "matrix" not in cov:
                raise ThetaError(
                    "theta document: field 'covariance' needs 'order' and "
                    "'matrix'"
                )
            order = cov["order"]
            if not (isinstance(order, list)
                    and all(isinstance(name, str) for name in order)
                    and len(set(order)) == len(order)):
                raise ThetaError("theta document: field 'covariance.order' "
                                 "must be a list of distinct names")
            order = tuple(order)
            try:
                matrix = np.asarray(cov["matrix"], dtype=float)
            # ragged rows, non-numbers, integers beyond the floats
            except (TypeError, ValueError, OverflowError):
                matrix = None
            if matrix is not None and matrix.size == 0:
                matrix = matrix.reshape(0, 0)   # the empty matrix emits as []
            if matrix is None or matrix.shape != (len(order), len(order)) \
                    or not np.isfinite(matrix).all() \
                    or not np.allclose(matrix, matrix.T, rtol=1e-12, atol=0.0):
                raise ThetaError(
                    "theta document: field 'covariance.matrix' must be a "
                    "symmetric square matrix of finite numbers, a row per "
                    "name of 'covariance.order'"
                )
            covariance = (order, matrix)
        # a stage whose filter failed writes -Infinity here
        scores = {field: _number(obj[field], field, lambda v: True,
                                 "a number")
                  for field in ("log_likelihood", "log_posterior")
                  if obj.get(field) is not None}
        psd = obj.get("perturbation_sd", {})
        if not isinstance(psd, dict):
            raise ThetaError(
                "theta document: field 'perturbation_sd' must be an object"
            )
        psd = {k: _number(v, f"perturbation_sd.{k}",
                          lambda v: 0 <= v < math.inf,
                          "a finite number of at least 0")
               for k, v in psd.items()}
        provenance = obj.get("provenance", [])
        if not isinstance(provenance, list):
            raise ThetaError(
                "theta document: field 'provenance' must be a list"
            )
        extra = {k: v for k, v in obj.items() if k not in _KNOWN}
        return cls(values=values, covariance=covariance,
                   perturbation_sd=psd, provenance=provenance, extra=extra,
                   **scores)

    @classmethod
    def parse_text(cls, text):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as err:
            raise ThetaError(f"theta document: invalid JSON ({err})") from None
        return cls.parse(obj)

    def to_object(self):
        obj = dict(self.extra)
        obj["ssm_theta"] = VERSION
        obj["values"] = {k: float(v) for k, v in self.values.items()}
        if self.covariance is not None:
            order, matrix = self.covariance
            obj["covariance"] = {
                "order": list(order),
                "matrix": [[float(v) for v in row] for row in matrix],
            }
        if self.log_likelihood is not None:
            obj["log_likelihood"] = float(self.log_likelihood)
        if self.log_posterior is not None:
            obj["log_posterior"] = float(self.log_posterior)
        if self.perturbation_sd:
            obj["perturbation_sd"] = {
                k: float(v) for k, v in self.perturbation_sd.items()
            }
        if self.provenance:
            obj["provenance"] = self.provenance
        return obj

    def to_json(self):
        return json.dumps(self.to_object(), sort_keys=True, indent=2) + "\n"

    def record_stage(self, stage, seed, iterations=None):
        entry = {"stage": stage, "seed": int(seed),
                 "timestamp": _utc_timestamp()}
        if iterations is not None:
            entry["iterations"] = int(iterations)
        self.provenance.append(entry)

    def covariance_for(self, space):
        """Covariance reordered to a parameter space's free parameters, or
        None when absent or not covering them."""
        if self.covariance is None:
            return None
        order, matrix = self.covariance
        index = {name: i for i, name in enumerate(order)}
        if any(name not in index for name in space.names):
            return None
        sel = [index[name] for name in space.names]
        return matrix[np.ix_(sel, sel)]

    def set_covariance(self, names, matrix):
        self.covariance = (tuple(names), np.asarray(matrix, dtype=float))
