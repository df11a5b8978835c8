"""Regenerate the bundled example datasets.

Each dataset is one simulated trajectory of its model under recorded
generating values, with observations drawn from the model's reporting
distributions on windowed accumulators.  Seeds are fixed so the files are
reproducible byte for byte.

Run from the repository root:  python3 scripts/make_shipped_data.py

Do not regenerate sir-data.csv.  It was drawn with an earlier jump
simulator, whose use of the random stream differs from the current one
(which takes its variates in fixed-size blocks), so this script no longer
reproduces it; a new file would change the data behind the fit-sir
benchmark workload and the acceptance criteria.  The Poisson-backend files
are still reproduced.
"""

import csv
import pathlib

import numpy as np

from ssm.compiled import CompiledModel
from ssm.model import load_model
from ssm.simulate import simulate_paths

MODELS = pathlib.Path(__file__).resolve().parents[1] / "src" / "ssm" / "models"

# the split-step simulator carries O(dt) weak error; generate at a step
# fine enough that the datasets sit close to the model's exact law
RUNS = [
    ("sir", "sir-data.csv", {"beta": 1.5, "gamma": 1.0},
     np.arange(0.0, 53.0), "jump", 0.25, 42),
    ("plague", "plague-data.csv", {"beta0": 2.5},
     np.arange(0.0, 121.0), "psr", 0.05, 44),
    ("seir-h1n1", "seir-h1n1-data.csv", {"beta": 3.0, "rho": 0.35},
     np.arange(0.0, 41.0), "psr", 0.05, 43),
    ("dengue-2strain", "dengue-2strain-data.csv",
     {"beta1": 2.1, "beta2": 1.9, "xi": 1.7},
     np.arange(0.0, 417.0), "psr", 0.05, 45),
]


def draw_observation(kind, parts, rng):
    """One observation of a stream from its parts, a tuple in
    `observe.PARTS` order."""
    if kind == "poisson":
        return int(rng.poisson(max(parts[0], 0.0)))
    if kind == "binomial":
        trials, probability = parts
        return int(rng.binomial(int(round(trials)),
                                min(max(probability, 0.0), 1.0)))
    if kind == "discretized_normal":
        mean, variance = parts
        return int(round(rng.normal(mean, np.sqrt(max(variance, 0.0)))))
    raise ValueError(kind)


def main():
    for stem, out_name, truth, times, formalism, dt, seed in RUNS:
        cm = CompiledModel(load_model(MODELS / f"{stem}.json"))
        values = cm.spec.resolve_values(truth)
        rng = np.random.default_rng(seed)
        path = simulate_paths(
            cm, values, times, formalism=formalism, rng=rng, trajectories=1,
            dt=dt,
        )[0]
        rows = []
        peak = {o.name: 0 for o in cm.observations}
        for i in range(1, len(times)):
            state = path[i].copy()
            # accumulators are cumulative in simulation output; observation
            # formulas see the increment over the reporting window
            state[cm.acc_slice] = path[i, cm.acc_slice] - path[i - 1, cm.acc_slice]
            for obs in cm.observations:
                parts, _ = cm.obs_values(obs.name, state, float(times[i]), values)
                y = draw_observation(obs.kind, parts, rng)
                rows.append((times[i], obs.name, y))
                peak[obs.name] = max(peak[obs.name], y)
        out = MODELS / out_name
        with open(out, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["time", "stream", "value"])
            for t, stream, y in rows:
                w.writerow([f"{t:g}", stream, y])
        total = {o.name: sum(r[2] for r in rows if r[1] == o.name)
                 for o in cm.observations}
        print(f"{out_name}: {len(rows)} rows, peak {peak}, total {total}")


if __name__ == "__main__":
    main()
