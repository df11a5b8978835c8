"""The ssm benchmark: one workload, measured through the command line.

    python3 perfbench/run.py --workload fit-sir --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every ssm command is its own process
(`python3 -m ssm`), started with an absolute PYTHONPATH to the checkout's
`src`, SSM_SEED taken from --seed and a fixed SOURCE_DATE_EPOCH, so one seed
gives byte-identical stdout on every pass; the benchmark checks that.

--trace 0 times the workload with tracing off.  Set-up first: `ssm
check-data` on each of the workload's models, several times.  Then whole
passes of the workload, one after another, while another pass still fits in
--seconds (at least one).  It prints the end-to-end metrics: medians over the
check-data calls and over the passes, and the peak resident memory of any ssm
process.

The host's cores are shared with other guests, and the same command runs up
to 1.5 times slower, for seconds or minutes at a time, while they are busy;
each of the guest's cores slows on its own.  So --trace 0 pins itself and
every ssm process to one core and samples that core's speed while the
commands run: a thread of this process runs a fixed yardstick loop, then
sleeps four times as long as the loop took, over and over.  A command's time
is the CPU time of its process (a single-threaded ssm process runs whenever
the yardstick sleeps), in reference seconds: scaled by REFERENCE_S over the
mean CPU time of the yardstick loops that ended while the command ran.  A
reference second is a CPU second at the speed at which the loop takes
REFERENCE_S.  The wall times go to stderr.

--trace 1 alternates an untraced pass with a traced one, in which each
command runs under perfbench/tracer.py with the same argv and stdin.  The
traced stdout must equal the untraced stdout byte for byte.  It prints the
per-layer metrics of perfbench/layers.py, the untraced stage times and the
tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Every failed command and every failed output check counts in
`failed`; `correct` is true when nothing failed.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import METRICS, Spans, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SOURCE_DATE_EPOCH = "1700000000"
SETUP_CALLS = 5             # check-data calls per model, single-model workloads
SETUP_ROUNDS = 2            # rounds over the models otherwise
COMMAND_TIMEOUT_S = 170
YARDSTICK_STEPS = 4000
REFERENCE_S = 0.022         # yardstick loop CPU time on an idle 2-vCPU host


class Result:
    """Commands and checks attempted and failed in one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
        if detail or not ok:
            log(f"{'ok' if ok else 'FAILED'} {label}"
                + (f": {detail}" if detail else ""))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _yardstick_s():
    """CPU seconds this thread spends on a fixed Python loop over small numpy
    arrays, the kind of per-step code the ssm commands spend their time in."""
    import numpy as np

    t0 = time.thread_time()
    x = np.array([9990.0, 10.0, 0.0])
    k = 0
    for _ in range(YARDSTICK_STEPS):
        p = np.array([1.5e-4 * x[1] * x[0], x[1]])
        k += int(np.searchsorted(np.cumsum(p), 0.5 * float(p.sum())))
    return time.thread_time() - t0


class Yardstick:
    """Samples the speed of this process's core, in a thread, while the
    commands run."""

    def __init__(self):
        self.samples = []           # (end, CPU s) of each yardstick loop
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        _yardstick_s()                      # warm-up
        self.samples.append((time.perf_counter(), _yardstick_s()))
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join()

    def _sample(self):
        while not self.stop.is_set():
            took = _yardstick_s()
            self.samples.append((time.perf_counter(), took))
            self.stop.wait(4.0 * took)

    def scale(self, wall, cpu):
        """The CPU seconds `cpu` of the command that has just ended after
        `wall` seconds, in reference seconds."""
        start = time.perf_counter() - wall
        during = [took for end, took in self.samples if end > start]
        return cpu * REFERENCE_S / statistics.fmean(
            during or [self.samples[-1][1]])


class Runner:
    """Starts ssm commands, one at a time, in the run's work directory."""

    def __init__(self, src, work, seed, result):
        self.work = work
        self.result = result
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        self.env["SSM_SEED"] = str(seed)
        self.env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
        self.env["TMPDIR"] = str(work)

    def command(self, argv, stdin, spans_path=None):
        """Run one command; returns (stdout bytes or None on failure, wall s,
        CPU s of the process)."""
        if spans_path is None:
            prog = [sys.executable, "-m", "ssm"]
        else:
            prog = [sys.executable, str(HERE / "tracer.py"), str(spans_path)]
        before = _children_cpu_s()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                prog + argv, input=stdin, capture_output=True, env=self.env,
                cwd=self.work, timeout=COMMAND_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.result.check(f"{argv[0]} finished", False,
                              f"timed out after {COMMAND_TIMEOUT_S} s")
            proc = None
        wall = time.perf_counter() - t0
        cpu = _children_cpu_s() - before
        if proc is None:
            return None, wall, cpu
        if proc.returncode == 0:
            self.result.check(f"{argv[0]} exit status", True)
            return proc.stdout, wall, cpu
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        self.result.check(f"{argv[0]} exit status", False,
                          f"{proc.returncode} {tail}")
        return None, wall, cpu

    def run_pass(self, stages, spans_dir=None, yardstick=None):
        """One pass over the stages; returns (stdouts, stage walls, stage
        reference seconds).  Without a yardstick the last are the walls."""
        outputs, walls, scaled = [], [], []
        for i, stage in enumerate(stages):
            if stage.stdin is None:
                stdin = outputs[-1]
            else:
                stdin = Path(stage.stdin).read_bytes()
            if stdin is None:
                self.result.check(f"{stage.argv[0]} input", False,
                                  "the previous stage failed")
                outputs.append(None)
                walls.append(0.0)
                scaled.append(0.0)
                continue
            spans = None if spans_dir is None else spans_dir / f"{i}.json"
            out, wall, cpu = self.command(stage.argv, stdin, spans)
            outputs.append(out)
            walls.append(wall)
            scaled.append(wall if yardstick is None
                          else yardstick.scale(wall, cpu))
        return outputs, walls, scaled


def stage_seconds(stages, walls):
    out = {}
    for stage, wall in zip(stages, walls):
        out[stage.label] = out.get(stage.label, 0.0) + wall
    return out


def same_bytes(result, stages, reference, outputs, what):
    for stage, ref, out in zip(stages, reference, outputs):
        if ref is not None and out is not None:
            result.check(f"{stage.label} stdout identical to {what}",
                         ref == out)


def environment():
    """Interpreter, libraries, BLAS build and thread settings of the run."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
    }


def measure(runner, workload, models_dir, seconds):
    """Set-up and passes with tracing off: the end-to-end metrics."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with Yardstick() as stick:
        return _measure(runner, workload, models_dir, seconds, stick)


def _measure(runner, workload, models_dir, seconds, stick):
    result = runner.result
    rounds = SETUP_CALLS if len(workload.models) == 1 else SETUP_ROUNDS
    setup = []
    for _ in range(rounds):
        for m in workload.models:
            _, wall, cpu = runner.command(
                ["check-data", "--model", str(models_dir / f"{m}.json"),
                 "--data", str(models_dir / f"{m}-data.csv")], b"")
            setup.append(stick.scale(wall, cpu))
    passes, budget, reference = [], [], None
    t0 = time.perf_counter()
    while True:
        outputs, walls, scaled = runner.run_pass(workload.stages,
                                                 yardstick=stick)
        budget.append(sum(walls))
        passes.append(sum(scaled))
        ref = stage_seconds(workload.stages, scaled)
        log(f"pass {len(passes)}: {passes[-1]:.3f} ref s, {sum(walls):.3f}"
            " wall s; ref/wall s per stage " + " ".join(
                f"{k}={ref[k]:.3f}/{v:.3f}" for k, v in
                stage_seconds(workload.stages, walls).items()))
        if reference is None:
            reference = outputs
            workload.check(result, outputs)
        else:
            same_bytes(result, workload.stages, reference, outputs,
                       "the first pass")
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(budget) > seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def measure_traced(runner, workload, work, seconds):
    """Untraced and traced passes in turn: the per-layer metrics."""
    result = runner.result
    spans = Spans()
    stage_walls, overheads, pairs = [], [], []
    t0 = time.perf_counter()
    while True:
        outputs, walls, _ = runner.run_pass(workload.stages)
        if not pairs:
            workload.check(result, outputs)
        spans_dir = Path(tempfile.mkdtemp(dir=work))
        traced_out, traced_walls, _ = runner.run_pass(workload.stages,
                                                      spans_dir)
        plain, traced = sum(walls), sum(traced_walls)
        same_bytes(result, workload.stages, outputs, traced_out,
                   "the untraced pass")
        for path in sorted(spans_dir.glob("*.json")):
            spans.add(json.loads(path.read_text()))
        stage_walls.append(stage_seconds(workload.stages, walls))
        overheads.append(traced / plain - 1.0)
        pairs.append(plain + traced)
        log(f"pair {len(pairs)}: untraced {plain:.3f} s, traced {traced:.3f} s")
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(pairs) > seconds:
            break
    walls = {k: statistics.median(w[k] for w in stage_walls)
             for k in stage_walls[0]}
    values = layer_metrics(spans, len(pairs), walls,
                           statistics.median(overheads))
    return {name: (values[name], unit) for name, unit, _, _ in METRICS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    src = root / "src"
    models_dir = src / "ssm" / "models"
    if not (src / "ssm" / "cli.py").is_file():
        log(f"perfbench: no ssm sources at {src}; run from a checkout")
        return 2

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        seed = args.seed % 2 ** 32
        workload = WORKLOADS[args.workload](models_dir, work, seed)
        result = Result()
        runner = Runner(src, work, seed, result)
        print("environment " + json.dumps(environment(), sort_keys=True),
              flush=True)
        if args.trace:
            metrics = measure_traced(runner, workload, work, args.seconds)
        else:
            metrics = measure(runner, workload, models_dir, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
