"""Benchmark of sparsecox on three designs; perfbench/README.md says what
each metric measures and why each workload is there.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced and traced

Run it from the root of a checkout: it fits the package in ``src/`` of the
checkout it sits in, and nothing else.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
a summary goes to standard error and the full record of the run to
``perfbench/results/``.  With ``--trace 0`` the metrics are the end-to-end
ones, with ``--trace 1`` the per-layer ones.
"""

import os

# Single-threaded BLAS, set before numpy loads; the import samples inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

# Fresh interpreters timed per untraced run for setup_s, spread over the run.
SETUP_SAMPLES = 4
# Fewest datasets an untraced run times for dataset_s.
DATASET_SAMPLES = 5

clock = time.perf_counter


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def import_package():
    """The package from this checkout's src/, or exit: never one installed elsewhere."""
    if not (SRC / "sparsecox" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'sparsecox'}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import sparsecox

    if Path(sparsecox.__file__).resolve().parent != SRC / "sparsecox":
        sys.exit(f"perfbench: imported sparsecox from {sparsecox.__file__}, not {SRC}")
    return sparsecox


def import_seconds():
    """Wall time from starting a fresh interpreter until ``import sparsecox``
    returns in it (its exit is not timed)."""
    code = "import sys, sparsecox; print(sparsecox.__file__, flush=True)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = clock()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env,
                          cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        seconds = clock() - start
        proc.stdout.read()
        proc.wait(timeout=60)
    if proc.returncode != 0 or Path(line.strip()).resolve().parent != SRC / "sparsecox":
        raise RuntimeError(f"fresh import failed (exit {proc.returncode}): {line.strip()!r}")
    return seconds


def peak_rss_mb():
    """VmHWM of this process, in MB of 10^6 bytes."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM line in /proc/self/status; peak RSS cannot be read")


def store_mb(ds):
    """Bytes held by the dataset's column store, in MB of 10^6 bytes."""
    total = 0
    for j in range(ds.p):
        pos, val = ds.design.column(j)
        total += pos.nbytes + val.nbytes
    return total / 1e6


class Tally:
    """Operations attempted and failed; a replicate produced, fitted and
    checked is one operation."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def run(self, wl, sc, r, produce, fit):
        """One operation: (dataset seconds, fit seconds, dataset), or None if
        it raised.  A fit that fails its checks is timed all the same."""
        self.attempted += 1
        try:
            start = clock()
            ds = produce(sc, r)
            made = clock()
            result = fit(sc, ds)
            done = clock()
            problems = wl.check(sc, r, ds, result)
        except Exception:  # count the failure and go on with the next replicate
            self.failed += 1
            log(f"{wl.name} replicate {r} raised:\n{traceback.format_exc()}")
            return None
        if problems:
            self.failed += 1
            self.correct = False
            log(f"{wl.name} replicate {r} failed its checks:\n  " + "\n  ".join(problems))
        return made - start, done - made, ds

    def finish(self, wl):
        problems = wl.summary_problems()
        if problems:
            self.correct = False
            log(f"{wl.name} failed its run checks:\n  " + "\n  ".join(problems))

    def result(self, metrics):
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def run_untraced(wl, sc, seconds):
    """Rounds of produce -> fit -> check for about ``seconds``: a round is
    started only if one more round as long as the last still ends in time,
    and the first round always runs.

    Import samples for setup_s are taken between rounds, sample k once the
    rounds have run k/SETUP_SAMPLES of ``seconds``, and are not counted in
    the rounds' time."""
    tally = Tally()
    setup, dataset_s, fit_s = [], [], []
    loop_s = last_s = 0.0
    rounds = 0
    while True:
        while len(setup) < SETUP_SAMPLES and loop_s >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(import_seconds())
        if rounds and loop_s + last_s > seconds:
            break
        start = clock()
        out = tally.run(wl, sc, rounds, wl.produce, wl.fit)
        last_s = clock() - start
        loop_s += last_s
        rounds += 1
        if out is not None:
            dataset_s.append(out[0])
            fit_s.append(out[1])
            out = None  # the dataset must not stay alive into the next round
    # A workload with long rounds (massive-sparse runs one) leaves too few
    # dataset samples for a steady median: top them up by producing earlier
    # replicates again, interleaved with the import samples still due.
    while len(setup) < SETUP_SAMPLES or 0 < len(dataset_s) < DATASET_SAMPLES:
        if len(setup) < SETUP_SAMPLES:
            setup.append(import_seconds())
        if 0 < len(dataset_s) < DATASET_SAMPLES:
            start = clock()
            wl.produce(sc, len(dataset_s) % rounds)
            dataset_s.append(clock() - start)
    tally.finish(wl)
    if not fit_s:
        raise RuntimeError(f"{wl.name}: every one of {rounds} rounds raised")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "dataset_s": (statistics.median(dataset_s), "s"),
        # mean, not median: a run fits as few as 7 replicates whose fits range
        # over 2x on screen-highdim, and the median of so few jumps between them
        "fit_s": (statistics.fmean(fit_s), "s"),
        "reps_per_s": (rounds / loop_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = {"setup_s": setup, "dataset_s": dataset_s, "fit_s": fit_s, "rounds": rounds,
               "loop_s": loop_s}
    return tally, metrics, samples


def run_traced(wl, sc, seconds):
    """A fixed block of replicates, each run once untraced and once traced.

    The block is sized from ``seconds`` and the workload's nominal round
    time, never from a clock, so the counts repeat exactly for a given seed
    and length.  Which pass goes first alternates by replicate; the
    difference of the two passes' times is the tracing overhead."""
    tally = Tally()
    tracer = Tracer()
    block = max(1, int(seconds / (2.0 * wl.round_s)))
    produce = tracer.span("produce", wl.produce)
    fit = tracer.span("fit", wl.fit)
    plain_s = traced_s = 0.0
    store = 0.0
    for r in range(block):
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            if traced:
                tracer.install(sc)
                try:
                    out = tally.run(wl, sc, r, produce, fit)
                finally:
                    tracer.uninstall()
            else:
                out = tally.run(wl, sc, r, wl.produce, wl.fit)
            if out is None:
                continue
            if traced:
                traced_s += out[0] + out[1]
                store = max(store, store_mb(out[2]))
            else:
                plain_s += out[0] + out[1]
    tally.finish(wl)
    if not (plain_s and traced_s):
        raise RuntimeError(f"{wl.name}: no replicate ran both untraced and traced")
    t = tracer
    probes = t.calls("probe")
    metrics = {
        "likelihood.probe_calls": (probes, "count"),
        "likelihood.probe_s": (t.seconds("probe"), "s"),
        "likelihood.commit_calls": (t.calls("commit"), "count"),
        "likelihood.probe_accept_ratio": (t.calls("commit") / probes if probes else 0.0, "ratio"),
        "likelihood.derivs_calls": (t.calls("derivs"), "count"),
        "likelihood.derivs_s": (t.seconds("derivs"), "s"),
        "likelihood.state_builds": (t.calls("state_build"), "count"),
        "likelihood.state_build_s": (t.seconds("state_build"), "s"),
        "solver.solves": (t.calls("ccd_minimize"), "count"),
        "solver.sweeps": (t.count("ccd_minimize"), "count"),
        "solver.self_s": (t.self_seconds("ccd_minimize"), "s"),
        "bar.ridge_s": (t.seconds("fit_ridge"), "s"),
        "bar.outer_iterations": (t.count("fit_bar"), "count"),
        "bar.tail_s": (t.seconds("fit_bar") - t.seconds("fit_ridge", within="fit_bar"), "s"),
        "screening.screen_s": (t.seconds("sjs_screen"), "s"),
        "screening.rounds": (t.count("sjs_screen"), "count"),
        "screening.gradient_s": (t.seconds("full_gradient", within="sjs_screen"), "s"),
        "screening.polish_s": (t.seconds("ccd_minimize", within="sjs_screen"), "s"),
        "screening.bar_s": (t.seconds("fit_bar", within="sjs_coxbar"), "s"),
        "data.load_s": (t.seconds("load_dataset"), "s"),
        "data.build_s": (t.seconds("dataset_build", outermost=True), "s"),
        "sim.simulate_s": (t.seconds("simulate"), "s"),
        "data.store_mb": (store, "MB"),
        "trace.replicates": (block, "count"),
        "trace.overhead_pct": (100.0 * (traced_s / plain_s - 1.0), "%"),
    }
    samples = {"block": block, "untraced_s": plain_s, "traced_s": traced_s,
               "spans": tracer.table()}
    return tally, metrics, samples


def run_one(args):
    sc = import_package()
    wl = WORKLOADS[args.workload](args.seed)
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        start = clock()
        wl.prepare(sc, workdir)
        prepare_s = clock() - start
        tally, metrics, samples = (run_traced if args.trace else run_untraced)(
            wl, sc, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still has its inputs there
    result = tally.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    record = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, prepare_s=prepare_s, checks=wl.stats, samples=samples,
                  machine=machine())
    RESULTS.mkdir(exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    for key, (value, unit) in metrics.items():
        log(f"{wl.name} {key} = {value:.6g} {unit}")
    log(f"{wl.name} attempted {tally.attempted} failed {tally.failed} correct {tally.correct}")
    print(json.dumps(result), flush=True)
    return 0


def machine():
    return {"cores": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run_all(args):
    """Each workload untraced and traced, each in a fresh process of its own."""
    combined = Tally()
    metrics = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                log(f"perfbench: {name} --trace {trace} exited {proc.returncode}")
                return 1
            out = json.loads(lines[-1])
            combined.attempted += out["attempted"]
            combined.failed += out["failed"]
            combined.correct = combined.correct and out["correct"]
            for key, metric in out["metrics"].items():
                metrics[f"{name}/{key}"] = metric
                print(f"{name:15s} {key:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(combined.result(metrics)), flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="ignored with --workload all, which runs both")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
