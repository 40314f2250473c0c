"""proxlmc benchmark: one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from ./src.  A run
times ``setup_s`` in fresh interpreters (perfbench/setup_probe.py), builds
the exact references, makes one warm-up call and then repeats workload calls
for ``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics,
measured untraced, with call times scaled to reference machine speed by the
kernels of perfbench/calibrate.py.  With ``--trace 1`` it alternates untraced and traced
calls and reports per-layer metrics from the traced ones, plus the tracing
overhead.  Every call is checked against the exact answer of its experiment;
the last line of standard output is the JSON result, and the exit code is 1
when any check failed.  See perfbench/README.md.
"""

import os

# Pinned before numpy loads: one BLAS thread ran the d=10 eigh faster and
# steadier than two on a 2-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")  # call outputs, removed after each call
OUT = os.path.join(ROOT, ".perfbench_out")  # spans of the first traced call
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
MIN_COVERAGE = 0.9  # top-level spans must cover this share of a traced call
UNITS = {
    "setup_s": "s", "run_s": "s", "chain_steps_per_s": "chain-steps/s", "peak_rss_mb": "MiB",
    "mean_err": "1", "w2_sq": "1", "feasible_frac": "ratio",
}


def _exact(name):
    """Per-layer metrics that must repeat bit for bit between calls of one
    sub-seed: counts and what is derived from counts only."""
    return _per_layer_unit(name) in ("count", "bytes", "1/chain-step") or (
        name == "potentials.prox_moved_frac"
    )


def _per_layer_unit(name):
    if name.endswith("_calls") or name in ("space.rng_streams", "trace.spans"):
        return "count"
    if name.endswith("_per_step"):
        return "1/chain-step"
    if name == "cli.bytes_written":
        return "bytes"
    if name == "samplers.us_per_chain_step":
        return "us"
    if name == "trace.call_s":
        return "s"
    return "ratio"


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
        "nproc": nproc, "cpu": _cpu_model(), "commit": _git_commit(), "src_lines": _src_lines(),
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def measure_setup(workload, seed):
    """Seconds from process start to "ready" for SETUP_REPEATS fresh
    interpreters, after one untimed start that fills the bytecode cache."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
        if i:
            times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# calls
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _no_span(_name):
    yield


class Runner:
    """Makes workload calls, checks each, and keeps what the metrics need."""

    def __init__(self, wl, work_dir):
        self.wl = wl
        self.work_dir = work_dir
        self.first = {}  # sub-seed -> first correct CallResult
        self.results = []  # (traced, seconds, CallResult)
        self.summaries = []  # (sub-seed, per-layer dict) of traced calls
        self.first_spans = None
        self.cal = []  # calibration kernel seconds, before the first call and after each
        self.attempted = 0
        self.failed = 0

    def call(self, sub, tracer=None):
        if not self.cal:
            self.cal.append(calibrate.kernel_seconds(self.wl.calibration))
        out_dir = os.path.join(self.work_dir, f"call-{self.attempted}")
        os.makedirs(out_dir)
        span = _no_span
        if tracer is not None:
            tracer.reset()
            tracer.install()
            span = tracer.span
        t0 = time.perf_counter()
        try:
            res = self.wl.call(sub, out_dir, span)
        except Exception:  # a failing call is counted and reported; the run goes on
            from workloads import CallResult

            res = CallResult(problems=["raised:\n" + traceback.format_exc()])
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()
        shutil.rmtree(out_dir)
        if os.path.exists(out_dir + ".json"):
            os.remove(out_dir + ".json")

        first = self.first.get(sub)
        if first is None:
            if not res.problems:
                self.first[sub] = res
        elif res.digests != first.digests:
            res.problems.append(f"output digests differ from the first call of sub-seed {sub}")
        if tracer is not None:
            layers = tracer.summary(elapsed, self.wl.chain_steps)
            layers["cli.bytes_written"] = res.bytes_written
            self.summaries.append((sub, layers))
            if self.first_spans is None:
                self.first_spans = (tracer.spans, f"{self.wl.name} sub-seed {sub}")
        self.attempted += 1
        if res.problems:
            self.failed += 1
            print(f"call {self.attempted} (sub-seed {sub}) failed: " + "; ".join(res.problems),
                  file=sys.stderr)
        self.results.append((tracer is not None, elapsed, res))
        self.cal.append(calibrate.kernel_seconds(self.wl.calibration))
        return elapsed


def end_to_end(wl, runner, setup_times):
    timed = [s for traced, s, _ in runner.results[1:] if not traced]
    wall_run_s = statistics.median(timed)
    kernel_s = statistics.median(runner.cal)
    run_s = wall_run_s * calibrate.REFERENCE_S / kernel_s
    mean_err, w2_sq = wl.pool(runner.first)
    with_output = [r.feasible_frac for _, _, r in runner.results if r.digests]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "chain_steps_per_s": wl.chain_steps / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_err": mean_err,
        "w2_sq": w2_sq,
        "feasible_frac": statistics.fmean(with_output),
    }
    wall = {  # printed, not gated: machine drift makes them unsteady
        "wall.run_s": (wall_run_s, "s"),
        "wall.chain_steps_per_s": (wl.chain_steps / wall_run_s, "chain-steps/s"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters, "
                   f"range {min(setup_times):.4f}-{max(setup_times):.4f}",
        "run_s": f"median of {len(timed)} calls of {wl.chain_steps} chain-steps, "
                 f"range {min(timed):.4f}-{max(timed):.4f} s wall, scaled by "
                 f"{calibrate.REFERENCE_S} s / {kernel_s:.4f} s, the median of "
                 f"{len(runner.cal)} {wl.calibration} calibration kernels",
        "mean_err": f"pooled over {len(runner.first)} sampler seeds",
        "w2_sq": f"mean over {len(runner.first)} sampler seeds",
    }
    return metrics, notes, wall


def per_layer(wl, runner, problems):
    subs = {}
    for sub, layers in runner.summaries:
        ref = subs.setdefault(sub, layers)
        changed = [k for k in layers if _exact(k) and layers[k] != ref[k]]
        if changed:
            problems.append(f"counters {changed} differ between traced calls of sub-seed {sub}")
    first = runner.summaries[0][1]
    metrics = {}
    for name in first:
        if _exact(name):
            metrics[name] = first[name]
        else:
            metrics[name] = statistics.median(layers[name] for _, layers in runner.summaries)
    untraced = [s for traced, s, _ in runner.results[1:] if not traced]
    traced = [s for is_traced, s, _ in runner.results if is_traced]
    metrics["trace.call_s"] = statistics.median(traced)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    if metrics["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"top-level spans cover {metrics['trace.coverage']:.3f} of a traced call")
    return metrics


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _parse(argv):
    parser = argparse.ArgumentParser(description="proxlmc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def bench(args, wl, work_dir):
    from tracer import Tracer

    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    setup_times = None if args.trace else measure_setup(wl.name, args.seed)
    wl.prepare()
    problems = list(wl.problems)
    runner = Runner(wl, work_dir)
    tracer = Tracer() if args.trace else None
    # The traced run reports no accuracy, so two sub-seeds are enough to
    # repeat every counter.
    subs = wl.sub_seeds if tracer is None else min(2, wl.sub_seeds)
    rounds = subs + 1  # every sub-seed runs, and one repeats
    runner.call(0)  # warm-up
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < rounds or time.perf_counter() < deadline:
        if tracer is None:
            runner.call((i + 1) % subs)
        else:  # an untraced and a traced call of the same sub-seed
            runner.call(i % subs)
            runner.call(i % subs, tracer)
        i += 1

    missing = sorted(set(range(subs)) - set(runner.first))
    if missing:
        problems.append(f"no correct call for sub-seeds {missing}")
    if args.trace:
        metrics = per_layer(wl, runner, problems) if not missing else {}
        notes = {}
        units = {name: _per_layer_unit(name) for name in metrics}
        os.makedirs(OUT, exist_ok=True)
        spans, label = runner.first_spans
        tracer.spans = spans
        tracer.write(os.path.join(OUT, f"spans-{wl.name}.jsonl"), label)
    else:
        metrics, notes, wall = end_to_end(wl, runner, setup_times) if not missing else ({}, {}, {})
        units = dict(UNITS)
    failed_frac = runner.failed / runner.attempted
    print("digests " + json.dumps({s: r.digests for s, r in sorted(runner.first.items())}))
    print("call_s " + json.dumps([[int(traced), seconds] for traced, seconds, _ in runner.results]))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value!r} {units[name]}{note}")
    if not args.trace:
        for name, (value, unit) in wall.items():
            print(f"{name} = {value!r} {unit}")
    print(f"failed_frac = {failed_frac!r} ratio  ({runner.failed} of {runner.attempted} calls)")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems and runner.failed == 0
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "proxlmc", "__init__.py")):
        print(f"perfbench: no proxlmc package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)  # left by an earlier process with this pid
    os.makedirs(work_dir)
    try:
        return bench(args, workloads.WORKLOADS[args.workload](args.seed), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


if __name__ == "__main__":
    sys.exit(main())
