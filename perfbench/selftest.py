"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the package's test suite (the file name does not match
``test_*.py``) because it runs every workload.
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from proxlmc import potentials  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMOKE_SCALE = 0.1
SEED = 3


def _runner(name, tmp_path, seed=SEED):
    wl = workloads.WORKLOADS[name](seed, scale=SMOKE_SCALE)
    wl.prepare()
    assert wl.problems == []
    work = tmp_path / name
    work.mkdir()
    return run.Runner(wl, str(work))


def _bound_names():
    return {(id(owner), attr): vars(owner)[attr] for owner, attr in tracer.rebinding_targets()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass_without_failures_and_traced_digests_match(name, tmp_path):
    runner = _runner(name, tmp_path)
    subs = runner.wl.sub_seeds
    for sub in list(range(subs)) + [0]:
        runner.call(sub)
    runner.call(0, tracer.Tracer())
    runner.call(0, tracer.Tracer())
    assert runner.failed == 0, [r.problems for _, _, r in runner.results]
    assert sorted(runner.first) == list(range(subs))
    # The traced calls reproduced the untraced digests of sub-seed 0 (a
    # mismatch would have counted as a failure above); check it directly too.
    traced = [r.digests for is_traced, _, r in runner.results if is_traced]
    assert traced == [runner.first[0].digests] * 2
    problems = []
    layers = run.per_layer(runner.wl, runner, problems)
    assert problems == []
    assert layers["trace.coverage"] >= run.MIN_COVERAGE


def test_counters_match_the_expected_traffic(tmp_path):
    layers = {}
    for name in workloads.WORKLOADS:
        runner = _runner(name, tmp_path)
        runner.call(0, tracer.Tracer())
        layers[name] = runner.summaries[0][1]
    post = workloads.MatrixPosterior(SEED, scale=SMOKE_SCALE)
    # per step: the prox, in_domain while recording, and feasibility over the
    # trace; plus 2 for each of the 400 exact draws of the C estimate
    assert layers["matrix-posterior"]["space.eigh_calls"] == 3 * post.num_steps + 800
    ens = workloads.MatrixEnsemble(SEED, scale=SMOKE_SCALE)
    assert layers["matrix-ensemble"]["space.eigh_calls"] == ens.chain_steps
    assert layers["flat-ensemble"]["space.eigh_calls"] == 0
    assert layers["flat-trace"]["space.eigh_calls"] == 0
    flat = workloads.FlatEnsemble(SEED, scale=SMOKE_SCALE)
    # one stream per chain, plus the recorded chain's
    assert layers["flat-ensemble"]["space.rng_streams"] == flat.chains + 1


def test_every_rebinding_is_restored():
    before = _bound_names()
    t = tracer.Tracer()
    t.install()
    assert all(vars(owner)[attr] is not before[(id(owner), attr)]
               for owner, attr in tracer.rebinding_targets())
    t.restore()
    assert _bound_names() == before
    # aliases are separate rebindings: LogBarrier.prox_batch is its own target
    assert (potentials.LogBarrier, "prox_batch") in tracer.rebinding_targets()


def test_rebindings_are_restored_when_a_call_raises(tmp_path):
    before = _bound_names()

    class Broken(workloads.FlatTrace):
        def call(self, sub, out_dir, span):
            with workloads.keep_result(workloads.cli, "run_chain"):
                raise RuntimeError("boom")

    wl = Broken(SEED, scale=SMOKE_SCALE)
    runner = run.Runner(wl, str(tmp_path))
    runner.call(0, tracer.Tracer())
    assert runner.failed == 1
    assert _bound_names() == before


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat-trace", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
