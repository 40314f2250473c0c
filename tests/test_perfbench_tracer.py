"""The benchmark's layer tracer (perfbench/tracer.py) rebinds package names by
attribute, and its workloads (perfbench/workloads.py) read package names and
result fields; a rename or deletion of one of them breaks `perfbench/run.py`,
so it must fail here too."""

import contextlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOAD_NAMES = ["flat-ensemble", "flat-trace", "matrix-ensemble", "matrix-posterior"]


def test_tracer_installs_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    targets = tracer.rebinding_targets()
    assert targets
    originals = {(owner, attr): vars(owner).get(attr) for owner, attr in targets}
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for (owner, attr), fn in originals.items() if fn is None]
    assert not missing, f"the tracer rebinds names the package lacks: {missing}"

    t = tracer.Tracer()
    t.install()
    try:
        rebound = [vars(owner)[attr] is not fn for (owner, attr), fn in originals.items()]
    finally:
        t.restore()
    assert all(rebound)
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_each_workload_runs_one_clean_untraced_call(name, monkeypatch, tmp_path):
    """One call per workload at a tenth of its size, outside perfbench/run.py
    (which pins BLAS threads at import): neither the exact references nor the
    call may report a problem."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    assert sorted(workloads.WORKLOADS) == WORKLOAD_NAMES
    wl = workloads.WORKLOADS[name](3, scale=0.1)
    wl.prepare()
    assert wl.problems == []
    res = wl.call(0, str(tmp_path / "out"), lambda _name: contextlib.nullcontext())
    assert res.problems == []


# (scale, steps) at which two noise workers each fill several tiles of a
# chunk: flat-ensemble 1024 chains of 131 per tile, matrix-ensemble 192 of 32.
TWO_WORKER_SIZES = {"flat-ensemble": (0.25, 250), "matrix-ensemble": (3, 20)}


@pytest.mark.parametrize("name", sorted(TWO_WORKER_SIZES))
def test_traced_calls_on_two_noise_workers_repeat_their_counters(name, monkeypatch, tmp_path):
    """perfbench/run.py fails a traced run whose exact counters differ between
    calls of one sub-seed.  The tracer keeps one span stack for all threads,
    so the noise fill's worker threads must call nothing it rebinds: two
    traced calls of sub-seed 0 on two workers count the same.  A short
    thread switch interval makes the workers interleave within a chunk."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import tracer
    import workloads

    from proxlmc import samplers

    monkeypatch.setattr(samplers, "_cpu_count", lambda: 2)
    scale, num_steps = TWO_WORKER_SIZES[name]
    wl = workloads.WORKLOADS[name](3, scale=scale)
    wl.num_steps = num_steps
    wl.prepare()
    counters = []
    switch_s = sys.getswitchinterval()
    for i in range(2):
        t = tracer.Tracer()
        t.install()
        sys.setswitchinterval(1e-5)
        try:
            wl.call(0, str(tmp_path / f"call-{i}"), t.span)
        finally:
            sys.setswitchinterval(switch_s)
            t.restore()
        layers = t.summary(1.0, wl.chain_steps)
        counters.append({k: v for k, v in layers.items()
                         if k.endswith(("_calls", "_per_step")) or k == "trace.spans"})
    assert counters[0] == counters[1]
