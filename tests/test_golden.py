"""Golden digests: the data files of two small CLI runs, pinned by sha256.

Per-step changes to the kernel, the potentials and the writers must keep
every output byte.  Both runs are flat and one-dimensional, a minibatch
chain and a trunc-gauss ensemble: no eigensolve is on their path and every
BLAS product they make has one term.  Their bytes depend on numpy's Philox
stream, its ziggurat normal and bounded-integer samplers, IEEE double
arithmetic and Python's float repr, and the ensemble's report also on
scipy.special.erf, through the exact quantiles it is scored against.  The
digests were computed before the per-step optimizations of the kernel,
LogBarrier.prox, the minibatch gradient and the trace writer.
"""

import hashlib
import json
import os

import pytest

from proxlmc.cli import main

RUNS = {
    "sample-d1-minibatch": (
        ["sample"],
        {"experiment": "wishart-precision", "d": 1, "minibatch": 5, "gamma": 0.01,
         "num_steps": 2000, "record_duals": True, "seed": 3},
        {"trace.csv": "0ad57bf70c284e8608655b770d046b6eb4ada9823a83d70fb09f289fc3a63559"},
    ),
    "experiment-trunc-gauss-ensemble": (
        ["experiment", "--chains", "64"],
        {"experiment": "trunc-gauss", "mean": 0.5, "num_steps": 300, "seed": 4},
        {"histogram.csv": "9e1a2680a24158d07ede89bed105b718d94c8c55efc41ebdb3e9a885d754c3e9",
         "report.json": "f345b79b8c3320c4aa39d45f485ef19ed490dc851ca4f5f72112224262ec6b7a"},
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_data_files_match_their_golden_digests(name, tmp_path):
    command, body, expected = RUNS[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body))
    out = tmp_path / "out"
    assert main([command[0], "--config", str(config), "--out", str(out), *command[1:]]) == 0
    digests = {
        f: hashlib.sha256((out / f).read_bytes()).hexdigest()
        for f in sorted(os.listdir(out)) if f != "manifest.json"  # it holds the wall time
    }
    assert digests == expected
