"""Golden digests: the data files of four small CLI runs, pinned by sha256.

Per-step changes to the kernel, the potentials and the writers must keep
every output byte.  Every run is flat and one-dimensional, a minibatch
chain and three ensembles: no eigensolve is on their path and every BLAS
product they make has one term.  Their bytes depend on numpy's Philox
stream, its ziggurat normal and bounded-integer samplers, IEEE double
arithmetic and Python's float repr, and the ensembles' reports also on the
exact quantiles they are scored against: the package's numpy port of Cephes
erf for trunc-gauss, bit for bit scipy.special.erf, and
scipy.special.gammainc for the d = 1 Wishart posterior, whose report also
holds the C estimate over the oracle's quantile grid.  The first two
digests were computed before the per-step optimizations of the kernel,
LogBarrier.prox, the minibatch gradient and the trace writer, the third
before the two quantile bisections became one, the fourth while
`experiment --chains` still ran the recorded chain on its own, before the
ensemble's pass began to record chain 0 and the noise block became
step-major.  Two ensembles take their last snapshot at num_steps; the
fourth takes it at step 700 of 1500, so its recorded chain goes on alone
past the first 1024-step noise chunk of a lone chain.
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
    "experiment-wishart-d1-ensemble": (
        ["experiment", "--chains", "16"],
        {"experiment": "wishart-precision", "d": 1, "num_steps": 400,
         "snapshot_steps": [100, 400], "seed": 5},
        {"convergence.csv": "9cfedc29a58a3964397b3ca87dc623f793c545172cab43458202c875cb758550",
         "histogram.csv": "60eade1b032dbc0c0f3220f874cc797d20b7f10d1506e5162107911404f8e971",
         "report.json": "9f45bfc72477cf6180d97dc0935792a107bb031f0d115f1dd4ae788480f72c8d"},
    ),
    "experiment-wishart-d1-ensemble-recorded-past-snapshots": (
        ["experiment", "--chains", "70"],
        {"experiment": "wishart-precision", "d": 1, "burn_in": 50, "record_every": 3,
         "num_steps": 1500, "snapshot_steps": [300, 700], "seed": 6},
        {"convergence.csv": "c8534a5b1628dcea398baa1b0a7b9d03434a779d350316517057a4ab83dce5d2",
         "histogram.csv": "6b5bbd4e9d495628ee22fa1b6aa7c5efc5c1fe25fe7d069b9cd85db465546548",
         "report.json": "51e6339ef702c99b5996fe0143808445453182abecfa1ad181f622a3dd35e162"},
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
