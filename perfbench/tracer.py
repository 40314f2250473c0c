"""Layer tracing from outside the package.

The tracer records a span (name, start, end, parent) around every call into
the public functions of each proxlmc module by rebinding those names for the
duration of one traced call, then puts every original back.  The package
imports by name (``from .samplers import run_chain``), so a name is rebound
in the module that *calls* it, and class attributes that alias one another
(``LogBarrier.prox_batch = prox``) are rebound one by one.

Spans stay in memory; aggregation happens after the call.  A span's self
time is its duration minus the time its child spans cover.  A layer's calls
and time count only its outermost spans, so a batched prox that falls back
to the per-point prox is one call, not N + 1.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np

from proxlmc import cli, experiments, potentials, samplers, space

# (layer, owner, attribute names).  Layer names are the metric prefixes.
_FUNCTION_TARGETS = [
    ("space.eigh", space, ["sym_eigendecomposition"]),
    ("space.eigh", potentials, ["sym_eigendecomposition"]),
    ("samplers.step", samplers, ["step_psgla"]),
    ("samplers.run_chain", cli, ["run_chain"]),
    ("samplers.run_chain", samplers, ["run_chain"]),
    ("samplers.run_ensemble", cli, ["run_ensemble"]),
    ("samplers.run_ensemble", samplers, ["run_ensemble"]),
    ("diagnostics.feasibility", cli, ["feasibility_fraction"]),
    ("diagnostics.estimate_c", cli, ["estimate_C"]),
    ("diagnostics.w2", cli, ["wasserstein2_1d"]),
    ("diagnostics.ergodic_mean", cli, ["ergodic_mean"]),
    ("experiments.assemble", cli, ["assemble_experiment", "generate_gaussian_data"]),
    ("experiments.sample_wishart", cli, ["sample_wishart"]),
    # The quantile oracles are lambdas that look these names up at call time.
    ("experiments.oracle", experiments, ["trunc_gauss_quantile", "gamma_posterior_quantile"]),
    ("cli.resolve", cli, ["load_config", "resolve_config"]),
    ("cli.cmd", cli, ["cmd_sample", "cmd_experiment"]),
]

_RNG_TARGETS = [
    ("space.rng_init", ["__init__"]),
    ("space.noise", ["standard_normal"]),
    ("space.draw", ["integers", "uniform", "standard_gamma"]),
]

_PROX_ATTRS = ("prox", "prox_batch")
_GRAD_ATTRS = ("stochastic_gradient", "full_gradient", "full_gradient_batch")

# The CLI's own work (report assembly, writers) is the self time of these.
CLI_SELF_LAYERS = ("cli.main", "cli.cmd")


def _class_targets():
    """(layer, class, attribute) for every method defined on a potential
    class itself, aliases included."""
    out = []
    for obj in vars(potentials).values():
        if not isinstance(obj, type):
            continue
        own = vars(obj)
        if issubclass(obj, potentials.NonsmoothPotential):
            out += [("potentials.prox", obj, a) for a in _PROX_ATTRS if a in own]
            if "in_domain" in own:
                out.append(("potentials.in_domain", obj, "in_domain"))
        if issubclass(obj, potentials.SmoothPotential):
            out += [("potentials.grad", obj, a) for a in _GRAD_ATTRS if a in own]
    out += [
        (layer, space.RngStream, attr) for layer, attrs in _RNG_TARGETS for attr in attrs
    ]
    return out


def rebinding_targets():
    """Every (owner, attribute) pair the tracer rebinds, in install order."""
    pairs = [(owner, attr) for _, owner, attrs in _FUNCTION_TARGETS for attr in attrs]
    pairs += [(owner, attr) for _, owner, attr in _class_targets()]
    return pairs


def _moved_point(args, out):
    """(1 if prox(gamma, x) moved x else 0, 1)."""
    return int(not np.array_equal(out, args[2])), 1


def _moved_rows(args, out):
    """(points of prox_batch(gamma, xs) that moved, points)."""
    xs = np.asarray(args[2], dtype=float)
    diff = np.asarray(out) != xs
    moved = np.any(diff.reshape(xs.shape[0], -1), axis=1)
    return int(moved.sum()), int(xs.shape[0])


class Tracer:
    """Span recorder for one traced call at a time.

    ``install()`` rebinds every target, ``restore()`` puts the originals
    back; ``span(name)`` opens a span from the benchmark's own code.
    """

    def __init__(self):
        self.spans = []  # [layer, start, end, parent]
        self.moved = {}  # span index -> (moved points, points)
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _enter(self, layer):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, layer):
        idx = self._enter(layer)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, layer, fn, observe=None):
        def traced(*args, **kwargs):
            idx = self._enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if observe is not None:
                self.moved[idx] = observe(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- rebinding ---------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for layer, owner, attrs in _FUNCTION_TARGETS:
            for attr in attrs:
                self._rebind(owner, attr, layer)
        for layer, cls, attr in _class_targets():
            observe = None
            if layer == "potentials.prox":
                observe = _moved_rows if attr == "prox_batch" else _moved_point
            self._rebind(cls, attr, layer, observe)

    def _rebind(self, owner, attr, layer, observe=None):
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, original, observe))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self):
        self.spans = []
        self.moved = {}
        self._stack = []

    # -- aggregation -------------------------------------------------------

    def summary(self, call_s: float, chain_steps: int) -> dict:
        """Per-layer calls, time, self time and shares of one traced call."""
        n = len(self.spans)
        dur = np.array([s[2] - s[1] for s in self.spans])
        child = np.zeros(n)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        calls = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        moved = points = 0
        for i, (layer, _, _, parent) in enumerate(self.spans):
            p = parent  # walk up to the nearest span of the same layer
            while p >= 0 and self.spans[p][0] != layer:
                p = self.spans[p][3]
            self_time[layer] += dur[i] - child[i]
            if p < 0:
                calls[layer] += 1
                total[layer] += dur[i]
                if i in self.moved:
                    moved += self.moved[i][0]
                    points += self.moved[i][1]
        top = sum(dur[i] for i, s in enumerate(self.spans) if s[3] < 0)

        def share(seconds):
            return float(seconds / call_s)

        def per_step(count):
            return count / chain_steps

        # Eigendecompositions under a prox are part of the prox, not its
        # per-eigenvalue map; the prox self share excludes them.
        eigh_under_prox = sum(
            dur[i] for i, s in enumerate(self.spans)
            if s[0] == "space.eigh" and s[3] >= 0 and self.spans[s[3]][0] == "potentials.prox"
        )
        step_time = total["samplers.run_chain"] + total["samplers.run_ensemble"]
        return {
            "space.eigh_calls": calls["space.eigh"],
            "space.eigh_per_step": per_step(calls["space.eigh"]),
            "space.eigh_share": share(total["space.eigh"]),
            "space.rng_streams": calls["space.rng_init"],
            "space.rng_init_share": share(total["space.rng_init"]),
            "space.noise_calls": calls["space.noise"],
            "space.noise_share": share(total["space.noise"]),
            "space.draw_calls": calls["space.draw"],
            "potentials.prox_calls": calls["potentials.prox"],
            "potentials.prox_per_step": per_step(calls["potentials.prox"]),
            "potentials.prox_share": share(total["potentials.prox"]),
            "potentials.prox_self_share": share(total["potentials.prox"] - eigh_under_prox),
            "potentials.prox_moved_frac": moved / points if points else 0.0,
            "potentials.in_domain_calls": calls["potentials.in_domain"],
            "potentials.in_domain_per_step": per_step(calls["potentials.in_domain"]),
            "potentials.in_domain_share": share(total["potentials.in_domain"]),
            "potentials.grad_calls": calls["potentials.grad"],
            "potentials.grad_share": share(total["potentials.grad"]),
            "samplers.step_calls": calls["samplers.step"],
            "samplers.run_chain_share": share(total["samplers.run_chain"]),
            "samplers.run_chain_self_share": share(self_time["samplers.run_chain"]),
            "samplers.run_ensemble_share": share(total["samplers.run_ensemble"]),
            "samplers.run_ensemble_self_share": share(self_time["samplers.run_ensemble"]),
            "samplers.us_per_chain_step": float(1e6 * step_time / chain_steps),
            "diagnostics.feasibility_share": share(total["diagnostics.feasibility"]),
            "diagnostics.estimate_c_share": share(total["diagnostics.estimate_c"]),
            "diagnostics.w2_share": share(total["diagnostics.w2"]),
            "diagnostics.ergodic_mean_share": share(total["diagnostics.ergodic_mean"]),
            "experiments.assemble_share": share(total["experiments.assemble"]),
            "experiments.oracle_share": share(total["experiments.oracle"]),
            "experiments.sample_wishart_share": share(total["experiments.sample_wishart"]),
            "cli.resolve_share": share(total["cli.resolve"]),
            "cli.self_share": share(sum(self_time[k] for k in CLI_SELF_LAYERS)),
            "score.share": share(total["score"]),
            "trace.spans": n,
            "trace.coverage": share(top),
        }

    def write(self, path, label: str):
        """Write the recorded spans as JSON lines, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (layer, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": layer, "start": start - t0, "end": end - t0,
                    "parent": parent, "workload": label,
                }) + "\n")
