"""End-to-end acceptance gate.

Each test checks one externally verifiable contract of the package at a fixed
tolerance and emits a single PASS/FAIL line (collected in the terminal
summary).  Tolerances are part of the contract: do not loosen them here.
"""

import json

import numpy as np

from proxlmc import (
    RngStream,
    SamplerConfig,
    TruncGaussSpec,
    WishartExperimentSpec,
    assemble_experiment,
    bootstrap_w2_se,
    estimate_C,
    feasibility_fraction,
    gamma_posterior_quantile,
    generate_gaussian_data,
    posterior_ground_truth,
    run_chain,
    run_ensemble,
    wasserstein2_1d,
)
from proxlmc.cli import main
from proxlmc.verify import (
    suite_lemma2,
    suite_moreau,
    suite_pdpg,
    suite_reductions,
    suite_spectral_prox,
)


# ---------------------------------------------------------------------------
# A1-A5: oracle suites (identities, inequalities, bitwise reductions)
# ---------------------------------------------------------------------------

def test_a01_moreau_identity_over_catalog(acceptance_report):
    """Every catalog prox satisfies x = prox + gamma * dual to 1e-10 relative,
    and the dual lies in the subdifferential of G at the prox to 1e-9
    relative, 1000 points per potential per step size in {0.01, 0.1, 1, 10}."""
    r = suite_moreau(trials=1000)
    acceptance_report(
        "A1 moreau-identity",
        r.passed,
        f"{r.detail}, limits 1e-10 and 1e-9 (1000 pts x 4 step sizes x full catalog)",
    )


def test_a02_spectral_prox_matches_scalar_search(acceptance_report):
    """The prox of Spectral(LogBarrier(alpha, beta), d) agrees entrywise with
    a per-eigenvalue golden-section minimizer to 1e-8 on 200 random matrices, d in {2, 5, 10}."""
    r = suite_spectral_prox(trials=200)
    acceptance_report("A2 spectral-prox", r.passed, f"{r.detail}, limit 1e-8 (200 matrices)")


def test_a03_prox_step_inequality(acceptance_report):
    """One-step primal-dual inequality residual >= -1e-10 on 1e4 random
    box instances with step sizes across [1e-3, 10]."""
    r = suite_lemma2(trials=10000)
    acceptance_report("A3 prox-step-inequality", r.passed, f"{r.detail}, limit -1e-10 (1e4 instances)")


def test_a04_pdpg_descent_and_gap(acceptance_report):
    """Per-iteration descent residual and Lagrangian gap term >= -1e-8 on 100
    random strongly convex quadratic-plus-box problems."""
    r = suite_pdpg(trials=100)
    acceptance_report("A4 pdpg-descent", r.passed, f"{r.detail}, limit -1e-8 (100 problems)")


def test_a05_sampler_reductions_bitwise(acceptance_report):
    """ULA = PSGLA with G = 0, projected = PSGLA with an indicator, and
    SPLA without a stochastic term = PSGLA, bit-identical over 1000 steps
    on shared noise streams."""
    r = suite_reductions(trials=1000)
    acceptance_report("A5 reductions", r.passed, f"{r.detail} over 1000 steps")


# ---------------------------------------------------------------------------
# A6-A8: matrix-valued chains against the conjugate posterior
# ---------------------------------------------------------------------------

def precision_experiment(d, nu, n, data_seed):
    data = generate_gaussian_data(n, d, RngStream(data_seed, 0))
    spec = WishartExperimentSpec("precision", d, nu, data)
    return spec, assemble_experiment(spec)


def test_a06_prox_samplers_stay_feasible(acceptance_report):
    """PSGLA and SPLA iterates never leave the positive-definite cone:
    feasibility fraction exactly 1.0 over 1e4 steps at gamma = 0.1, d = 10."""
    _, asm = precision_experiment(d=10, nu=14.0, n=50, data_seed=101)
    cfg = SamplerConfig(gamma=0.1, num_steps=10000, seed=21, record_every=1, spla_r_weight=0.1)
    x0 = asm.default_x0(cfg.gamma)
    fracs = {}
    for sampler in ("psgla", "spla"):  # psgla has no R term
        trace = run_chain(sampler, asm.smooth, asm.nonsmooth, cfg, x0)
        fracs[sampler] = feasibility_fraction(trace, asm.nonsmooth)
    ok = fracs["psgla"] == 1.0 and fracs["spla"] == 1.0
    acceptance_report(
        "A6 feasibility",
        ok,
        f"psgla {fracs['psgla']:.4f}, spla {fracs['spla']:.4f}, required exactly 1.0",
    )


def test_a07_scalar_posterior_mean_within_5pct(acceptance_report):
    """d = 1 conjugate posterior: PSGLA ergodic mean over 1e5 post-burn-in
    steps lands within 5% of the analytic posterior mean."""
    spec, asm = precision_experiment(d=1, nu=5.0, n=50, data_seed=1)
    truth = posterior_ground_truth(spec)
    cfg = SamplerConfig(gamma=0.01, num_steps=101000, burn_in=1000, seed=42, record_every=100)
    trace = run_chain(
        "psgla", asm.smooth, asm.nonsmooth, cfg, asm.default_x0(cfg.gamma),
        mean_checkpoints=[101000],
    )
    step, mean = trace.mean_checkpoints[-1]
    assert step == 101000
    m_star = float(np.ravel(truth.m_star)[0])
    rel = abs(float(np.ravel(mean)[0]) - m_star) / abs(m_star)
    acceptance_report(
        "A7 posterior-mean-1d",
        rel <= 0.05,
        f"relative error {rel:.4f} vs m* = {m_star:.4f}, limit 0.05",
    )


def test_a08_matrix_posterior_mean_converges(acceptance_report):
    """d = 10: Frobenius distance of the running ergodic mean to the analytic
    posterior mean decreases across checkpoints 1e3 / 1e4 / 1e5 (at most one
    inversion) and drops below a third of its first value."""
    spec, asm = precision_experiment(d=10, nu=14.0, n=50, data_seed=101)
    truth = posterior_ground_truth(spec)
    cfg = SamplerConfig(gamma=0.01, num_steps=100000, seed=11, record_every=1000)
    trace = run_chain(
        "psgla", asm.smooth, asm.nonsmooth, cfg, asm.default_x0(cfg.gamma),
        mean_checkpoints=[1000, 10000, 100000],
    )
    dists = [float(np.linalg.norm(mean - truth.m_star)) for _, mean in trace.mean_checkpoints]
    inversions = sum(1 for a, b in zip(dists, dists[1:]) if b >= a)
    ok = inversions <= 1 and dists[-1] < dists[0] / 3.0
    acceptance_report(
        "A8 posterior-mean-matrix",
        ok,
        "frobenius distances " + " -> ".join(f"{v:.3f}" for v in dists)
        + f", inversions {inversions} (<= 1), last < first/3 = {dists[0] / 3.0:.3f}",
    )


# ---------------------------------------------------------------------------
# A9-A10: ensemble laws against analytic quantiles
# ---------------------------------------------------------------------------

def test_a09_step_size_bias_and_bound(acceptance_report):
    """Truncated-Gaussian target (L = lambda_F = 1): squared W2 of 1e4 chains
    after 10/gamma steps grows with gamma, and at gamma = 0.01 sits inside the
    bias bound gamma * C_hat / lambda_F plus 3 bootstrap standard errors."""
    asm = assemble_experiment(TruncGaussSpec())
    oracle = asm.quantile_oracle
    w2 = {}
    last = None
    for gamma in (0.1, 0.01):
        k = int(round(10.0 / gamma))
        cfg = SamplerConfig(gamma=gamma, num_steps=k, seed=5)
        ens = run_ensemble(
            "psgla", asm.smooth, asm.nonsmooth, cfg, num_chains=10000,
            snapshot_steps=[k], x0=asm.default_x0(gamma),
        )
        last = ens.snapshot(k)
        w2[gamma] = wasserstein2_1d(last, oracle)
    c_hat = estimate_C(last, asm.nonsmooth, L=asm.smooth.L, ambient_dim=1, sigma_f_sq=0.0)
    se = bootstrap_w2_se(last, oracle, num_bootstrap=200, seed=3)
    bound = 0.01 * c_hat.value / asm.smooth.lambda_f + 3.0 * se
    ok = w2[0.1] > w2[0.01] and w2[0.01] <= bound
    acceptance_report(
        "A9 bias-vs-step-size",
        ok,
        f"W2^2: gamma 0.1 -> {w2[0.1]:.6f} > gamma 0.01 -> {w2[0.01]:.6f}; "
        f"bound 0.01*C/lambda + 3*SE = {bound:.6f} (C_hat = {c_hat.value:.4f})",
    )


def test_a10_gamma_posterior_snapshot_law(acceptance_report):
    """d = 1 Gamma posterior: W2^2 of 1e4 end-of-chain PSGLA snapshots against
    the analytic quantile grid is within 4x the same statistic for 1e4 exact
    inverse-CDF draws."""
    spec, asm = precision_experiment(d=1, nu=25.0, n=10, data_seed=1)
    cfg = SamplerConfig(gamma=0.01, num_steps=1000, seed=107)
    ens = run_ensemble(
        "psgla", asm.smooth, asm.nonsmooth, cfg, num_chains=10000,
        snapshot_steps=[1000], x0=asm.default_x0(cfg.gamma),
    )
    oracle = asm.quantile_oracle
    w2_chain = wasserstein2_1d(ens.snapshot(1000), oracle)
    exact = gamma_posterior_quantile(spec, RngStream(224, 0).uniform(10000))
    w2_exact = wasserstein2_1d(exact, oracle)
    ratio = w2_chain / w2_exact
    acceptance_report(
        "A10 snapshot-law",
        ratio <= 4.0,
        f"W2^2 chain {w2_chain:.3e} vs exact draws {w2_exact:.3e}, ratio {ratio:.3f} <= 4",
    )


# ---------------------------------------------------------------------------
# A11: reproducible experiment artifacts
# ---------------------------------------------------------------------------

def test_a11_experiment_rerun_digests_identical(acceptance_report, tmp_path):
    """Two runs of the same experiment config produce byte-identical outputs."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "experiment": "trunc-gauss",
        "num_steps": 300,
        "num_chains": 32,
        "snapshot_steps": [300],
        "seed": 9,
    }))
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        digests.append(manifest["outputs"])
    ok = bool(digests[0]) and digests[0] == digests[1]
    acceptance_report(
        "A11 rerun-digests",
        ok,
        f"{len(digests[0])} artifacts, digests identical: {digests[0] == digests[1]}",
    )
