"""Proximal Langevin sampling for composite log-concave targets exp(-F - G).

The package splits along the math: state spaces and deterministic RNG
streams (:mod:`proxlmc.space`), the potential and prox catalog
(:mod:`proxlmc.potentials`), the step kernel and its chain drivers
(:mod:`proxlmc.samplers`), Wasserstein and primal-dual diagnostics
(:mod:`proxlmc.diagnostics`), analytically checkable experiments
(:mod:`proxlmc.experiments`), and the CLI (:mod:`proxlmc.cli`).
"""

from .space import (
    EigenFailure,
    RngStream,
    ambient_dim,
    check_point,
    gaussian,
    inner,
    norm,
    spectral_apply,
    sym_eigendecomposition,
)
from .potentials import (
    AbsoluteValue,
    BoxIndicator,
    ConjugateUnavailable,
    EntryAbsolute,
    LipschitzProxTerm,
    LogBarrier,
    NonsmoothPotential,
    PrecisionLikelihood,
    PsdIndicator,
    Quadratic,
    QuadraticSum,
    SmoothPotential,
    Spectral,
    ZeroSmooth,
    absolute_entries_term,
    build_gamma_potential,
    dual_from_primal,
)
from .samplers import (
    SAMPLER_IDS,
    ChainDivergence,
    ChainTrace,
    EnsembleResult,
    SamplerConfig,
    run_chain,
    run_ensemble,
    step_psgla,
    step_size_warning,
    tune_for_epsilon,
)
from .diagnostics import (
    CEstimate,
    PdpgReport,
    QuantileOracle,
    bootstrap_w2_se,
    ergodic_mean,
    estimate_C,
    feasibility_fraction,
    lemma2_residual,
    pdpg_gap_check,
    sliced_wasserstein2,
    wasserstein2_1d,
)
from .experiments import (
    AssembledExperiment,
    GroundTruth,
    TruncGaussSpec,
    WishartExperimentSpec,
    assemble_experiment,
    gamma_posterior_quantile,
    gamma_quantile,
    generate_gaussian_data,
    posterior_ground_truth,
    sample_wishart,
    trunc_gauss_quantile,
)
from .verify import SUITES, SuiteResult, run_suites

__all__ = [name for name in dir() if not name.startswith("_")]
