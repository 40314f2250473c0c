"""Stationary bias of PSGLA versus step size on the truncated Gaussian.

For each step size gamma, runs an ensemble for ceil(10 / gamma) steps (enough
to forget the start at these curvatures) and reports the squared W2 distance
of the end-of-chain law to the analytic quantiles, next to the bias bound
gamma * C_hat / lambda_F and a bootstrap standard error.

    python3 scripts/bias_sweep.py --chains 4000
"""

import argparse
import math

from proxlmc import (
    SamplerConfig,
    TruncGaussSpec,
    ambient_dim,
    assemble_experiment,
    bootstrap_w2_se,
    estimate_C,
    run_ensemble,
    wasserstein2_1d,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gammas", default="0.2,0.1,0.05,0.02,0.01",
                    help="comma-separated step sizes")
    ap.add_argument("--chains", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--mean", type=float, default=0.0)
    ap.add_argument("--lo", type=float, default=-1.0)
    ap.add_argument("--hi", type=float, default=1.0)
    args = ap.parse_args()

    asm = assemble_experiment(TruncGaussSpec(mean=args.mean, lo=args.lo, hi=args.hi))
    oracle = asm.quantile_oracle
    lam = asm.smooth.lambda_f

    print(f"truncated Gaussian on [{args.lo}, {args.hi}], mean {args.mean}, "
          f"{args.chains} chains, seed {args.seed}")
    print(f"{'gamma':>8} {'steps':>6} {'W2^2':>12} {'3*SE':>12} {'gamma*C/lam':>12}")
    for gamma in (float(g) for g in args.gammas.split(",")):
        k = math.ceil(10.0 / gamma)
        cfg = SamplerConfig(gamma=gamma, num_steps=k, seed=args.seed)
        ens = run_ensemble("psgla", asm.smooth, asm.nonsmooth, cfg,
                           num_chains=args.chains, snapshot_steps=[k],
                           x0=asm.default_x0(gamma))
        snap = ens.snapshot(k)
        w2 = wasserstein2_1d(snap, oracle)
        se = bootstrap_w2_se(snap, oracle, num_bootstrap=200, seed=3)
        c_hat = estimate_C(snap, asm.nonsmooth, L=asm.smooth.L,
                           ambient_dim=ambient_dim(asm.shape), sigma_f_sq=0.0)
        print(f"{gamma:>8.3f} {k:>6d} {w2:>12.3e} {3 * se:>12.3e} "
              f"{gamma * c_hat.value / lam:>12.3e}")


if __name__ == "__main__":
    main()
