"""Fit a planted two-block model and report recovery quality.

Sweeps the noise level, fits at the true ranks, and prints the variance split
next to the planted one plus the mean largest principal-angle sine between the
fitted and planted joint row spaces.  Next to it, ``oracle`` is the same sine
for ``PlantedModel.oracle_joint_vt``, which is handed the planted individual
row spaces: the recovery floor that the noise level allows.  The defaults are
the acceptance suite's criterion-2 model (seeds 100-109, individual scales
0.2), so ``--noise-fracs 0.05`` reproduces its fit and oracle means.

    python scripts/planted_demo.py --noise-fracs 0.03 0.05
"""

import argparse

import numpy as np

from embedjive.jive import JiveConfig, jive_fit, variance_explained
from embedjive.linalg import principal_angle_sines
from embedjive.synthetic import make_planted, sigma_for_noise_fraction


def run(noise_frac, seeds, p_dims, n, joint_rank, individual_ranks):
    joint_scales = np.ones(joint_rank)
    individual_scales = [np.full(r, 0.2) for r in individual_ranks]
    signal_sq = len(p_dims) * float(np.sum(joint_scales**2)) + sum(float(np.sum(s**2)) for s in individual_scales)
    sigma = 0.0 if noise_frac == 0 else sigma_for_noise_fraction(p_dims, n, signal_sq, noise_frac)
    sines, oracle_sines, joint_pcts, resid_pcts, iters = [], [], [], [], []
    for seed in range(100, 100 + seeds):
        model = make_planted(p_dims, n, joint_rank, individual_ranks, joint_scales=joint_scales,
                             individual_scales=individual_scales, noise_sigma=sigma, seed=seed)
        config = JiveConfig(joint_rank=joint_rank, individual_ranks=individual_ranks, epsilon=1e-9)
        result = jive_fit(model.blocks, config)
        report = variance_explained(result)
        sines.append(principal_angle_sines(result.joint_vt, model.joint_vt).max())
        oracle_sines.append(principal_angle_sines(model.oracle_joint_vt(model.blocks), model.joint_vt).max())
        joint_pcts.append(np.mean([b["joint_pct"] for b in report["blocks"]]))
        resid_pcts.append(np.mean([b["residual_pct"] for b in report["blocks"]]))
        iters.append(result.iterations)
    expected_joint = np.mean([model.expected_pct(i)[0] for i in range(len(p_dims))])
    print(
        f"noise={noise_frac:5.2%}  sigma={sigma:.5f}  max sine={np.mean(sines):.4f}  oracle={np.mean(oracle_sines):.4f}"
        f"  joint%={np.mean(joint_pcts):6.2f} (planted {expected_joint:6.2f})"
        f"  resid%={np.mean(resid_pcts):5.2f}  iters={np.mean(iters):.0f}"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--noise-fracs", type=float, nargs="+", default=[0.0, 0.01, 0.02, 0.05])
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--p", type=int, nargs="+", default=[20, 30])
    parser.add_argument("--joint-rank", type=int, default=3)
    parser.add_argument("--individual-ranks", type=int, nargs="+", default=[2, 2])
    args = parser.parse_args()
    for frac in args.noise_fracs:
        run(frac, args.seeds, tuple(args.p), args.n, args.joint_rank, tuple(args.individual_ranks))


if __name__ == "__main__":
    main()
