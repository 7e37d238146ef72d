"""Calibration study for the joint-rank selection rule.

Counts the joint ranks the rule selects over repeated draws for three
regimes: duplicated blocks (every signal direction shared), independent
Gaussian blocks (nothing shared), and a planted model with a known joint
rank.  For the independent regime it also prints the Monte Carlo null's
false-positive rate (top of the spectrum above the recorded null threshold)
with a 95% Wilson interval, to check the sampler against the nominal level
1 - quantile, which refers to the null alone:

    python scripts/rank_null_calibration.py --runs 50
    python scripts/rank_null_calibration.py --runs 1000 --n 2000
"""

import argparse
import collections

import numpy as np

from embedjive.rank_select import select_joint_rank
from embedjive.synthetic import make_planted


def tally(label, decisions):
    counts = collections.Counter(d["joint_rank"] for d in decisions)
    taus = [d["tau"] for d in decisions]
    pretty = ", ".join(f"r={r}: {c}" for r, c in sorted(counts.items()))
    print(f"{label:<22} {pretty}   (tau mean {np.mean(taus):.3f})")


def wilson_interval(hits, runs, z=1.959964):
    """95% Wilson score interval for a binomial proportion."""
    rate = hits / runs
    centre = (rate + z * z / (2 * runs)) / (1 + z * z / runs)
    half = z * np.sqrt(rate * (1 - rate) / runs + z * z / (4 * runs * runs)) / (1 + z * z / runs)
    return centre - half, centre + half


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=50)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--resamples", type=int, default=100)
    args = parser.parse_args()

    duplicated = []
    for run in range(args.runs):
        rng = np.random.default_rng(1000 + run)
        block = rng.standard_normal((12, args.n))
        duplicated.append(select_joint_rank([block, block.copy()], (5, 5), resamples=args.resamples, seed=2000 + run))
    tally("duplicated blocks", duplicated)

    independent = []
    for run in range(args.runs):
        rng = np.random.default_rng(3000 + run)
        blocks = [rng.standard_normal((20, args.n)), rng.standard_normal((20, args.n))]
        independent.append(select_joint_rank(blocks, (5, 5), resamples=args.resamples, seed=4000 + run))
    tally("independent blocks", independent)
    false_pos = sum(d["spectrum"][0] > d["tau_null"] for d in independent)
    low, high = wilson_interval(false_pos, args.runs)
    print(f"{'':<22} false positives {false_pos}/{args.runs} = {false_pos / args.runs:.1%} "
          f"(95% CI {low:.1%}-{high:.1%}; nominal {1 - independent[0]['quantile']:.1%})")

    planted = []
    for run in range(args.runs):
        model = make_planted((15, 18), args.n, 2, (2, 2), joint_scales=(2.0, 1.8),
                             individual_scales=((1.0, 0.9), (1.0, 0.9)), noise_sigma=0.01, seed=5000 + run)
        planted.append(select_joint_rank(model.blocks, (4, 4), resamples=args.resamples, seed=6000 + run))
    tally("planted joint rank 2", planted)


if __name__ == "__main__":
    main()
