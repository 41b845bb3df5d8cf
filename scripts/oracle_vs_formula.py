"""Random-coefficient experiment: closed formulas vs the brute-force search.

Draws coefficient vectors on a quarter-integer grid, runs the bounded
minimization for point and locus targets, and tallies agreements, certified
negative infinities, and sorted-domain divergences (cases where some single
coefficient of the linearized objective is negative while every prefix sum
stays nonnegative).  Also checks the beta rule, which predicts a divergence
exactly when some beta coefficient is negative while every beta prefix sum
stays nonnegative, and exits 1 when the predicted and the observed cases
differ.

Usage: python scripts/oracle_vs_formula.py [--samples N] [--seed S] [--max-m M] [--bound L]
"""

import argparse
import random
import sys
from fractions import Fraction

from detmld import (
    LocusTarget,
    PointTarget,
    beta_coefficients,
    compare_with_closed_form,
    new_pair,
)

GRID = [Fraction(i, 4) for i in range(13)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-m", type=int, default=4)
    parser.add_argument("--bound", type=int, default=4)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    agree = certified = diverged = 0
    examples = []
    predicted, observed = set(), set()
    for sample in range(args.samples):
        m = rng.randint(1, args.max_m)
        k = rng.randint(1, m)
        alphas = [rng.choice(GRID) for _ in range(k)]
        pair = new_pair(m, k, alphas)
        if rng.random() < 0.5:
            target = PointTarget(rng.randint(0, k))
        else:
            target = LocusTarget(rng.randint(1, k))
        comp = compare_with_closed_form(pair, target, args.bound)
        count = k - target.q if isinstance(target, PointTarget) else k
        betas = beta_coefficients(pair, count)
        if any(b < 0 for b in betas) and all(s >= 0 for s in betas.prefix_sums()):
            predicted.add(sample)
        if comp.agree:
            agree += 1
            if comp.oracle.prefix_unbounded:
                certified += 1
        else:
            diverged += 1
            observed.add(sample)
            if len(examples) < 5:
                examples.append((m, k, [str(a) for a in alphas], target))

    print(f"samples            {args.samples}")
    print(f"agree              {agree}")
    print(f"  certified -inf   {certified}")
    print(f"sorted-domain gap  {diverged}")
    for m, k, alphas, target in examples:
        print(f"  e.g. m={m} k={k} alphas={alphas} target={target}")
    print(f"beta rule          predicted {len(predicted)} gaps, observed {len(observed)}")
    if predicted != observed:
        print(f"  mispredicted samples: {sorted(predicted ^ observed)}")
        sys.exit(1)


if __name__ == "__main__":
    main()
