#!/usr/bin/env python3
"""Export one simulated two-sample dataset as CLI-ready CSV files."""

import argparse
import sys

from surveyblend import Covariate, ScenarioConfig, draw_samples, generate_population
from surveyblend.cli import write_sample_csvs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", help="directory receiving sample_a.csv and sample_b.csv")
    parser.add_argument("--population", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    config = ScenarioConfig(
        n_population=args.population,
        covariates=(Covariate("normal"), Covariate("normal")),
        beta_true=(1.0, 1.0, 1.0),
        alpha_true=(-2.35, 0.5, 0.5),
        sample_a_size=max(50, args.population // 20),
        replicates=2,
        seed=args.seed,
    )
    population = generate_population(config)
    observed, y_bar = draw_samples(population, args.seed)
    path_a, path_b = write_sample_csvs(observed, args.outdir)
    print(f"wrote {path_a} ({observed.n_a} rows) and {path_b} ({observed.n_b} rows)")
    print(f"population size {observed.n_population}, true mean {y_bar:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
