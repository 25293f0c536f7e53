#!/usr/bin/env python3
"""Run the default desk-scale repeated-sampling study and print the summary.

The study is the scenario of configs/simulate_example.yaml: population
10^4, expected nonprobability sample around 1000, probability sample
around 500 under Poisson sampling, 1000 replicates. Evaluates the doubly
robust estimators with variances, the covariance with the Hajek
estimator, and the pooled estimator.
"""

import argparse
import sys
import time
from pathlib import Path

import yaml

from surveyblend import ScenarioConfig, ValidationError, run_replications
from surveyblend.types import PositiveInt, config_value

EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "simulate_example.yaml"


def default_scenario(replicates: int, seed: int) -> ScenarioConfig:
    """The scenario of configs/simulate_example.yaml with ``replicates`` and ``seed`` replaced."""
    with open(EXAMPLE_CONFIG, "rb") as fh:
        scenario = yaml.safe_load(fh)["scenario"]
    return ScenarioConfig.from_dict({**scenario, "replicates": replicates, "seed": seed})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=20_240)
    parser.add_argument("--workers", type=int, default=1, help="worker process count (1: no process pool)")
    args = parser.parse_args()

    try:  # the CLI's bounds, and its exit code for a value past one
        config = default_scenario(args.replicates, args.seed)
        workers = config_value("max_workers", PositiveInt, args.workers)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    summary = run_replications(config, parallel=True, max_workers=workers)
    elapsed = time.perf_counter() - started

    print(f"replicates {summary.n_replicates} (failed {summary.n_failed}), "
          f"mean population outcome {summary.y_bar_mean:.4f}, {elapsed:.1f}s")
    header = f"{'row':40s} {'bias':>9s} {'emp var':>10s} {'mean est':>10s} {'rel':>7s} {'cover':>6s}"
    print(header)
    for row in summary.rows:
        if row.row_type == "cov":
            print(f"{row.name:40s} {'':9s} {row.emp_cov:10.3e} {row.mean_cov_estimate:10.3e} "
                  f"{row.rel_cov_bias:+7.3f}")
        else:
            print(f"{row.name:40s} {row.mc_bias:+9.5f} {row.emp_variance:10.3e} "
                  f"{row.mean_var_estimate:10.3e} {row.rel_var_bias:+7.3f} {row.coverage:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
