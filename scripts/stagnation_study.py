#!/usr/bin/env python3
"""Run engines until their best fitness stalls and report where that happens.

For each algorithm this runs a few seeds to stagnation (or the hard cap),
then prints the stopping generation, the final error, and the average
diversity over improving generations. Useful for choosing generation budgets.
"""

import argparse
import sys

from counterniche import StagnationRule, default_config, make, run
from counterniche.harness import default_burn_in, diversity_profile


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--function", default="rastrigin")
    parser.add_argument("--dim", type=int, default=10)
    parser.add_argument("--algos", default="cnea,sea,socea,dgea")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--window", type=int, default=500)
    parser.add_argument("--hard-cap", type=int, default=5000)
    parser.add_argument("--pop-size", type=int, default=100)
    parser.add_argument("--seed-base", type=int, default=0)
    args = parser.parse_args(argv)

    fn = make(args.function, args.dim)
    rule = StagnationRule(args.window, args.hard_cap)
    print(f"{'algo':<6} {'seed':>4}  {'stopped_by':<10} {'generation':>10}  "
          f"{'final_error':>12}  {'avg_diversity':>13}")
    for algo in (a.strip() for a in args.algos.split(",") if a.strip()):
        for r in range(args.runs):
            seed = args.seed_base + r
            cfg = default_config(
                algo, dim=args.dim, generations=0, seed=seed, N=args.pop_size
            )
            trace = run(cfg, fn, stop=rule)
            err = trace.best.fitness - fn.optimum_value
            profile = diversity_profile(trace, default_burn_in(trace.generations))
            avg = "n/a" if profile.average_diversity is None else f"{profile.average_diversity:.6g}"
            print(f"{algo:<6} {seed:>4}  {trace.stopped_by:<10} "
                  f"{trace.records[-1].generation:>10}  {err:>12.6g}  {avg:>13}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
