#!/usr/bin/env python3
"""Monte-Carlo check that the estimation variance floor is attainable.

For each eta, runs the symmetric-projector measurement experiment and
prints the empirical variance next to the (1 - eta^2)/n floor.  The
ratio column should sit near 1 for any eta and any probe count: the
floor is saturated, and no strategy beats 1/n scaling.  A bad value
exits 1 with a message, and a usage error exits 1 as in the CLI.
"""

import sys

from wernerlab import cli, metrology, verify
from wernerlab.errors import WernerLabError


def _floats(text):
    return [float(x) for x in text.split(",")]


def main():
    parser = cli._Parser(description=__doc__)
    parser.add_argument("--etas", type=_floats, default="-0.9,-0.5,0,0.3,0.6,0.9")
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    args = parser.parse_args()

    print(f"{'eta':>6} {'mean':>10} {'variance':>12} {'floor':>12} {'ratio':>7}")
    for eta in args.etas:
        try:
            rep = metrology.simulate_estimation(eta, args.n, args.trials, args.seed)
        except WernerLabError as exc:
            sys.exit(f"{parser.prog}: {exc}")
        ratio = rep.empirical_variance * rep.qfi
        print(
            f"{eta:6.2f} {rep.empirical_mean:10.5f} {rep.empirical_variance:12.3e} "
            f"{rep.qcrb_variance:12.3e} {ratio:7.4f}"
        )


if __name__ == "__main__":
    main()
