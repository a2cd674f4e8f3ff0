#!/usr/bin/env python3
"""Regenerate the discrimination-bound curve data.

Writes one CSV per reference parameter (default 0 and 1/2), each holding
the bound sandwich over the full eta grid for n = 1, 10 and 100 channel
uses, by running ``wernerlab curves`` once per file.  The files feed
external plotting; columns are zeta,n,eta,lower,qcb_upper,fid_upper,helstrom_block.
A bad value exits 1 with the command's message, and a usage error exits 1
as in the CLI.
"""

import pathlib
import sys

from wernerlab import cli


def _floats(text):
    return [float(x) for x in text.split(",")]


def main():
    parser = cli._Parser(description=__doc__)
    parser.add_argument("--zetas", type=_floats, default="0,0.5", help="comma-separated reference parameters")
    parser.add_argument("--n", default="1,10,100", help="comma-separated copy counts")
    parser.add_argument("--step", type=float, default=0.02)
    parser.add_argument("--outdir", default="curves")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for zeta in args.zetas:
        path = outdir / f"error_bounds_zeta_{zeta:g}.csv"
        argv = ["curves", f"--zeta={zeta!r}", f"--n={args.n}", f"--step={args.step!r}", "--out", str(path)]
        if cli.main(argv):
            return 1
        rows = path.read_text().count("\n") - 1
        print(f"wrote {path} ({rows} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
