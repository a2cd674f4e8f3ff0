"""Command-line front end.

Each single computation (fidelity, relent, qcb, estimate, discriminate)
returns one record (schema version, echoed command and parameters,
results, the results taken from the library's result type where it has
one), and one writer emits it as JSON or as a one-row CSV.  The grid
output of curves is CSV, in the columns of CURVES_COLUMNS.  ``--format``
overrides the default choice.  Infinite values are rendered as the literal
string "inf" so every output stays parseable.

Exit codes: 0 on success, 1 on usage errors (bad flags or parameter
values), 2 when a verification-style command finds defects above
tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, fields
from operator import attrgetter

from . import __version__, discrimination, metrics, metrology, states, verify
from .errors import WernerLabError

SCHEMA_VERSION = "1"

CURVES_COLUMNS = ("zeta", "n", "eta", "lower", "qcb_upper", "fid_upper", "helstrom_block")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors by default; the CLI
    # contract reserves 2 for verification failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _jsonify(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _record(command: str, parameters: dict, results: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "results": results,
    }


def _csv(rows, width: int) -> str:
    # the one CSV writer: each row a tuple of ``width`` cells, written by one
    # "%s,...,%s\n" template, so every cell is its str() (a float's repr)
    return "".join(map((",".join(["%s"] * width) + "\n").__mod__, rows))


def _emit_record(record: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(_jsonify(record), indent=2) + "\n")
        return
    # one-row CSV: parameter columns then result columns
    cells = {**record["parameters"], **record["results"]}
    sys.stdout.write(_csv([tuple(cells), tuple(cells.values())], len(cells)))


def _curves_cells(cols: discrimination.Sandwiches, param=lambda x: x):
    # the cells of every row of a column grid, in CURVES_COLUMNS order, by (zeta,
    # n, eta); ``param`` maps each zeta, n and eta once, not once per row
    etas = list(map(param, cols.etas.tolist()))
    for i, zeta in enumerate(map(param, cols.zetas.tolist())):
        for j, n in enumerate(map(param, cols.n.tolist())):
            bounds = (bound[i, j].tolist() for bound in cols[3:])
            yield from zip([zeta] * len(etas), [n] * len(etas), etas, *bounds)


def _curves_csv(cells) -> str:
    return _csv([CURVES_COLUMNS, *cells], len(CURVES_COLUMNS))


def format_curves_csv(rows) -> str:
    """Canonical CSV for bound-sandwich grids: fixed header, rows sorted by
    (n, eta), floats as shortest round-trip decimals."""
    return _curves_csv(map(attrgetter(*CURVES_COLUMNS), sorted(rows, key=attrgetter("n", "eta"))))


def parse_curves_csv(text: str) -> list[discrimination.DiscriminationBounds]:
    """Inverse of :func:`format_curves_csv` (nominal d = 2, matching
    curve_grid); a malformed line raises WernerLabError naming its number."""
    (first, header), *lines = [
        (i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()
    ] or [(1, "")]
    if header != ",".join(CURVES_COLUMNS):
        raise WernerLabError(f"unrecognised curves CSV header on line {first}")
    rows = []
    for i, ln in lines:
        cells = ln.split(",")
        if len(cells) != len(CURVES_COLUMNS):
            raise WernerLabError(f"curves CSV line {i}: {len(cells)} cells, expected {len(CURVES_COLUMNS)}")
        try:
            # every cell is a float but the copy count
            row = {k: (int if k == "n" else float)(v) for k, v in zip(CURVES_COLUMNS, cells)}
        except ValueError as exc:
            raise WernerLabError(f"curves CSV line {i}: {exc}") from None
        rows.append(discrimination.DiscriminationBounds(d=2, **row))
    return rows


def _add_format(parser, default="json"):
    parser.add_argument(
        "--format", choices=("json", "csv"), default=default, help="output format"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="wernerlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wernerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--eta", type=float, required=True)
    pair.add_argument("--zeta", type=float, required=True)

    p = sub.add_parser("fidelity", parents=[pair], help="closed-form fidelity between two flip expectations")
    _add_format(p)

    p = sub.add_parser("relent", parents=[pair], help="closed-form relative entropy (bits)")
    _add_format(p)

    p = sub.add_parser("qcb", help="Chernoff overlap minimum and minimiser")
    p.add_argument("--isotropic", action="store_true", help="use the entangled-expectation family")
    p.add_argument("--eta", type=float)
    p.add_argument("--zeta", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--d", type=int)
    _add_format(p)

    p = sub.add_parser("estimate", help="Fisher information and variance floor; 'sim' runs the Monte-Carlo experiment")
    p.add_argument("mode", nargs="?", choices=("sim",), default=None)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    _add_format(p)

    p = sub.add_parser("discriminate", parents=[pair], help="error-probability bound sandwich")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=1)
    _add_format(p)

    p = sub.add_parser("curves", help="bound sandwiches over an eta grid, CSV")
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--n", default="1,10,100", help="comma-separated copy counts")
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    _add_format(p, default="csv")

    p = sub.add_parser("teleport-check", help="teleportation simulation and covariance defects")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=20)
    _add_format(p)

    p = sub.add_parser("verify", help="run the full oracle cross-check suite")
    p.add_argument("--grid", type=float, default=0.1, help="eta grid step")
    p.add_argument("--dims", default="2..6", help="inclusive dimension range, e.g. 2..6")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument(
        "--tol-scale",
        type=float,
        default=1.0,
        help="multiply every tolerance by this scale in (0, 1], which only tightens "
        "(e.g. 1e-9 as a negative control)",
    )

    return parser


@functools.cache
def _parser() -> _Parser:
    # built on the first main() call, not at import, then kept for the process
    return build_parser()


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo, hi = (int(x) for x in text.split(".."))
            # the ends are checked before the range is built
            dims = tuple(range(lo, states._check_pair_dim(hi) + 1)) if 2 <= lo <= hi else ()
        else:
            dims = tuple(int(x) for x in text.split(","))
    except WernerLabError:
        raise
    except ValueError as exc:
        raise WernerLabError(f"cannot parse dimension range {text!r}") from exc
    if not dims or min(dims) < 2:
        raise WernerLabError(f"dimension range {text!r} must contain integers >= 2")
    return dims


def _cmd_fidelity(args) -> dict:
    value = metrics.fidelity_werner(args.eta, args.zeta)
    return _record("fidelity", {"eta": args.eta, "zeta": args.zeta}, {"fidelity": value})


def _cmd_relent(args) -> dict:
    value = metrics.relative_entropy_werner(args.eta, args.zeta)
    return _record("relent", {"eta": args.eta, "zeta": args.zeta}, {"relative_entropy_bits": value})


def _cmd_qcb(args) -> dict:
    if args.isotropic:
        if None in (args.alpha, args.beta, args.d):
            raise WernerLabError("--isotropic requires --alpha, --beta and --d")
        params = {"alpha": args.alpha, "beta": args.beta, "d": args.d}
        result = metrics.qcb_isotropic(**params)
    else:
        if None in (args.eta, args.zeta):
            raise WernerLabError("qcb requires --eta and --zeta (or --isotropic)")
        params = {"eta": args.eta, "zeta": args.zeta}
        result = metrics.qcb_werner(**params)
    return _record("qcb", params, asdict(result))


def _split_record(command: str, result, params) -> dict:
    # the fields of a result type: those named in ``params`` are the parameters,
    # the rest the results
    results = asdict(result)
    return _record(command, {k: results.pop(k) for k in params}, results)


def _cmd_estimate(args) -> dict:
    if args.mode == "sim":
        report = metrology.simulate_estimation(args.eta, args.n, args.trials, args.seed)
        return _split_record("estimate sim", report, ("eta_true", "n", "trials", "seed"))
    results = {
        "qfi": metrology.qfi_werner(args.eta, args.n),
        "qcrb_variance": metrology.qcrb_variance(args.eta, args.n),
    }
    return _record("estimate", {"eta": args.eta, "n": args.n}, results)


def _cmd_discriminate(args) -> dict:
    sandwich = discrimination.bounds(args.eta, args.zeta, args.d, args.n)
    return _split_record("discriminate", sandwich, ("eta", "zeta", "d", "n"))


def _cmd_curves(args) -> int:
    try:
        n_list = [int(x) for x in args.n.split(",") if x.strip()]
    except ValueError as exc:
        raise WernerLabError(f"cannot parse copy counts {args.n!r}") from exc
    cols = discrimination.curve_grid(args.zeta, n_list, args.step)
    if args.format == "csv":
        chunks = [_curves_csv(_curves_cells(cols, str))]
    else:
        params = {"zeta": args.zeta, "n": n_list, "step": args.step}
        record = _record("curves", params, {"rows": []})
        chunks = _curves_json(record, _curves_cells(cols))
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise WernerLabError(f"cannot write {args.out!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.writelines(chunks)
    return 0


def _curves_json(record: dict, cells):
    # json.dumps(record, indent=2) + "\n" with the rows of ``cells`` (never empty) in
    # place of the record's empty row list, each with the fields of DiscriminationBounds
    # in order (d = 2), one chunk per row, so no whole document is held
    head, tail = json.dumps(_jsonify(record), indent=2).rsplit("[]", 1)
    yield head
    names = [f.name for f in fields(discrimination.DiscriminationBounds)]
    sep, indent = "[", "\n" + " " * 6  # a row sits at depth 3: results, rows, row
    for zeta, n, eta, *bounds in cells:
        row = dict(zip(names, (eta, zeta, 2, n, *bounds)))
        yield sep + indent + json.dumps(_jsonify(row), indent=2).replace("\n", indent)
        sep = ","
    yield "\n    ]" + tail + "\n"


def _cmd_teleport_check(args) -> int:
    results = verify.teleport_check(args.eta, args.d, args.seed, args.samples)
    params = {"d": args.d, "eta": args.eta, "seed": args.seed, "samples": args.samples}
    _emit_record(_record("teleport-check", params, results), args.format)
    tol = results["tolerance"]
    return 0 if results["simulation_defect"] <= tol and results["covariance_defect"] <= tol else 2


def _cmd_verify(args) -> int:
    dims = _parse_dims(args.dims)
    results = verify.run_verification(
        grid_step=args.grid, dims=dims, seed=args.seed, tol_scale=args.tol_scale
    )
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        print(
            f"{status} {r.name:<{width}}  {r.points:>6} points  "
            f"worst {r.worst:.3e}  tol {r.tol:.3e}"
        )
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} check(s) failed: " + ", ".join(r.name for r in failed))
        return 2
    print(f"all {len(results)} checks passed")
    return 0


# the record commands return their record, which main writes
_RECORDS = {
    "fidelity": _cmd_fidelity,
    "relent": _cmd_relent,
    "qcb": _cmd_qcb,
    "estimate": _cmd_estimate,
    "discriminate": _cmd_discriminate,
}
# the others write their own output and return an exit status
_COMMANDS = {"curves": _cmd_curves, "teleport-check": _cmd_teleport_check, "verify": _cmd_verify}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command in _COMMANDS:
            return _COMMANDS[args.command](args)
        record = _RECORDS[args.command](args)
    except WernerLabError as exc:
        print(f"wernerlab {args.command}: {exc}", file=sys.stderr)
        return 1
    _emit_record(record, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
