"""Command-line front end.

Single computations emit a JSON record (schema version, echoed command and
parameters, results); grid outputs are CSV.  ``--format`` overrides the
default choice.  Infinite values are rendered as the literal string "inf"
so every output stays parseable.

Exit codes: 0 on success, 1 on usage errors (bad flags or parameter
values), 2 when a verification-style command finds defects above
tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from operator import attrgetter

from . import __version__, discrimination, metrics, metrology, states, verify
from .errors import WernerLabError

SCHEMA_VERSION = "1"

CURVES_COLUMNS = ("zeta", "n", "eta", "lower", "qcb_upper", "fid_upper", "helstrom_block")
_curves_cells = attrgetter(*CURVES_COLUMNS)


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


def _cell(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)


def _record(command: str, parameters: dict, results: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "results": results,
    }


def _emit_record(record: dict, fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":
        out.write(json.dumps(_jsonify(record), indent=2) + "\n")
        return
    # one-row CSV: parameter columns then result columns
    fields = {**record["parameters"], **record["results"]}
    out.write(",".join(fields) + "\n")
    out.write(",".join(_cell(v) for v in fields.values()) + "\n")


def format_curves_csv(rows) -> str:
    """Canonical CSV for bound-sandwich grids: fixed header, rows sorted by
    (n, eta), floats as shortest round-trip decimals."""
    ordered = sorted(rows, key=lambda r: (r.n, r.eta))
    lines = [",".join(CURVES_COLUMNS)]
    lines += [",".join(map(_cell, _curves_cells(r))) for r in ordered]
    return "\n".join(lines) + "\n"


def parse_curves_csv(text: str) -> list[discrimination.DiscriminationBounds]:
    """Inverse of :func:`format_curves_csv` (nominal d = 2, matching
    curve_grid)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ",".join(CURVES_COLUMNS):
        raise WernerLabError("unrecognised curves CSV header")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        zeta, n, eta, lower, qcb_upper, fid_upper, helstrom_block = cells
        rows.append(
            discrimination.DiscriminationBounds(
                eta=float(eta),
                zeta=float(zeta),
                d=2,
                n=int(n),
                lower=float(lower),
                qcb_upper=float(qcb_upper),
                fid_upper=float(fid_upper),
                helstrom_block=float(helstrom_block),
            )
        )
    return rows


def _add_format(parser, default="json"):
    parser.add_argument(
        "--format", choices=("json", "csv"), default=default, help="output format"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="wernerlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wernerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fidelity", parents=[], help="closed-form fidelity between two flip expectations")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--zeta", type=float, required=True)
    _add_format(p)

    p = sub.add_parser("relent", help="closed-form relative entropy (bits)")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--zeta", type=float, required=True)
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
    p.add_argument("--seed", type=int, default=20260808)
    _add_format(p)

    p = sub.add_parser("discriminate", help="error-probability bound sandwich")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--zeta", type=float, required=True)
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
    p.add_argument("--seed", type=int, default=20260808)
    p.add_argument("--samples", type=int, default=20)
    _add_format(p)

    p = sub.add_parser("verify", help="run the full oracle cross-check suite")
    p.add_argument("--grid", type=float, default=0.1, help="eta grid step")
    p.add_argument("--dims", default="2..6", help="inclusive dimension range, e.g. 2..6")
    p.add_argument("--seed", type=int, default=20260808)
    p.add_argument(
        "--tol-scale",
        type=float,
        default=1.0,
        help="multiply every tolerance (e.g. 1e-9 as a negative control)",
    )

    return parser


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


def _cmd_fidelity(args) -> int:
    value = metrics.fidelity_werner(args.eta, args.zeta)
    record = _record("fidelity", {"eta": args.eta, "zeta": args.zeta}, {"fidelity": value})
    _emit_record(record, args.format)
    return 0


def _cmd_relent(args) -> int:
    value = metrics.relative_entropy_werner(args.eta, args.zeta)
    record = _record(
        "relent", {"eta": args.eta, "zeta": args.zeta}, {"relative_entropy_bits": value}
    )
    _emit_record(record, args.format)
    return 0


def _cmd_qcb(args) -> int:
    if args.isotropic:
        if args.alpha is None or args.beta is None or args.d is None:
            raise WernerLabError("--isotropic requires --alpha, --beta and --d")
        result = metrics.qcb_isotropic(args.alpha, args.beta, args.d)
        params = {"alpha": args.alpha, "beta": args.beta, "d": args.d}
    else:
        if args.eta is None or args.zeta is None:
            raise WernerLabError("qcb requires --eta and --zeta (or --isotropic)")
        result = metrics.qcb_werner(args.eta, args.zeta)
        params = {"eta": args.eta, "zeta": args.zeta}
    record = _record(
        "qcb", params, {"q": result.q, "s_star": result.s_star, "s_kind": result.s_kind}
    )
    _emit_record(record, args.format)
    return 0


def _cmd_estimate(args) -> int:
    if args.mode == "sim":
        report = metrology.simulate_estimation(args.eta, args.n, args.trials, args.seed)
        results = asdict(report)
        params = {k: results.pop(k) for k in ("eta_true", "n", "trials", "seed")}
        record = _record("estimate sim", params, results)
    else:
        record = _record(
            "estimate",
            {"eta": args.eta, "n": args.n},
            {
                "qfi": metrology.qfi_werner(args.eta, args.n),
                "qcrb_variance": metrology.qcrb_variance(args.eta, args.n),
            },
        )
    _emit_record(record, args.format)
    return 0


def _cmd_discriminate(args) -> int:
    r = discrimination.bounds(args.eta, args.zeta, args.d, args.n)
    record = _record(
        "discriminate",
        {"eta": r.eta, "zeta": r.zeta, "d": r.d, "n": r.n},
        {
            "lower": r.lower,
            "qcb_upper": r.qcb_upper,
            "fid_upper": r.fid_upper,
            "helstrom_block": r.helstrom_block,
        },
    )
    _emit_record(record, args.format)
    return 0


def _cmd_curves(args) -> int:
    try:
        n_list = [int(x) for x in str(args.n).split(",") if x.strip()]
    except ValueError as exc:
        raise WernerLabError(f"cannot parse copy counts {args.n!r}") from exc
    rows = discrimination.curve_grid(args.zeta, n_list, args.step)
    if args.format == "csv":
        chunks = [format_curves_csv(rows)]
    else:
        params = {"zeta": args.zeta, "n": n_list, "step": args.step}
        record = _record("curves", params, {"rows": []})
        chunks = _curves_json(record, sorted(rows, key=lambda r: (r.n, r.eta)))
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise WernerLabError(f"cannot write {args.out!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.writelines(chunks)
    return 0


def _curves_json(record: dict, rows):
    # json.dumps(record, indent=2) + "\n" with ``rows`` (never empty: curve_grid
    # needs a copy count) in place of the record's empty row list, one chunk per
    # row (its fields in order, without asdict's deep copy), so no whole document is held
    head, tail = json.dumps(_jsonify(record), indent=2).rsplit("[]", 1)
    yield head
    names = [f.name for f in fields(discrimination.DiscriminationBounds)]
    sep, indent = "[", "\n" + " " * 6  # a row sits at depth 3: results, rows, row
    for r in rows:
        row = {k: getattr(r, k) for k in names}
        yield sep + indent + json.dumps(_jsonify(row), indent=2).replace("\n", indent)
        sep = ","
    yield "\n    ]" + tail + "\n"


def _cmd_teleport_check(args) -> int:
    results = verify.teleport_check(args.eta, args.d, args.seed, args.samples)
    record = _record(
        "teleport-check",
        {"d": args.d, "eta": args.eta, "seed": args.seed, "samples": args.samples},
        results,
    )
    _emit_record(record, args.format)
    failed = (
        results["simulation_defect"] > results["tolerance"]
        or results["covariance_defect"] > results["tolerance"]
    )
    return 2 if failed else 0


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


_HANDLERS = {
    "fidelity": _cmd_fidelity,
    "relent": _cmd_relent,
    "qcb": _cmd_qcb,
    "estimate": _cmd_estimate,
    "discriminate": _cmd_discriminate,
    "curves": _cmd_curves,
    "teleport-check": _cmd_teleport_check,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except WernerLabError as exc:
        print(f"wernerlab {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
