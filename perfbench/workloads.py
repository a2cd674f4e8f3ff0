"""The benchmark's four workloads: seeded inputs and a correctness gate per op.

An op is one ``wernerlab.cli.main(argv)`` call.  Each workload is a fixed,
seeded list of ops; one pass runs the list once, in order, from a single
caller (a closed loop).  A gate takes the call's exit code and captured
stdout and returns True when the output is correct by the repo's own
tolerances.  Gates run after the pass, outside the timed region.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from wernerlab import cli, discrimination, metrics, metrology, verify

# the absolute slack the sandwich-ordering check allows
ORDERING_TOL = 1e-10
CURVES_N = "1,10,100,1000"
CURVES_STEP = "0.01"
CURVES_PER_PASS = 4
CLI_CALLS_PER_KIND = 168  # x 6 commands x 2 formats = 2016 calls per pass
TELEPORT_DIMS = range(4, 9)


@dataclass(frozen=True)
class Op:
    argv: list[str]
    gate: Callable[[int, str], bool]
    # units of work in the op's output: points examined, rows emitted,
    # calls made or inputs teleported
    count: Callable[[str], int]


@dataclass(frozen=True)
class Workload:
    ops: list[Op]
    warmup: list[list[str]]
    unit: str  # what Op.count counts


def _f(x: float) -> str:
    # Passed as --flag=value: argparse would read a negative value in
    # exponent notation ("-5e-05") as an option.
    return repr(float(x))


def _stratified(rng, count: int) -> np.ndarray:
    # One uniform draw in each of `count` equal strata of [0, 1), shuffled:
    # the same distribution as plain uniform draws, with far less
    # seed-to-seed spread in the tail quantiles.
    return (rng.permutation(count) + rng.random(count)) / count


# -- verify ------------------------------------------------------------------

_VERIFY_LINE = re.compile(r"^(ok  |FAIL) \S+\s+(\d+) points")
_VERIFY_DONE = re.compile(r"^all (\d+) checks passed$")


def _verify_points(out: str) -> int:
    return sum(int(m.group(2)) for m in map(_VERIFY_LINE.match, out.splitlines()) if m)


def _verify_gate(rc: int, out: str) -> bool:
    lines = out.splitlines()
    status = [m for m in map(_VERIFY_LINE.match, lines) if m]
    done = _VERIFY_DONE.match(lines[-1]) if lines else None
    return (
        rc == 0
        and done is not None
        and int(done.group(1)) == len(status) >= 14
        and all(m.group(1) == "ok  " for m in status)
    )


def _verify(rng) -> Workload:
    seed = str(int(rng.integers(0, 2**31)))
    # default grid (0.1) and dims (2..6)
    return Workload(
        ops=[Op(["verify", "--seed", seed], _verify_gate, _verify_points)],
        warmup=[["verify", "--grid", "0.5", "--dims", "2..3", "--seed", seed]],
        unit="points examined",
    )


# -- curves --------------------------------------------------------------------


def _curves_gate(rc: int, out: str) -> bool:
    if rc != 0:
        return False
    rows = cli.parse_curves_csv(out)
    if cli.format_curves_csv(rows) != out:
        return False
    for r in rows:
        violation = max(
            r.lower - r.helstrom_block,
            r.helstrom_block - r.qcb_upper,
            r.qcb_upper - r.fid_upper,
            -r.lower,
            r.fid_upper - 0.5,
        )
        if not violation <= ORDERING_TOL:
            return False
    return True


def _curves(rng) -> Workload:
    grid = [(2 * i - 200) / 200 for i in range(201)]  # the 0.01 eta grid
    # one zeta from each of CURVES_PER_PASS equal slices of the grid
    zetas = [rng.choice(part) for part in np.array_split(grid, CURVES_PER_PASS)]
    ops = [
        Op(["curves", "--zeta=" + _f(z), "--n", CURVES_N, "--step", CURVES_STEP], _curves_gate,
           lambda out: out.count("\n") - 1)
        for z in zetas
    ]
    return Workload(
        ops=ops,
        warmup=[["curves", "--zeta=" + _f(zetas[0]), "--n", "1,100", "--step", "0.1"]],
        unit="rows emitted",
    )


# -- cli ---------------------------------------------------------------------


def _json_value(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _record_gate(command: str, params: dict, results: dict, fmt: str):
    """Gate comparing a one-record output with the library's own values."""

    def gate(rc: int, out: str) -> bool:
        if rc != 0:
            return False
        if fmt == "json":
            rec = json.loads(out)
            return (
                rec.get("command") == command
                and rec.get("parameters") == {k: _json_value(v) for k, v in params.items()}
                and rec.get("results") == {k: _json_value(v) for k, v in results.items()}
            )
        fields = {**params, **results}
        lines = out.splitlines()
        if len(lines) != 2 or lines[0].split(",") != list(fields):
            return False
        cells = lines[1].split(",")
        if len(cells) != len(fields):
            return False
        return all(type(v)(cell) == v for cell, v in zip(cells, fields.values()))

    return gate


def _cli(rng) -> Workload:
    k = CLI_CALLS_PER_KIND

    def etas():
        # stratified over (-1, 1), the open interval every command accepts
        return np.clip(2.0 * _stratified(rng, k) - 1.0, -1.0 + 1e-12, 1.0 - 1e-12)

    def copies():
        # log-uniform in 1..1000
        return np.maximum(1, np.rint(1000.0 ** _stratified(rng, k)).astype(int))

    specs = []  # (argv without --format, command, params, results)

    def add(argv, params, results):
        specs.append((argv, argv[0], params, results))

    for eta, zeta in zip(etas(), etas()):
        p = {"eta": float(eta), "zeta": float(zeta)}
        add(["fidelity", "--eta=" + _f(eta), "--zeta=" + _f(zeta)], p,
            {"fidelity": metrics.fidelity_werner(**p)})
    for eta, zeta in zip(etas(), etas()):
        p = {"eta": float(eta), "zeta": float(zeta)}
        add(["relent", "--eta=" + _f(eta), "--zeta=" + _f(zeta)], p,
            {"relative_entropy_bits": metrics.relative_entropy_werner(**p)})
    for eta, zeta in zip(etas(), etas()):
        p = {"eta": float(eta), "zeta": float(zeta)}
        r = metrics.qcb_werner(**p)
        add(["qcb", "--eta=" + _f(eta), "--zeta=" + _f(zeta)], p,
            {"q": r.q, "s_star": r.s_star, "s_kind": r.s_kind})
    for a, b, d in zip(_stratified(rng, k), _stratified(rng, k), rng.integers(2, 7, size=k)):
        p = {"alpha": float(a * d), "beta": float(b * d), "d": int(d)}
        r = metrics.qcb_isotropic(**p)
        add(["qcb", "--isotropic", "--alpha=" + _f(p["alpha"]), "--beta=" + _f(p["beta"]),
             "--d", str(p["d"])], p, {"q": r.q, "s_star": r.s_star, "s_kind": r.s_kind})
    for eta, n in zip(etas(), copies()):
        p = {"eta": float(eta), "n": int(n)}
        add(["estimate", "--eta=" + _f(eta), "--n", str(p["n"])], p,
            {"qfi": metrology.qfi_werner(**p), "qcrb_variance": metrology.qcrb_variance(**p)})
    for eta, zeta, d, n in zip(etas(), etas(), rng.integers(2, 7, size=k), copies()):
        p = {"eta": float(eta), "zeta": float(zeta), "d": int(d), "n": int(n)}
        r = discrimination.bounds(**p)
        add(["discriminate", "--eta=" + _f(eta), "--zeta=" + _f(zeta), "--d", str(p["d"]),
             "--n", str(p["n"])], p,
            {"lower": r.lower, "qcb_upper": r.qcb_upper, "fid_upper": r.fid_upper,
             "helstrom_block": r.helstrom_block})
    ops = [
        Op(argv + ["--format", fmt], _record_gate(command, params, results, fmt), lambda out: 1)
        for argv, command, params, results in specs
        for fmt in ("json", "csv")
    ]
    ops = [ops[i] for i in rng.permutation(len(ops))]
    return Workload(ops=ops, warmup=[op.argv for op in ops[:24]], unit="calls made")


# -- teleport ------------------------------------------------------------------


def _teleport_gate(rc: int, out: str) -> bool:
    if rc != 0:
        return False
    results = json.loads(out)["results"]
    return results["tolerance"] == verify.TELEPORT_TOL and max(
        results["simulation_defect"], results["covariance_defect"]
    ) <= verify.TELEPORT_TOL


def _teleport(rng) -> Workload:
    seed = str(int(rng.integers(0, 2**31)))
    ops = [
        Op(["teleport-check", "--d", str(d), "--eta=" + _f(2.0 * rng.random() - 1.0), "--seed", seed],
           _teleport_gate, lambda out: json.loads(out)["parameters"]["samples"])
        for d in TELEPORT_DIMS
    ]
    return Workload(
        ops=ops,
        warmup=[["teleport-check", "--d", "3", "--eta", "0.5", "--seed", seed]],
        unit="inputs teleported",
    )


BUILDERS = {"verify": _verify, "curves": _curves, "cli": _cli, "teleport": _teleport}


def build(name: str, seed: int) -> Workload:
    """The workload's fixed op list, generated from the seed alone."""
    entropy = [seed % 2**64, *name.encode()]
    return BUILDERS[name](np.random.default_rng(np.random.SeedSequence(entropy)))
