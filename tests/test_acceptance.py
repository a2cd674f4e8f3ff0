"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one summary line (run with ``pytest -s`` to see them on
passing runs).  Tolerances and grids are pinned here; nothing is deferred
to later calibration.
"""

import inspect
import math
import time

import pytest

from wernerlab import cli, discrimination, linalg, metrics, metrology, states, verify

SEED = 20260808

ETA_GRID = [(2 * i - 20) / 20 for i in range(21)]          # -1.0 .. 1.0, step 0.1
FINE_INNER = [(2 * i - 40) / 40 for i in range(1, 40)]      # -0.95 .. 0.95, step 0.05


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d}: {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def werner_sweep() -> dict:
    # the Werner sweep's results at the default grid and dims, by name
    return {r.name: r for r in verify.check_werner_oracles(0.1, range(2, 7), (2, 3, 4))}


def test_criterion_01_fidelity_oracle_agreement():
    t0 = time.monotonic()
    r = werner_sweep()["fidelity-oracle"]
    elapsed = time.monotonic() - t0
    report(
        1,
        r.passed and r.tol == 1e-9 and elapsed < 30.0,
        f"fidelity closed form vs matrix oracle, d=2..6, 21x21 grid: "
        f"worst |diff| {r.worst:.3e} (tol 1e-9), {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_02_qcb_oracle_agreement():
    # the diagonal (q = 1) is covered by test_linalg's identical-states case
    t0 = time.monotonic()
    results = werner_sweep()
    results.update((r.name, r) for r in verify.check_qcb_isotropic_oracle((2, 3, 4)))
    elapsed = time.monotonic() - t0
    q, s = results["qcb-oracle-q"], results["qcb-oracle-s"]
    iso_q, iso_s = results["qcb-isotropic-oracle"], results["qcb-isotropic-oracle-s"]
    tols = (q.tol, s.tol, iso_q.tol, iso_s.tol) == (1e-6, 1e-8, 1e-6, 1e-8)
    report(
        2,
        q.passed and s.passed and iso_q.passed and iso_s.passed and tols and elapsed < 120.0,
        f"Chernoff closed form vs numeric search (endpoints analytic): "
        f"worst |dq| {q.worst:.3e} (tol 1e-6), worst |ds| {s.worst:.3e} (tol 1e-8), "
        f"isotropic worst |dq| {iso_q.worst:.3e}, |ds| {iso_s.worst:.3e}, "
        f"{elapsed:.1f}s (limit 120s)",
    )


def test_criterion_03_critical_point_identities():
    # a containment or bracketing failure is an infinite defect in the check
    r = werner_sweep()["critical-point-identities"]
    report(
        3,
        r.passed and r.tol == 1e-12,
        f"critical-point identities on every interior grid point: "
        f"worst |s_ab + s_ba - 1| {r.worst:.3e} (tol 1e-12), "
        f"containment {r.passed}, local-minimum bracketing {r.passed}",
    )


def _critical_s_isotropic(a, b, d):
    # the dimension-dependent critical point of the entangled-expectation
    # family, as the paper states it
    return math.log(
        (b - d) / b * math.log((d - a) / (d - b)) / math.log(a / b)
    ) / math.log(a * (d - b) / (b * (d - a)))


def test_criterion_04_substitution_identity():
    worst = 0.0
    for d in (2, 3, 4):
        alphas = [d * i / 20 for i in range(1, 20)]
        for a in alphas:
            for b in alphas:
                if a == b:
                    continue
                eta = (2.0 * a - d) / d
                zeta = (2.0 * b - d) / d
                reference = _critical_s_isotropic(a, b, d)
                worst = max(
                    worst,
                    abs(reference - metrics.qcb_werner(eta, zeta).s_star),
                    abs(reference - metrics.qcb_isotropic(a, b, d).s_star),
                )
    report(
        4,
        worst <= 1e-12,
        f"dimension substitution maps the isotropic critical point onto the "
        f"flip-expectation one: worst |diff| {worst:.3e} (tol 1e-12)",
    )


def test_criterion_05_qcrb_reproduction():
    # QFI against 8 (1 - F) / delta^2, F from explicit d = 3 states: no shared numerics
    worst_rel, delta = 0.0, 1e-4
    for eta in [(2 * i - 18) / 20 for i in range(19)]:      # -0.9 .. 0.9
        f = linalg.bures_fidelity_numeric(
            states.werner_state(eta, 3), states.werner_state(eta + delta, 3)
        )
        fd = 8.0 * (1.0 - f) / (delta * delta)
        worst_rel = max(worst_rel, abs(fd / metrology.qfi_werner(eta) - 1.0))
    ratios = []
    for eta in (0.0, 0.3, 0.6, -0.9):
        rep = metrology.simulate_estimation(eta, n=1000, trials=10_000, seed=SEED)
        ratios.append(rep.empirical_variance * rep.qfi)
    saturated = all(0.95 <= r <= 1.05 for r in ratios)
    # structural dimension independence: the estimation formulas take no
    # dimension argument at all
    no_dim = "d" not in inspect.signature(metrology.qfi_werner).parameters
    cross_d = all(
        abs(
            linalg.bures_fidelity_numeric(
                states.werner_state(0.7, d), states.werner_state(-0.2, d)
            )
            - metrics.fidelity_werner(0.7, -0.2)
        )
        <= 1e-10
        for d in range(2, 7)
    )
    report(
        5,
        worst_rel <= 1e-3 and saturated and no_dim and cross_d,
        f"variance floor: matrix finite-difference worst rel err {worst_rel:.3e} (tol 1e-3), "
        f"Monte-Carlo saturation ratios {[round(r, 4) for r in ratios]} in [0.95, 1.05], "
        f"dimension-free structurally and against the oracle across d",
    )


def test_criterion_06_channel_simulation_identity():
    results = {r.name: r for r in verify.check_teleport(SEED)}
    sim, cov = results["teleport-simulation"], results["teleport-covariance"]
    report(
        6,
        sim.passed and cov.passed and sim.tol == cov.tol == 1e-10,
        f"teleporting over the channel's own state reproduces it: worst trace "
        f"distance {sim.worst:.3e}; covariance defect {cov.worst:.3e} (tol 1e-10)",
    )


def test_criterion_07_discrimination_sandwich():
    ordered = True
    for n in range(1, 21):
        for a in ETA_GRID:
            for b in ETA_GRID:
                r = discrimination.bounds(a, b, d=2, n=n)
                ordered &= (
                    -1e-10 <= r.lower
                    and r.lower <= r.helstrom_block + 1e-10
                    and r.helstrom_block <= r.qcb_upper + 1e-10
                    and r.qcb_upper <= r.fid_upper + 1e-10
                    and r.fid_upper <= 0.5 + 1e-10
                )
    worst_hel = 0.0
    powers = {e: [states.werner_state(e, 2)] for e in ETA_GRID}
    for e, mats in powers.items():
        for _ in range(2):
            mats.append(linalg.tensor_product(mats[-1], mats[0]))
    for n in (1, 2, 3):
        for a in ETA_GRID:
            for b in ETA_GRID:
                explicit = 0.5 * (
                    1.0
                    - linalg.trace_distance_numeric(
                        powers[a][n - 1], powers[b][n - 1]
                    )
                )
                combinatorial = metrics.helstrom_multicopy_werner(a, b, 2, n)
                worst_hel = max(worst_hel, abs(explicit - combinatorial))
    report(
        7,
        ordered and worst_hel <= 1e-10,
        f"bound sandwich ordered at every grid point for n=1..20: {ordered}; "
        f"explicit tensor-power block error vs combinatorial form worst "
        f"|diff| {worst_hel:.3e} (tol 1e-10)",
    )


def test_criterion_08_curve_reproduction(tmp_path):
    ok = True
    details = []
    for zeta in (0.0, 0.5):
        path = tmp_path / f"curves_{zeta}.csv"
        code = cli.main(
            ["curves", "--zeta", str(zeta), "--n", "1,10,100", "--step", "0.05",
             "--out", str(path)]
        )
        ok &= code == 0
        rows = cli.parse_curves_csv(path.read_text())
        by_n = {}
        for r in rows:
            by_n.setdefault(r.n, {})[r.eta] = r
        for n, block in by_n.items():
            peak = block[zeta]
            ok &= (
                peak.lower == 0.5
                and peak.qcb_upper == 0.5
                and peak.fid_upper == 0.5
                and peak.helstrom_block == 0.5
            )
            etas = sorted(block)
            right = [e for e in etas if e >= zeta]
            left = [e for e in etas if e <= zeta][::-1]
            for side in (right, left):
                for e_near, e_far in zip(side, side[1:]):
                    for field in ("lower", "qcb_upper", "fid_upper", "helstrom_block"):
                        ok &= getattr(block[e_far], field) <= getattr(
                            block[e_near], field
                        ) + 1e-12
        for eta in (e for e in by_n[1] if e != zeta):
            ok &= by_n[100][eta].qcb_upper <= by_n[10][eta].qcb_upper <= by_n[1][eta].qcb_upper
            ok &= by_n[100][eta].qcb_upper < by_n[1][eta].qcb_upper
        far = [e for e in by_n[1] if abs(e - zeta) >= 0.5]
        ok &= max(by_n[100][e].qcb_upper for e in far) < 0.05
        details.append(f"reference {zeta}: {len(rows)} rows")
    report(
        8,
        ok,
        "six-panel curve structure (peak exactly 1/2, monotone separation, "
        f"collapse with growing n) from the CSV output; {'; '.join(details)}",
    )


def test_criterion_09_entropy_asymmetry_sign():
    ok = True
    worst = -math.inf
    for a in FINE_INNER:
        for b in FINE_INNER:
            if abs(a) > abs(b):
                value = metrics.delta_s(a, b)
                worst = max(worst, value)
                ok &= value < 0.0
    report(
        9,
        ok,
        f"directed-entropy asymmetry strictly negative whenever |eta| > |zeta| "
        f"(step 0.05, endpoints excluded): largest value {worst:.3e}",
    )


def test_criterion_10_verify_cli_gate(capsys):
    code_default = cli.main(["verify"])
    out_default = capsys.readouterr().out
    code_tight = cli.main(["verify", "--grid", "0.5", "--dims", "2..2",
                           "--tol-scale", "1e-12"])
    out_tight = capsys.readouterr().out
    report(
        10,
        code_default == 0 and "all" in out_default and code_tight == 2
        and "FAIL" in out_tight,
        f"verify exits {code_default} under default tolerances and "
        f"{code_tight} with tolerances tightened beyond machine precision",
    )
