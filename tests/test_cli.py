import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wernerlab import cli, discrimination, metrics, metrology, states, verify
from wernerlab.errors import DimensionOverflowError, WernerLabError


def run_json(capsys, argv):
    code = cli.main(argv)
    record = json.loads(capsys.readouterr().out)
    return code, record


class TestSingleComputations:
    def test_fidelity_record(self, capsys):
        code, record = run_json(capsys, ["fidelity", "--eta", "0.5", "--zeta", "0"])
        assert code == 0
        assert record["schema_version"] == "1"
        assert record["command"] == "fidelity"
        assert record["parameters"] == {"eta": 0.5, "zeta": 0.0}
        assert record["results"]["fidelity"] == pytest.approx(
            (math.sqrt(1.5) + math.sqrt(0.5)) / 2, abs=1e-15
        )

    def test_estimate_record(self, capsys):
        code, record = run_json(capsys, ["estimate", "--eta", "0", "--n", "100"])
        assert code == 0
        assert record["results"] == {"qfi": 100.0, "qcrb_variance": 0.01}

    def test_estimate_sim_reports_experiment(self, capsys):
        code, record = run_json(
            capsys,
            ["estimate", "sim", "--eta", "0.3", "--n", "200", "--trials", "500", "--seed", "5"],
        )
        assert code == 0
        assert record["command"] == "estimate sim"
        assert record["parameters"]["trials"] == 500
        assert 0.5 < record["results"]["empirical_variance"] * record["results"]["qfi"] < 2.0

    def test_relent_renders_infinity_as_string(self, capsys):
        code, record = run_json(capsys, ["relent", "--eta", "0", "--zeta", "1"])
        assert code == 0
        assert record["results"]["relative_entropy_bits"] == "inf"

    def test_qcb_record(self, capsys):
        code, record = run_json(capsys, ["qcb", "--eta", "0.5", "--zeta", "-0.5"])
        assert code == 0
        assert record["results"]["q"] == pytest.approx(math.sqrt(0.75), abs=1e-12)
        assert record["results"]["s_star"] == pytest.approx(0.5, abs=1e-12)
        assert record["results"]["s_kind"] == "interior"

    def test_qcb_isotropic(self, capsys):
        code, record = run_json(
            capsys,
            ["qcb", "--isotropic", "--alpha", "2", "--beta", "1", "--d", "2"],
        )
        assert code == 0
        assert record["results"]["q"] == pytest.approx(0.5)
        assert record["results"]["s_kind"] == "left_limit"

    def test_discriminate_record_ordering(self, capsys):
        code, record = run_json(
            capsys, ["discriminate", "--eta", "0.5", "--zeta", "0", "--d", "2", "--n", "1"]
        )
        assert code == 0
        r = record["results"]
        assert (
            r["lower"] <= r["helstrom_block"] <= r["qcb_upper"] <= r["fid_upper"] <= 0.5
        )

    def test_csv_format_override(self, capsys):
        code = cli.main(["fidelity", "--eta", "0.5", "--zeta", "0", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "eta,zeta,fidelity"
        cells = lines[1].split(",")
        assert float(cells[2]) == pytest.approx(0.9659258262890682)

    def test_record_roundtrips_losslessly(self, capsys):
        code, record = run_json(capsys, ["fidelity", "--eta", "0.123456789", "--zeta", "-0.987654321"])
        assert code == 0
        again = json.loads(json.dumps(record))
        assert again == record
        assert again["results"]["fidelity"] == record["results"]["fidelity"]

    @pytest.mark.parametrize(
        "argv,result_type,params",
        [
            (["qcb", "--eta", "0.5", "--zeta", "-0.5"], metrics.QcbResult, ()),
            (["qcb", "--isotropic", "--alpha", "2", "--beta", "1", "--d", "2"], metrics.QcbResult, ()),
            (
                ["discriminate", "--eta", "0.5", "--zeta", "0", "--d", "3", "--n", "10"],
                discrimination.DiscriminationBounds,
                ("eta", "zeta", "d", "n"),
            ),
            (
                ["estimate", "sim", "--eta", "0.3", "--n", "100", "--trials", "50"],
                metrology.EstimationReport,
                ("eta_true", "n", "trials", "seed"),
            ),
        ],
    )
    def test_results_are_the_result_type_fields(self, capsys, argv, result_type, params):
        # the record's results are its result type's fields, less the parameters
        code, record = run_json(capsys, argv)
        assert code == 0
        names = [f.name for f in fields(result_type)]
        assert list(record["results"]) == [k for k in names if k not in params]
        if params:
            assert list(record["parameters"]) == list(params)

    def test_seed_defaults_are_the_one_constant(self):
        # the parser main() keeps for the process, read at its build
        parser = cli._parser()
        for argv in (
            ["estimate", "--eta", "0", "--n", "1"],
            ["teleport-check", "--d", "2", "--eta", "0"],
            ["verify"],
        ):
            assert parser.parse_args(argv).seed == verify.DEFAULT_SEED
        # every --seed option of every command, not only the three above
        (commands,) = (a for a in parser._actions if a.dest == "command")
        seeds = {
            name: a.default
            for name, sub in commands.choices.items()
            for a in sub._actions
            if "--seed" in a.option_strings
        }
        assert seeds == dict.fromkeys(("estimate", "teleport-check", "verify"), verify.DEFAULT_SEED)
        seed = inspect.signature(verify.run_verification).parameters["seed"]
        assert seed.default == verify.DEFAULT_SEED


class TestParserIsBuiltOnce:
    @pytest.fixture
    def builds(self, monkeypatch):
        # a fresh process: no parser yet, and each build counted
        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        cli._parser.cache_clear()
        yield calls
        cli._parser.cache_clear()

    def test_import_builds_no_parser(self):
        # the build falls in the first main() call, not in the import
        code = "import wernerlab.cli as c; print(c._parser.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.stdout == "0\n", out.stderr

    def test_two_calls_build_one_parser(self, builds, capsys):
        assert builds == []
        assert run_json(capsys, ["fidelity", "--eta", "0.5", "--zeta", "0"])[1]["command"] == "fidelity"
        assert cli.main(["relent", "--eta", "0.5", "--zeta", "0", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "eta,zeta,relative_entropy_bits"
        assert len(builds) == 1

    def test_usage_error_does_not_touch_the_next_call(self, builds, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["discriminate", "--eta", "0.5", "--zeta", "x"])
        assert exc.value.code == 1
        assert "invalid float value: 'x'" in capsys.readouterr().err
        code, record = run_json(capsys, ["discriminate", "--eta", "0.5", "--zeta", "0"])
        assert code == 0
        assert record["parameters"] == {"eta": 0.5, "zeta": 0.0, "d": 2, "n": 1}
        assert len(builds) == 1


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fidelity", "--eta", "0.5"])  # missing --zeta
        assert exc.value.code == 1

    def test_unknown_command_is_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus"])
        assert exc.value.code == 1

    def test_bad_parameter_value_is_one(self, capsys):
        assert cli.main(["fidelity", "--eta", "3", "--zeta", "0"]) == 1
        assert "must lie in" in capsys.readouterr().err

    def test_qcb_missing_family_flags(self, capsys):
        assert cli.main(["qcb", "--isotropic", "--alpha", "1"]) == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["qcb", "--isotropic", "--alpha", "1", "--beta", "1.5", "--d", "2", "--eta", "5"],
             "--isotropic does not read --eta"),
            (["qcb", "--isotropic", "--alpha", "1", "--beta", "1.5", "--d", "2", "--zeta", "0"],
             "--isotropic does not read --zeta"),
            (["qcb", "--eta", "0.1", "--zeta", "0.2", "--d", "-3"], "--d need --isotropic"),
            (["qcb", "--eta", "0.1", "--zeta", "0.2", "--alpha", "99", "--beta", "1"],
             "--alpha, --beta need --isotropic"),
            (["estimate", "--eta", "0.3", "--n", "10", "--trials", "0"],
             "trial count must be a positive integer, got 0"),
            (["estimate", "--eta", "0.3", "--n", "10", "--trials", "10000001"],
             "trial count 10000001 exceeds cap 10000000"),
        ],
    )
    def test_a_flag_the_mode_does_not_read_is_still_checked(self, capsys, argv, message):
        # each exited 0 once: qcb names the other family's flags, and plain estimate
        # checks --trials (and --seed) as estimate sim does, with its messages
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "sim", "--eta", "0.3", "--n", "100", "--seed", "-1"],
            ["estimate", "--eta", "0.3", "--n", "100", "--seed", "-1"],
            ["verify", "--seed", "-1"],
            ["teleport-check", "--d", "2", "--eta", "0.5", "--seed", "-1"],
        ],
    )
    def test_negative_seed_is_one(self, capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert "seed must be a non-negative integer" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["estimate", "sim", "--eta", "0.3", "--n", str(10**20), "--trials", "3"],
                f"probe count {10**20} exceeds cap",
            ),
            (["teleport-check", "--d", "17", "--eta", "0.5"], "dimension 4913 exceeds cap 4096"),
            (["verify", "--dims", "2..65"], "dimension 4225 exceeds cap 4096"),
            (
                ["teleport-check", "--d", "2", "--eta", "0.5", "--samples", "100001"],
                "sample count 100001 exceeds cap 100000",
            ),
            (["verify", "--dims", "2..1000000000"], f"dimension {10**18} exceeds cap 4096"),
            (["estimate", "--eta", "0.3", "--n", str(10**400)], "probe count exceeds the range"),
            (
                ["qcb", "--isotropic", "--alpha", "1", "--beta", "0.5", "--d", str(10**400)],
                "local dimension exceeds the range",
            ),
            (["verify", "--dims", "64"], "sum d^4 = 7398752256 exceeds cap 33554432"),
            (["verify", "--grid", "0.00002", "--dims", "2"], "exceeds cap 33554432"),
            (
                ["curves", "--zeta", "0", "--n", ",".join(map(str, range(1, 1001))),
                 "--step", "0.00002"],
                "100001 grid points x 1000 copy counts exceed the cap of 100001 rows",
            ),
            (
                ["teleport-check", "--d", "16", "--eta", "0.5", "--samples", "100000"],
                "samples x d^6 = 1677721600000 exceeds cap 300000000",
            ),
        ],
    )
    def test_oversized_input_is_one(self, monkeypatch, capsys, argv, message):
        # rejected before any sweep, state, curve row, product or dimension
        # range is built: make all of them unreachable
        monkeypatch.setattr(verify, "check_werner_oracles", None)
        monkeypatch.setattr(states, "werner_state", None)
        monkeypatch.setattr(states, "isotropic_state", None)
        monkeypatch.setattr(discrimination, "_sandwiches", None)
        monkeypatch.setattr(np, "kron", None)
        monkeypatch.setattr(cli, "range", None, raising=False)
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestCurves:
    def test_csv_to_file_and_byte_identical_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code = cli.main(
            ["curves", "--zeta", "0", "--n", "1,10", "--step", "0.1", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        rows = cli.parse_curves_csv(text)
        assert cli.format_curves_csv(rows) == text
        assert len(rows) == 2 * 21

    @pytest.mark.parametrize("zeta,n,step", [(0.3, [1, 10, 100, 1000], 0.01), (-1.0, [3, 2], 0.25)])
    def test_parse_inverts_format_on_rows(self, zeta, n, step, grid_rows):
        rows = grid_rows(discrimination.curve_grid(zeta, n, step))
        assert cli.parse_curves_csv(cli.format_curves_csv(rows)) == rows

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda lines: ["zeta,n,eta"] + lines[1:], "unrecognised curves CSV header on line 1"),
            (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]], "line 4: 6 cells, expected 7"),
            (lambda lines: lines[:2] + [lines[2] + ",0.1"], "line 3: 8 cells, expected 7"),
            (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0] + ",x"],
             "line 3: could not convert string to float: 'x'"),
            (lambda lines: [lines[0], "", lines[1].replace(",1,", ",1.5,", 1)],
             "line 3: invalid literal for int() with base 10: '1.5'"),
        ],
        ids=["header", "short-row", "long-row", "non-numeric", "fractional-n"],
    )
    def test_malformed_csv_names_the_line(self, edit, message, grid_rows):
        text = cli.format_curves_csv(grid_rows(discrimination.curve_grid(0.0, [1], 0.5)))
        bad = "\n".join(edit(text.splitlines())) + "\n"
        with pytest.raises(WernerLabError) as exc:
            cli.parse_curves_csv(bad)
        assert message in str(exc.value)

    @pytest.mark.parametrize(
        "target,message", [("missing/x.csv", "No such file"), (".", "Is a directory")]
    )
    def test_unwritable_out_is_one(self, tmp_path, capsys, target, message):
        out = tmp_path / target
        code = cli.main(["curves", "--zeta", "0", "--n", "1", "--step", "0.5", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"cannot write {str(out)!r}: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "missing").exists()

    def test_header_and_sorting(self, capsys):
        code = cli.main(["curves", "--zeta", "0.5", "--n", "10,1", "--step", "0.5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "zeta,n,eta,lower,qcb_upper,fid_upper,helstrom_block"
        keys = [(int(ln.split(",")[1]), float(ln.split(",")[2])) for ln in lines[1:]]
        assert keys == sorted(keys)

    def test_json_format(self, capsys):
        code, record = run_json(
            capsys, ["curves", "--zeta", "0", "--n", "1", "--step", "0.5", "--format", "json"]
        )
        assert code == 0
        assert len(record["results"]["rows"]) == 5

    @pytest.mark.parametrize(
        "zeta,n,step", [(0.0, [1], 0.5), (-0.3, [10, 1, 100], 0.25), (1.0, [2, 3], 0.1)]
    )
    def test_streamed_json_is_the_indented_record(self, tmp_path, capsys, zeta, n, step, grid_rows):
        # the rows are written one at a time, byte for byte the document that
        # json.dumps(record, indent=2) builds whole
        rows = sorted(grid_rows(discrimination.curve_grid(zeta, n, step)), key=lambda r: (r.n, r.eta))
        record = cli._record(
            "curves", {"zeta": zeta, "n": n, "step": step}, {"rows": [asdict(r) for r in rows]}
        )
        expected = json.dumps(cli._jsonify(record), indent=2) + "\n"
        argv = ["curves", f"--zeta={zeta!r}", "--n", ",".join(map(str, n)), "--step", repr(step)]
        assert cli.main(argv + ["--format", "json"]) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "curves.json"
        assert cli.main(argv + ["--format", "json", "--out", str(out)]) == 0
        assert out.read_text() == expected

    def test_bad_n_list(self, capsys):
        assert cli.main(["curves", "--zeta", "0", "--n", "1,x"]) == 1

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--step", "nan"], "grid step must be finite and positive"),
            (["--step", "1e-300"], "above the cap"),
            (["--n", "1,1000,1001"], "copy count 1001 exceeds cap 1000"),
        ],
    )
    def test_rejects_bad_input_with_message(self, capsys, flags, message):
        assert cli.main(["curves", "--zeta", "0", *flags]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


def joined(rows) -> str:
    # the CSV lines of a row template's writer as a join of each cell's str()
    return "".join(",".join(map(str, cells)) + "\n" for cells in rows)


def _has_avx512() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__.get("AVX512_SKX", False)


class TestCsvWriter:
    """One row template writes every CSV line, each cell as its str()."""

    CURVES = ["curves", "--zeta", "0.3", "--n", "1,10,100,1000", "--step", "0.01"]

    @pytest.mark.skipif(
        not _has_avx512(),
        reason="the Helstrom column holds numpy's AVX-512 exp and log1p, which other SIMD "
        "targets may round an ulp apart",
    )
    def test_curves_bytes_are_pinned(self, capsys):
        # the 804-row benchmark grid, as written before the row template replaced a
        # join of str() cells
        assert cli.main(self.CURVES) == 0
        out = capsys.readouterr().out.encode()
        assert (
            hashlib.sha256(out).hexdigest()
            == "045e7f2f925ac23e2d3513d200b241a004c42aba5d50a7cb54f32573f0b47f03"
        )

    def test_curves_lines_are_the_joined_cells(self, capsys):
        assert cli.main(self.CURVES) == 0
        cols = discrimination.curve_grid(0.3, [1, 10, 100, 1000], 0.01)
        expected = joined([cli.CURVES_COLUMNS, *cli._curves_cells(cols)])
        assert capsys.readouterr().out == expected

    def test_record_cells_are_their_str(self, capsys):
        cells = {"inf": math.inf, "neg_inf": -math.inf, "neg_zero": -0.0, "tiny": 5e-324,
                 "flag": True, "s_kind": "right_limit", "count": 10_000, "big": 10**20,
                 "numpy": np.float64(0.1), "nan": math.nan}
        names = list(cells)
        record = cli._record("x", {k: cells[k] for k in names[:3]}, {k: cells[k] for k in names[3:]})
        cli._emit_record(record, "csv")
        assert capsys.readouterr().out == joined([cells, cells.values()])

    @pytest.mark.parametrize(
        "argv",
        [
            ["qcb", "--eta", "1", "--zeta", "0.2"],
            ["qcb", "--isotropic", "--alpha", "0.5", "--beta", "2", "--d", "3"],
            ["relent", "--eta", "0.2", "--zeta", "1"],
            ["discriminate", "--eta", "1", "--zeta", "-1", "--n", "1000"],
            ["estimate", "sim", "--eta", "0.3", "--n", "10", "--trials", "50"],
        ],
    )
    def test_command_records(self, capsys, argv):
        args = cli._parser().parse_args(argv)
        record = cli._RECORDS[args.command](args)
        cells = {**record["parameters"], **record["results"]}
        assert cli.main(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out == joined([cells, cells.values()])


class TestVerificationCommands:
    def test_teleport_check_passes(self, capsys):
        code, record = run_json(
            capsys, ["teleport-check", "--d", "2", "--eta", "0.7", "--seed", "3"]
        )
        assert code == 0
        assert record["results"]["simulation_defect"] <= 1e-10
        assert record["results"]["covariance_defect"] <= 1e-10

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_teleport_check_rejects_non_positive_samples(self, capsys, samples):
        code = cli.main(
            ["teleport-check", "--d", "2", "--eta", "0.5", "--samples", samples]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "sample count must be a positive integer" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_teleport_check_rejects_bad_dimension(self, capsys):
        code = cli.main(["teleport-check", "--d", "-1", "--eta", "0.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "local dimension must be an integer >= 2" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_verify_small_grid_passes(self, capsys):
        code = cli.main(["verify", "--grid", "0.5", "--dims", "2..3", "--seed", "11"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all" in out and "passed" in out

    def test_verify_tightened_tolerances_fail(self, capsys):
        code = cli.main(
            ["verify", "--grid", "0.5", "--dims", "2..2", "--tol-scale", "1e-9"]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "FAIL" in out

    def test_verify_fails_checks_that_examined_nothing(self, capsys):
        # grid 1.0 leaves no off-diagonal interior pair to examine
        code = cli.main(["verify", "--grid", "1.0", "--dims", "2..2"])
        out = capsys.readouterr().out
        assert code == 2
        empty = [
            "qcb-oracle-q",
            "qcb-oracle-s",
            "critical-point-identities",
            "substitution-identity",
            "qs-oracle",
        ]
        assert out.splitlines()[-1] == "5 check(s) failed: " + ", ".join(empty)
        for name in empty:
            assert any(
                line.startswith("FAIL " + name) and " 0 points" in line
                for line in out.splitlines()
            )

    def test_verify_without_an_interior_fails_cleanly(self, capsys):
        # grid 2.0 is eta = -1, 1 alone: empty Chernoff, overlap-curve,
        # entropy-asymmetry and Fisher-information tables, and exit 2, not a traceback
        code = cli.main(["verify", "--grid", "2.0", "--dims", "2..2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.splitlines()[-1].startswith("8 check(s) failed: ")
        assert "Traceback" not in captured.err

    def test_verify_rejects_bad_dims(self, capsys):
        assert cli.main(["verify", "--dims", "nope"]) == 1

    @pytest.mark.parametrize(
        "dims,message",
        [
            ("3..2", "dimension range '3..2' is empty"),
            ("7..1", "dimension range '7..1' is empty"),
            ("1..3", "dimension range '1..3' starts below 2"),
            ("0..4", "dimension range '0..4' starts below 2"),
            ("1", "dimension 1 in '1' is below 2"),
            ("0,3", "dimension 0 in '0,3' is below 2"),
            ("3,-1,0", "dimension -1 in '3,-1,0' is below 2"),
            ("2..x", "cannot parse dimension range '2..x'"),
        ],
    )
    def test_verify_names_what_is_wrong_with_the_dims(self, monkeypatch, capsys, dims, message):
        monkeypatch.setattr(verify, "check_werner_oracles", None)  # never reached
        assert cli.main(["verify", "--dims", dims]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_verify_rejects_a_repeated_dimension(self, monkeypatch, capsys):
        # d = 2 twice would sweep it twice and count 50 fidelity points for 25 pairs
        monkeypatch.setattr(verify, "check_werner_oracles", None)  # never reached
        assert cli.main(["verify", "--grid", "0.5", "--dims", "2,2"]) == 1
        captured = capsys.readouterr()
        assert "dimensions [2, 2] repeat a dimension" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_dimension_range_is_checked_before_it_is_built(self, monkeypatch):
        monkeypatch.setattr(cli, "range", None, raising=False)  # never reached
        with pytest.raises(DimensionOverflowError, match=f"{10**18} exceeds cap 4096"):
            cli._parse_dims("2..1000000000")

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--tol-scale", "inf", "tolerance scale must be finite and positive"),
            ("--tol-scale", "nan", "tolerance scale must be finite and positive"),
            ("--tol-scale", "1e300", "at most 1 so that it only tightens the gates"),
            ("--tol-scale", "2", "at most 1 so that it only tightens the gates"),
            ("--grid", "nan", "grid step must be finite and positive"),
            ("--grid", "0", "grid step must be finite and positive"),
            ("--grid", "1e-300", "above the cap"),
        ],
    )
    def test_verify_rejects_gate_disabling_values(self, capsys, flag, value, message):
        assert cli.main(["verify", flag, value]) == 1
        assert message in capsys.readouterr().err


# Float flag values at the edges of IEEE double: nan, infinities, negative
# zero, the smallest subnormals, and one ulp either side of +1 and -1.
FUZZ_VALUES = tuple(
    repr(x)
    for x in (
        math.nan,
        math.inf,
        -math.inf,
        -0.0,
        5e-324,
        -5e-324,
        math.nextafter(1.0, 2.0),
        math.nextafter(1.0, 0.0),
        math.nextafter(-1.0, -2.0),
        math.nextafter(-1.0, 0.0),
    )
)

# Every float flag of the CLI, one per command line, the others valid.  The
# "=" form keeps argparse from reading a value like "-inf" as a flag.
FUZZ_COMMANDS = (
    "fidelity --eta={} --zeta=0.5",
    "fidelity --eta=0.5 --zeta={}",
    "relent --eta={} --zeta=0.5",
    "relent --eta=0.5 --zeta={}",
    "qcb --eta={} --zeta=0.5",
    "qcb --eta=0.5 --zeta={}",
    "qcb --isotropic --alpha={} --beta=1 --d=2",
    "qcb --isotropic --alpha=1 --beta={} --d=2",
    "estimate --eta={} --n=100",
    "estimate sim --eta={} --n=100 --trials=200 --seed=1",
    "discriminate --eta={} --zeta=0.5",
    "discriminate --eta=0.5 --zeta={}",
    "curves --zeta={} --n=1,10 --step=0.5",
    "curves --zeta=0 --n=1,10 --step={}",
    "teleport-check --d=2 --eta={} --samples=2",
    "verify --grid={} --dims=2..2",
    "verify --grid=0.5 --dims=2..2 --tol-scale={}",
)


def run_captured(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_exits_cleanly(argv):
    # any exception other than argparse's exit escapes and fails the test
    code, out, err = run_captured(argv)
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 1))
    if code == 1:
        assert out == ""
    assert "Traceback" not in err


@given(template=st.sampled_from(FUZZ_COMMANDS), value=st.sampled_from(FUZZ_VALUES))
@settings(max_examples=30, deadline=None)
def test_float_flags_exit_cleanly(template, value):
    assert_exits_cleanly(template.format(value).split())


# Non-positive, one past int64, and beyond the range of a double.
INT_FUZZ_VALUES = ("0", "-1", str(2**63), str(10**400))

# Every integer flag of the commands that compute, one per command line.
INT_FUZZ_COMMANDS = (
    "estimate --eta=0.3 --n={}",
    "estimate sim --eta=0.3 --n={} --trials=200 --seed=1",
    "estimate sim --eta=0.3 --n=100 --trials={} --seed=1",
    "estimate sim --eta=0.3 --n=100 --trials=200 --seed={}",
    "discriminate --eta=0.3 --zeta=0.5 --n={}",
    "discriminate --eta=0.3 --zeta=0.5 --d={}",
    "qcb --isotropic --alpha=1 --beta=0.5 --d={}",
    "teleport-check --d={} --eta=0.5 --samples=2",
    "teleport-check --d=2 --eta=0.5 --samples={}",
    "teleport-check --d=2 --eta=0.5 --samples=2 --seed={}",
)


@given(template=st.sampled_from(INT_FUZZ_COMMANDS), value=st.sampled_from(INT_FUZZ_VALUES))
@settings(max_examples=20, deadline=None)
def test_integer_flags_exit_cleanly(template, value):
    assert_exits_cleanly(template.format(value).split())
