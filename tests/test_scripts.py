import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "name,args,message",
    [
        ("make_error_curves.py", ["--zetas", "2"], "flip expectation must lie in [-1, 1], got 2.0"),
        ("make_error_curves.py", ["--n", "1,x"], "cannot parse copy counts '1,x'"),
        ("run_estimation.py", ["--etas", "1.5"], "flip expectation must lie in [-1, 1], got 1.5"),
        ("run_estimation.py", ["--trials", "0"], "trial count must be a positive integer, got 0"),
        ("make_error_curves.py", ["--zetas", "x"], "argument --zetas: invalid _floats value: 'x'"),
        ("make_error_curves.py", ["--step", "x"], "argument --step: invalid float value: 'x'"),
        ("run_estimation.py", ["--etas", "x"], "argument --etas: invalid _floats value: 'x'"),
    ],
)
def test_bad_value_exits_one_with_message(tmp_path, name, args, message):
    # run in a scratch directory, where the curve script makes its output folder
    done = run_script(name, *args, cwd=tmp_path)
    assert done.returncode == 1
    assert message in done.stderr
    assert "Traceback" not in done.stderr
