"""The import contract: the package and the scalar commands start without numpy.

``import wernerlab`` loads no module until a public name is used, ``import
wernerlab.cli`` loads only pure-Python modules, and the commands whose results
are scalar closed forms (fidelity, relent, qcb in both families, estimate without
``sim``) never load numpy.  Each case runs in a fresh interpreter, since this
process has long loaded numpy.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wernerlab
from wernerlab import validate
from wernerlab.errors import InvalidDimensionError, InvalidParameterError

SRC = Path(wernerlab.__file__).parent.parent

# runs main(argv) with its output swallowed, then prints the status and whether numpy loaded
RUN_MAIN = """
import contextlib, io, sys
from wernerlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
print(status, "numpy" in sys.modules)
"""


def fresh(code: str, *argv: str) -> str:
    # stdout of ``code`` in a new interpreter that finds this checkout's package
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_the_package_loads_no_module_until_a_name_is_used():
    code = (
        "import sys, wernerlab; "
        "print(sorted(m for m in sys.modules if m.startswith('wernerlab.')), 'numpy' in sys.modules)"
    )
    assert fresh(code) == "[] False"


def test_the_cli_imports_without_numpy():
    assert fresh("import sys, wernerlab.cli; print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("argv", [
    ["fidelity", "--eta", "0.3", "--zeta", "0.5"],
    ["relent", "--eta", "0.3", "--zeta", "0.5", "--format", "csv"],
    ["qcb", "--eta", "0.3", "--zeta", "0.5"],
    ["qcb", "--isotropic", "--alpha", "1", "--beta", "1.5", "--d", "2"],
    ["estimate", "--eta", "0.3", "--n", "4"],
], ids=["fidelity", "relent", "qcb", "qcb-isotropic", "estimate"])
def test_scalar_commands_run_without_numpy(argv):
    assert fresh(RUN_MAIN, *argv) == "0 False"


@pytest.mark.parametrize("argv", [
    ["discriminate", "--eta", "0.3", "--zeta", "0.5", "--n", "10"],
    ["curves", "--zeta", "0.3", "--n", "1,10", "--step", "0.25"],
    ["verify", "--grid", "0.5", "--dims", "2..2"],
], ids=["discriminate", "curves", "verify"])
def test_matrix_and_grid_commands_load_numpy_when_run(argv):
    assert fresh(RUN_MAIN, *argv) == "0 True"


def test_every_public_name_resolves_from_a_fresh_package():
    # each name of __all__ is the object its module defines, and a star import binds them all
    code = """
import importlib, wernerlab
homes = {name: importlib.import_module(f"wernerlab.{module}")
         for module, names in wernerlab._EXPORTS.items() for name in names}
assert all(getattr(wernerlab, name) is getattr(homes[name], name) for name in homes)
namespace = {}
exec("from wernerlab import *", namespace)
assert set(namespace) - {"__builtins__"} == set(wernerlab.__all__)
print(len(wernerlab.__all__))
"""
    assert fresh(code) == "33"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        wernerlab.no_such_name  # noqa: B018


@pytest.mark.parametrize("value", [np.int64(3), np.uint8(3), 3])
def test_integers_of_either_kind_are_accepted(value):
    assert validate._is_int(value)
    assert validate._check_positive_int(value, "count") == 3
    assert type(validate._check_dim(value)) is int


@pytest.mark.parametrize("value", [True, np.True_, np.array(3), 3.0],
                         ids=["bool", "numpy-bool", "0-d-array", "float"])
def test_non_integers_are_rejected_with_the_integer_messages(value):
    # the messages the validators gave when they tested numpy's integer types directly
    got = re.escape(repr(value))
    assert not validate._is_int(value)
    with pytest.raises(InvalidParameterError, match=f"^count must be a positive integer, got {got}$"):
        validate._check_positive_int(value, "count")
    with pytest.raises(InvalidParameterError, match=f"^seed must be a non-negative integer, got {got}$"):
        validate._check_seed(value)
    with pytest.raises(InvalidDimensionError, match=f"^local dimension must be an integer >= 2, got {got}$"):
        validate._check_dim(value)
