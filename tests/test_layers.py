"""The two-route boundary, read from the source: closed forms and matrix oracles share no code.

The closed-form modules (``metrics``, ``discrimination``, ``metrology``) take
from the package only the errors, the metrics and the ``_check_*`` validators
of ``states``; they never reach ``linalg`` or ``teleport``.  The oracle
modules (``linalg``, ``states``, ``teleport``) never reach a closed form, nor
``verify`` or ``cli``, which set the two routes against each other.
"""

import ast
from pathlib import Path

import pytest

import wernerlab

SRC = Path(wernerlab.__file__).parent
CLOSED_FORM = ("metrics", "discrimination", "metrology")
ORACLE = ("linalg", "states", "teleport")
# the package itself ("") loads every module
ABOVE_THE_ORACLES = {"", "metrics", "discrimination", "metrology", "verify", "cli"}


def package_imports(module: str) -> list[tuple[str, str]]:
    # (module, name) per name a module imports from within the package; a whole
    # module imported is (module, "*"), and the package itself is ""
    found = []
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "wernerlab":
                    found.append((rest.partition(".")[0], "*"))
        elif isinstance(node, ast.ImportFrom):
            head, _, rest = (node.module or "").partition(".")
            if node.level == 1:
                source = head
            elif node.level == 0 and head == "wernerlab":
                source = rest.partition(".")[0]
            else:
                continue
            if source:
                found.extend((source, alias.name) for alias in node.names)
            else:
                found.extend((alias.name, "*") for alias in node.names)
    return found


def test_the_parser_sees_the_imports():
    assert ("errors", "SupportMismatchError") in package_imports("metrics")
    assert ("states", "_check_eta") in package_imports("metrics")
    assert ("linalg", "_blocks") in package_imports("teleport")
    assert ("metrics", "*") in package_imports("verify")


@pytest.mark.parametrize("module", CLOSED_FORM)
def test_closed_forms_take_only_errors_metrics_and_validators(module):
    for source, name in package_imports(module):
        assert source in {"errors", "metrics", "states"}, (module, source, name)
        if source == "states":
            assert name.startswith("_check_"), (module, source, name)


@pytest.mark.parametrize("module", ORACLE)
def test_oracles_reach_no_closed_form(module):
    for source, name in package_imports(module):
        assert source not in ABOVE_THE_ORACLES, (module, source, name)
