"""Every public closed form is compared with an oracle by ``verify``, or says why not;
every public name of the oracle side has a caller in the library, or says why not.

``COVERAGE`` names each entry of ``__all__`` of the closed-form modules.  A
closed form maps to the oracle-backed checks of a run that compare it, or an
input they read, with a matrix-level route; every other name is
an exception, with its reason.  A name that lands in ``__all__`` without an
entry fails here, so a new closed form cannot ship unchecked by accident.

``CALLERS`` is the caller map of the oracle side (``ORACLE_SIDE``): each public
function or class defined there is read by library code, found in the source as
``test_layers.py`` finds imports, or it carries a one-line reason.  A helper that
only tests call fails here, and so does a reason on a name that has a caller or
is gone.
"""

import ast
from pathlib import Path

import pytest

import wernerlab
from wernerlab import discrimination, metrics, metrology, verify

MODULES = {"metrics": metrics, "discrimination": discrimination, "metrology": metrology}

# the checks of a run that compare one closed form with another, not with an oracle
CLOSED_FORM_ONLY = {"critical-point-identities", "delta-s-sign", "sandwich-ordering"}

COVERAGE = {
    "metrics.QcbResult": "the result type of qcb_werner and qcb_isotropic",
    "metrics.fidelity_werner": ("fidelity-oracle",),
    "metrics.one_minus_fidelity_squared": ("fidelity-gap-oracle",),
    "metrics.relative_entropy_werner": ("relative-entropy-oracle", "s-quantity-oracle"),
    "metrics.delta_s": ("delta-s-oracle",),
    "metrics.s_quantity": ("s-quantity-oracle",),
    "metrics.werner_qs": ("qs-oracle",),
    "metrics.qcb_werner": ("qcb-oracle-q", "qcb-oracle-s"),
    "metrics.qcb_isotropic": ("qcb-isotropic-oracle", "qcb-isotropic-oracle-s"),
    "discrimination.CURVE_ROW_CAP": "an input cap",
    "discrimination.ETA_GRID_CAP": "an input cap",
    "discrimination.DiscriminationBounds": "the result type of bounds",
    "discrimination.Sandwiches": "the column type of curve_grid",
    "discrimination.bounds": "the one-entry case of _sandwiches, whose columns "
    "sandwich-ordering checks; its bounds compose closed forms mapped here",
    "discrimination.curve_grid": "the one-zeta case of _sandwiches, as bounds",
    "discrimination.eta_grid": "the grid builder both routes share, not a closed form",
    "discrimination.helstrom_multicopy_werner": ("helstrom-explicit",),
    "metrology.TRIAL_CAP": "an input cap",
    "metrology.EstimationReport": "the result type of simulate_estimation",
    "metrology.qfi_werner": ("qfi-oracle", "qfi-attained"),
    "metrology.qcrb_variance": "1/qfi_werner, (1 - eta^2)/n",
    "metrology.simulate_estimation": "the Monte-Carlo sampler, tested in tier-1 (test_metrology)",
}
MAPPED = [name for name, entry in COVERAGE.items() if not isinstance(entry, str)]


@pytest.fixture(scope="module")
def check_names():
    return [r.name for r in verify.run_verification(grid_step=0.5, dims=(2,))]


def test_every_public_name_is_mapped_or_excepted():
    public = {f"{name}.{entry}" for name, module in MODULES.items() for entry in module.__all__}
    assert set(COVERAGE) == public


@pytest.mark.parametrize("name", COVERAGE)
def test_mapped_closed_forms_reach_oracle_checks(name, check_names):
    entry = COVERAGE[name]
    if isinstance(entry, str):
        assert entry.strip(), f"{name}: an exception needs its reason"
        return
    assert entry and set(entry) <= set(check_names) - CLOSED_FORM_ONLY, name


@pytest.mark.parametrize("name", MAPPED)
def test_a_run_calls_each_mapped_closed_form(monkeypatch, name):
    # the closed form counted where verify reads it
    module, attr = name.split(".")
    real, calls = getattr(MODULES[module], attr), []
    monkeypatch.setattr(MODULES[module], attr, lambda *a: calls.append(a) or real(*a))
    results = verify.run_verification(grid_step=0.5, dims=(2,))
    assert calls
    assert all(r.passed for r in results if r.name in COVERAGE[name])


SRC = Path(wernerlab.__file__).parent
ORACLE_SIDE = ("linalg", "states", "teleport", "verify", "cli")

# the public names of the oracle side that no library code reads, each with its reason
CALLERS = {
    "linalg.qcb_numeric": "the one-pair oracle API, which the benchmark's L1 spans wrap",
    "linalg.bures_fidelity_numeric": "the one-pair oracle API, which the benchmark's L1 spans wrap",
    "linalg.relative_entropy_numeric": "the one-pair oracle API, which the benchmark's L1 spans "
    "wrap",
    "states.choi_matrix": "claimed by ROADMAP item 4 (teleportation stretching on adaptive "
    "protocols)",
    "states.DepolarizingChannel": "claimed by ROADMAP item 7, with "
    "teleport_channel(conjugate_corrections=False)",
    "verify.max_workers": "perfbench/run.py reads it in its metadata, until ROADMAP item 8",
    "cli.format_curves_csv": "the benchmark's curves gate and CI's round-trip step",
    "cli.parse_curves_csv": "the benchmark's curves gate and CI's round-trip step",
}


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    # the module's top-level functions and classes, by name
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def public_definitions(module: str) -> set[str]:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {f"{module}.{name}" for name in _definitions(tree) if not name.startswith("_")}


def library_references() -> set[str]:
    # "module.name" per top-level name of a package module that library code reads: as
    # ``module.name`` on a module imported from the package, as a name imported from it,
    # or within its own module outside its own definition; __init__'s re-exports do not count
    found = set()
    for path in SRC.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        modules, imported = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module:
                        imported[local] = f"{node.module}.{alias.name}"
                    else:
                        modules[local] = alias.name
        own = _definitions(tree)
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if node.value.id in modules:
                        found.add(f"{modules[node.value.id]}.{node.attr}")
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in imported:
                        found.add(imported[node.id])
                    elif node.id in own and own[node.id] is not top:
                        found.add(f"{path.stem}.{node.id}")
    return found


@pytest.fixture(scope="module")
def referenced():
    return library_references()


def test_the_scan_sees_each_kind_of_reference(referenced):
    assert "linalg.eigh" in referenced  # verify reads linalg.eigh
    assert "linalg.trace_distance_numeric" in referenced  # teleport imports it
    assert "cli.build_parser" in referenced  # cli's own _parser calls it
    assert "cli.main" in referenced  # cli's own __main__ block
    # read by tests, perfbench/ or CI alone, or re-exported by __init__ alone
    assert not {"linalg.qcb_numeric", "verify.max_workers", "states.choi_matrix"} & referenced


@pytest.mark.parametrize("module", ORACLE_SIDE)
def test_every_public_name_has_a_caller_or_a_reason(module, referenced):
    # equal sets: an uncalled name needs a reason, and a reason on a called or a
    # vanished name is stale
    uncalled = public_definitions(module) - referenced
    assert uncalled == {name for name in CALLERS if name.startswith(f"{module}.")}


def test_every_reason_is_on_the_oracle_side_and_says_something():
    for name, reason in CALLERS.items():
        assert name.partition(".")[0] in ORACLE_SIDE and reason.strip(), name
