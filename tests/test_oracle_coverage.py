"""Every public closed form is compared with an oracle by ``verify``, or says why not.

``COVERAGE`` names each entry of ``__all__`` of the closed-form modules.  A
closed form maps to the oracle-backed checks of a run that compare it, or an
input they read, with a matrix-level route; every other name is
an exception, with its reason.  A name that lands in ``__all__`` without an
entry fails here, so a new closed form cannot ship unchecked by accident.
"""

import pytest

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
    "metrics.helstrom_multicopy_werner": ("helstrom-explicit",),
    "discrimination.CURVE_ROW_CAP": "an input cap",
    "discrimination.ETA_GRID_CAP": "an input cap",
    "discrimination.DiscriminationBounds": "the result type of bounds",
    "discrimination.Sandwiches": "the column type of curve_grid",
    "discrimination.bounds": "the one-entry case of _sandwiches, whose columns "
    "sandwich-ordering checks; its bounds compose closed forms mapped here",
    "discrimination.curve_grid": "the one-zeta case of _sandwiches, as bounds",
    "discrimination.eta_grid": "the grid builder both routes share, not a closed form",
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
