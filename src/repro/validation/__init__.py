"""Scenario-driven validation: sim↔model cross-checks and backend parity.

The paper's central evidence is *agreement*: CTMC predictions vs
discrete-event simulations with 95% confidence intervals (§III-A.3),
and — in this codebase — seven solver paths that must reproduce one
another.  This package turns every registered
:class:`~repro.experiments.spec.ScenarioSpec` into an executable
validation plan:

* :mod:`repro.validation.plan` — derive and execute
  :class:`ValidationPlan` objects (artifact, invariant, parity and
  sim-vs-model checks per scenario);
* :mod:`repro.validation.equivalence` — Student-t equivalence margins
  for the differential simulation checks;
* :mod:`repro.validation.parity` — the backend parity matrix,
  generated from the ``FAMILIES`` table: every route against its
  referee (exact where the repo guarantees bit parity, tolerance-bounded
  otherwise), reductions between models, and ``dense~sparse``;
* :mod:`repro.validation.report` — the versioned
  :class:`ValidationReport` artifact (JSON + text table).

Entry points: ``repro-signaling validate [scenario|all]`` on the CLI,
:func:`repro.api.validate_scenario` as a library call:

>>> from repro.validation import validate_scenario
>>> report = validate_scenario("fig4", fidelity="smoke")
>>> report.passed
True
>>> sorted({check.kind for check in report.checks})
['artifact', 'invariant', 'parity']
>>> report.coverage().backends
('dense', 'template', 'batched', 'sparse', 'structured', 'lumped', 'iterative')

Reports render as text tables or versioned JSON artifacts
(``schema_version`` 1) that round-trip losslessly:

>>> from repro.validation import ValidationReport
>>> ValidationReport.from_json(report.to_json()) == report
True

See ``docs/validation.md`` for the check families, the report schema
and how to interpret per-point evidence.
"""

from repro.validation.equivalence import (
    SIM_EQUIVALENCE_CRITERIA,
    EquivalenceCriterion,
    equivalence_point,
)
from repro.validation.parity import (
    BACKENDS,
    REDUCTIONS,
    parity_parameter_points,
    parity_points,
    parity_slice,
)
from repro.validation.plan import (
    ValidationPlan,
    build_plan,
    execute_plan,
    validate_all,
    validate_scenario,
)
from repro.validation.report import (
    VALIDATION_SCHEMA_VERSION,
    CheckResult,
    Coverage,
    PointCheck,
    ValidationReport,
)

__all__ = [
    "BACKENDS",
    "REDUCTIONS",
    "CheckResult",
    "Coverage",
    "EquivalenceCriterion",
    "PointCheck",
    "SIM_EQUIVALENCE_CRITERIA",
    "VALIDATION_SCHEMA_VERSION",
    "ValidationPlan",
    "ValidationReport",
    "build_plan",
    "equivalence_point",
    "execute_plan",
    "parity_parameter_points",
    "parity_points",
    "parity_slice",
    "validate_all",
    "validate_scenario",
]
