"""Figure 4 — impact of session length (single hop).

Plots the inconsistency ratio (panel a) and the normalized average
signaling message rate (panel b) for all five protocols as the mean
sender session length ``1/mu_r`` sweeps 10 s .. 10,000 s on the Kazaa
defaults.

Paper claims this figure supports (checked by ``repro-signaling report``
and ``tests/experiments/test_figure_shapes.py``):

* both metrics decrease with session length for every protocol;
* SS+ER improves on SS most at short sessions, at negligible added
  message cost for long sessions;
* for long sessions the protocols group by trigger reliability; for
  short sessions they group by removal mechanism;
* SS+RTR tracks HS and sometimes beats it.
"""

from __future__ import annotations

from repro.core.protocols import Protocol
from repro.experiments.spec import (
    Axis,
    FidelityProfile,
    PanelSpec,
    ScenarioSpec,
    SeriesPlan,
    register_scenario,
)

EXPERIMENT_ID = "fig4"
TITLE = "Fig. 4: inconsistency and message rate vs session length 1/mu_r"

SPEC = register_scenario(
    ScenarioSpec(
        scenario_id=EXPERIMENT_ID,
        title=TITLE,
        artifact="Fig. 4",
        family="singlehop",
        preset="kazaa",
        protocols=tuple(Protocol),
        axes=(
            Axis("session_length", "geometric", low=10.0, high=10_000.0, points=16),
        ),
        panels=(
            PanelSpec(
                name="a: inconsistency ratio",
                x_label="1/mu_r (s)",
                y_label="inconsistency ratio I",
                plans=(
                    SeriesPlan(
                        "sweep",
                        axis="session_length",
                        binder="session_length",
                        metric="inconsistency_ratio",
                    ),
                ),
                log_x=True,
                log_y=True,
            ),
            PanelSpec(
                name="b: signaling message rate",
                x_label="1/mu_r (s)",
                y_label="normalized message rate M",
                plans=(
                    SeriesPlan(
                        "sweep",
                        axis="session_length",
                        binder="session_length",
                        metric="normalized_message_rate",
                    ),
                ),
                log_x=True,
            ),
        ),
        fidelities=(
            FidelityProfile("full"),
            FidelityProfile("fast", axis_points={"session_length": 7}),
            FidelityProfile("smoke", axis_points={"session_length": 3}),
        ),
    )
)
