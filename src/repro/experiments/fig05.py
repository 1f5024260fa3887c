"""Figure 5 — impact of channel loss rate and delay (single hop).

Panel (a): inconsistency ratio vs loss rate ``p_l`` in [0, 0.3].
Panel (b): inconsistency ratio vs one-way delay ``Delta`` in (0, 1] s.

Paper claims (checked by ``repro-signaling report`` and
``tests/experiments/test_figure_shapes.py``): reliable transmission pays
off even at modest loss (5%); inconsistency grows ~linearly with delay,
with a slightly steeper slope for the reliable-transmission protocols
(their retransmission timer scales with the delay, ``K = 4 Delta``).
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

EXPERIMENT_ID = "fig5"
TITLE = "Fig. 5: inconsistency vs channel loss rate (a) and delay (b)"

SPEC = register_scenario(
    ScenarioSpec(
        scenario_id=EXPERIMENT_ID,
        title=TITLE,
        artifact="Fig. 5",
        family="singlehop",
        preset="kazaa",
        protocols=tuple(Protocol),
        axes=(
            Axis("loss_rate", "linear", low=0.0, high=0.3, points=13),
            # The retransmission timer tracks the channel delay
            # (K = 4*Delta), exactly as in the paper's defaults.
            Axis("delay", "linear", low=0.02, high=1.0, points=15),
        ),
        panels=(
            PanelSpec(
                name="a: vs loss rate",
                x_label="loss rate p_l",
                y_label="inconsistency ratio I",
                plans=(
                    SeriesPlan(
                        "sweep",
                        axis="loss_rate",
                        binder="loss_rate",
                        metric="inconsistency_ratio",
                    ),
                ),
            ),
            PanelSpec(
                name="b: vs channel delay",
                x_label="delay Delta (s)",
                y_label="inconsistency ratio I",
                plans=(
                    SeriesPlan(
                        "sweep",
                        axis="delay",
                        binder="delay_coupled_retx",
                        metric="inconsistency_ratio",
                    ),
                ),
            ),
        ),
        fidelities=(
            FidelityProfile("full"),
            FidelityProfile("fast", axis_points={"loss_rate": 7, "delay": 7}),
            FidelityProfile("smoke", axis_points={"loss_rate": 3, "delay": 3}),
        ),
    )
)
