"""Fault-injection scenarios — bursty loss and link churn, beyond the paper.

The paper's channels lose messages i.i.d. per transmission.  Real
signaling paths fail in bursts (congested queues, fading links) and in
outages (flapping interfaces, rebooting routers); :mod:`repro.faults`
models both, and these scenarios probe how soft-state robustness claims
survive them:

* ``burst_loss`` — single-hop signaling over a Gilbert-Elliott channel,
  sweeping the burstiness knob at *matched average loss* (see
  :meth:`~repro.faults.gilbert.GilbertElliottParameters.matched_average`):
  every point loses the same fraction of messages on average, so any
  curve movement is attributable to loss *correlation* alone.  Model
  curves come from the channel x protocol product chain
  (:mod:`repro.core.gilbert`), validated against deterministic-timer
  simulations with the same shared modulator.
* ``burst_loss_hops`` — the same sweep on a multi-hop chain with one
  path-wide channel state (all hops fade together, the worst case for
  hop-by-hop recovery), model vs simulation.
* ``link_flap`` — simulation-only link churn: the first hop of the
  chain flaps on a deterministic schedule
  (:class:`~repro.faults.schedule.LinkFlap`), sweeping the flap rate at
  a fixed 30 s outage.  There is no analytic flap model; the scenario
  reports how inconsistency and repair traffic scale with churn for
  each protocol family.

The ``burstiness = 0`` points are exactly degenerate channels, so the
model curve anchors bit-identically to the i.i.d. baseline (the
``degenerate==iid`` rows of :data:`repro.validation.parity.REDUCTIONS`).
"""

from __future__ import annotations

from repro.core.protocols import Protocol
from repro.experiments.spec import (
    Axis,
    FidelityProfile,
    PanelSpec,
    ScenarioSpec,
    SeriesPlan,
    SimPlan,
    register_binder,
    register_scenario,
)
from repro.faults.gilbert import GilbertElliottParameters
from repro.faults.schedule import FaultSchedule, LinkFlap

__all__ = ["BURST_LOSS_HOPS_SPEC", "BURST_LOSS_SPEC", "LINK_FLAP_SPEC"]

#: Swept burst concentrations (0 = i.i.d., 1 = maximally bursty).
BURSTINESS_VALUES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
FAST_BURSTINESS_VALUES = (0.0, 0.5, 1.0)
SMOKE_BURSTINESS_VALUES = (0.0, 1.0)

#: Swept flap rates (outages per 1000 s); the outage itself stays 30 s.
FLAP_RATE_VALUES = (0.5, 1.0, 2.0, 4.0)
FAST_FLAP_RATE_VALUES = (1.0, 4.0)
SMOKE_FLAP_RATE_VALUES = (2.0,)

#: Outage length of each flap window (seconds): several refresh/timeout
#: cycles, so soft state actually expires during the outage.
FLAP_DOWN_DURATION = 30.0

#: The flapping hop: the first link, upstream of every relay, so an
#: outage disconnects the whole chain from the sender (worst case).
FLAP_LINK = 1

#: Chain length for the multi-hop fault scenarios (the reservation
#: preset's 20 hops make simulated churn runs needlessly heavy).
FAULT_HOPS = 4

#: Mean bad-state sojourn for the multi-hop sweep (seconds).  Bursts
#: must outlive the 5 s per-hop refresh interval: a sub-refresh burst
#: decorrelates between deterministic refresh firings, so the simulated
#: curves stay flat while the memoryless product chain still predicts
#: correlated consecutive refresh losses.  A 10 s burst spans two
#: refresh cycles and both views see the same correlation effect.
HOP_BURST_DURATION = 10.0


@register_binder("gilbert_burstiness")
def _bind_burstiness(base, x: float):
    """Burstiness ``x`` at the preset's average loss (matched average)."""
    return base, GilbertElliottParameters.matched_average(base.loss_rate, x)


@register_binder("gilbert_hop_burstiness")
def _bind_hop_burstiness(base, x: float):
    """Burstiness ``x`` with bursts spanning the per-hop refresh interval."""
    return base, GilbertElliottParameters.matched_average(
        base.loss_rate, x, mean_bad_duration=HOP_BURST_DURATION
    )


@register_binder("link_flap_rate")
def _bind_flap_rate(base, x: float):
    """Flap rate ``x`` per 1000 s as a deterministic outage schedule.

    The first outage starts a quarter period in, past the harness
    warmup at every swept rate.
    """
    period = 1000.0 / x
    schedule = FaultSchedule(
        flaps=(
            LinkFlap(
                link=FLAP_LINK,
                period=period,
                down_duration=FLAP_DOWN_DURATION,
                offset=0.25 * period,
            ),
        )
    )
    return base, schedule


BURST_LOSS_SPEC = register_scenario(
    ScenarioSpec(
        scenario_id="burst_loss",
        title="Bursty loss: Gilbert-Elliott channel at matched average loss "
        "(beyond the paper)",
        artifact="beyond the paper",
        family="burst_loss",
        preset="kazaa",
        protocols=tuple(Protocol),
        axes=(Axis("burstiness", "explicit", values=BURSTINESS_VALUES),),
        panels=(
            PanelSpec(
                name="a: inconsistency ratio",
                x_label="burstiness (0 = i.i.d., matched average loss)",
                y_label="inconsistency ratio I",
                plans=(
                    SeriesPlan(
                        "sweep",
                        axis="burstiness",
                        binder="gilbert_burstiness",
                        metric="inconsistency_ratio",
                    ),
                    SeriesPlan(
                        "sim",
                        axis="burstiness",
                        binder="gilbert_burstiness",
                        metric="inconsistency",
                        label_suffix=" sim",
                    ),
                ),
                log_y=True,
            ),
            PanelSpec(
                name="b: signaling message rate",
                x_label="burstiness (0 = i.i.d., matched average loss)",
                y_label="normalized message rate M",
                plans=(
                    SeriesPlan(
                        "sweep",
                        axis="burstiness",
                        binder="gilbert_burstiness",
                        metric="normalized_message_rate",
                    ),
                    SeriesPlan(
                        "sim",
                        axis="burstiness",
                        binder="gilbert_burstiness",
                        metric="message_rate",
                        label_suffix=" sim",
                    ),
                ),
            ),
        ),
        fidelities=(
            FidelityProfile("full", replications=5, sessions=80),
            FidelityProfile(
                "fast",
                axis_values={"burstiness": FAST_BURSTINESS_VALUES},
                replications=3,
                sessions=25,
            ),
            FidelityProfile(
                "smoke",
                axis_values={"burstiness": SMOKE_BURSTINESS_VALUES},
                replications=2,
                sessions=10,
            ),
        ),
        sim=SimPlan(seed=41, sessions_mode="fixed"),
        notes=(
            "every point has the same average loss; only the burst "
            "concentration varies (stationary bad fraction 0.1, mean "
            "burst 1 s)",
            "burstiness 0 is exactly the i.i.d. channel: model points "
            "anchor bit-identically to the baseline",
            "simulated series share one channel modulator across both "
            "directions; ± is a 95% CI.",
        ),
    )
)


BURST_LOSS_HOPS_SPEC = register_scenario(
    ScenarioSpec(
        scenario_id="burst_loss_hops",
        title="Bursty loss on a chain: path-wide Gilbert-Elliott channel "
        "(beyond the paper)",
        artifact="beyond the paper",
        family="burst_loss",
        preset="reservation",
        protocols=Protocol.multihop_family(),
        base_overrides={"hops": FAULT_HOPS},
        axes=(Axis("burstiness", "explicit", values=BURSTINESS_VALUES),),
        panels=(
            PanelSpec(
                name="a: inconsistency ratio",
                x_label="burstiness (0 = i.i.d., matched average loss)",
                y_label="inconsistency ratio I (any hop)",
                plans=(
                    SeriesPlan(
                        "sweep",
                        axis="burstiness",
                        binder="gilbert_hop_burstiness",
                        metric="inconsistency_ratio",
                    ),
                    SeriesPlan(
                        "sim",
                        axis="burstiness",
                        binder="gilbert_hop_burstiness",
                        metric="inconsistency",
                        label_suffix=" sim",
                    ),
                ),
                log_y=True,
            ),
            PanelSpec(
                name="b: signaling message rate",
                x_label="burstiness (0 = i.i.d., matched average loss)",
                y_label="per-link transmissions per second",
                plans=(
                    SeriesPlan(
                        "sweep",
                        axis="burstiness",
                        binder="gilbert_hop_burstiness",
                        metric="message_rate",
                    ),
                    SeriesPlan(
                        "sim",
                        axis="burstiness",
                        binder="gilbert_hop_burstiness",
                        metric="message_rate",
                        label_suffix=" sim",
                    ),
                ),
            ),
        ),
        fidelities=(
            FidelityProfile("full", replications=5, sim_budget=20_000.0),
            FidelityProfile(
                "fast",
                axis_values={"burstiness": FAST_BURSTINESS_VALUES},
                replications=3,
                sim_budget=6_000.0,
            ),
            FidelityProfile(
                "smoke",
                axis_values={"burstiness": SMOKE_BURSTINESS_VALUES},
                replications=2,
                sim_budget=1_500.0,
            ),
        ),
        sim=SimPlan(seed=43, sessions_mode="fixed"),
        notes=(
            "one path-wide channel state: every hop fades together "
            "(the product chain's assumption, and the worst case for "
            "hop-by-hop recovery)",
            "bursts average 10 s — two refresh cycles — so consecutive "
            "refreshes see correlated losses",
            "simulated series run for the fidelity's sim_budget "
            "simulated seconds per point; ± is a 95% CI.",
        ),
    )
)


LINK_FLAP_SPEC = register_scenario(
    ScenarioSpec(
        scenario_id="link_flap",
        title="Link flaps: periodic first-hop outages vs flap rate "
        "(beyond the paper)",
        artifact="beyond the paper",
        family="link_flap",
        preset="reservation",
        protocols=Protocol.multihop_family(),
        base_overrides={"hops": FAULT_HOPS},
        axes=(Axis("flap_rate", "explicit", values=FLAP_RATE_VALUES),),
        panels=(
            PanelSpec(
                name="a: inconsistency ratio",
                x_label="flap rate (outages per 1000 s, 30 s each)",
                y_label="inconsistency ratio I (any hop)",
                plans=(
                    SeriesPlan(
                        "sim",
                        axis="flap_rate",
                        binder="link_flap_rate",
                        metric="inconsistency",
                        label_suffix=" sim",
                    ),
                ),
            ),
            PanelSpec(
                name="b: signaling message rate",
                x_label="flap rate (outages per 1000 s, 30 s each)",
                y_label="per-link transmissions per second",
                plans=(
                    SeriesPlan(
                        "sim",
                        axis="flap_rate",
                        binder="link_flap_rate",
                        metric="message_rate",
                        label_suffix=" sim",
                    ),
                ),
            ),
        ),
        fidelities=(
            FidelityProfile("full", replications=5, sim_budget=20_000.0),
            FidelityProfile(
                "fast",
                axis_values={"flap_rate": FAST_FLAP_RATE_VALUES},
                replications=3,
                sim_budget=6_000.0,
            ),
            FidelityProfile(
                "smoke",
                axis_values={"flap_rate": SMOKE_FLAP_RATE_VALUES},
                replications=2,
                sim_budget=1_500.0,
            ),
        ),
        sim=SimPlan(seed=47, sessions_mode="fixed"),
        notes=(
            "the first hop flaps, disconnecting the whole chain from "
            "the sender during each outage; messages sent into a down "
            "link are lost deterministically",
            "no analytic flap model exists: both panels are "
            "simulation-only; ± is a 95% CI.",
        ),
    )
)
