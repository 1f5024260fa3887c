"""Pin the chain simulator's outputs bit for bit.

Every case runs one :class:`MultiHopSimulation` and compares a digest of
its per-hop inconsistent times, any-hop time, transmission count and
consistency samples (floats as ``float.hex``) against the recorded
value.  Any change to the order of random draws, event scheduling or
monitor switching moves a digest, so a harness refactor that keeps
these passing keeps every chain output unchanged.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.core.parameters import reservation_defaults
from repro.core.protocols import Protocol
from repro.experiments.simsupport import (
    simulate_faulted_multihop_point,
    simulate_transient_curve_point,
)
from repro.faults import FaultSchedule, GilbertElliottParameters, LinkFlap, NodeCrash
from repro.multihop.chain import MultiHopSimulation
from repro.multihop.config import MultiHopSimConfig
from repro.sim.randomness import TimerDiscipline

GILBERT = GilbertElliottParameters(0.01, 0.5, 0.1, 1.0)
GRID = tuple(50.0 + 6.0 * k for k in range(40))
SCENARIOS = ("iid", "gilbert", "flap", "crash", "grid")
DISCIPLINES = (TimerDiscipline.DETERMINISTIC, TimerDiscipline.EXPONENTIAL)
CASES = list(
    itertools.product(Protocol.multihop_family(), (1, 3), SCENARIOS, DISCIPLINES)
)


def params(hops):
    return reservation_defaults().replace(
        hops=hops, loss_rate=0.05, update_rate=0.1, external_false_signal_rate=0.01
    )


def case_config(protocol, hops, scenario, discipline):
    extra = {}
    if scenario == "gilbert":
        extra["gilbert"] = GILBERT
    elif scenario == "flap":
        extra["faults"] = FaultSchedule(
            flaps=(LinkFlap(link=hops, period=40.0, down_duration=8.0),)
        )
    elif scenario == "crash":
        extra["faults"] = FaultSchedule(
            crashes=(NodeCrash(node=1, at=120.0, restart_after=10.0),)
        )
    elif scenario == "grid":
        extra["sample_times"] = GRID
    return MultiHopSimConfig(
        protocol=protocol,
        params=params(hops),
        horizon=300.0,
        warmup=50.0,
        timer_discipline=discipline,
        delay_discipline=discipline,
        seed=1703,
        **extra,
    )


def case_id(case):
    protocol, hops, scenario, discipline = case
    return f"{protocol.value}-{hops}hop-{scenario}-{discipline.value[:3]}"


def digest(*values) -> str:
    def encode(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, (list, tuple)):
            return tuple(encode(item) for item in value)
        return value

    return hashlib.sha256(repr(encode(values)).encode()).hexdigest()[:16]


PINNED = {
    "SS-1hop-iid-det": "8239984cb47c343c",
    "SS-1hop-iid-exp": "981e0ddb992e4c2d",
    "SS-1hop-gilbert-det": "0518e79b5fadbc95",
    "SS-1hop-gilbert-exp": "ca2e6325512fd6ca",
    "SS-1hop-flap-det": "5dc5fe8834d7da9a",
    "SS-1hop-flap-exp": "1c246cf36b347397",
    "SS-1hop-crash-det": "2497e961df012086",
    "SS-1hop-crash-exp": "d02885db9e370007",
    "SS-1hop-grid-det": "4af8617aad40ee70",
    "SS-1hop-grid-exp": "99368daa3052881c",
    "SS-3hop-iid-det": "17630399b7157036",
    "SS-3hop-iid-exp": "791bddb9119b0f18",
    "SS-3hop-gilbert-det": "6116106c1a31a752",
    "SS-3hop-gilbert-exp": "e5d4ba35d14c5663",
    "SS-3hop-flap-det": "67e507db7c7c4580",
    "SS-3hop-flap-exp": "4bcda8ff7eb0cdf0",
    "SS-3hop-crash-det": "c160957a41fa292d",
    "SS-3hop-crash-exp": "26a6054c4d21fdbd",
    "SS-3hop-grid-det": "aa6ac75d578203ad",
    "SS-3hop-grid-exp": "c8bc7e72da6b9f44",
    "SS+RT-1hop-iid-det": "74fb1d9538a6dc05",
    "SS+RT-1hop-iid-exp": "86b8a5184d515c20",
    "SS+RT-1hop-gilbert-det": "1116dcdf40368f61",
    "SS+RT-1hop-gilbert-exp": "af55c84fb65cfb7d",
    "SS+RT-1hop-flap-det": "00fd8dee1a63bff5",
    "SS+RT-1hop-flap-exp": "cab36c3764d2eabd",
    "SS+RT-1hop-crash-det": "fa6ec8bce311af20",
    "SS+RT-1hop-crash-exp": "e01ac58acf9f7ac5",
    "SS+RT-1hop-grid-det": "381b32231b190deb",
    "SS+RT-1hop-grid-exp": "134b29ddf367bdf0",
    "SS+RT-3hop-iid-det": "1b3fab283bb1383d",
    "SS+RT-3hop-iid-exp": "1e716ab60b6a10cb",
    "SS+RT-3hop-gilbert-det": "e1a0012496b527c1",
    "SS+RT-3hop-gilbert-exp": "a497ba17a8684760",
    "SS+RT-3hop-flap-det": "ee8d6fd2df066a9d",
    "SS+RT-3hop-flap-exp": "7ed656ff9d853573",
    "SS+RT-3hop-crash-det": "83e3e27d814c7e61",
    "SS+RT-3hop-crash-exp": "6bd54749e6043cbe",
    "SS+RT-3hop-grid-det": "4c220ce13b14602d",
    "SS+RT-3hop-grid-exp": "7c091e9fef079475",
    "HS-1hop-iid-det": "a0575fdeed364088",
    "HS-1hop-iid-exp": "10a1dddf39d97cd5",
    "HS-1hop-gilbert-det": "33b025960266db73",
    "HS-1hop-gilbert-exp": "0eab084069c74f6f",
    "HS-1hop-flap-det": "51508a21c92254a6",
    "HS-1hop-flap-exp": "e19073ce97c1a439",
    "HS-1hop-crash-det": "abaa07fe7a06b36d",
    "HS-1hop-crash-exp": "1ba67c10e1dd9978",
    "HS-1hop-grid-det": "3c6414ae439de885",
    "HS-1hop-grid-exp": "fb4a64bcb0d4bd3c",
    "HS-3hop-iid-det": "7c62c316f557f2b4",
    "HS-3hop-iid-exp": "c5b9e2739e30d11e",
    "HS-3hop-gilbert-det": "175fe52cb42023b7",
    "HS-3hop-gilbert-exp": "74b6b234a7494bd6",
    "HS-3hop-flap-det": "4917df4b76f6881b",
    "HS-3hop-flap-exp": "26fdbaae138a6a0e",
    "HS-3hop-crash-det": "8d0b88ae5bf3e7c2",
    "HS-3hop-crash-exp": "8e38853a39f31412",
    "HS-3hop-grid-det": "0274c17039ba4774",
    "HS-3hop-grid-exp": "dad5af436cd06124",
    "faulted-point": "3a2f53a53f83ba70",
    "transient-curve": "a14053cfb693dd81",
}


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_chain_outputs_pinned(case):
    result = MultiHopSimulation(case_config(*case)).run()
    assert result.hops == case[1]
    assert result.measured_time == 250.0
    observed = digest(
        result.hop_inconsistent_time,
        result.any_inconsistent_time,
        result.link_transmissions,
        result.consistency_samples,
    )
    assert observed == PINNED[case_id(case)]


def test_faulted_point_pinned():
    point = simulate_faulted_multihop_point(
        Protocol.SS_RT,
        params(3),
        gilbert=GILBERT,
        faults=FaultSchedule(flaps=(LinkFlap(link=2, period=60.0, down_duration=10.0),)),
        horizon=400.0,
        replications=3,
        seed=5,
    )
    observed = (
        point.inconsistency,
        point.inconsistency_err,
        point.message_rate,
        point.message_rate_err,
    )
    assert digest(observed) == PINNED["faulted-point"]


def test_transient_curve_pinned():
    curve = simulate_transient_curve_point(
        Protocol.SS,
        params(3),
        faults=FaultSchedule(crashes=(NodeCrash(node=2, at=10.0, restart_after=5.0),)),
        warmup=50.0,
        times=tuple(2.0 * k for k in range(21)),
        replications=3,
        seed=9,
    )
    assert digest(curve.times, curve.means, curve.half_widths) == PINNED["transient-curve"]
