"""Pin the event engine's single-hop and tree outputs bit for bit.

Each case runs one :class:`SingleHopSimulation` or :class:`TreeSimulation`
on the scalar event engine and compares a digest of every measured
output (floats as ``float.hex``) against the recorded value.  The cases
cover all five single-hop protocols under deterministic, exponential
and jittered timers (with exponential delays, so the channel's
non-reordering clamp delivers several messages at one instant), on
i.i.d. loss, a Gilbert-Elliott channel and a sample grid; and SS, SS+RT
and HS on three branching trees under i.i.d. loss, a node crash and a
link flap.

Any change to the order of random draws, event scheduling or monitor
switching moves a digest, so an engine or timer refactor that keeps
these passing keeps every simulation output unchanged.
``tests/multihop/test_chain_pin.py`` pins unary trees the same way.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.core.multihop.topology import Topology
from repro.core.parameters import kazaa_defaults, reservation_defaults
from repro.core.protocols import Protocol
from repro.faults import FaultSchedule, GilbertElliottParameters, LinkFlap, NodeCrash
from repro.multihop.config import MultiHopSimConfig
from repro.multihop.tree import TreeSimulation
from repro.protocols.config import SingleHopSimConfig
from repro.protocols.session import SingleHopSimulation
from repro.sim.randomness import TimerDiscipline

DET = TimerDiscipline.DETERMINISTIC
EXP = TimerDiscipline.EXPONENTIAL
JIT = TimerDiscipline.JITTERED

GILBERT = GilbertElliottParameters(0.01, 0.5, 0.1, 1.0)

# -- single hop ---------------------------------------------------------

#: (timer discipline, delay discipline) pairs.
SINGLEHOP_DISCIPLINES = ((DET, DET), (EXP, EXP), (JIT, EXP))
SINGLEHOP_CHANNELS = ("iid", "gilbert", "grid")
SINGLEHOP_GRID = tuple(15.0 * k for k in range(40))
SINGLEHOP_CASES = list(
    itertools.product(Protocol, SINGLEHOP_DISCIPLINES, SINGLEHOP_CHANNELS)
)


def singlehop_params():
    # Short sessions, heavy loss and frequent false signals, so every
    # timer restarts, expires and retransmits many times per run.
    return kazaa_defaults().replace(
        loss_rate=0.2,
        removal_rate=1.0 / 60.0,
        update_rate=0.1,
        external_false_signal_rate=0.01,
    )


def singlehop_config(protocol, disciplines, channel):
    timer_discipline, delay_discipline = disciplines
    extra = {}
    if channel == "gilbert":
        extra["gilbert"] = GILBERT
    elif channel == "grid":
        extra["sample_times"] = SINGLEHOP_GRID
    return SingleHopSimConfig(
        protocol=protocol,
        params=singlehop_params(),
        timer_discipline=timer_discipline,
        delay_discipline=delay_discipline,
        sessions=20,
        seed=2111,
        **extra,
    )


def singlehop_id(case):
    protocol, (timer_discipline, delay_discipline), channel = case
    return (
        f"{protocol.value}-{timer_discipline.value[:3]}-"
        f"{delay_discipline.value[:3]}-{channel}"
    )


# -- trees --------------------------------------------------------------

TOPOLOGIES = {
    "star3": Topology.star(3),
    "kary2x2": Topology.kary(2, 2),
    "broom2x3": Topology.broom(2, 3),
}
TREE_SCENARIOS = ("iid", "crash", "flap")
TREE_DISCIPLINES = (DET, EXP)
TREE_CASES = list(
    itertools.product(
        TOPOLOGIES, Protocol.multihop_family(), TREE_DISCIPLINES, TREE_SCENARIOS
    )
)


def tree_config(shape, protocol, discipline, scenario):
    topology = TOPOLOGIES[shape]
    extra = {}
    if scenario == "crash":
        extra["faults"] = FaultSchedule(
            crashes=(NodeCrash(node=1, at=120.0, restart_after=10.0),)
        )
    elif scenario == "flap":
        extra["faults"] = FaultSchedule(
            flaps=(LinkFlap(link=topology.num_edges, period=40.0, down_duration=8.0),)
        )
    return MultiHopSimConfig(
        protocol=protocol,
        params=reservation_defaults().replace(
            hops=topology.num_edges,
            loss_rate=0.05,
            update_rate=0.1,
            external_false_signal_rate=0.01,
        ),
        horizon=300.0,
        warmup=50.0,
        timer_discipline=discipline,
        delay_discipline=discipline,
        seed=1703,
        **extra,
    )


def tree_id(case):
    shape, protocol, discipline, scenario = case
    return f"{shape}-{protocol.value}-{discipline.value[:3]}-{scenario}"


def digest(*values) -> str:
    def encode(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, (list, tuple)):
            return tuple(encode(item) for item in value)
        return value

    return hashlib.sha256(repr(encode(values)).encode()).hexdigest()[:16]


def singlehop_digest(case) -> str:
    result = SingleHopSimulation(singlehop_config(*case)).run()
    return digest(
        result.sim_time,
        result.inconsistent_time,
        sorted(result.message_counts.items()),
        result.timeout_removals,
        result.false_signal_removals,
        result.consistency_samples,
    )


def tree_digest(case) -> str:
    result = TreeSimulation(tree_config(*case), TOPOLOGIES[case[0]]).run()
    return digest(
        result.measured_time,
        result.node_inconsistent_time,
        result.any_inconsistent_time,
        result.link_transmissions,
        result.consistency_samples,
    )


PINNED = {
    "SS-det-det-iid": "1383d7d565d4bba9",
    "SS-det-det-gilbert": "a90a699cbe2cc70f",
    "SS-det-det-grid": "8d6414029786b9b9",
    "SS-exp-exp-iid": "9b34a8c4257d6247",
    "SS-exp-exp-gilbert": "fea0ac6ca0376c61",
    "SS-exp-exp-grid": "9815da2277ac560a",
    "SS-jit-exp-iid": "ec9bbb92d5f288a0",
    "SS-jit-exp-gilbert": "4c98dd62f885d89f",
    "SS-jit-exp-grid": "a50924d998e9e78b",
    "SS+ER-det-det-iid": "684e0e42a4b894e6",
    "SS+ER-det-det-gilbert": "0d79d504c63190a1",
    "SS+ER-det-det-grid": "d55eaec39a2025de",
    "SS+ER-exp-exp-iid": "393aa0f6b9960591",
    "SS+ER-exp-exp-gilbert": "c850b450d7ba3076",
    "SS+ER-exp-exp-grid": "735c095ff086db56",
    "SS+ER-jit-exp-iid": "8c3484528260c444",
    "SS+ER-jit-exp-gilbert": "01f8cc7f52312fa1",
    "SS+ER-jit-exp-grid": "f99497fd171032e4",
    "SS+RT-det-det-iid": "1b31ccc4f60e9459",
    "SS+RT-det-det-gilbert": "d44a9cb9b2cffd7f",
    "SS+RT-det-det-grid": "c43736fb8d720efd",
    "SS+RT-exp-exp-iid": "d3b8705149a50f57",
    "SS+RT-exp-exp-gilbert": "bcd80c386922fc55",
    "SS+RT-exp-exp-grid": "a3bdb78ee6459d71",
    "SS+RT-jit-exp-iid": "5dce245f3a8fe510",
    "SS+RT-jit-exp-gilbert": "b68591ac6e21ec93",
    "SS+RT-jit-exp-grid": "6e5fe51a34525507",
    "SS+RTR-det-det-iid": "08b1ade97f007173",
    "SS+RTR-det-det-gilbert": "377cf01e87f8c9b4",
    "SS+RTR-det-det-grid": "1e33c65a5dfc9632",
    "SS+RTR-exp-exp-iid": "a5e442d8f8e8571c",
    "SS+RTR-exp-exp-gilbert": "3eff4f3776f235a0",
    "SS+RTR-exp-exp-grid": "589cc29f9c6c9bfd",
    "SS+RTR-jit-exp-iid": "af559f7192b4b172",
    "SS+RTR-jit-exp-gilbert": "ad59510cda471f86",
    "SS+RTR-jit-exp-grid": "17c6fcbb600abcfc",
    "HS-det-det-iid": "61a54699c794bf6a",
    "HS-det-det-gilbert": "a229bc4eaa2bdda5",
    "HS-det-det-grid": "52567ec1a4bd2aa3",
    "HS-exp-exp-iid": "ad5d9dfcf15048c1",
    "HS-exp-exp-gilbert": "60441201cbcff1d3",
    "HS-exp-exp-grid": "d14ed463eb6e71c5",
    "HS-jit-exp-iid": "74683dc4a2e2f068",
    "HS-jit-exp-gilbert": "57c6ff275152d8f8",
    "HS-jit-exp-grid": "c9f3d6e65816be3a",
    "star3-SS-det-iid": "97d58da99eac43db",
    "star3-SS-det-crash": "0d708f7c1021e3d9",
    "star3-SS-det-flap": "75c0f7683d675dd5",
    "star3-SS-exp-iid": "0355302a84a4c7d1",
    "star3-SS-exp-crash": "ffff18decf727b82",
    "star3-SS-exp-flap": "c8058672e1696e78",
    "star3-SS+RT-det-iid": "85c8cb312ba6b55a",
    "star3-SS+RT-det-crash": "8bcbc6ad2c629b5a",
    "star3-SS+RT-det-flap": "d54803747ea82672",
    "star3-SS+RT-exp-iid": "afc2557d0c804889",
    "star3-SS+RT-exp-crash": "7367493a5d821a64",
    "star3-SS+RT-exp-flap": "3868d78359523618",
    "star3-HS-det-iid": "fbc482c3479ac16a",
    "star3-HS-det-crash": "2951434b3fd95396",
    "star3-HS-det-flap": "ee1e384e8357fb87",
    "star3-HS-exp-iid": "99adc3225e15af0c",
    "star3-HS-exp-crash": "edb874f0084b2afc",
    "star3-HS-exp-flap": "78b95143391bf98f",
    "kary2x2-SS-det-iid": "c2f7f3b884f81647",
    "kary2x2-SS-det-crash": "a65c31e927ea05fd",
    "kary2x2-SS-det-flap": "15f7830443eb24ae",
    "kary2x2-SS-exp-iid": "50d5363e55ee338d",
    "kary2x2-SS-exp-crash": "e163cac632de1dec",
    "kary2x2-SS-exp-flap": "b3dac6210f2003d8",
    "kary2x2-SS+RT-det-iid": "33b650698f9915cb",
    "kary2x2-SS+RT-det-crash": "9a7c139952ddc1e4",
    "kary2x2-SS+RT-det-flap": "06a28076609104b8",
    "kary2x2-SS+RT-exp-iid": "a36b243204d820de",
    "kary2x2-SS+RT-exp-crash": "fcfa30f76d9759cb",
    "kary2x2-SS+RT-exp-flap": "4df4a5320842a27a",
    "kary2x2-HS-det-iid": "4acea30b37805691",
    "kary2x2-HS-det-crash": "c90ba204415cf5fc",
    "kary2x2-HS-det-flap": "00e699f67a3c2d24",
    "kary2x2-HS-exp-iid": "3b49e18727cb4cd0",
    "kary2x2-HS-exp-crash": "1d6dd683f60a7f00",
    "kary2x2-HS-exp-flap": "bb963b1e1a293096",
    "broom2x3-SS-det-iid": "de79b9199e9f3ba2",
    "broom2x3-SS-det-crash": "fe0cec60cba03f96",
    "broom2x3-SS-det-flap": "a160b05bbadffdc2",
    "broom2x3-SS-exp-iid": "df2b2c9914c9fe90",
    "broom2x3-SS-exp-crash": "a30d73fe7dcaef81",
    "broom2x3-SS-exp-flap": "eb03a8a021c08b33",
    "broom2x3-SS+RT-det-iid": "69c6ba30f72f44bc",
    "broom2x3-SS+RT-det-crash": "66a5bb1e1293d914",
    "broom2x3-SS+RT-det-flap": "435565f55c9eca17",
    "broom2x3-SS+RT-exp-iid": "ba8616df3e12a530",
    "broom2x3-SS+RT-exp-crash": "b320592de9c40813",
    "broom2x3-SS+RT-exp-flap": "d39379f8ed337bca",
    "broom2x3-HS-det-iid": "383986d2bcb7584f",
    "broom2x3-HS-det-crash": "2f9ce0b67954bc56",
    "broom2x3-HS-det-flap": "2e8833d037dadc38",
    "broom2x3-HS-exp-iid": "6a629ade4bc5b013",
    "broom2x3-HS-exp-crash": "3618770a26e0adbd",
    "broom2x3-HS-exp-flap": "9e4682eaa9f68c93",
}


@pytest.mark.parametrize("case", SINGLEHOP_CASES, ids=singlehop_id)
def test_singlehop_outputs_pinned(case):
    assert singlehop_digest(case) == PINNED[singlehop_id(case)]


@pytest.mark.parametrize("case", TREE_CASES, ids=tree_id)
def test_tree_outputs_pinned(case):
    assert tree_digest(case) == PINNED[tree_id(case)]
