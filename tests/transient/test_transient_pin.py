"""Pin the uniformization kernel's outputs bit for bit.

Every kernel case is one ``(chain, grid)``: one of 27 chains (the five
single-hop recurrent chains; SS, SS+RT and HS chains of 1, 3 and 8 hops,
nominal and with the last link down; a 130-hop SS chain, whose 261
states run on the CSR operator; star(3) and kary(2,2) trees with edge 1
down; a 2-state chain) on one of four time grids (one time; a grid
holding t = 0; an unsorted grid with repeats; 200 times).  Each case
runs from a point mass and from a seeded random vector, and digests
every probability (as ``float.hex``), ``iterations`` and
``steady_state_detected`` of both runs.

The edge cases pin where a term-by-term loop and any blocked rewrite of
it can part: exits by Poisson mass after 127, 128, 129, 255, 256 and
257 power steps; steady-state exits after as many (a loose
``steady_state_tol`` moves the exit); the truncation backstop (a
``rel_tol`` the accumulated mass never reaches) with a block edge on
either side; and a grid of zeros only.  The scenario cases digest
``compute_transient_curve`` for the three transient scenarios' base
parameters, schedules and fast grids, through the piecewise driver.

A change to the kernel that keeps these passing keeps every transient
float unchanged.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.core.markov import ContinuousTimeMarkovChain
from repro.core.multihop import Topology
from repro.core.parameters import kazaa_defaults, reservation_defaults
from repro.core.protocols import Protocol
from repro.core.uniformization import uniformized_transient
from repro.experiments import scenario
from repro.experiments.spec import base_parameters
from repro.transient import compute_transient_curve
from repro.transient.families import (
    ChainTransientModel,
    SingleHopTransientModel,
    TreeTransientModel,
)

CHAIN_PROTOCOLS = (Protocol.SS, Protocol.SS_RT, Protocol.HS)
CHAIN_HOPS = (1, 3, 8)
TREES = {"star3": Topology.star(3), "kary2x2": Topology.kary(2, 2)}


def _singlehop(protocol: Protocol) -> ContinuousTimeMarkovChain:
    return SingleHopTransientModel(protocol, kazaa_defaults()).nominal_chain()


def _chain(protocol: Protocol, hops: int, down: bool = False) -> ContinuousTimeMarkovChain:
    model = ChainTransientModel(protocol, reservation_defaults().replace(hops=hops))
    return model.degraded_chain((hops,)) if down else model.nominal_chain()


def _tree_down(name: str) -> ContinuousTimeMarkovChain:
    topology = TREES[name]
    params = reservation_defaults().replace(hops=topology.num_edges)
    return TreeTransientModel(Protocol.SS, params, topology).degraded_chain((1,))


def _two_state() -> ContinuousTimeMarkovChain:
    return ContinuousTimeMarkovChain(("a", "b"), {("a", "b"): 1.0, ("b", "a"): 2.5})


#: ``chain name -> builder``.
BUILDERS = {
    **{f"singlehop-{p.value}": functools.partial(_singlehop, p) for p in Protocol},
    **{
        f"chain-{p.value}-{hops}hop{'-down' if down else ''}": functools.partial(
            _chain, p, hops, down
        )
        for p in CHAIN_PROTOCOLS
        for hops in CHAIN_HOPS
        for down in (False, True)
    },
    "chain-SS-130hop": functools.partial(_chain, Protocol.SS, 130),
    **{f"tree-SS-{name}-down": functools.partial(_tree_down, name) for name in TREES},
    "two-state": _two_state,
}


@functools.cache
def chain(name: str) -> ContinuousTimeMarkovChain:
    return BUILDERS[name]()


GRIDS = {
    "one": (3.0,),
    "zero": (0.0, 0.4, 12.0),
    "unsorted": (20.0, 1.5, 20.0, 0.3, 1.5, 45.0),
    "dense": tuple(float(t) for t in np.linspace(0.02, 60.0, 200)),
}


def starts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A point mass on the first state and a seeded random vector."""
    point = np.zeros(n)
    point[0] = 1.0
    spread = np.random.default_rng(27).random(n)
    return point, spread / spread.sum()


def _encode(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return tuple(_encode(item) for item in value)
    return value


def digest(values) -> str:
    """The digest of ``values``, floats rendered as ``float.hex``."""
    return hashlib.sha256(repr(_encode(values)).encode()).hexdigest()[:16]


def kernel_fields(result) -> tuple:
    return (
        result.probabilities.shape,
        result.iterations,
        result.steady_state_detected,
        result.probabilities.ravel().tolist(),
    )


#: ``"<chain>/<grid>" -> digest`` of both start vectors' results; the
#: comment gives each run's iterations, ``S`` marking a steady-state exit.
PINNED = {
    "singlehop-SS/one": "b64fa26c1495eec4",  # 178 178
    "singlehop-SS/zero": "aa14491adf6d485c",  # 549 549
    "singlehop-SS/unsorted": "91e36cda1af96533",  # 1781 1781
    "singlehop-SS/dense": "b8b8fe7715fc2e5c",  # 2601 2601
    "singlehop-SS+ER/one": "5668c160e90dd38c",  # 178 178
    "singlehop-SS+ER/zero": "676efcda58d98b1a",  # 549 549
    "singlehop-SS+ER/unsorted": "e11765c39b3be8a9",  # 1781 1781
    "singlehop-SS+ER/dense": "30137763e8289a23",  # 2601 2601
    "singlehop-SS+RT/one": "75ec56b0949d1b32",  # 178 178
    "singlehop-SS+RT/zero": "daabc6ec6828ee30",  # 549 549
    "singlehop-SS+RT/unsorted": "2a349ff724e291fd",  # 1781 1781
    "singlehop-SS+RT/dense": "46617c45f75f3288",  # 2601 2601
    "singlehop-SS+RTR/one": "7f5a38b7937d727a",  # 82S 91S
    "singlehop-SS+RTR/zero": "7eedd1766280ae4a",  # 82S 91S
    "singlehop-SS+RTR/unsorted": "060df1fb0ae99a31",  # 82S 91S
    "singlehop-SS+RTR/dense": "714aafea3b71c26c",  # 82S 91S
    "singlehop-HS/one": "412c277756c2074b",  # 84S 94S
    "singlehop-HS/zero": "ae5189b5cabbfef0",  # 84S 94S
    "singlehop-HS/unsorted": "2b62c2867802f043",  # 84S 94S
    "singlehop-HS/dense": "19c7961e94cda6f3",  # 84S 94S
    "chain-SS-1hop/one": "32b7f8e55b5bb68b",  # 178 178
    "chain-SS-1hop/zero": "1b36c9ac3e30285f",  # 549 549
    "chain-SS-1hop/unsorted": "49491930c477e6da",  # 1781 1781
    "chain-SS-1hop/dense": "012500d5ab0faf42",  # 2601 2601
    "chain-SS-1hop-down/one": "455ee8212020e92a",  # 5S 178
    "chain-SS-1hop-down/zero": "99e340ae12bea5d8",  # 5S 549
    "chain-SS-1hop-down/unsorted": "bc54aebfa26bddd7",  # 5S 1781
    "chain-SS-1hop-down/dense": "09a3b7fdd9c51c20",  # 5S 2601
    "chain-SS-3hop/one": "a76e6655b608b138",  # 178 178
    "chain-SS-3hop/zero": "37678e4ea5cd19c8",  # 549 549
    "chain-SS-3hop/unsorted": "dafb85a51082d3ad",  # 1778 1778
    "chain-SS-3hop/dense": "21599b2393860120",  # 2602 2602
    "chain-SS-3hop-down/one": "52081b8eff592289",  # 178 178
    "chain-SS-3hop-down/zero": "fe76e8d8be21656e",  # 549 549
    "chain-SS-3hop-down/unsorted": "38bc81a9a62cce37",  # 1778 1778
    "chain-SS-3hop-down/dense": "613e8ea7fedd7b70",  # 2320 2320
    "chain-SS-8hop/one": "f56afc66125d4a8d",  # 178 178
    "chain-SS-8hop/zero": "aa01d4c6d627eeeb",  # 549 549
    "chain-SS-8hop/unsorted": "095b1b7c2a9dc2a1",  # 1779 1779
    "chain-SS-8hop/dense": "8447940e39064cca",  # 2602 2602
    "chain-SS-8hop-down/one": "480c7e06d11f1f8d",  # 178 178
    "chain-SS-8hop-down/zero": "51dea7673e53a69a",  # 549 549
    "chain-SS-8hop-down/unsorted": "c78e6e5e1d7aad98",  # 1779 1779
    "chain-SS-8hop-down/dense": "46beb631e9ac16fe",  # 2602 2602
    "chain-SS+RT-1hop/one": "49bf95e89b259113",  # 82S 87S
    "chain-SS+RT-1hop/zero": "091ca4c2f7beef4a",  # 82S 87S
    "chain-SS+RT-1hop/unsorted": "d9af11117edf83bb",  # 82S 87S
    "chain-SS+RT-1hop/dense": "d836d3bc67b02a70",  # 82S 87S
    "chain-SS+RT-1hop-down/one": "455ee8212020e92a",  # 5S 178
    "chain-SS+RT-1hop-down/zero": "99e340ae12bea5d8",  # 5S 549
    "chain-SS+RT-1hop-down/unsorted": "bc54aebfa26bddd7",  # 5S 1781
    "chain-SS+RT-1hop-down/dense": "09a3b7fdd9c51c20",  # 5S 2601
    "chain-SS+RT-3hop/one": "52ca88257a3bfb19",  # 89S 97S
    "chain-SS+RT-3hop/zero": "421138bbbe56584e",  # 89S 97S
    "chain-SS+RT-3hop/unsorted": "53253f0b402696e6",  # 89S 97S
    "chain-SS+RT-3hop/dense": "0b9e4fe74c087ec2",  # 89S 97S
    "chain-SS+RT-3hop-down/one": "485c4a5225730ee4",  # 87S 178
    "chain-SS+RT-3hop-down/zero": "c13350d06692c4c8",  # 87S 549
    "chain-SS+RT-3hop-down/unsorted": "a0ab7b244320f112",  # 87S 1778
    "chain-SS+RT-3hop-down/dense": "f1a0be8c091ebe14",  # 87S 2320
    "chain-SS+RT-8hop/one": "3786f7dd47fdc1d8",  # 101S 104S
    "chain-SS+RT-8hop/zero": "cb64859ad49c1505",  # 101S 104S
    "chain-SS+RT-8hop/unsorted": "a62e7d56d4f20d21",  # 101S 104S
    "chain-SS+RT-8hop/dense": "e9749e3d9fd57996",  # 101S 104S
    "chain-SS+RT-8hop-down/one": "21cc38e20f4ec900",  # 100S 178
    "chain-SS+RT-8hop-down/zero": "b194f09643a201ad",  # 100S 549
    "chain-SS+RT-8hop-down/unsorted": "34c0fcadfce48f8c",  # 100S 1779
    "chain-SS+RT-8hop-down/dense": "d99100e83eb131df",  # 100S 2602
    "chain-HS-1hop/one": "4243c9e1ead4137f",  # 84S 89S
    "chain-HS-1hop/zero": "9ce0823cde1bc80a",  # 84S 89S
    "chain-HS-1hop/unsorted": "4c9b6183c1374bdc",  # 84S 89S
    "chain-HS-1hop/dense": "a9b18e254eb265ef",  # 84S 89S
    "chain-HS-1hop-down/one": "5836f71b857cc764",  # 21S 178
    "chain-HS-1hop-down/zero": "ec9589641450b5b3",  # 21S 548
    "chain-HS-1hop-down/unsorted": "e33104725d6e7cb7",  # 21S 1784
    "chain-HS-1hop-down/dense": "e48a7a2b476727c6",  # 21S 2601
    "chain-HS-3hop/one": "f125997bd6b380c9",  # 91S 135S
    "chain-HS-3hop/zero": "64b11b9c3223d288",  # 91S 135S
    "chain-HS-3hop/unsorted": "6a1dac1ebd15fa2a",  # 91S 135S
    "chain-HS-3hop/dense": "84fec0551b581456",  # 91S 135S
    "chain-HS-3hop-down/one": "4b3d290d14d4d488",  # 89S 178
    "chain-HS-3hop-down/zero": "84216f085965f95e",  # 89S 549
    "chain-HS-3hop-down/unsorted": "3b4234584c2bb70c",  # 89S 1781
    "chain-HS-3hop-down/dense": "14df974cc2d171dc",  # 89S 2602
    "chain-HS-8hop/one": "92b8aa2a074b8bb8",  # 178 178
    "chain-HS-8hop/zero": "32ba22eef3f9dcac",  # 243S 350S
    "chain-HS-8hop/unsorted": "5b0c33b94433c5f2",  # 243S 350S
    "chain-HS-8hop/dense": "f0f461b69bfdd145",  # 243S 350S
    "chain-HS-8hop-down/one": "5717bbf5f5b911b8",  # 178 178
    "chain-HS-8hop-down/zero": "7aaaf9c2993729c4",  # 243S 550
    "chain-HS-8hop-down/unsorted": "69c1acb11af69abe",  # 243S 1783
    "chain-HS-8hop-down/dense": "268c5776ee57403c",  # 243S 2331
    "chain-SS-130hop/one": "686ac7aade3f2fac",  # 178 178
    "chain-SS-130hop/zero": "c5b418aaa816502b",  # 549 549
    "chain-SS-130hop/unsorted": "09009b9bfe90f58c",  # 1802 1802
    "chain-SS-130hop/dense": "8572cb2427455c3a",  # 2606 2606
    "tree-SS-star3-down/one": "ca636bb1d2b5b532",  # 310 310
    "tree-SS-star3-down/zero": "56eef6f666937584",  # 1018 1018
    "tree-SS-star3-down/unsorted": "bf9fa2b3ca9c356c",  # 3418 3418
    "tree-SS-star3-down/dense": "7f037c4dfebbdbc3",  # 4867 4867
    "tree-SS-kary2x2-down/one": "a629541db74a6e34",  # 549 549
    "tree-SS-kary2x2-down/zero": "39c3edd9798b0ebc",  # 2145 2145
    "tree-SS-kary2x2-down/unsorted": "3274ce697b6c07f8",  # 6995 6995
    "tree-SS-kary2x2-down/dense": "80f68f2813157a1f",  # 9139 9139
    "two-state/one": "6bcb58385945e6d5",  # 31S 29S
    "two-state/zero": "df8b1904f7598154",  # 31S 29S
    "two-state/unsorted": "a041c85e4dcb992f",  # 31S 29S
    "two-state/dense": "3bff2a1e90532b02",  # 31S 29S
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_kernel_is_pinned(case):
    name, grid = case.split("/")
    ctmc = chain(name)
    fields = [
        kernel_fields(uniformized_transient(ctmc, start, GRIDS[grid]))
        for start in starts(len(ctmc.states))
    ]
    assert digest(fields) == PINNED[case]


def test_every_chain_and_grid_is_pinned():
    assert sorted(PINNED) == sorted(f"{name}/{grid}" for name in BUILDERS for grid in GRIDS)
    assert len(chain("chain-SS-130hop").states) == 261


#: ``(case id, times, rel_tol, steady_state_tol, iterations, steady
#: state detected, digest)`` on the nominal 3-hop SS chain from a point
#: mass on its first state.  Mass exits step with ``times``; steady-state
#: exits with a ``steady_state_tol`` loose enough to fire first; the
#: backstop fires when ``1 - rel_tol`` rounds to 1.0 and the accumulated
#: mass stays below it, after ``cap + 1`` steps.
EDGES = (
    ("mass-127", (1.9,), 1e-12, 1e-12, 127, False, "dda4c2f7537ccf61"),
    ("mass-128", (1.92,), 1e-12, 1e-12, 128, False, "bfff5b9bab5fbb26"),
    ("mass-129", (1.94,), 1e-12, 1e-12, 129, False, "7d896f195432babc"),
    ("mass-255", (4.75,), 1e-12, 1e-12, 255, False, "1702c9cb6acbbed0"),
    ("mass-256", (4.773,), 1e-12, 1e-12, 256, False, "027b92c6a6dfabdc"),
    ("mass-257", (4.8,), 1e-12, 1e-12, 257, False, "87cfc5f71e0a0359"),
    ("steady-127", (500.0,), 1e-12, 0.000311, 127, True, "0387d7bb6307315e"),
    ("steady-128", (500.0,), 1e-12, 0.00031, 128, True, "7bc33b97777b104f"),
    ("steady-129", (500.0,), 1e-12, 0.000307, 129, True, "3f7210d58d0abdd7"),
    ("steady-255", (500.0,), 1e-12, 0.000141, 255, True, "fedd0c8e3e92c1b8"),
    ("steady-256", (500.0,), 1e-12, 0.0001405, 256, True, "d30c1903e15a7933"),
    ("steady-257", (500.0,), 1e-12, 0.00014, 257, True, "65687148722b787e"),
    ("cap-t0.05", (0.05,), 1e-300, 1e-12, 86, False, "7340005dc263e8c0"),
    ("cap-t0.5", (0.5,), 1e-300, 1e-12, 132, False, "f93ab069fa6b4140"),
    ("cap-t2.5", (2.5,), 1e-300, 1e-12, 258, False, "6bf87944d54f64e4"),
    ("zeros-only", (0.0, 0.0), 1e-12, 1e-12, 0, False, "9cde0b364370097c"),
)


@pytest.mark.parametrize("edge", EDGES, ids=[edge[0] for edge in EDGES])
def test_block_edges_are_pinned(edge):
    _, times, rel_tol, steady_state_tol, iterations, steady, pinned = edge
    ctmc = chain("chain-SS-3hop")
    point, _ = starts(len(ctmc.states))
    result = uniformized_transient(
        ctmc, point, times, rel_tol=rel_tol, steady_state_tol=steady_state_tol
    )
    assert (result.iterations, result.steady_state_detected) == (iterations, steady)
    assert digest(kernel_fields(result)) == pinned


SCENARIOS = ("time_to_consistency", "recovery_flap", "recovery_crash")

#: ``scenario id -> digest`` of every protocol's fast-grid curve.
PINNED_SCENARIOS = {
    "time_to_consistency": "52a30fae449d248f",
    "recovery_flap": "58b2b1be737b9782",
    "recovery_crash": "24edcecb075f4779",
}


@pytest.mark.parametrize("scenario_id", SCENARIOS)
def test_scenario_curves_are_pinned(scenario_id):
    spec = scenario(scenario_id)
    params = base_parameters(spec)
    times = spec.fidelity("fast").axis_value_map()["time"]
    curves = [
        compute_transient_curve(
            protocol,
            params,
            times,
            initial=spec.transient.initial,
            faults=spec.transient.faults,
        )
        for protocol in spec.protocols
    ]
    fields = [(curve.protocol.value, curve.times, curve.consistency) for curve in curves]
    assert digest(fields) == PINNED_SCENARIOS[scenario_id]
