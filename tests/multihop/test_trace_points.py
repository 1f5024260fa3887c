"""The benchmark's ``--trace 1`` sees each multihop replication once.

``perfbench/tracing.py`` patches ``MultiHopSimulation.run`` and
``TreeSimulation.run`` from outside the program and adds their spans
into engine time.  A renamed or removed ``run`` would read 0, and a
chain ``run`` that called the tree's would count chain time twice; no
``--trace 1`` run fails either way, so this test does.
"""

from __future__ import annotations

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench import tracing

import repro.multihop
from repro.core.multihop import Topology
from repro.core.parameters import reservation_defaults
from repro.core.protocols import Protocol
from repro.experiments import simsupport
from repro.multihop.chain import MultiHopSimulation
from repro.multihop.config import MultiHopSimConfig
from repro.multihop.tree import TreeSimulation


def has_ancestor(spans, index, name) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def test_each_replication_is_one_span():
    chain_run = MultiHopSimulation.__dict__["run"]
    tree_run = TreeSimulation.__dict__["run"]
    topology = Topology.kary(2, 2)
    tree_config = MultiHopSimConfig(
        protocol=Protocol.SS_RT,
        params=reservation_defaults().replace(hops=topology.num_edges),
        horizon=200.0,
        warmup=20.0,
        seed=7,
    )
    chain_task = (Protocol.SS_RT, reservation_defaults().replace(hops=3), None, None, 200.0, 2, 7)

    tracer = tracing.Tracer()
    instrumentation = tracing.instrument(tracer)
    try:
        simsupport.simulate_faulted_multihop_batch([chain_task], jobs=1)
        repro.multihop.simulate_tree_replications(tree_config, topology, 2)
    finally:
        instrumentation.close()

    names = [span[0] for span in tracer.spans]
    assert names.count("multihop.chain") == 2
    assert names.count("multihop.tree") == 2
    assert not any(
        has_ancestor(tracer.spans, index, "multihop.chain")
        for index, name in enumerate(names)
        if name == "multihop.tree"
    )
    assert MultiHopSimulation.__dict__["run"] is chain_run
    assert TreeSimulation.__dict__["run"] is tree_run
