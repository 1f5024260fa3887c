"""Benchmark: cold start — importing the program and compiling one structure.

A process pays two costs before its first solve: importing the program,
and compiling each chain structure it meets.  Each compile here starts
cold: every ``functools`` lru cache of ``repro.core`` is cleared and the
topology is built afresh before each round, so state enumeration, spec
lists and the COO compile are all timed.

A cold ``TreeTemplate(SS, Topology.chain(128))`` compiles the paper's
257-state chain, the structure every 128-hop chain sweep solves on.  The
import probe runs a fresh interpreter, so it times what a new worker or
CLI call pays.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core.multihop import Topology
from repro.core.protocols import Protocol
from repro.core.templates import LumpedTreeTemplate, TreeTemplate

#: The program's entry points: the runtime, the simulators, the API and the CLI.
PROGRAM_MODULES = (
    "repro.runtime",
    "repro.multihop",
    "repro.experiments.simsupport",
    "repro.api",
    "repro.cli",
)

_IMPORT_PROBE = """\
import importlib, sys
sys.path.insert(0, sys.argv[1])
for name in sys.argv[2:]:
    importlib.import_module(name)
"""


def _clear_core_caches() -> None:
    """Empty every lru cache defined in a ``repro.core`` module."""
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("repro.core") or module is None:
            continue
        for attr in vars(module).values():
            if hasattr(attr, "cache_clear") and getattr(attr, "__module__", None) == name:
                attr.cache_clear()


def _cold(shape):
    """pedantic setup: clear the caches, hand over a fresh topology."""

    def setup():
        _clear_core_caches()
        return (getattr(Topology, shape[0])(*shape[1:]),), {}

    return setup


@pytest.mark.parametrize(
    ("template", "shape", "states"),
    [
        (TreeTemplate, ("chain", 128), 257),
        (LumpedTreeTemplate, ("star", 64), 2145),
        (TreeTemplate, ("kary", 2, 2), 121),
    ],
    ids=["tree_chain128", "lumped_star64", "tree_kary2x2"],
)
def test_bench_cold_compile(benchmark, template, shape, states):
    compiled = benchmark.pedantic(
        lambda topology: template(Protocol.SS, topology),
        setup=_cold(shape),
        rounds=5,
        iterations=1,
    )
    assert len(compiled.states) == states


def test_bench_cold_import(benchmark):
    source = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    benchmark.pedantic(
        subprocess.run,
        args=([sys.executable, "-c", _IMPORT_PROBE, source, *PROGRAM_MODULES],),
        kwargs={"check": True},
        rounds=3,
        iterations=1,
    )
