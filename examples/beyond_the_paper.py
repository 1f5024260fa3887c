#!/usr/bin/env python3
"""Beyond the paper: the extension toolkit in one tour.

Two analyses the paper does not include but its machinery enables:

1. **Transient analysis** — how long after a setup until the state is
   probably installed (uniformization on the same chain)?
2. **Heterogeneous paths** — what happens when one link on a multi-hop
   path is much lossier than the rest?

Run: ``python examples/beyond_the_paper.py``
"""

import numpy as np

from repro import Protocol, Topology, TreeModel, kazaa_defaults, reservation_defaults
from repro.core.multihop import HeterogeneousHop
from repro.runtime import solve_transient_curve
from repro.transient import time_to_consistency


def transient_tour() -> None:
    print("1. Transient analysis: P(consistent) after state setup")
    params = kazaa_defaults().replace(loss_rate=0.1)
    times = (0.05, 0.12, 0.5, 2.0)
    # Fine grid for the crossing: a tenth of the delay to ten refreshes.
    horizon = tuple(
        float(t)
        for t in np.geomspace(params.delay / 10, params.delay + 10 * params.refresh_interval, 512)
    )
    header = "   " + " ".join(f"t={t:<6g}" for t in times)
    print(header + "   t(P>=0.99)")
    for protocol in (Protocol.SS, Protocol.SS_RT):
        # Task: (protocol, params, topology, initial, faults, times).
        curve = solve_transient_curve((protocol, params, None, "empty", None, times))
        fine = solve_transient_curve((protocol, params, None, "empty", None, horizon))
        t99 = time_to_consistency(fine, target=0.99)
        cells = " ".join(f"{p:8.4f}" for p in curve.consistency)
        when = f"{t99:8.3f}s" if t99 != float("inf") else "   never"
        print(f"   {cells}   {when}   ({protocol.value})")
    print("   Reliable triggers shorten the tail: retransmissions beat "
          "waiting for the next refresh.\n")


def heterogeneous_tour() -> None:
    print("2. Heterogeneous path: one 20%-loss link in a 6-hop chain")
    params = reservation_defaults().replace(hops=6, loss_rate=0.005)
    chain = Topology.chain(6)
    clean = TreeModel(Protocol.SS, params, chain).solve()
    print("   per-hop inconsistency, hop 1 .. hop 6 (the last is end to end):")

    def row(label, solution):
        cells = " ".join(f"{value:.4f}" for value in solution.hop_profile())
        print(f"   {label:<18s} {cells}")

    row("clean chain:", clean)
    for position in (0, 5):
        hops = [HeterogeneousHop(0.005, 0.03) for _ in range(6)]
        hops[position] = HeterogeneousHop(0.20, 0.03)
        dirty = TreeModel(Protocol.SS, params, chain, links=hops).solve()
        row(f"bad link at hop {position + 1}:", dirty)
    print("   End to end the two read alike, but a lossy *first* link starves\n"
          "   every downstream hop of refreshes; a lossy last link only hurts\n"
          "   itself.")


def main() -> None:
    transient_tour()
    heterogeneous_tour()


if __name__ == "__main__":
    main()
