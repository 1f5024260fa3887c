"""repro — a reproduction of Ji, Ge, Kurose & Towsley (SIGCOMM 2003),
"A Comparison of Hard-state and Soft-state Signaling Protocols".

The library has four layers:

* :mod:`repro.core` — the paper's contribution: a unified CTMC model of
  five signaling protocols (SS, SS+ER, SS+RT, SS+RTR, HS) in single-
  and multi-hop settings, with the inconsistency-ratio, message-rate
  and integrated-cost metrics.
* :mod:`repro.sim` — a from-scratch discrete-event simulation kernel
  (scheduled calls, lossy channels, time-weighted monitors).
* :mod:`repro.protocols` and :mod:`repro.multihop` — executable
  implementations of the five protocols on that kernel, used to
  validate the model exactly as the paper does (Figs. 11-12).
* :mod:`repro.experiments` — one declarative scenario spec per
  table/figure of the paper's evaluation, run by a generic executor,
  plus :mod:`repro.analysis`, which re-checks the paper's claims
  across plausible decodings of its garbled parameter digits.
* :mod:`repro.api` — the public facade: ``run_scenario``, ``sweep``,
  ``solve_singlehop``, ``solve_multihop``, ``list_scenarios``.

Quickstart::

    from repro import Protocol, SingleHopModel, kazaa_defaults

    solution = SingleHopModel(Protocol.SS_ER, kazaa_defaults()).solve()
    print(solution.inconsistency_ratio, solution.normalized_message_rate)

or, at the scenario level::

    import repro.api as api

    result = api.run_scenario("fig4", fidelity="fast",
                              overrides={"loss_rate": 0.05})
    print(result.to_text())
"""

from repro.core import (
    ContinuousTimeMarkovChain,
    MultiHopParameters,
    Protocol,
    SignalingParameters,
    SingleHopModel,
    SingleHopSolution,
    SingleHopState,
    kazaa_defaults,
    reservation_defaults,
    solve_all,
)
from repro.core.multihop import Topology, TreeModel, TreeSolution

# The canonical value lives in repro._version (a bottom layer) so that
# provenance stamping in lower layers never imports this facade.
from repro._version import __version__  # noqa: E402


def __getattr__(name: str):
    # Lazy: `repro.api` pulls in the experiment registry, which the
    # core modelling layers above must stay importable without.
    if name == "api":
        import repro.api

        return repro.api
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ContinuousTimeMarkovChain",
    "MultiHopParameters",
    "Protocol",
    "SignalingParameters",
    "SingleHopModel",
    "SingleHopSolution",
    "SingleHopState",
    "Topology",
    "TreeModel",
    "TreeSolution",
    "__version__",
    "api",
    "kazaa_defaults",
    "reservation_defaults",
    "solve_all",
]
