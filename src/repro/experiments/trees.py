"""Tree-topology scenarios — multicast fan-out, beyond the paper.

The paper's multi-hop analysis covers one linear chain of relays; a
gossip/multicast dissemination setting (PAPERS.md, Femminella et al.)
distributes the same soft state down a *tree*: the sender at the root,
receivers at the leaves, every edge an independent lossy hop.  Two
scenarios probe the new workload class:

* ``tree_fanout`` — widen the tree at fixed depth: a ``k``-leaf star
  against a broom (two-hop access path into a ``k``-way replication
  point), sweeping ``k``.  Fan-out multiplies frontier edges, so the
  any-leaf inconsistency grows with ``k`` while the *mean* leaf barely
  moves — exactly the aggregation question chains cannot ask.
* ``tree_depth`` — deepen the tree at fixed fan-out: the maximally
  skewed (caterpillar) binary tree and a broom (spine into one final
  2-way split) sweep depth 1..4, while the complete binary tree runs
  on its own short axis in the same panels (``shared_x=False``) —
  historically capped at depth 2 by
  :data:`~repro.core.multihop.tree_states.MAX_TREE_STATES`, and kept
  there so the scenario's numbers stay on the exact direct path.
* ``tree_deep`` — past the 4096-state wall: complete binary trees to
  depth 3 (15129 raw states → 741 orbits) and ternary trees to depth 2
  (24389 → 364) solve *exactly* through the sibling-subtree lumping of
  :mod:`repro.core.multihop.lumping`, while deep caterpillars — whose
  orbits barely compress — cross into the ILU/GMRES iterative backend
  at depth 8.
* ``tree_wide`` — fan-outs to 64: a ``k``-leaf star's ``3^k`` raw
  states collapse to ``C(k+2, 2)`` orbits, so widths that would be
  astronomically unsolvable directly (``3^64`` states) are a few
  thousand lumped states.

All run SS, SS+RT and HS through the compiled tree-template batch
path with per-topology backend auto-routing
(:func:`~repro.core.multihop.lumping.select_tree_backend`); fan-out-1
/ depth-1 points are unary trees, the paper's chain itself.
"""

from __future__ import annotations

from repro.core.multihop.topology import Topology
from repro.core.protocols import Protocol
from repro.experiments.spec import (
    Axis,
    FidelityProfile,
    PanelSpec,
    ScenarioSpec,
    SeriesPlan,
    register_binder,
    register_metric,
    register_scenario,
)

__all__ = ["DEEP_SPEC", "DEPTH_SPEC", "FANOUT_SPEC", "WIDE_SPEC"]

#: Swept fan-outs.  A ``k``-leaf star has ``3^k`` states, so the full
#: sweep tops out at 729-state chains (sparse-template territory).
FANOUT_VALUES = (1, 2, 3, 4, 5, 6)
FAST_FANOUT_VALUES = (1, 2, 4)
SMOKE_FANOUT_VALUES = (1, 2)

#: Swept depths for the cheap deep shapes (skewed / broom).
DEPTH_VALUES = (1, 2, 3, 4)
FAST_DEPTH_VALUES = (1, 2, 3)
SMOKE_DEPTH_VALUES = (1, 2)

#: Swept depths for the complete binary tree in ``tree_depth``, whose
#: raw state count is doubly exponential in depth (121 states at depth
#: 2, 15129 at depth 3).  Depth 3 is solvable now — exactly, through
#: the orbit lumping — but routes off the direct bit-parity path, so
#: ``tree_depth`` stays at depth 2 and ``tree_deep`` owns the deeper
#: axis.
BINARY_DEPTH_VALUES = (1, 2)

#: ``tree_deep`` axes: binary to depth 3 (741 orbits), ternary to
#: depth 2 (364 orbits) — both exact via lumping — and caterpillars to
#: depth 8 (8747 raw states, trivial orbits, iterative backend).
DEEP_BINARY_DEPTH_VALUES = (1, 2, 3)
DEEP_TERNARY_DEPTH_VALUES = (1, 2)
DEEP_SKEWED_DEPTH_VALUES = (5, 6, 7, 8)
FAST_DEEP_SKEWED_DEPTH_VALUES = (5, 6, 7)
SMOKE_DEEP_SKEWED_DEPTH_VALUES = (5, 6)

#: ``tree_wide`` fan-outs: ``star(64)`` has ``3^64`` raw states and
#: 2211 orbits.
WIDE_FANOUT_VALUES = (8, 16, 32, 48, 64)
FAST_WIDE_FANOUT_VALUES = (8, 32)
SMOKE_WIDE_FANOUT_VALUES = (8,)


def _tree_point(base, topology: Topology):
    """Bind a topology to the base preset (``hops`` tracks edge count)."""
    return base.replace(hops=topology.num_edges), topology


@register_binder("tree_star")
def _bind_star(base, fanout: float):
    """Fan-out ``k`` as a ``k``-leaf star (depth 1)."""
    return _tree_point(base, Topology.star(int(fanout)))


@register_binder("tree_broom")
def _bind_broom(base, fanout: float):
    """Fan-out ``k`` behind a two-hop access path (broom)."""
    return _tree_point(base, Topology.broom(2, int(fanout)))


@register_binder("tree_binary")
def _bind_binary(base, depth: float):
    """Depth ``d`` as the complete binary tree."""
    return _tree_point(base, Topology.kary(2, int(depth)))


@register_binder("tree_skewed")
def _bind_skewed(base, depth: float):
    """Depth ``d`` as the maximally skewed (caterpillar) binary tree."""
    return _tree_point(base, Topology.skewed(int(depth)))


@register_binder("tree_ternary")
def _bind_ternary(base, depth: float):
    """Depth ``d`` as the complete ternary tree."""
    return _tree_point(base, Topology.kary(3, int(depth)))


@register_binder("tree_spine")
def _bind_spine(base, depth: float):
    """Depth ``d`` as a broom: a spine into one final 2-way split.

    Depth 1 degenerates to the 2-leaf star so every swept point has
    maximum leaf depth exactly ``d``.
    """
    d = int(depth)
    topology = Topology.star(2) if d == 1 else Topology.broom(d - 1, 2)
    return _tree_point(base, topology)


register_metric(
    "mean_leaf_inconsistency", lambda solution: solution.mean_leaf_inconsistency
)
register_metric(
    "fanout_weighted_inconsistency",
    lambda solution: solution.fanout_weighted_inconsistency,
)


def _fidelities(fast_values, smoke_values, axis: str) -> tuple[FidelityProfile, ...]:
    return (
        FidelityProfile("full"),
        FidelityProfile(
            "fast", axis_values={axis: tuple(float(v) for v in fast_values)}
        ),
        FidelityProfile(
            "smoke", axis_values={axis: tuple(float(v) for v in smoke_values)}
        ),
    )


FANOUT_SPEC = register_scenario(
    ScenarioSpec(
        scenario_id="tree_fanout",
        title="Tree fan-out: star vs broom multicast distribution (beyond the paper)",
        artifact="beyond the paper",
        family="tree",
        preset="reservation",
        protocols=Protocol.multihop_family(),
        axes=(
            Axis(
                "fanout",
                "explicit",
                values=tuple(float(v) for v in FANOUT_VALUES),
            ),
        ),
        panels=(
            PanelSpec(
                name="a: any-leaf inconsistency",
                x_label="fan-out k",
                y_label="inconsistency ratio I (any leaf)",
                plans=(
                    SeriesPlan(
                        "sweep",
                        axis="fanout",
                        binder="tree_star",
                        metric="inconsistency_ratio",
                        label_suffix=" star",
                    ),
                    SeriesPlan(
                        "sweep",
                        axis="fanout",
                        binder="tree_broom",
                        metric="inconsistency_ratio",
                        label_suffix=" broom",
                    ),
                ),
                log_y=True,
            ),
            PanelSpec(
                name="b: mean leaf inconsistency",
                x_label="fan-out k",
                y_label="mean per-leaf inconsistency",
                plans=(
                    SeriesPlan(
                        "sweep",
                        axis="fanout",
                        binder="tree_star",
                        metric="mean_leaf_inconsistency",
                        label_suffix=" star",
                    ),
                    SeriesPlan(
                        "sweep",
                        axis="fanout",
                        binder="tree_broom",
                        metric="mean_leaf_inconsistency",
                        label_suffix=" broom",
                    ),
                ),
                log_y=True,
            ),
            PanelSpec(
                name="c: signaling message rate",
                x_label="fan-out k",
                y_label="per-link transmissions per second",
                plans=(
                    SeriesPlan(
                        "sweep",
                        axis="fanout",
                        binder="tree_star",
                        metric="message_rate",
                        label_suffix=" star",
                    ),
                    SeriesPlan(
                        "sweep",
                        axis="fanout",
                        binder="tree_broom",
                        metric="message_rate",
                        label_suffix=" broom",
                    ),
                ),
            ),
        ),
        fidelities=_fidelities(FAST_FANOUT_VALUES, SMOKE_FANOUT_VALUES, "fanout"),
        notes=(
            "star: k receivers directly under the sender; "
            "broom: a 2-hop access path into a k-way replication point",
            "fan-out 1 points are unary trees, bit-identical to the chain model",
        ),
    )
)


def _depth_panel(name: str, y_label: str, metric: str, log_y: bool) -> PanelSpec:
    """One depth panel: skewed and spine on the deep axis, the complete
    binary tree on its own short axis (``shared_x=False``)."""
    return PanelSpec(
        name=name,
        x_label="tree depth d",
        y_label=y_label,
        plans=(
            SeriesPlan(
                "sweep",
                axis="depth",
                binder="tree_skewed",
                metric=metric,
                label_suffix=" skewed",
            ),
            SeriesPlan(
                "sweep",
                axis="depth",
                binder="tree_spine",
                metric=metric,
                label_suffix=" spine",
            ),
            SeriesPlan(
                "sweep",
                axis="binary_depth",
                binder="tree_binary",
                metric=metric,
                label_suffix=" binary",
            ),
        ),
        log_y=log_y,
        shared_x=False,
    )


DEPTH_SPEC = register_scenario(
    ScenarioSpec(
        scenario_id="tree_depth",
        title="Tree depth: balanced vs skewed binary distribution (beyond the paper)",
        artifact="beyond the paper",
        family="tree",
        preset="reservation",
        protocols=Protocol.multihop_family(),
        axes=(
            Axis(
                "depth",
                "explicit",
                values=tuple(float(v) for v in DEPTH_VALUES),
            ),
            Axis(
                "binary_depth",
                "explicit",
                values=tuple(float(v) for v in BINARY_DEPTH_VALUES),
            ),
        ),
        panels=(
            _depth_panel(
                "a: any-leaf inconsistency",
                "inconsistency ratio I (any leaf)",
                "inconsistency_ratio",
                log_y=True,
            ),
            _depth_panel(
                "b: fan-out-weighted inconsistency",
                "fan-out-weighted leaf inconsistency",
                "fanout_weighted_inconsistency",
                log_y=True,
            ),
            _depth_panel(
                "c: signaling message rate",
                "per-link transmissions per second",
                "message_rate",
                log_y=False,
            ),
        ),
        fidelities=(
            FidelityProfile("full"),
            FidelityProfile(
                "fast",
                axis_values={
                    "depth": tuple(float(v) for v in FAST_DEPTH_VALUES)
                },
            ),
            FidelityProfile(
                "smoke",
                axis_values={
                    "depth": tuple(float(v) for v in SMOKE_DEPTH_VALUES)
                },
            ),
        ),
        notes=(
            "skewed: a d-link backbone with one side leaf per internal node; "
            "spine: a (d-1)-link path into one 2-way split; binary: the "
            "complete 2-ary tree (own axis — its state space is exponential "
            "in depth; depth >= 3 leaves the direct bit-parity path and is "
            "swept by tree_deep via the exact lumped backend)",
            "skewed depth 1 is the single-hop chain (unary points are "
            "bit-identical to the chain model); spine depth 1 is the "
            "2-leaf star",
        ),
    )
)


def _deep_panel(name: str, y_label: str, metric: str, log_y: bool) -> PanelSpec:
    """One deep panel: balanced binary / ternary trees on their own
    short lumped axes, the deep caterpillar on the iterative-reaching
    axis (``shared_x=False``)."""
    return PanelSpec(
        name=name,
        x_label="tree depth d",
        y_label=y_label,
        plans=(
            SeriesPlan(
                "sweep",
                axis="binary_depth",
                binder="tree_binary",
                metric=metric,
                label_suffix=" binary",
            ),
            SeriesPlan(
                "sweep",
                axis="ternary_depth",
                binder="tree_ternary",
                metric=metric,
                label_suffix=" ternary",
            ),
            SeriesPlan(
                "sweep",
                axis="skewed_depth",
                binder="tree_skewed",
                metric=metric,
                label_suffix=" skewed",
            ),
        ),
        log_y=log_y,
        shared_x=False,
    )


DEEP_SPEC = register_scenario(
    ScenarioSpec(
        scenario_id="tree_deep",
        title="Deep trees past the state-space wall: lumped and iterative backends (beyond the paper)",
        artifact="beyond the paper",
        family="tree",
        preset="reservation",
        protocols=Protocol.multihop_family(),
        axes=(
            Axis(
                "binary_depth",
                "explicit",
                values=tuple(float(v) for v in DEEP_BINARY_DEPTH_VALUES),
            ),
            Axis(
                "ternary_depth",
                "explicit",
                values=tuple(float(v) for v in DEEP_TERNARY_DEPTH_VALUES),
            ),
            Axis(
                "skewed_depth",
                "explicit",
                values=tuple(float(v) for v in DEEP_SKEWED_DEPTH_VALUES),
            ),
        ),
        panels=(
            _deep_panel(
                "a: any-leaf inconsistency",
                "inconsistency ratio I (any leaf)",
                "inconsistency_ratio",
                log_y=True,
            ),
            _deep_panel(
                "b: mean leaf inconsistency",
                "mean per-leaf inconsistency",
                "mean_leaf_inconsistency",
                log_y=True,
            ),
            _deep_panel(
                "c: signaling message rate",
                "per-link transmissions per second",
                "message_rate",
                log_y=False,
            ),
        ),
        fidelities=(
            FidelityProfile("full"),
            FidelityProfile(
                "fast",
                axis_values={
                    "skewed_depth": tuple(
                        float(v) for v in FAST_DEEP_SKEWED_DEPTH_VALUES
                    )
                },
            ),
            FidelityProfile(
                "smoke",
                axis_values={
                    "binary_depth": (1.0, 2.0),
                    "ternary_depth": (1.0,),
                    "skewed_depth": tuple(
                        float(v) for v in SMOKE_DEEP_SKEWED_DEPTH_VALUES
                    ),
                },
            ),
        ),
        notes=(
            "binary depth 3 (15129 raw states) and ternary depth 2 (24389) "
            "solve exactly through sibling-subtree lumping (741 / 364 "
            "orbits); skewed depth 8 (8747 raw states, near-trivial orbits) "
            "routes to the ILU-preconditioned iterative backend",
            "smoke trims every axis below the lumped/iterative crossovers; "
            "fast keeps the lumped points and stops the caterpillar at "
            "depth 7 (direct backend)",
        ),
    )
)


def _wide_panel(name: str, y_label: str, metric: str, log_y: bool) -> PanelSpec:
    """One wide panel: star and broom sweeping large fan-outs."""
    return PanelSpec(
        name=name,
        x_label="fan-out k",
        y_label=y_label,
        plans=(
            SeriesPlan(
                "sweep",
                axis="fanout",
                binder="tree_star",
                metric=metric,
                label_suffix=" star",
            ),
            SeriesPlan(
                "sweep",
                axis="fanout",
                binder="tree_broom",
                metric=metric,
                label_suffix=" broom",
            ),
        ),
        log_y=log_y,
    )


WIDE_SPEC = register_scenario(
    ScenarioSpec(
        scenario_id="tree_wide",
        title="Wide multicast fan-out via exact lumping: stars and brooms to k=64 (beyond the paper)",
        artifact="beyond the paper",
        family="tree",
        preset="reservation",
        protocols=Protocol.multihop_family(),
        axes=(
            Axis(
                "fanout",
                "explicit",
                values=tuple(float(v) for v in WIDE_FANOUT_VALUES),
            ),
        ),
        panels=(
            _wide_panel(
                "a: any-leaf inconsistency",
                "inconsistency ratio I (any leaf)",
                "inconsistency_ratio",
                log_y=True,
            ),
            _wide_panel(
                "b: mean leaf inconsistency",
                "mean per-leaf inconsistency",
                "mean_leaf_inconsistency",
                log_y=True,
            ),
            _wide_panel(
                "c: signaling message rate",
                "per-link transmissions per second",
                "message_rate",
                log_y=False,
            ),
        ),
        fidelities=_fidelities(
            FAST_WIDE_FANOUT_VALUES, SMOKE_WIDE_FANOUT_VALUES, "fanout"
        ),
        notes=(
            "a k-leaf star's 3^k raw states collapse to C(k+2, 2) orbits "
            "under leaf exchangeability, so star(64) — 3^64 raw states — is "
            "a 2211-orbit exact solve",
            "every point here routes to the lumped backend; none are "
            "reachable by direct enumeration beyond k=7",
        ),
    )
)
