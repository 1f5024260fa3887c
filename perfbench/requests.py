"""Seeded request generators: one plain-data request list per workload.

Everything here is a pure function of ``(workload, seed)`` and imports
nothing from ``repro``: a request is a JSON-able dict, and the driver
(:mod:`perfbench.workloads`) turns it into the program's own task
objects.  The same seed always yields the same list, hence the same
:func:`digest`.

Lists are built in blocks of :data:`BLOCK_SIZE` requests.  Every block
has the same composition (families, shapes, protocols), and what drives
a request's cost -- hop counts, sweep lengths, session counts, a
simulation's loss rate -- follows fixed golden-ratio sequences, evenly
spread over its range and the same for every seed.  The seed draws
everything else: sweep values, per-hop losses,
channels, fault timings, simulation seeds, the order within a block and
which earlier request a repeat re-issues.  So seeds differ in the
numbers the program computes, not in how much work it does, which keeps
the spread between seeds down to the machine's own.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("chain_sweep", "tree_sweep", "sim_replay")

SINGLEHOP_PROTOCOLS = ("SS", "SS+ER", "SS+RT", "SS+RTR", "HS")
CHAIN_PROTOCOLS = ("SS", "SS+RT", "HS")

#: Sweep axes and their (log-uniform) ranges.  ``refresh_interval``
#: moves the timeout with it (T = 3R), as the paper's timer sweeps do.
SINGLEHOP_AXES = {
    "loss_rate": (1e-3, 0.3),
    "refresh_interval": (0.5, 60.0),
    "update_rate": (1.0 / 600.0, 0.2),
}
CHAIN_AXES = {"loss_rate": (1e-3, 0.2), "refresh_interval": (0.5, 60.0)}
GILBERT_AXES = {"bad_to_good": (0.1, 10.0), "loss_bad": (0.1, 0.8)}

MAX_HOPS = 128
MAX_GILBERT_HOPS = 5

#: Tree shapes; every block holds one request per shape and protocol.
#: The first group routes to the direct (exact) backend on ``auto``, the
#: second to the lumped backend; the third names ``backend="iterative"``
#: explicitly.  star(7), skewed(7) and skewed(8) are left out: on auto
#: routing each point takes 1-8 s.
TREE_DIRECT_SHAPES = (
    ("star", 2), ("star", 3), ("star", 4), ("star", 5), ("star", 6),
    ("kary", 2, 2), ("broom", 2, 2), ("broom", 2, 3), ("broom", 2, 4),
    ("broom", 3, 2), ("broom", 4, 2),
    ("skewed", 3), ("skewed", 4), ("skewed", 5), ("skewed", 6),
)
TREE_LUMPED_SHAPES = (
    ("star", 8), ("star", 10), ("star", 12), ("star", 16), ("star", 20),
    ("star", 24), ("star", 32), ("star", 64),
    ("broom", 2, 8), ("broom", 2, 12), ("broom", 2, 16), ("broom", 2, 24),
    ("kary", 2, 3), ("kary", 3, 2),
)
TREE_ITERATIVE_SHAPES = (("star", 5), ("skewed", 4), ("skewed", 5))

SIM_TREE_SHAPES = (("star", 3), ("kary", 2, 2), ("broom", 2, 3))
SIM_CHANNELS = ("iid", "gilbert", "flap")

#: Requests per block; every block of a workload has this length.
BLOCK_SIZE = {
    "chain_sweep": 10,
    "tree_sweep": 3 * len(TREE_DIRECT_SHAPES + TREE_LUMPED_SHAPES + TREE_ITERATIVE_SHAPES) + 5,
    "sim_replay": 10,
}

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class _Draws:
    """Seeded values from ``rng``; cost drivers from per-name golden-ratio
    sequences that do not depend on the seed."""

    def __init__(self, seed_text: str) -> None:
        self.rng = random.Random(seed_text)
        self._counts: dict[str, int] = {}

    def even(self, name: str) -> float:
        """The next value in ``[0, 1)`` of the evenly spread sequence ``name``."""
        count = self._counts.get(name, 0)
        self._counts[name] = count + 1
        return (0.5 + count * _GOLDEN) % 1.0

    def even_int(self, name: str, low: int, high: int) -> int:
        """An evenly spread integer in ``[low, high]``."""
        return low + int(self.even(name) * (high - low + 1))

    def even_log_int(self, name: str, low: int, high: int) -> int:
        """An evenly spread integer in ``[low, high]``, uniform in log space."""
        span = math.log(high + 1) - math.log(low)
        return min(high, int(math.exp(math.log(low) + self.even(name) * span)))

    def even_log(self, name: str, low: float, high: float) -> float:
        """An evenly spread value in ``[low, high)``, uniform in log space."""
        return math.exp(math.log(low) + self.even(name) * math.log(high / low))

    def log_uniform(self, low: float, high: float) -> float:
        return math.exp(self.rng.uniform(math.log(low), math.log(high)))

    def sweep(self, axes: dict, axis: str, count: int) -> list[float]:
        low, high = axes[axis]
        return sorted(self.log_uniform(low, high) for _ in range(count))

    def channel(self) -> list[float]:
        """Gilbert-Elliott ``[loss_good, loss_bad, good_to_bad, bad_to_good]``."""
        return [
            self.log_uniform(1e-3, 0.05),
            self.rng.uniform(0.2, 0.8),
            self.log_uniform(0.01, 1.0),
            self.log_uniform(0.1, 10.0),
        ]


def _cycle(options, position: int):
    ordered = sorted(options)
    return ordered[position % len(ordered)]


# ----------------------------------------------------------------------
# chain_sweep: the paper's analytic models
# ----------------------------------------------------------------------


def _chain_block(draws: _Draws, block: int) -> list[dict]:
    axis = _cycle(SINGLEHOP_AXES, block)
    fresh = [
        {
            "kind": "singlehop",
            "axis": axis,
            "xs": draws.sweep(SINGLEHOP_AXES, axis, draws.even_int("singlehop.n", 10, 40)),
        }
    ]
    # Two homogeneous chains: one on auto routing (exact template below
    # the structured threshold), one naming the structured O(hops)
    # kernel, so both routes carry load at every hop count.
    for offset, backend in enumerate(("auto", "structured")):
        axis = _cycle(CHAIN_AXES, block + offset)
        fresh.append(
            {
                "kind": "chain",
                "hops": draws.even_log_int(f"chain.{backend}.hops", 1, MAX_HOPS),
                "backend": backend,
                "axis": axis,
                "xs": draws.sweep(CHAIN_AXES, axis, draws.even_int(f"chain.{backend}.n", 10, 40)),
            }
        )
    hops = draws.even_log_int("het.hops", 1, MAX_HOPS)
    fresh.append(
        {
            "kind": "het",
            "hops": hops,
            "backend": "structured" if block % 2 else "auto",
            "losses": [draws.log_uniform(1e-3, 0.2) for _ in range(hops)],
            "axis": "refresh_interval",
            "xs": draws.sweep(CHAIN_AXES, "refresh_interval", draws.even_int("het.n", 10, 40)),
        }
    )
    axis = _cycle(GILBERT_AXES, block)
    fresh.append(
        {
            "kind": "gilbert_singlehop",
            "channel": draws.channel(),
            "axis": axis,
            "xs": draws.sweep(GILBERT_AXES, axis, draws.even_int("gilbert.n", 10, 40)),
        }
    )
    axis = _cycle(GILBERT_AXES, block + 1)
    fresh.append(
        {
            "kind": "gilbert_chain",
            "hops": draws.even_int("gilbert_chain.hops", 1, MAX_GILBERT_HOPS),
            "channel": draws.channel(),
            "axis": axis,
            "xs": draws.sweep(GILBERT_AXES, axis, draws.even_int("gilbert_chain.n", 10, 40)),
        }
    )
    times = draws.even_int("transient.n", 10, 20)
    fresh.append(
        {
            "kind": "transient",
            "protocol": CHAIN_PROTOCOLS[block % len(CHAIN_PROTOCOLS)],
            "hops": draws.even_int("transient.hops", 2, 4),
            "fault": "flap" if block % 2 else "crash",
            "duration": draws.rng.uniform(10.0, 40.0),
            "times": sorted(draws.rng.uniform(0.5, 90.0) for _ in range(times)),
        }
    )
    return fresh


# ----------------------------------------------------------------------
# tree_sweep: multicast trees
# ----------------------------------------------------------------------


def _tree_block(draws: _Draws, block: int) -> list[dict]:
    shapes = [(shape, "auto") for shape in TREE_DIRECT_SHAPES + TREE_LUMPED_SHAPES]
    shapes += [(shape, "iterative") for shape in TREE_ITERATIVE_SHAPES]
    fresh = []
    for position, (shape, backend) in enumerate(shapes):
        for offset, protocol in enumerate(CHAIN_PROTOCOLS):
            # Sweep lengths rotate through 3..8 over blocks: with only a
            # few blocks per run, a drawn length would swing the mix.
            axis = _cycle(CHAIN_AXES, block + position)
            count = 3 + (block + position + 2 * offset) % 6
            fresh.append(
                {
                    "kind": "tree",
                    "shape": list(shape),
                    "backend": backend,
                    "protocol": protocol,
                    "axis": axis,
                    "xs": draws.sweep(CHAIN_AXES, axis, count),
                }
            )
    return fresh


# ----------------------------------------------------------------------
# sim_replay: replicated discrete-event simulation points
# ----------------------------------------------------------------------


def _sim_block(draws: _Draws, block: int) -> list[dict]:
    rng = draws.rng
    fresh = []
    # Six single-hop points: every protocol once, plus one in rotation.
    extra = SINGLEHOP_PROTOCOLS[block % len(SINGLEHOP_PROTOCOLS)]
    for protocol in SINGLEHOP_PROTOCOLS + (extra,):
        fresh.append(
            {
                "kind": "sim_singlehop",
                "protocol": protocol,
                "loss_rate": draws.even_log("sim_singlehop.loss", 5e-3, 0.2),
                "session_s": 60.0 + 180.0 * draws.even("sim_singlehop.length"),
                "sessions": draws.even_int("sim_singlehop.sessions", 4, 10),
                "replications": draws.even_int("sim_singlehop.replications", 2, 4),
                "seed": rng.randrange(2**31),
            }
        )
    for position, channel in enumerate(SIM_CHANNELS):
        hops = draws.even_int("sim_chain.hops", 2, 8)
        request = {
            "kind": "sim_chain",
            "protocol": CHAIN_PROTOCOLS[(block + position) % len(CHAIN_PROTOCOLS)],
            "hops": hops,
            "loss_rate": draws.even_log("sim_chain.loss", 5e-3, 0.1),
            "channel": channel,
            "horizon": 400.0 + 600.0 * draws.even("sim_chain.horizon"),
            "replications": draws.even_int("sim_chain.replications", 2, 3),
            "seed": rng.randrange(2**31),
        }
        if channel == "gilbert":
            request["gilbert"] = draws.channel()
        if channel == "flap":
            request["flap"] = {
                "link": rng.randint(1, hops),
                "period": rng.uniform(150.0, 400.0),
                "down": rng.uniform(10.0, 60.0),
            }
        fresh.append(request)
    fresh.append(
        {
            "kind": "sim_tree",
            "protocol": CHAIN_PROTOCOLS[(block // len(SIM_TREE_SHAPES)) % len(CHAIN_PROTOCOLS)],
            "shape": list(SIM_TREE_SHAPES[block % len(SIM_TREE_SHAPES)]),
            "loss_rate": draws.even_log("sim_tree.loss", 5e-3, 0.1),
            "horizon": 300.0 + 400.0 * draws.even("sim_tree.horizon"),
            "replications": 2,
            "seed": rng.randrange(2**31),
        }
    )
    return fresh


def _shuffled_with_repeats(
    rng: random.Random, history: list[dict], fresh: list[dict], repeats: int
) -> list[dict]:
    """Shuffle ``fresh`` with ``repeats`` verbatim re-issues of earlier requests."""
    slots: list[dict | None] = list(fresh) + [None] * repeats
    rng.shuffle(slots)
    if not history and slots[0] is None:
        first = next(i for i, slot in enumerate(slots) if slot is not None)
        slots[0], slots[first] = slots[first], slots[0]
    block: list[dict] = []
    for slot in slots:
        if slot is None:
            earlier = history + block
            slot = earlier[rng.randrange(len(earlier))]
        block.append(slot)
    return block


#: Per workload: block builder and verbatim repeats per block.
_BLOCKS = {
    "chain_sweep": (_chain_block, 3),
    "tree_sweep": (_tree_block, 5),
    "sim_replay": (_sim_block, 0),
}


def generate(workload: str, seed: int, blocks: int) -> list[dict]:
    """``blocks`` blocks of ``workload`` requests for ``seed`` (pure, deterministic)."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    build, repeats = _BLOCKS[workload]
    draws = _Draws(f"{workload}:{seed}")
    requests: list[dict] = []
    for block in range(blocks):
        fresh = build(draws, block)
        requests += _shuffled_with_repeats(draws.rng, requests, fresh, repeats)
    return requests


def digest(requests: list[dict]) -> str:
    """A short content hash of a request list."""
    payload = json.dumps(requests, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
