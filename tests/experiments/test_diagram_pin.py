"""Pin the exact text of the multi-hop chain diagrams (paper Figs. 15-16).

``repro-signaling diagram <protocol> --multihop`` prints
:func:`~repro.experiments.diagrams.render_multihop_chain` at its default
5 hops.  Each protocol's text is digested whole (sha256 of the UTF-8
bytes), so any change to a state label, a rate's formatting, the line
order or the transition count moves the digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.protocols import Protocol
from repro.experiments.diagrams import render_multihop_chain

#: ``protocol -> (text digest, line count)`` at the default 5 hops.
PINNED = {
    Protocol.SS: ("0af31ddb1c87cfbd", 52),
    Protocol.SS_RT: ("a8bfa94b2e4df454", 52),
    Protocol.HS: ("906538a53e5a31a6", 39),
}


@pytest.mark.parametrize("protocol", list(PINNED), ids=lambda p: p.value)
def test_multihop_diagram_text_is_pinned(protocol):
    text = render_multihop_chain(protocol)
    assert (hashlib.sha256(text.encode()).hexdigest()[:16], len(text.splitlines())) == (
        PINNED[protocol]
    )
