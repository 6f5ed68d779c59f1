"""The cut of a vehicle packet as the engine made it while whole vehicles
crossed junctions as packets, kept as the oracle for `packets.take`.

A packet held one FIFO list of vehicles per slot of its link's state table,
empty for a state it did not carry. At scaling factor alpha in [0, 1] and at
most `limit` vehicles, each slot in slot order sent its first
floor(alpha*n + 1e-9) vehicles, no more than the limit left; the cut was a
packet of the sent lists over the same table (`tests/test_packets.py`).
"""

from __future__ import annotations

import math


def take(vehicles: list[list], alpha: float, limit: int) -> list[list]:
    """The sent vehicles of a packet's per-slot lists, one list per slot."""
    sent = []
    for vs in vehicles:
        k = max(0, min(int(math.floor(alpha * len(vs) + 1e-9)), limit))
        sent.append(vs[:k])
        limit -= k
    return sent
