"""The next-state draw written with `rng.choice`, kept as the oracle for the
inverse-CDF draw in `hybridtraffic.demand`.

Each vehicle of a packet, states in state order and FIFO within a state,
takes one next state from its row: `rng.choice(n, p=ratios / sum)` when the
row has two or more entries, the single entry without a draw otherwise. The
re-keyed packet lists its new states in state order, each with its vehicles
in the order they were drawn. `RoutingContext.assign_next_link` must give
every vehicle the same next state, keep the same order and leave the
generator at the same position (`tests/test_demand.py`).
"""

from __future__ import annotations

import numpy as np

from hybridtraffic.packets import state_sort_key


def draw(row, rng):
    if len(row.states) == 1:
        return row.states[0]
    probs = np.array(row.ratios)
    return row.states[int(rng.choice(len(row.states), p=probs / probs.sum()))]


def assign_next_link(ctx, p, entered_link, now, rng) -> dict:
    """The re-keyed vehicles of packet `p`: new state -> vehicles."""
    out: dict = {}
    for s in sorted(p.vehicles, key=state_sort_key):
        row = ctx._row(s, entered_link, now)
        for v in p.vehicles[s]:
            v.state = ns = draw(row, rng)
            out.setdefault(ns, []).append(v)
    return {s: out[s] for s in sorted(out, key=state_sort_key)}
