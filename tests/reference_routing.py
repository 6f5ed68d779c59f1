"""The next-state draw written with `rng.choice`, kept as the oracle for the
inverse-CDF draw in `hybridtraffic.demand`.

Each car of a car list by slot, states in state order and FIFO within a
state, takes one next state from its row: `rng.choice(n, p=ratios / sum)`
when the row has two or more entries, the single entry without a draw
otherwise. The re-keyed cars list their new states in state order
(`state_sort_key`), each with its cars in the order they were drawn.
`RoutingContext.assign_next_link` must give every vehicle the same next
state, keep the same order and leave the generator at the same position
(`tests/test_demand.py`).
"""

from __future__ import annotations

import numpy as np

from hybridtraffic.packets import StateIndex


def state_sort_key(s: StateIndex):
    """State order: by vehicle type, then by key, None (a terminal link)
    last. Every state table is in this order."""
    return (s.vtype, s.key is None, s.key if s.key is not None else 0)


def draw(row, rng):
    if len(row.states) == 1:
        return row.states[0]
    probs = np.array(row.ratios)
    return row.states[int(rng.choice(len(row.states), p=probs / probs.sum()))]


def assign_next_link(ctx, slots, entered_link, now, rng) -> dict:
    """The re-keyed cars of `slots`, (slot, cars sharing its state): new
    state -> cars."""
    vehicles = {vs[0].state: vs for _, vs in slots}
    out: dict = {}
    for s in sorted(vehicles, key=state_sort_key):
        row = ctx._row(s, entered_link, now)
        for v in vehicles[s]:
            v.state = ns = draw(row, rng)
            out.setdefault(ns, []).append(v)
    return {s: out[s] for s in sorted(out, key=state_sort_key)}
