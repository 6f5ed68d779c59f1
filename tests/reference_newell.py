"""The scalar Newell step, kept as the oracle for the lane lists and the
batched draw in `hybridtraffic.models.newell`.

Both functions read and write a model's own lane lists, car by car.

`compute_demands` is the model's per-step demand pass written plainly: one
`rng.normal(mean, sigma)` per noisy term, car by car in FIFO order, dv, dw,
df within a car, each redrawn until non-negative, with the lane means worked
out from the current speed limit on every call. The model keeps its exit
candidates as a count at the head of the lane, so the per-car exit flags
here must form that prefix. The batched model must give every car the same
tentative position, exit flag and target road connection, and leave the
generator in the same state (`tests/test_newell.py`).

`advance_state` is the model's step as one per-car loop with Python's `min`
and `max`: an exit candidate parks at the lane end, a car is held `GAP_EPS`
behind its leader's new position and never moves back, and a fresh car at
the tail first gets its carried overshoot (or half a mean step), even one
the demand pass saw and flagged as exiting, which then still parks.
"""

from __future__ import annotations

from hybridtraffic.models.newell import BIG_HEADWAY, GAP_EPS


def draw(mean: float, sigma: float, rng) -> float:
    if sigma <= 0:
        return mean
    x = rng.normal(mean, sigma)
    while x < 0:  # negative advances are meaningless; redraw
        x = rng.normal(mean, sigma)
    return float(x)


def means(model, lane) -> tuple[float, float, float]:
    link = model.net.links[lane.link]
    v_ms = model.speed_limit_eff[lane.link] / 3.6
    w_ms = link.params.congestion_wave_speed / 3.6
    f_vps = link.params.capacity_per_lane / 3600.0 * lane.num_lanes
    return v_ms * model.dt, w_ms * model.dt, f_vps * model.dt


def compute_demands(model, now, rng) -> list:
    reqs = []
    for gid in model.group_ids:
        lane = model.groups[gid]
        if not lane.x:
            continue
        dv_mean, dw_mean, df_mean = means(model, lane)
        exiting = []
        for i in range(len(lane.x)):
            dv = draw(dv_mean, model.sigma_v, rng)
            dw = draw(dw_mean, model.sigma_w, rng)
            df = draw(df_mean, model.sigma_f, rng)
            if i == 0:
                lane.rc[0] = model.rc_toward(gid, lane.link, lane.veh[0].state)
                if lane.rc[0] is None:
                    eta = BIG_HEADWAY
                else:
                    eta = model.headway_query(lane.rc[0])
                h = (lane.length - lane.x[0]) + eta
            else:
                h = lane.x[i - 1] - lane.x[i]
            adv = max(0.0, min(dv, h - dw, h * df))
            lane.tent[i] = lane.x[i] + adv
            exiting.append(lane.tent[i] >= lane.length - 1e-9)
            if exiting[i] and lane.rc[i] is None and i > 0:
                lane.rc[i] = model.rc_toward(gid, lane.link, lane.veh[i].state)
        n_exit = exiting.index(False) if False in exiting else len(exiting)
        assert not any(exiting[n_exit:]), "exit candidates are not a prefix"
        lane.n_exit = n_exit
        by_rc = {}
        for i in range(n_exit):
            lane.veh[i].ext = max(0.0, lane.tent[i] - lane.length)
            by_rc.setdefault(lane.rc[i], []).append(lane.veh[i])
        reqs += model.requests(gid, by_rc)
    return reqs


def advance_state(model, now, rng):
    for gid in model.group_ids:
        lane = model.groups[gid]
        dv_mean, dw_mean, df_mean = means(model, lane)
        n = len(lane.x)
        prev_x = None
        for i in range(n):
            x = lane.x[i]
            if i >= n - lane.n_fresh:
                carried = lane.veh[i].ext
                if not isinstance(carried, float):
                    carried = 0.5 * dv_mean
                lane.veh[i].ext = None
                h = (prev_x - x) if prev_x is not None else BIG_HEADWAY
                adv = max(0.0, min(carried, h - dw_mean, h * df_mean))
                lane.tent[i] = min(x + adv, lane.length - 2 * GAP_EPS)
            new_x = lane.tent[i]
            if i < lane.n_exit:
                new_x = lane.length  # rejected at the boundary: park
            if prev_x is not None:
                new_x = min(new_x, prev_x - GAP_EPS)
            new_x = max(new_x, x)  # motion is monotone
            lane.adv[i] = new_x - x
            lane.x[i] = new_x
            prev_x = new_x
        lane.n_fresh = lane.n_exit = 0
    model._admit(now)
