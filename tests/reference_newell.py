"""The scalar Newell step, kept as the oracle for the batched draw in
`hybridtraffic.models.newell`.

`compute_demands` here is the model's per-step demand pass written plainly:
one `rng.normal(mean, sigma)` per noisy term, car by car in FIFO order, dv,
dw, df within a car, each redrawn until non-negative, with the lane means
worked out from the current speed limit on every call. The batched model must
give every car the same tentative position, exit flag and target road
connection, and leave the generator in the same state
(`tests/test_newell.py`).
"""

from __future__ import annotations

from hybridtraffic.models.newell import BIG_HEADWAY
from hybridtraffic.packets import vehicle_packet


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
        lane = model.lanes[gid]
        if not lane.cars:
            continue
        dv_mean, dw_mean, df_mean = means(model, lane)
        for i, car in enumerate(lane.cars):
            dv = draw(dv_mean, model.sigma_v, rng)
            dw = draw(dw_mean, model.sigma_w, rng)
            df = draw(df_mean, model.sigma_f, rng)
            if i == 0:
                car.target_rc = model.rc_toward(gid, lane.link, car.vehicle.state)
                if car.target_rc is None:
                    eta = BIG_HEADWAY
                else:
                    eta = model.headway_query(car.target_rc)
                h = (lane.length - car.x) + eta
            else:
                h = lane.cars[i - 1].x - car.x
            adv = max(0.0, min(dv, h - dw, h * df))
            car.tentative = car.x + adv
            car.exiting = car.tentative >= lane.length - 1e-9
            if car.exiting and car.target_rc is None and i > 0:
                car.target_rc = model.rc_toward(gid, lane.link, car.vehicle.state)
        by_rc = {}
        for car in lane.cars:
            if not car.exiting:
                break
            by_rc.setdefault(car.target_rc, []).append(car.vehicle)
        reqs += model.requests(gid, by_rc, vehicle_packet)
    return reqs
