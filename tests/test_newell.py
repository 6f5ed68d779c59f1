import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_newell
from conftest import corridor_network, corridor_scenario_dict, std_params
from hybridtraffic.cli import main as cli_main
from hybridtraffic.demand import Route, RoutingContext, VehicleType
from hybridtraffic.engine import Engine
from hybridtraffic.models.newell import NewellModel
from hybridtraffic.network import Link, Network, RoadConnection
from hybridtraffic.packets import StateIndex, Vehicle
from hybridtraffic.scenario import parse_scenario

S = StateIndex(0, 0)


def _model(n_links=1, lanes=1, length=500.0, dt=2.0, **sig):
    net, _, _ = corridor_network(n_links, lanes=lanes, length=length)
    m = NewellModel(dt=dt, **sig)
    m.build(net, list(range(n_links)))
    m.set_routing(
        RoutingContext(
            net,
            vehicle_types={0: VehicleType(0, "routed")},
            routes={0: Route(0, tuple(range(n_links)))},
            splits={},
        )
    )
    m.headway_query = lambda rc: 1e9
    return m


def _vehs(n, start=0):
    return [Vehicle(id=start + i, state=S) for i in range(n)]


def _seed(m, gid, vehicles, positions):
    # the lane group's cars, downstream-most first, none fresh or exiting;
    # bypasses the entry buffer used by receive, so the road connection is
    # resolved here as the model resolves it
    lane = m.groups[gid]
    lane.veh = list(vehicles)
    lane.x = list(positions)
    lane.adv = [0.0] * len(vehicles)
    lane.rc = [m.rc_toward(gid, lane.link, v.state) for v in vehicles]
    lane.tent = [0.0] * len(vehicles)
    lane.n_fresh = lane.n_exit = 0


def _place(m, gid, positions, start=0):
    _seed(m, gid, _vehs(len(positions), start), positions)


def test_jam_spacing_and_supply():
    m = _model(lanes=2)
    lane = m.groups["0:1"]
    assert lane.jam_spacing == pytest.approx(5.0)  # 200 veh/km single file
    assert m.lane_group_supply("0:1") == 100.0  # empty 500 m lane


def test_free_car_advances_at_speed_limit(rng):
    m = _model(dt=2.0)
    m.receive_vehicles(0, _vehs(1), now=0.0)
    m.advance_state(0.0, rng)  # fresh car moves within its entry step
    x0 = m.groups["0:1"].x[0]
    m.compute_demands(2.0, rng)
    m.advance_state(2.0, rng)
    x1 = m.groups["0:1"].x[0]
    assert x1 - x0 == pytest.approx(100.0 / 3.6 * 2.0, abs=1e-9)


def test_follower_respects_wave_gap(rng):
    m = _model(dt=2.0)
    lane = m.groups["0:1"]
    # leader parked near the end, follower close behind
    _place(m, "0:1", [400.0, 390.0])
    m.compute_demands(0.0, rng)
    # h = 10, delta_w = w*dt = 6.17 m -> advance h - dw = 3.83 m
    dw = std_params().congestion_wave_speed / 3.6 * 2.0
    assert lane.tent[1] - 390.0 == pytest.approx(10.0 - dw, abs=1e-6)


def test_capacity_term_caps_flow(rng):
    # with a huge speed limit and tiny wave speed the h*df term governs
    net, _, _ = corridor_network(1, lanes=1)
    m = NewellModel(dt=0.5)
    m.build(net, [0])
    m.set_routing(
        RoutingContext(
            net,
            vehicle_types={0: VehicleType(0, "routed")},
            routes={0: Route(0, (0,))},
            splits={},
        )
    )
    m.headway_query = lambda rc: 1e9
    lane = m.groups["0:1"]
    _place(m, "0:1", [300.0, 250.0])
    m.compute_demands(0.0, rng)
    df = 1000.0 / 3600.0 * 0.5
    expect = min(100.0 / 3.6 * 0.5, 50.0 - lane.means[1], 50.0 * df)
    assert lane.tent[1] - 250.0 == pytest.approx(expect, abs=1e-9)


def test_exit_demand_is_fifo_prefix(rng):
    m = _model(dt=2.0)
    lane = m.groups["0:1"]
    _place(m, "0:1", [499.0, 250.0, 240.0])  # only the first reaches the end
    reqs = m.compute_demands(0.0, rng)
    assert len(reqs) == 1
    assert [v.id for v in reqs[0].sent] == [0]


def test_rejected_exiter_parks_at_boundary(rng):
    m = _model(dt=2.0)
    lane = m.groups["0:1"]
    m.receive_vehicles(0, _vehs(1), now=0.0)
    lane.x[0] = 499.0
    m.compute_demands(0.0, rng)
    m.advance_state(0.0, rng)  # nothing removed: rejected at the boundary
    assert lane.x[0] == pytest.approx(500.0)
    reqs = m.compute_demands(2.0, rng)
    assert reqs and len(reqs[0].sent) == 1


def test_no_collisions_under_noise():
    rng = np.random.default_rng(99)
    m = _model(dt=2.0, sigma_v=5.0, sigma_w=3.0, sigma_f=0.2)
    lane = m.groups["0:1"]
    next_id = 0
    for k in range(300):
        if m.lane_group_supply("0:1") >= 1:
            m.receive_vehicles(0, _vehs(1, start=next_id), now=k * 2.0)
            next_id += 1
        for req in m.compute_demands(k * 2.0, rng):
            m.remove(req.group_id, None, req.sent)
        m.advance_state(k * 2.0, rng)
        xs = lane.x
        assert all(a > b for a, b in zip(xs, xs[1:])), "ordering lost at step %d" % k


# --- the batched draw against the scalar reference ---------------------


class _SizedRng:
    """A generator that records the size of each normal draw."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.sizes = []

    def normal(self, loc, scale, size=None):
        self.sizes.append(size)
        return self.gen.normal(loc, scale, size)


def _stepped_pair(n_links, lanes, dt, sigmas, limits, cars, eta, seed):
    """One compute_demands of the model and of the scalar reference on twin
    models; returns both models, both request lists and both generators."""
    out = []
    for step in (NewellModel.compute_demands, reference_newell.compute_demands):
        m = _model(n_links, lanes=lanes, dt=dt, **sigmas)
        m.headway_query = lambda rc: eta + rc
        for lid, v in enumerate(limits):
            if v is not None:
                m.set_speed_limit(lid, v)
        for lid, xs in enumerate(cars):
            _place(m, "%d:1" % lid, sorted(xs, reverse=True), start=100 * lid)
        rng = _SizedRng(seed)
        out.append((m, step(m, 0.0, rng), rng))
    return out


def _assert_same_step(pair):
    def cars(m):
        return [(lane.veh[i].id, lane.tent[i].hex(), i < lane.n_exit, lane.rc[i])
                for lane in map(m.groups.get, m.group_ids) for i in range(len(lane.x))]

    def requests(reqs):
        return [(r.group_id, r.rc, [v.id for v in r.sent])
                for r in reqs]

    (m, reqs, rng), (ref, ref_reqs, ref_rng) = pair
    assert cars(m) == cars(ref)
    assert requests(reqs) == requests(ref_reqs)
    assert rng.gen.bit_generator.state == ref_rng.gen.bit_generator.state


SIGMA = st.one_of(st.just(0.0), st.floats(0.01, 20.0))


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n),
        st.integers(1, 3),
        st.sampled_from([0.05, 0.5, 2.0]),
        st.fixed_dictionaries({"sigma_v": SIGMA, "sigma_w": SIGMA, "sigma_f": SIGMA}),
        st.lists(st.one_of(st.none(), st.floats(0.5, 100.0)), min_size=n, max_size=n),
        st.lists(st.lists(st.floats(0.0, 499.0), max_size=6, unique=True),
                 min_size=n, max_size=n),
        st.floats(0.0, 200.0),
        st.integers(0, 2**32 - 1),
    ))
)
def test_batched_draw_matches_scalar_reference(case):
    # small dt, low speed limits and wide sigmas put the means near zero,
    # where the truncation redraws
    _assert_same_step(_stepped_pair(*case))


def test_batched_draw_tops_up_redraws_exactly():
    # means near zero with wide sigmas: about half the slots are redrawn, so
    # the step needs more than its first batch
    pair = _stepped_pair(
        3, 2, 0.05, {"sigma_v": 5.0, "sigma_w": 0.0, "sigma_f": 0.2},
        [0.5, None, 2.0], [[400.0, 300.0, 200.0, 100.0], [], [499.0, 10.0]],
        eta=50.0, seed=3,
    )
    _assert_same_step(pair)
    sizes = pair[0][2].sizes
    assert sizes[0] == 2 * 6 and len(sizes) > 1
    assert all(0 < b <= a for a, b in zip(sizes, sizes[1:]))


def test_no_draws_without_noise():
    pair = _stepped_pair(2, 1, 2.0, {}, [None, None], [[300.0, 200.0], [100.0]],
                         eta=1e9, seed=0)
    _assert_same_step(pair)
    assert pair[0][2].sizes == []


# --- the list step against the scalar per-car loop ----------------------


def _carrying(exts, start):
    """Vehicles arriving with these carried overshoots (None: unknown)."""
    return [Vehicle(id=start + i, state=S, ext=e) for i, e in enumerate(exts)]


def _advanced_pair(n_links, length, dt, sigmas, cars, before, after, keep, seed):
    """One step on twin models, one stepped by the model and one by the
    scalar oracle: fresh cars placed before the demand pass, as a source
    places them; the demand pass; a random subset of each lane's cars
    released (an exit candidate with probability 1/2, any other car with
    1/8, so a release need not lead the lane; none when `keep` is None);
    fresh cars placed, as a junction places them; and the advance. Returns
    both models, their requests and both generators."""
    out = []
    for demands, advance in (
            (NewellModel.compute_demands, NewellModel.advance_state),
            (reference_newell.compute_demands, reference_newell.advance_state)):
        m = _model(n_links, length=length, dt=dt, **sigmas)
        m.headway_query = lambda rc: 5.0 * rc
        for lid, fs in enumerate(cars):
            _place(m, "%d:1" % lid, sorted((f * length for f in fs), reverse=True),
                   start=100 * lid)
        for lid, exts in enumerate(before):
            m.receive_vehicles(lid, _carrying(exts, 1000 + 100 * lid), 0.0)
        rng = np.random.default_rng(seed)
        reqs = demands(m, 0.0, rng)
        if keep is not None:
            pick = np.random.default_rng(keep)
            for gid in m.group_ids:
                lane = m.groups[gid]
                n = len(lane.veh)
                gone = [pick.random() < (0.5 if i < lane.n_exit else 0.125)
                        for i in range(n)]
                vs = [v for v, g in zip(lane.veh, gone) if g]
                # the counts a release must leave: the kept exit candidates
                # at the head and the kept fresh cars at the tail
                n_exit = gone[:lane.n_exit].count(False)
                n_fresh = gone[n - lane.n_fresh:].count(False) if lane.n_fresh else 0
                if vs:
                    m.remove(gid, None, vs)
                assert (lane.n_exit, lane.n_fresh) == (n_exit, n_fresh)
        for lid, exts in enumerate(after):
            m.receive_vehicles(lid, _carrying(exts, 2000 + 100 * lid), 0.0)
        advance(m, 2.0, rng)
        out.append((m, [[v.id for v in r.sent] for r in reqs], rng))
    return out


def _assert_same_lanes(pair):
    def lanes(m):
        return [([v.id for v in g.veh], [x.hex() for x in g.x], [a.hex() for a in g.adv],
                 [t.hex() for t in g.tent], g.rc, g.n_fresh, g.n_exit,
                 [repr(v.ext) for v in g.veh], [v.id for v in g.buffer], g.cum_out)
                for g in map(m.groups.get, m.group_ids)]

    (m, reqs, rng), (ref, ref_reqs, ref_rng) = pair
    assert lanes(m) == lanes(ref)
    assert reqs == ref_reqs
    assert rng.bit_generator.state == ref_rng.bit_generator.state


EXTS = st.lists(st.one_of(st.none(), st.floats(0.0, 60.0)), max_size=3)


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.just(n),
        st.sampled_from([50.0, 500.0]),
        st.sampled_from([0.5, 2.0]),
        st.fixed_dictionaries({"sigma_v": SIGMA, "sigma_w": SIGMA, "sigma_f": SIGMA}),
        st.lists(st.lists(st.floats(0.0, 1.0), max_size=6, unique=True),
                 min_size=n, max_size=n),
        st.lists(EXTS, min_size=n, max_size=n),
        st.lists(EXTS, min_size=n, max_size=n),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
    ))
)
def test_list_step_matches_scalar_oracle(case):
    # a 50 m lane at dt 2 is shorter than one free step, so a newcomer placed
    # before the demand pass is an exit candidate; kept back, it parks
    _assert_same_lanes(_advanced_pair(*case))


def test_a_newcomer_seen_exiting_and_kept_back_parks_at_the_lane_end():
    # placed before the demand pass into an empty 50 m lane, one free step
    # (55.6 m) takes it past the end; nothing is let through
    pair = _advanced_pair(1, 50.0, 2.0, {}, [[]], [[None, 3.0]], [[]], keep=None, seed=0)
    _assert_same_lanes(pair)
    m, reqs, _ = pair[0]
    lane = m.groups["0:1"]
    assert reqs == [[1000]]
    # it parks at the end, and the buffered one is admitted behind it
    assert [v.id for v in lane.veh] == [1000, 1001] and not lane.buffer
    assert lane.x == [50.0, 0.0] and lane.adv == [50.0, 0.0]


def test_a_release_that_is_not_a_prefix_keeps_the_rest_in_order(rng):
    m = _model(dt=2.0)
    lane = m.groups["0:1"]
    _place(m, "0:1", [499.0, 300.0, 200.0, 100.0])
    reqs = m.compute_demands(0.0, rng)
    assert [v.id for v in reqs[0].sent] == [0]
    assert lane.n_exit == 1
    m.receive_vehicles(0, _vehs(1, start=9), 0.0)  # fresh, at the tail
    m.remove("0:1", None, [lane.veh[0], lane.veh[2]])
    assert [v.id for v in lane.veh] == [1, 3, 9]
    assert [lane.x, lane.n_exit, lane.n_fresh] == [[300.0, 100.0, 0.0], 0, 1]
    assert [len(lane.adv), len(lane.rc), len(lane.tent)] == [3, 3, 3]
    m.advance_state(0.0, rng)
    assert lane.x[0] > 300.0 and lane.x[2] > 0.0 and m.audit_failures() == []


# --- variable speed limits reach the cached means -----------------------


def _free_advance(m, rng):
    """How far one free car at 100 m on link 0 moves in the next step."""
    lane = m.groups["0:1"]
    _place(m, "0:1", [100.0])
    m.compute_demands(0.0, rng)
    m.advance_state(0.0, rng)
    return lane.x[0] - 100.0


def test_set_speed_limit_sets_the_free_advance(rng):
    m = _model(n_links=2, dt=2.0)
    m.set_speed_limit(0, 40.0)
    assert m.groups["0:1"].means[0] == 40.0 / 3.6 * 2.0
    assert m.groups["1:1"].means[0] == 100.0 / 3.6 * 2.0
    assert _free_advance(m, rng) == pytest.approx(40.0 / 3.6 * 2.0, abs=1e-9)


def test_vsl_actuator_sets_the_free_advance():
    d = corridor_scenario_dict([("newell", [0, 1])], n_links=2, rate_vph=0.0)
    d["actuators"] = [{"id": 0, "kind": "vsl", "dt": 2.0, "link": 0}]
    eng = Engine(parse_scenario(d))
    eng.actuators[0].apply(eng, 0.0, {"speed_kmh": 30.0})
    m = eng.model_of_link[0]
    assert _free_advance(m, eng.rng) == pytest.approx(30.0 / 3.6 * 2.0, abs=1e-9)


def test_buffer_counts_against_supply(rng):
    m = _model()
    m.receive_vehicles(0, _vehs(3), now=0.0)
    lane = m.groups["0:1"]
    assert len(lane.x) == 1 and len(lane.buffer) == 2
    assert m.lane_group_supply("0:1") == 0.0


# --- ring-road fundamental diagram harness -----------------------------


def ring_flow(density_per_km, steps=400, seed=5, length=500.0, **sig):
    """Steady flow (veh/hr) of a two-link ring at the given density.

    The step size makes the effective jam spacing equal the road's, so the
    σ=0 dynamics should reproduce the triangular flow-density relation.
    """
    p = std_params()
    links = [
        Link(id=0, length=length, full_lanes=1, params=p),
        Link(id=1, length=length, full_lanes=1, params=p),
    ]
    rcs = [
        RoadConnection(0, 0, frozenset([1]), 1, frozenset([1])),
        RoadConnection(1, 1, frozenset([1]), 0, frozenset([1])),
    ]
    net = Network.build(links, rcs)
    w_ms = p.congestion_wave_speed / 3.6
    rho_jam = p.jam_density_per_lane / 1000.0  # veh/m single lane
    dt = 1.0 / (w_ms * rho_jam)
    m = NewellModel(dt=dt, **sig)
    m.build(net, [0, 1])
    m.set_routing(
        RoutingContext(
            net,
            vehicle_types={1: VehicleType(1, "probabilistic")},
            routes={},
            splits={},
        )
    )
    down_group = {0: "1:1", 1: "0:1"}
    m.headway_query = lambda rc: m.distance_to_last_vehicle(down_group[rc])
    # seed vehicles evenly, already keyed to their next link
    n_total = int(round(density_per_km * 2 * length / 1000.0))
    per_link = [n_total // 2 + (n_total % 2), n_total // 2]
    vid = 0
    for lid in (0, 1):
        # evenly spaced, downstream-most first, tagged with the next link
        k = per_link[lid]
        state = StateIndex(1, 1 - lid)
        _seed(m, "%d:1" % lid, [Vehicle(vid + j, state) for j in range(k)],
              [length - (j + 0.5) * length / k for j in range(k)])
        vid += k
    rng = np.random.default_rng(seed)
    crossings = 0
    warmup = steps // 2
    for s in range(steps):
        for req in m.compute_demands(s * dt, rng):
            rc = req.rc
            gid = down_group[rc]
            supply = m.lane_group_supply(gid)
            take = req.sent[: int(supply)]
            if not take:
                continue
            m.remove(req.group_id, rc, take)
            for v in take:
                v.state = StateIndex(1, 0 if rc == 0 else 1)
            m.receive_vehicles(1 if rc == 0 else 0, take, s * dt)
            if s >= warmup:
                crossings += len(take)
        m.advance_state(s * dt, rng)
    hours = (steps - warmup) * dt / 3600.0
    return crossings / 2.0 / hours  # two boundaries


def triangular_flow(density_per_km):
    p = std_params()
    return min(
        p.speed_limit * density_per_km,
        p.congestion_wave_speed * (p.jam_density_per_lane - density_per_km),
    )


@pytest.mark.parametrize("rho", [4.0, 10.0, 30.0, 60.0, 90.0])
def test_ring_fd_matches_triangle(rho):
    q = ring_flow(rho, steps=600)
    expect = triangular_flow(rho)
    assert q == pytest.approx(expect, rel=0.02), "rho=%s: %s vs %s" % (rho, q, expect)


# --- the audit hook -----------------------------------------------------


def _swap(lane):
    lane.x[0], lane.x[1] = lane.x[1], lane.x[0]
    return "ahead of the car in front"


def _nan(lane):
    lane.x[-1] = math.nan
    return "at nan m, outside [0, 500.0]"


def _short(lane):
    lane.tent.pop()
    n = len(lane.veh)
    return "car lists of lengths %s" % [n, n, n, n, n - 1]


def _fresh(lane):
    lane.n_fresh = len(lane.x) + 1
    return "%d fresh cars of %d" % (lane.n_fresh, len(lane.x))


@pytest.mark.parametrize("corrupt", [_swap, _nan, _short, _fresh])
def test_run_audit_names_a_corrupted_lane(corrupt, tmp_path, capsys, monkeypatch):
    # the lane is corrupted after the last advance, where the audit reads it
    d = corridor_scenario_dict([("newell", [0, 1])], n_links=2, duration=100.0)
    advance = NewellModel.advance_state
    expected = []

    def advance_and_corrupt(self, now, rng):
        advance(self, now, rng)
        if now == 100.0:
            expected.append(corrupt(self.groups["0:1"]))

    monkeypatch.setattr(NewellModel, "advance_state", advance_and_corrupt)
    p = tmp_path / "s.yaml"
    p.write_text(yaml.safe_dump(d))
    assert cli_main(["run", str(p), "--audit", "--out-dt", "1000",
                     "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error: audit found 1 failure(s), the first:"
    assert err[1].startswith("  t=100.000 lane group 0:1: ")
    assert expected[0] in err[1]
