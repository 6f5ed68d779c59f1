import pytest

from conftest import corridor_network, std_params
from hybridtraffic.network import (
    Link,
    Network,
    NetworkError,
    PartialLaneStructure,
    RoadConnection,
    RoadParams,
    validate_network,
)


def test_road_params_derived_quantities():
    p = std_params()
    assert p.critical_density == pytest.approx(10.0)
    # w = 1000 / (100 - 10) km/h
    assert p.congestion_wave_speed == pytest.approx(11.1111, rel=1e-4)


def test_road_params_rejects_bad_values():
    with pytest.raises(NetworkError):
        RoadParams(capacity_per_lane=-1, speed_limit=100, jam_density_per_lane=100)
    with pytest.raises(NetworkError):
        # critical density would equal jam density
        RoadParams(capacity_per_lane=1000, speed_limit=10, jam_density_per_lane=100)


def test_lane_numbering_with_partials():
    link = Link(
        id=0, length=500, full_lanes=2, params=std_params(),
        partials=(
            PartialLaneStructure(position="inner-downstream", lanes=1, length=100),
            PartialLaneStructure(position="outer-downstream", lanes=1, length=80),
        ),
    )
    assert link.lanes == [0, 1, 2, 3]
    assert link.lane_length(0) == 100
    assert link.lane_length(1) == 500
    assert link.lane_length(3) == 80
    # network.py asks only for the lanes of a link's own lane groups; a
    # caller asking for another lane is told so
    with pytest.raises(NetworkError, match="^link 0 has no lane 4$"):
        link.lane_length(4)


def test_lane_groups_single_pipe():
    net, links, rcs = corridor_network(3)
    assert net.link_groups[0] == ["0:1"]
    g = net.lane_groups["0:1"]
    assert g.lanes == (1, 2)
    assert g.exiting_rcs == (0,)
    assert g.length == 500


def test_lane_groups_split_by_exit_sets():
    # 3-lane link: lane 1 turns to link 1, lanes 2-3 go to link 2
    links = [
        Link(id=0, length=500, full_lanes=3, params=std_params()),
        Link(id=1, length=500, full_lanes=1, params=std_params()),
        Link(id=2, length=500, full_lanes=2, params=std_params()),
    ]
    rcs = [
        RoadConnection(0, 0, frozenset([1]), 1, frozenset([1])),
        RoadConnection(1, 0, frozenset([2, 3]), 2, frozenset([1, 2])),
    ]
    net = Network.build(links, rcs)
    assert net.link_groups[0] == ["0:1", "0:2"]
    assert net.lane_groups["0:1"].exiting_rcs == (0,)
    assert net.lane_groups["0:2"].exiting_rcs == (1,)
    assert net.rc_down_groups[1] == ["2:1"]
    assert net.rc_up_groups[1] == ["0:2"]


def test_lane_groups_shared_lane_merges_runs():
    # lane 2 carries both exits, so it forms its own group
    links = [
        Link(id=0, length=500, full_lanes=3, params=std_params()),
        Link(id=1, length=500, full_lanes=2, params=std_params()),
        Link(id=2, length=500, full_lanes=2, params=std_params()),
    ]
    rcs = [
        RoadConnection(0, 0, frozenset([1, 2]), 1, frozenset([1, 2])),
        RoadConnection(1, 0, frozenset([2, 3]), 2, frozenset([1, 2])),
    ]
    net = Network.build(links, rcs)
    assert net.link_groups[0] == ["0:1", "0:2", "0:3"]
    assert net.lane_groups["0:2"].exiting_rcs == (0, 1)


def test_ambiguous_turning_options_rejected():
    link = Link(id=0, length=500, full_lanes=2, params=std_params())
    dn = Link(id=1, length=500, full_lanes=2, params=std_params())
    rcs = [
        RoadConnection(0, 0, frozenset([1, 2]), 1, frozenset([1])),
        RoadConnection(1, 0, frozenset([1, 2]), 1, frozenset([2])),
    ]
    net = Network.build([link, dn], rcs)
    diags = validate_network(net)
    assert any("ambiguous" in d for d in diags)


def test_lane_access_fraction():
    links = [
        Link(id=0, length=500, full_lanes=1, params=std_params()),
        Link(id=1, length=500, full_lanes=3, params=std_params()),
    ]
    rcs = [RoadConnection(0, 0, frozenset([1]), 1, frozenset([2, 3]))]
    net = Network.build(links, rcs)
    # downstream link is one 3-lane group, 2 of 3 lanes reachable
    assert net.lane_access_fraction(0, "1:1") == pytest.approx(2 / 3)
    # the engine asks only for the lane groups an rc reaches; a caller
    # asking for another one is told so, not handed a share of 0
    with pytest.raises(NetworkError, match="^lane group 0:1 is not downstream of road "
                       "connection 0$"):
        net.lane_access_fraction(0, "0:1")


def test_validate_reports_missing_links_and_lanes():
    links = [Link(id=0, length=500, full_lanes=2, params=std_params())]
    rcs = [RoadConnection(0, 0, frozenset([1, 2]), 9, frozenset([1]))]
    net = Network.build(links, rcs)
    diags = validate_network(net)
    assert any("does not exist" in d for d in diags)


def test_non_contiguous_rc_lanes_rejected():
    with pytest.raises(NetworkError):
        RoadConnection(0, 0, frozenset([1, 3]), 1, frozenset([1]))


def test_terminal_and_next_links():
    net, _, _ = corridor_network(3)
    assert not net.is_terminal(0)
    assert net.is_terminal(2)
    assert net.next_links(0) == [1]
    assert net.rc_between(0, 1).id == 0
    assert net.rc_between(0, 2) is None
