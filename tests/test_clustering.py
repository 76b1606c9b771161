import math
import random

import pytest

from iovsim.clustering import (
    ClusterId,
    assign_clusters,
    nearest_cluster,
    ring_index,
    sector_index,
    sector_midline,
)
from iovsim.network import Node, PacketQueue, Position, polar_angle


def _node(nid, x, y, energy=10.0):
    return Node(nid, Position(x, y), energy, PacketQueue(4))


def test_ring_worked_example():
    # distance 500 at a 100 m stride is exactly ring 5
    assert ring_index(Position(300, 400), Position(0, 0), 100.0) == 5


def test_ring_zero_only_at_destination():
    dest = Position(10, 10)
    assert ring_index(dest, dest, 50.0) == 0
    assert ring_index(Position(10, 10.0001), dest, 50.0) == 1


def test_ring_rejects_bad_stride():
    with pytest.raises(ValueError):
        ring_index(Position(0, 0), Position(1, 1), 0.0)


def test_ring_against_counting_oracle():
    rng = random.Random(11)
    checked = 0
    while checked < 1000:
        pos = Position(rng.uniform(0, 2500), rng.uniform(0, 2500))
        dest = Position(rng.uniform(0, 2500), rng.uniform(0, 2500))
        stride = rng.uniform(10.0, 600.0)
        d = math.dist((pos.x, pos.y), (dest.x, dest.y))
        if d == 0.0 or abs(d / stride - round(d / stride)) < 1e-9:
            continue  # keep away from exact ring boundaries
        k = 0
        while k * stride < d:
            k += 1
        assert ring_index(pos, dest, stride) == k
        checked += 1


def test_sector_quadrants():
    dest = Position(0, 0)
    assert sector_index(Position(5, 0), dest, 4) == 0
    assert sector_index(Position(0, 5), dest, 4) == 1
    assert sector_index(Position(-5, 0), dest, 4) == 2
    assert sector_index(Position(0, -5), dest, 4) == 3
    assert sector_index(dest, dest, 4) == 0


def test_single_sector_degenerates_to_rings():
    dest = Position(0, 0)
    rng = random.Random(3)
    for _ in range(100):
        pos = Position(rng.uniform(-100, 100), rng.uniform(-100, 100))
        assert sector_index(pos, dest, 1) == 0


def test_signed_zero_destination_is_sector_zero():
    # the destination test compares coordinates, so -0.0 == 0.0 holds;
    # the angle alone would put this point at pi, half way round
    assert math.atan2(0.0, -0.0) == math.pi
    for k in (2, 4, 7):
        assert sector_index(Position(-0.0, 0.0), Position(0.0, 0.0), k) == 0
        assert sector_index(Position(0.0, -0.0), Position(-0.0, 0.0), k) == 0


def test_sector_matches_floor_of_angle_fraction():
    rng = random.Random(17)
    coord = lambda: rng.choice([rng.uniform(-500, 500), float(rng.randint(-3, 3))])
    for k in range(1, 17):
        for _ in range(300):
            dest, pos = Position(coord(), coord()), Position(coord(), coord())
            if pos == dest:
                continue
            theta = polar_angle(pos, around=dest)
            want = min(math.floor(k * theta / (2 * math.pi)), k - 1)
            assert sector_index(pos, dest, k) == want, (pos, dest, k)


def test_full_cluster_id_example():
    # node due north at one stride: ring 1, second of four quadrant sectors
    nodes = {0: _node(0, 0.0, 0.0), 1: _node(1, 0.0, 100.0)}
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=100.0, sector_count=4)
    assert assignment.by_node[0] == ClusterId(ring=0, sector=0)
    assert assignment.by_node[1] == ClusterId(ring=1, sector=1)


def test_assignment_covers_live_nodes_once_and_is_idempotent():
    rng = random.Random(9)
    nodes = {i: _node(i, rng.uniform(0, 500), rng.uniform(0, 500)) for i in range(40)}
    nodes[7].residual_energy = 0.0  # dead, must not be assigned
    a1 = assign_clusters(nodes, dest_id=3, d_1hop=120.0, sector_count=8)
    a2 = assign_clusters(nodes, dest_id=3, d_1hop=120.0, sector_count=8)
    assert a1.by_node == a2.by_node
    assert set(a1.by_node) == {i for i in range(40) if i != 7}
    assert a1.by_node[3].ring == 0
    for cid in a1.by_node.values():
        assert cid.ring >= 0
        assert 0 <= cid.sector < 8


def test_assignment_requires_live_destination():
    nodes = {0: _node(0, 0, 0, energy=0.0), 1: _node(1, 5, 5)}
    with pytest.raises(ValueError):
        assign_clusters(nodes, dest_id=0, d_1hop=10.0, sector_count=4)


def eager_oracle(nodes, dest_id, d_1hop, sector_count):
    dest = nodes[dest_id].pos
    return {
        n.id: ClusterId(ring_index(n.pos, dest, d_1hop), sector_index(n.pos, dest, sector_count))
        for n in nodes.values() if n.alive
    }


def test_lazy_assignment_matches_eager_oracle():
    rng = random.Random(12)
    for _ in range(30):
        count = rng.randint(2, 80)
        nodes = {i: _node(i, rng.uniform(-300, 900), rng.uniform(-300, 900)) for i in range(count)}
        for nid in rng.sample(range(count), count // 4):
            nodes[nid].residual_energy = 0.0
        dest = rng.choice([i for i in range(count) if nodes[i].alive])
        d_1hop, sectors = rng.uniform(20.0, 400.0), rng.randint(1, 12)
        want = eager_oracle(nodes, dest, d_1hop, sectors)
        # looked up in a random order, one at a time, then as a whole
        assignment = assign_clusters(list(nodes.values()), dest, d_1hop, sectors)
        for nid in rng.sample(sorted(want), len(want)):
            assert assignment.by_node[nid] == want[nid]
        assert dict(assignment.by_node) == want
        assert assign_clusters(nodes, dest, d_1hop, sectors).by_node == want


def test_lazy_assignment_keys_are_the_nodes_live_at_the_call():
    rng = random.Random(13)
    nodes = {i: _node(i, rng.uniform(0, 500), rng.uniform(0, 500)) for i in range(30)}
    for nid in (4, 11, 29):
        nodes[nid].residual_energy = 0.0
    live = [i for i in range(30) if i not in (4, 11, 29)]
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=100.0, sector_count=8)
    want = eager_oracle(nodes, 0, 100.0, 8)
    nodes[5].residual_energy = 0.0      # dies after the call: still a member
    nodes[4].residual_energy = 10.0     # revives after the call: still not
    by_node = assignment.by_node
    assert len(by_node) == len(live)
    assert list(by_node) == live
    assert all(i in by_node for i in live)
    assert 4 not in by_node and 11 not in by_node and 30 not in by_node
    assert by_node.get(4) is None
    with pytest.raises(KeyError):
        by_node[4]
    assert dict(by_node) == want
    with pytest.raises(TypeError):
        by_node[6] = ClusterId(0, 0)


def brute_nearest_members(pool, want, at, dest, max_ring, sector_count):
    """nearest_members by nearest_cluster over every member's eager ClusterId."""
    members = [n for n in pool if n.id in want and want[n.id].ring <= max_ring]
    if not members:
        return []
    chosen = nearest_cluster([want[n.id] for n in members], polar_angle(at, around=dest),
                             sector_count)
    return [n for n in members if want[n.id] == chosen]


@pytest.mark.parametrize("d_1hop,sector_count", [(150.0, 8), (300.0, 3), (450.0, 1)])
def test_memos_hold_one_assignment_and_only_its_members(d_1hop, sector_count):
    # several assignments over the same positions, each queried through
    # nearest_members with pools that hold non-members (dead at the call,
    # revived after it); every answer and every later lookup must match
    # ring_index and sector_index for that assignment alone
    rng = random.Random(14)
    nodes = {i: _node(i, rng.uniform(0, 900), rng.uniform(0, 900)) for i in range(60)}
    dead = rng.sample(range(60), 10)
    for nid in dead:
        nodes[nid].residual_energy = 0.0
    assignments = [assign_clusters(nodes, dest, d_1hop, sector_count)
                   for dest in rng.sample([i for i in range(60) if nodes[i].alive], 6)]
    for nid in dead:
        nodes[nid].residual_energy = 10.0
    picked = 0
    for assignment in assignments:
        amap = assignment.by_node
        dest = nodes[assignment.destination].pos
        want = eager_oracle(nodes, assignment.destination, d_1hop, sector_count)
        for nid in dead:
            want.pop(nid)
        for cur in sorted(want):
            if cur == assignment.destination:
                continue
            at = nodes[cur].pos
            pool = [n for n in nodes.values() if n.id not in (cur, assignment.destination)
                    and math.dist((at.x, at.y), (n.pos.x, n.pos.y)) <= 150.0]
            got = amap.nearest_members(pool, at, amap.ring_of(cur))
            assert got == brute_nearest_members(pool, want, at, dest, want[cur].ring,
                                                sector_count)
            picked += len(got)
        for nid in rng.sample(sorted(want), len(want)):
            assert amap.ring_of(nid) == want[nid].ring
            assert amap[nid] == want[nid]
        assert all(nid not in amap and amap.get(nid) is None for nid in dead)
    assert picked > 0


@pytest.mark.parametrize("d_1hop,sector_count", [
    (0.0, 8), (-5.0, 8), (float("nan"), 8), (100.0, 0), (100.0, float("nan")),
])
def test_bad_parameters_raise_from_assign_clusters(d_1hop, sector_count):
    nodes = {0: _node(0, 0.0, 0.0), 1: _node(1, 30.0, 40.0)}
    with pytest.raises(ValueError):
        assign_clusters(nodes, dest_id=0, d_1hop=d_1hop, sector_count=sector_count)


def test_dead_or_missing_destination_raises_from_assign_clusters():
    nodes = {0: _node(0, 0.0, 0.0), 1: _node(1, 30.0, 40.0, energy=0.0)}
    for dest in (1, 2):
        with pytest.raises(ValueError):
            assign_clusters(nodes, dest_id=dest, d_1hop=100.0, sector_count=8)


def test_nearest_cluster_prefers_lower_ring():
    picked = nearest_cluster([ClusterId(5, 2), ClusterId(3, 6)], toward=0.0, sector_count=8)
    assert picked == ClusterId(3, 6)


def test_nearest_cluster_ring_tie_breaks_on_bearing_then_index():
    # eight sectors of 45 degrees; bearing 60 degrees sits inside sector 1
    toward = math.radians(60.0)
    picked = nearest_cluster([ClusterId(3, 0), ClusterId(3, 1)], toward, sector_count=8)
    assert picked == ClusterId(3, 1)
    # equidistant midlines: boundary bearing 45 degrees, lower index wins
    toward = math.radians(45.0)
    picked = nearest_cluster([ClusterId(3, 1), ClusterId(3, 0)], toward, sector_count=8)
    assert picked == ClusterId(3, 0)


def test_nearest_cluster_empty_rejected():
    with pytest.raises(ValueError):
        nearest_cluster([], toward=0.0, sector_count=8)


def test_sector_midline_wraps():
    assert sector_midline(0, 8) == pytest.approx(math.radians(22.5))
    assert sector_midline(7, 8) == pytest.approx(math.radians(337.5))
