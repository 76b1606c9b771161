import decimal
import math
import random
from dataclasses import replace

import pytest

from iovsim.network import (
    IDLE,
    RX,
    TX,
    EnergyLedger,
    EnergyModel,
    NetworkConfig,
    Node,
    PacketQueue,
    Position,
    deploy,
    distance,
    neighbour_index,
    polar_angle,
)


def test_distance_against_high_precision_oracle():
    rng = random.Random(101)
    decimal.getcontext().prec = 50
    for _ in range(1000):
        a = Position(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
        b = Position(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
        dx = decimal.Decimal(a.x) - decimal.Decimal(b.x)
        dy = decimal.Decimal(a.y) - decimal.Decimal(b.y)
        expected = float((dx * dx + dy * dy).sqrt())
        assert distance(a, b) == pytest.approx(expected, rel=1e-9)


def test_polar_angle_quadrants():
    origin = Position(0.0, 0.0)
    assert polar_angle(Position(1, 0), origin) == 0.0
    assert polar_angle(Position(0, 1), origin) == pytest.approx(math.pi / 2)
    assert polar_angle(Position(-1, 0), origin) == pytest.approx(math.pi)
    assert polar_angle(Position(0, -1), origin) == pytest.approx(3 * math.pi / 2)
    assert 0.0 <= polar_angle(Position(5, -1e-9), origin) < 2 * math.pi


def test_deploy_is_seed_deterministic_and_in_bounds():
    cfg = NetworkConfig(node_count=50, rng_seed=42)
    a = deploy(cfg)
    b = deploy(cfg)
    assert [(n.pos.x, n.pos.y) for n in a.values()] == [(n.pos.x, n.pos.y) for n in b.values()]
    c = deploy(NetworkConfig(node_count=50, rng_seed=43))
    assert [(n.pos.x, n.pos.y) for n in a.values()] != [(n.pos.x, n.pos.y) for n in c.values()]
    for n in a.values():
        assert 0.0 <= n.pos.x <= cfg.area_side
        assert 0.0 <= n.pos.y <= cfg.area_side
        assert n.residual_energy == cfg.initial_energy_mj
        assert n.alive


def test_deploy_builds_no_queues():
    nodes = deploy(NetworkConfig(node_count=30, queue_capacity=7))
    assert all(n.queue is None for n in nodes.values())


def test_deploy_empirical_mean_near_center():
    cfg = NetworkConfig(node_count=4000, area_side=2500.0, rng_seed=5)
    nodes = deploy(cfg)
    mean_x = sum(n.pos.x for n in nodes.values()) / len(nodes)
    mean_y = sum(n.pos.y for n in nodes.values()) / len(nodes)
    assert abs(mean_x - 1250.0) <= 0.05 * 1250.0
    assert abs(mean_y - 1250.0) <= 0.05 * 1250.0


def test_charge_worked_values():
    model = EnergyModel()
    node = Node(0, Position(0, 0), 10.0, PacketQueue(4))
    assert EnergyLedger(model).charge(node, TX) == pytest.approx(0.4)
    assert node.residual_energy == pytest.approx(9.6)

    node = Node(0, Position(0, 0), 5.0, PacketQueue(4))
    ledger = EnergyLedger(model)
    ledger.charge(node, TX)
    ledger.charge(node, RX)
    ledger.charge(node, IDLE)
    assert node.residual_energy == pytest.approx(4.4875)


def test_charge_floors_at_zero_and_dead_is_reported_noop():
    model = EnergyModel()
    node = Node(0, Position(0, 0), 0.05, PacketQueue(4))
    ledger = EnergyLedger(model)
    drawn = ledger.charge(node, RX)
    assert drawn == pytest.approx(0.05)
    assert node.residual_energy == 0.0
    assert not node.alive
    assert ledger.charge(node, TX) == 0.0
    assert ledger.dead_noops == 1
    assert node.residual_energy == 0.0


def test_death_count_moves_only_when_a_charge_empties_a_battery():
    model = EnergyModel(tx=0.4, rx=0.1, idle=0.0)
    rng = random.Random(17)
    nodes = [Node(i, Position(0, 0), rng.choice([0.1, 0.4, 0.5, 1.0, 1.3]), PacketQueue(4))
             for i in range(12)]
    ledger = EnergyLedger(model)
    for _ in range(400):
        node = rng.choice(nodes)
        was_alive, deaths, noops = node.alive, ledger.deaths, ledger.dead_noops
        ledger.charge(node, rng.choice([TX, RX, IDLE]))
        if was_alive:
            assert ledger.deaths == deaths + (not node.alive)
            assert ledger.dead_noops == noops
        else:  # a dead-node no-op never counts as a death
            assert ledger.deaths == deaths
            assert ledger.dead_noops == noops + 1
    assert ledger.deaths == sum(not n.alive for n in nodes) > 0


def test_energy_conservation_against_ledger():
    model = EnergyModel()
    rng = random.Random(7)
    nodes = [Node(i, Position(0, 0), rng.uniform(0.5, 20.0), PacketQueue(4)) for i in range(20)]
    initial = {n.id: n.residual_energy for n in nodes}
    ledger = EnergyLedger(model)
    for _ in range(500):
        ledger.charge(rng.choice(nodes), rng.choice([TX, RX, IDLE, "sleep", "transition"]))
    battery_delta = sum(initial[n.id] - n.residual_energy for n in nodes)
    assert battery_delta == pytest.approx(ledger.total_drawn, rel=1e-12)
    per_node = {n.id: 0.0 for n in nodes}
    for nid, _action, amount in ledger.entries:
        per_node[nid] += amount
    for n in nodes:
        assert initial[n.id] - n.residual_energy == pytest.approx(per_node[n.id], abs=1e-9)


def test_unknown_energy_action_rejected():
    model = EnergyModel()
    with pytest.raises(ValueError):
        model.cost_of("warp")
    with pytest.raises(ValueError):
        EnergyModel(tx=-0.1)


def test_queue_priority_and_fifo():
    q = PacketQueue(4)
    q.push("d1", PacketQueue.DATA)
    q.push("c1", PacketQueue.CONTROL)
    q.push("d2", PacketQueue.DATA)
    q.push("c2", PacketQueue.CONTROL)
    assert [q.pop() for _ in range(4)] == ["c1", "c2", "d1", "d2"]
    with pytest.raises(IndexError):
        q.pop()


def test_queue_drop_tail():
    q = PacketQueue(2)
    assert q.push(1) and q.push(2)
    assert not q.push(3)
    # a full queue sheds control packets too: priority orders service,
    # it does not make room
    assert not q.push(3, PacketQueue.CONTROL)
    assert q.dropped == 2
    assert len(q) == 2
    q.clear()
    assert len(q) == 0
    assert q.push(4)
    with pytest.raises(ValueError):
        PacketQueue(0)
    with pytest.raises(ValueError):
        q.push(5, "bulk")


def test_network_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(node_count=1)
    with pytest.raises(ValueError):
        NetworkConfig(radio_range=0)
    with pytest.raises(ValueError):
        NetworkConfig(sector_count=0)
    with pytest.raises(ValueError):
        NetworkConfig(packet_size=0)
    with pytest.raises(ValueError):
        NetworkConfig(link_rate_bps=0)


@pytest.mark.parametrize("area_side,radio_range", [
    (2500.0, 1e-320), (1.5e308, 550.0), (1e300, 1e-10),
])
def test_network_config_rejects_geometry_that_overflows(area_side, radio_range):
    # distances in radio ranges (ring indices, grid cells) must stay finite
    with pytest.raises(ValueError):
        NetworkConfig(area_side=area_side, radio_range=radio_range)


def test_network_config_accepts_extreme_but_finite_geometry():
    cfg = NetworkConfig(area_side=1e300, radio_range=1e-5)
    nodes = deploy(replace(cfg, node_count=5))
    assert all(ids == () for ids in neighbour_index(nodes, cfg.radio_range).values())


def test_per_hop_delay():
    cfg = NetworkConfig()
    assert cfg.per_hop_delay_ms() == pytest.approx(512 / 2_000_000 * 1000 + 0.1)


def brute_neighbours(nodes, radio_range):
    return {
        a.id: tuple(sorted(b.id for b in nodes.values()
                           if b.id != a.id and distance(a.pos, b.pos) <= radio_range))
        for a in nodes.values()
    }


def nodes_at(points, ids=None):
    ids = list(range(len(points))) if ids is None else ids
    return {nid: Node(nid, Position(x, y), 1.0, PacketQueue(1))
            for nid, (x, y) in zip(ids, points)}


def test_neighbour_index_matches_brute_force_on_random_topologies():
    rng = random.Random(21)
    for _ in range(60):
        count = rng.randint(2, 150)
        area = rng.uniform(10.0, 4000.0)
        radio_range = rng.uniform(5.0, 900.0)
        origin = rng.uniform(-2000.0, 2000.0)
        points = [(origin + rng.uniform(0, area), origin + rng.uniform(0, area))
                  for _ in range(count)]
        nodes = nodes_at(points, ids=rng.sample(range(10_000), count))
        assert neighbour_index(nodes, radio_range) == brute_neighbours(nodes, radio_range)


def test_neighbour_index_of_a_deployment_matches_brute_force():
    for seed in (1, 2, 3):
        cfg = NetworkConfig(node_count=300, area_side=4330.0, rng_seed=seed)
        nodes = deploy(cfg)
        index = neighbour_index(nodes, cfg.radio_range)
        assert index == brute_neighbours(nodes, cfg.radio_range)
        assert all(list(ids) == sorted(ids) for ids in index.values())


@pytest.mark.parametrize("radio_range", [550.0, 0.1, 1.0 / 3.0, 7.0])
def test_neighbour_index_at_exact_range_on_cell_borders(radio_range):
    # a lattice one radio range apart puts every node on a cell corner and
    # every axis neighbour at exactly radio_range (up to the float product)
    points = [(i * radio_range, j * radio_range) for i in range(-3, 4) for j in range(-3, 4)]
    # and one float step either side of each border
    points += [(math.nextafter(i * radio_range, math.inf),
                math.nextafter(j * radio_range, -math.inf))
               for i in range(-3, 4) for j in range(-3, 4)]
    nodes = nodes_at(points)
    index = neighbour_index(nodes, radio_range)
    assert index == brute_neighbours(nodes, radio_range)
    if radio_range == 550.0:
        corner = points.index((0.0, 0.0))
        east, diagonal = points.index((550.0, 0.0)), points.index((550.0, 550.0))
        assert east in index[corner] and diagonal not in index[corner]


def test_neighbour_index_when_range_exceeds_the_area():
    rng = random.Random(5)
    nodes = nodes_at([(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(30)])
    index = neighbour_index(nodes, 1000.0)
    assert index == {i: tuple(j for j in range(30) if j != i) for i in range(30)}


def test_neighbour_index_co_located_and_isolated_nodes():
    nodes = nodes_at([(5.0, 5.0), (5.0, 5.0), (500.0, 500.0)])
    assert neighbour_index(nodes, 10.0) == {0: (1,), 1: (0,), 2: ()}
