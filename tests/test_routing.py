import math
import random
from collections import ChainMap

import pytest

from iovsim.attacks import make_phantoms, phantom_neighbours
from iovsim.clustering import (ClusterId, assign_clusters, assign_positions, nearest_cluster,
                               ring_index, sector_index)
from iovsim.network import (RX, TX, EnergyLedger, NetworkConfig, Position, distance,
                            neighbour_index, polar_angle)
from iovsim.routing import (
    DELIVERED,
    ENERGY_EXHAUSTED,
    NO_CANDIDATE,
    RouteTrace,
    next_hop,
    relative_trust,
    route,
)

from helpers import node_with_tl, random_connected_nodes, random_record

R = 100.0


def chain_nodes(spacing: float = 90.0, count: int = 5, energy: float = 100.0):
    """Dest at the origin plus count-1 relays strung east, one hop apart."""
    return {
        i: node_with_tl(i, Position(spacing * i, 0.0), tl=energy)
        for i in range(count)
    }


def cfg_for(nodes_count: int = 5) -> NetworkConfig:
    return NetworkConfig(node_count=nodes_count, area_side=1000.0, radio_range=R,
                         sector_count=4)


def test_relative_trust_worked_value():
    a = node_with_tl(0, Position(0.0, 0.0), 3.0)
    b = node_with_tl(1, Position(4.0, 0.0), 4.0)
    assert relative_trust(a, b) == pytest.approx(1.0 / (4.0 * 5.0))


def test_relative_trust_undefined_cases():
    a = node_with_tl(0, Position(1.0, 1.0), 1.0)
    b = node_with_tl(1, Position(1.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        relative_trust(a, b)
    c = node_with_tl(2, Position(5.0, 1.0), 0.0)
    d = node_with_tl(3, Position(9.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        relative_trust(c, d)


def test_next_hop_direct_delivery_wins():
    nodes = chain_nodes()
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=R, sector_count=4)
    got = next_hop(nodes[1], nodes[0], assignment, nodes, R)
    assert got == 0


def test_next_hop_descends_one_ring_on_a_chain():
    nodes = chain_nodes()
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=R, sector_count=4)
    assert next_hop(nodes[4], nodes[0], assignment, nodes, R) == 3
    assert next_hop(nodes[3], nodes[0], assignment, nodes, R) == 2


def test_next_hop_prefers_lower_ring_over_lateral():
    dest = node_with_tl(0, Position(0.0, 0.0), 1.0)
    cur = node_with_tl(1, Position(0.0, 250.0), 1.0)      # ring 3
    lower = node_with_tl(2, Position(0.0, 170.0), 1.0)    # ring 2, in range
    lateral = node_with_tl(3, Position(60.0, 240.0), 9.0)  # ring 3, in range
    nodes = {n.id: n for n in (dest, cur, lower, lateral)}
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=R, sector_count=4)
    assert next_hop(cur, dest, assignment, nodes, R) == 2


def test_next_hop_lateral_only_as_fallback():
    dest = node_with_tl(0, Position(0.0, 0.0), 1.0)
    cur = node_with_tl(1, Position(0.0, 250.0), 1.0)        # ring 3
    lateral = node_with_tl(2, Position(-240.0, 60.0), 1.0)  # ring 3, out of range
    nodes = {n.id: n for n in (dest, cur, lateral)}
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=R, sector_count=4)
    # no lower ring and no reachable peer: stuck
    assert next_hop(cur, dest, assignment, nodes, R) is None
    near_lateral = node_with_tl(3, Position(-60.0, 240.0), 1.0)  # ring 3, in range
    nodes[3] = near_lateral
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=R, sector_count=4)
    assert next_hop(cur, dest, assignment, nodes, R) == 3


def test_next_hop_never_climbs():
    dest = node_with_tl(0, Position(0.0, 0.0), 1.0)
    cur = node_with_tl(1, Position(0.0, 150.0), 1.0)     # ring 2
    higher = node_with_tl(2, Position(0.0, 230.0), 5.0)  # ring 3, in range
    nodes = {n.id: n for n in (dest, cur, higher)}
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=R, sector_count=4)
    assert next_hop(cur, dest, assignment, nodes, R) is None


def test_next_hop_ranking_prefers_long_stride():
    # equal trust everywhere: the lowest relative-trust candidate is the
    # farthest one; the argmax flag flips the choice
    dest = node_with_tl(0, Position(0.0, 0.0), 1.0)
    cur = node_with_tl(1, Position(0.0, 250.0), 1.0)
    far = node_with_tl(2, Position(0.0, 160.0), 1.0)     # 90 m stride
    near = node_with_tl(3, Position(-30.0, 170.0), 1.0)  # 85.4 m stride
    nodes = {n.id: n for n in (dest, cur, far, near)}
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=R, sector_count=4)
    assert next_hop(cur, dest, assignment, nodes, R) == 2
    assert next_hop(cur, dest, assignment, nodes, R, rtl_argmax=True) == 3


def test_next_hop_zero_trust_falls_back_to_lowest_id():
    dest = node_with_tl(0, Position(0.0, 0.0), 0.0)
    cur = node_with_tl(1, Position(0.0, 250.0), 0.0)
    c_a = node_with_tl(7, Position(0.0, 160.0), 0.0)
    c_b = node_with_tl(5, Position(-10.0, 165.0), 0.0)
    nodes = {n.id: n for n in (dest, cur, c_a, c_b)}
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=R, sector_count=4)
    assert next_hop(cur, dest, assignment, nodes, R) == 5


def test_next_hop_degenerate_pair_ranks_after_scored_pair():
    # a candidate whose pairwise score is undefined (both ends at zero
    # trust) loses to any candidate with a finite score, even a nearer one
    dest = node_with_tl(0, Position(0.0, 0.0), 1.0)
    cur = node_with_tl(1, Position(0.0, 250.0), 0.0)
    scored = node_with_tl(2, Position(0.0, 165.0), 1.0)
    blank = node_with_tl(3, Position(-20.0, 163.0), 0.0)
    nodes = {n.id: n for n in (dest, cur, scored, blank)}
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=R, sector_count=4)
    assert next_hop(cur, dest, assignment, nodes, R) == 2


def test_next_hop_honors_exclusions():
    nodes = chain_nodes()
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=R, sector_count=4)
    got = next_hop(nodes[4], nodes[0], assignment, nodes, R,
                   exclude=frozenset({3}))
    assert got is None
    with pytest.raises(ValueError):
        next_hop(nodes[0], nodes[0], assignment, nodes, R)


def test_route_delivers_down_the_chain():
    nodes = chain_nodes()
    cfg = cfg_for()
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=R, sector_count=4)
    ledger = EnergyLedger(cfg.energy_costs)
    trace = route(4, 0, assignment, nodes, cfg, ledger)
    assert trace.delivered and trace.reason == DELIVERED
    assert trace.hops == [4, 3, 2, 1, 0]
    rings = [assignment.by_node[h].ring for h in trace.hops]
    assert rings == [4, 3, 2, 1, 0]
    per_hop = cfg.per_hop_delay_ms()
    assert trace.transit_ms() == pytest.approx(4 * per_hop)
    hop_cost = cfg.energy_costs.tx + cfg.energy_costs.rx
    assert trace.per_hop_energy_mj == pytest.approx([hop_cost] * 4)
    assert ledger.total_drawn == pytest.approx(4 * hop_cost)


def test_route_rejects_bad_endpoints():
    nodes = chain_nodes()
    cfg = cfg_for()
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=R, sector_count=4)
    ledger = EnergyLedger(cfg.energy_costs)
    with pytest.raises(ValueError):
        route(2, 2, assignment, nodes, cfg, ledger)
    nodes[4].residual_energy = 0.0
    with pytest.raises(ValueError):
        route(4, 0, assignment, nodes, cfg, ledger)


def test_route_reports_no_candidate_when_stranded():
    nodes = chain_nodes()
    del nodes[2]  # break the chain
    cfg = cfg_for()
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=R, sector_count=4)
    ledger = EnergyLedger(cfg.energy_costs)
    trace = route(4, 0, assignment, nodes, cfg, ledger)
    assert not trace.delivered
    assert trace.reason == NO_CANDIDATE
    assert trace.hops == [4, 3]


def test_route_stops_on_drained_relay():
    nodes = chain_nodes(count=3)
    cfg = cfg_for(3)
    nodes[1].residual_energy = cfg.energy_costs.rx  # dies on reception
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=R, sector_count=4)
    ledger = EnergyLedger(cfg.energy_costs)
    trace = route(2, 0, assignment, nodes, cfg, ledger)
    assert not trace.delivered
    assert trace.reason == ENERGY_EXHAUSTED
    assert trace.hops == [2, 1]
    assert not nodes[1].alive


def test_route_charges_alias_owner():
    nodes = chain_nodes(count=3)
    owner = node_with_tl(9, Position(900.0, 900.0), 50.0)
    nodes[9] = owner
    cfg = cfg_for(4)
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=R, sector_count=4)
    ledger = EnergyLedger(cfg.energy_costs)
    relay_energy = nodes[1].residual_energy
    owner_energy = owner.residual_energy
    trace = route(2, 0, assignment, nodes, cfg, ledger, aliases={1: 9})
    assert trace.delivered
    assert nodes[1].residual_energy == relay_energy  # masquerade pays nothing
    spent = cfg.energy_costs.rx + cfg.energy_costs.tx
    assert owner.residual_energy == pytest.approx(owner_energy - spent)


def test_route_random_topologies_are_loop_free():
    cfg = NetworkConfig(node_count=40, area_side=500.0, radio_range=150.0,
                        sector_count=8)
    ledger = EnergyLedger(cfg.energy_costs)
    rng = random.Random(77)
    delivered = attempts = 0
    for seed in range(10):
        nodes = random_connected_nodes(seed, 40, 500.0, 150.0)
        for n in nodes.values():
            n.trust.add(random_record(rng))
        for _ in range(5):
            src, dest = rng.sample(sorted(nodes), 2)
            assignment = assign_clusters(nodes, dest_id=dest, d_1hop=150.0,
                                         sector_count=8)
            trace = route(src, dest, assignment, nodes, cfg, ledger)
            attempts += 1
            assert len(set(trace.hops)) == len(trace.hops)
            if trace.delivered:
                delivered += 1
                assert trace.hops[-1] == dest
                rings = [assignment.by_node[h].ring for h in trace.hops]
                assert all(a >= b for a, b in zip(rings, rings[1:]))
    assert delivered >= attempts * 0.8


def test_route_trace_transit_accumulates():
    trace = RouteTrace(src=1, dest=2, hops=[1, 2], delivered=True,
                       reason=DELIVERED, per_hop_delay_ms=[0.5, 0.25])
    assert trace.transit_ms() == 0.75


def scored_topology(seed: int, count: int = 40, area: float = 500.0,
                    radio_range: float = 150.0):
    rng = random.Random(seed)
    nodes = random_connected_nodes(seed, count, area, radio_range, energy=100.0)
    for n in nodes.values():
        if rng.random() < 0.8:
            n.trust.add(random_record(rng))
    return nodes, rng


def oracle_next_hop(current, dest, assignment, nodes, radio_range,
                    rtl_argmax=False, exclude=frozenset(), neighbours=None):
    """The cluster-by-cluster decision next_hop replaced: build every pool
    node's ClusterId, collect the reachable clusters, let nearest_cluster
    pick one, then rank its members by the score's denominator. Clusters
    come from ring_index and sector_index, not from the assignment's
    memos; the assignment only says who is a member."""
    if current.id == dest.id:
        raise ValueError("already at destination")
    amap = assignment.by_node
    if assignment.destination != dest.id or current.id not in amap:
        raise ValueError("the cluster assignment must be centred on dest and hold current")
    if distance(current.pos, dest.pos) <= radio_range:
        return dest.id

    def cluster(n):
        return ClusterId(ring_index(n.pos, dest.pos, assignment.d_1hop),
                         sector_index(n.pos, dest.pos, assignment.sector_count))

    def denominator(n):
        return distance(current.pos, n.pos) * math.hypot(current.trust_score(), n.trust_score())

    cur_cid = cluster(current)
    assert cur_cid != cluster(dest)  # the fan is centred on dest
    scan = nodes if neighbours is None else neighbours[current.id]
    pool = {
        nid: cluster(n) for nid in scan
        if nid not in exclude and nid != current.id and nid != dest.id
        and (n := nodes[nid]).alive and nid in amap
        and distance(current.pos, n.pos) <= radio_range
    }
    reachable = {cid for cid in pool.values() if cid.ring <= cur_cid.ring}
    if not reachable:
        return None
    toward = polar_angle(current.pos, around=dest.pos)
    chosen = nearest_cluster(reachable, toward, assignment.sector_count)
    cands = [nodes[nid] for nid, cid in pool.items() if cid == chosen]
    if rtl_argmax:
        return min(cands, key=lambda n: (denominator(n), n.id)).id
    return min(cands, key=lambda n: (-denominator(n), n.id)).id


def assert_same_decisions(nodes, neighbours, rng, radio_range, assignments=None):
    """next_hop, with and without the index, agrees with oracle_next_hop for
    every member of each assignment as the current node and its centre as
    the destination, in both ranking directions, with random exclusions.
    By default each live node is the destination of its own assignment."""
    if assignments is None:
        assignments = [assign_clusters(nodes, dest, radio_range, 8)
                       for dest in sorted(nodes) if nodes[dest].alive]
    moved = 0
    for assignment in assignments:
        dest = assignment.destination
        for cur in sorted(assignment.by_node):
            if cur == dest:
                continue
            exclude = frozenset(rng.sample(sorted(nodes), rng.randint(0, 6)))
            for argmax in (False, True):
                args = (nodes[cur], nodes[dest], assignment, nodes, radio_range, argmax, exclude)
                want = oracle_next_hop(*args)
                assert next_hop(*args) == want
                assert next_hop(*args, neighbours=neighbours) == want
                moved += want is not None
    assert moved > 0


def test_next_hop_with_index_matches_full_scan():
    for seed in range(3):
        nodes, rng = scored_topology(seed)
        assert_same_decisions(nodes, neighbour_index(nodes, 150.0), rng, 150.0)


def test_next_hop_with_index_matches_full_scan_with_dead_nodes():
    for seed in range(3, 6):
        nodes, rng = scored_topology(seed)
        index = neighbour_index(nodes, 150.0)
        dead = rng.sample(sorted(nodes), 8)
        for nid in dead:
            nodes[nid].residual_energy = 0.0
        assignments = [assign_clusters(nodes, dest, 150.0, 8)
                       for dest in sorted(nodes) if nodes[dest].alive]
        assert_same_decisions(nodes, index, rng, 150.0, assignments)
        # these die after the assignments: still members, never picked
        for nid in rng.sample(sorted(assignments[0].by_node), 6):
            nodes[nid].residual_energy = 0.0
        # and these revive: live, but not members, so never picked either
        for nid in dead[:3]:
            nodes[nid].residual_energy = 50.0
        assert_same_decisions(nodes, index, rng, 150.0,
                              [a for a in assignments if nodes[a.destination].alive])


def test_next_hop_with_sybil_overlay_matches_full_scan():
    for seed in range(6, 9):
        nodes, rng = scored_topology(seed)
        index = neighbour_index(nodes, 150.0)
        before = dict(index)
        owner = nodes[rng.choice(sorted(nodes))]
        phantoms, _ = make_phantoms(owner, 4, serial=seed)
        route_nodes = {**nodes, **{p.id: p for p in phantoms}}
        overlay = phantom_neighbours(index, owner.id, [p.id for p in phantoms])
        assert dict(overlay) == neighbour_index(route_nodes, 150.0)
        assert index == before  # the static index is not touched
        assert_same_decisions(route_nodes, overlay, rng, 150.0)
        # the harness path: live positions with the phantoms overlaid
        positions = ChainMap({p.id: p.pos for p in phantoms},
                             {n.id: n.pos for n in nodes.values()})
        assignments = [assign_positions(positions, dest, 150.0, 8)
                       for dest in sorted(route_nodes)]
        for a in assignments:
            assert a.by_node == assign_clusters(route_nodes, a.destination, 150.0, 8).by_node
        assert_same_decisions(route_nodes, overlay, rng, 150.0, assignments)


@pytest.mark.parametrize("d_1hop,sector_count", [(150.0, 8), (300.0, 3), (450.0, 1)])
def test_next_hop_matches_oracle_for_an_assignment_around_another_node(d_1hop, sector_count):
    # an assignment serves only the node it is centred on: toward any other
    # destination next_hop and the oracle both refuse it, and toward its
    # centre they agree at every ring width and sector count
    for seed in range(22, 24):
        nodes, rng = scored_topology(seed)
        index = neighbour_index(nodes, 150.0)
        assignments = [assign_clusters(nodes, c, d_1hop, sector_count)
                       for c in rng.sample(sorted(nodes), 2)]
        for assignment in assignments:
            for dest in rng.sample(sorted(nodes), 20):
                if dest == assignment.destination:
                    continue
                for cur in sorted(assignment.by_node):
                    if cur == dest:
                        continue
                    args = (nodes[cur], nodes[dest], assignment, nodes, 150.0)
                    for decide in (oracle_next_hop, next_hop):
                        with pytest.raises(ValueError, match="centred on dest"):
                            decide(*args)
                    with pytest.raises(ValueError, match="centred on dest"):
                        next_hop(*args, neighbours=index)
        assert_same_decisions(nodes, index, rng, 150.0, assignments)


def test_next_hop_rejects_an_assignment_centred_elsewhere():
    nodes = chain_nodes()
    assignment = assign_clusters(nodes, dest_id=1, d_1hop=R, sector_count=4)
    for cur in (2, 4):  # in range of the destination, and not
        with pytest.raises(ValueError, match="centred on dest"):
            next_hop(nodes[cur], nodes[0], assignment, nodes, R)
    assert next_hop(nodes[2], nodes[1], assignment, nodes, R) == 1
    nodes[3].residual_energy = 0.0  # so not a member of the next assignment
    assignment = assign_clusters(nodes, dest_id=0, d_1hop=R, sector_count=4)
    with pytest.raises(ValueError, match="hold current"):
        next_hop(nodes[3], nodes[0], assignment, nodes, R)


def test_phantoms_reach_the_owner_range_only():
    nodes = chain_nodes(spacing=90.0, count=5)
    index = neighbour_index(nodes, R)
    overlay = phantom_neighbours(index, 2, [1_000_000, 1_000_001])
    assert overlay[2] == (1, 3, 1_000_000, 1_000_001)
    assert overlay[1] == (0, 2, 1_000_000, 1_000_001)
    assert overlay[0] == index[0] == (1,)
    assert overlay[1_000_000] == (1, 2, 3, 1_000_001)


def test_route_with_index_matches_full_scan():
    cfg = NetworkConfig(node_count=40, area_side=500.0, radio_range=150.0, sector_count=8)
    for seed in range(4):
        runs = []
        for use_index in (False, True):
            nodes, rng = scored_topology(seed)
            for n in nodes.values():
                n.residual_energy = rng.uniform(0.2, 3.0)  # relays die mid-route
            index = neighbour_index(nodes, 150.0) if use_index else None
            ledger = EnergyLedger(cfg.energy_costs)
            traces = []
            for _ in range(30):
                live = sorted(n.id for n in nodes.values() if n.alive)
                if len(live) < 2:
                    break
                src, dest = rng.sample(live, 2)
                assignment = assign_clusters(nodes, dest, 150.0, 8)
                traces.append(route(src, dest, assignment, nodes, cfg, ledger,
                                    neighbours=index))
            runs.append((traces, ledger.total_drawn))
        assert runs[0] == runs[1]


@pytest.mark.parametrize("sybil", [False, True])
def test_one_assignment_serves_a_whole_route(sybil):
    # route's own use of an assignment: one per communication, its memos
    # filled hop by hop while relays die, with the visited set as a live
    # `exclude`; nodes dead at the call and revived before the walk are
    # in the index but not members. Every decision, in both ranking
    # directions and with and without the index, matches the oracle.
    cfg = NetworkConfig(node_count=40, area_side=500.0, radio_range=150.0, sector_count=8)
    decided = 0
    for seed in range(30, 34):
        nodes, rng = scored_topology(seed)
        for n in nodes.values():
            n.residual_energy = rng.uniform(0.2, 3.0)
        route_nodes, index, aliases = nodes, neighbour_index(nodes, 150.0), {}
        positions = {n.id: n.pos for n in nodes.values()}
        if sybil:
            owner = nodes[rng.choice(sorted(nodes))]
            phantoms, aliases = make_phantoms(owner, 3, serial=seed)
            route_nodes = {**nodes, **{p.id: p for p in phantoms}}
            index = phantom_neighbours(index, owner.id, [p.id for p in phantoms])
            positions = ChainMap({p.id: p.pos for p in phantoms}, positions)
        ledger = EnergyLedger(cfg.energy_costs)
        for _ in range(12):
            live = sorted(nid for nid in positions if route_nodes[nid].alive)
            if len(live) < 2:
                break
            src, dest = rng.sample(live, 2)
            revived = [nid for nid in rng.sample(live, 4) if nid not in (src, dest)]
            for nid in revived:
                route_nodes[nid].residual_energy = 0.0
            assignment = assign_positions(
                {nid: positions[nid] for nid in live if route_nodes[nid].alive},
                dest, 150.0, 8)
            for nid in revived:
                route_nodes[nid].residual_energy = 2.0
            current, visited = route_nodes[src], {src}
            while current.alive and current.id != dest:
                seen = set(visited)
                decision = {}
                for argmax in (True, False):
                    args = (current, route_nodes[dest], assignment, route_nodes, 150.0, argmax)
                    want = oracle_next_hop(*args, exclude=frozenset(visited))
                    assert next_hop(*args, exclude=visited, neighbours=index) == want
                    assert next_hop(*args, exclude=visited) == want
                    assert visited == seen  # exclude is only read
                    decision[argmax] = want
                decided += 1
                nxt = decision[False]
                if nxt is None or nxt in visited:
                    break
                for nid, action in ((current.id, TX), (nxt, RX)):
                    ledger.charge(route_nodes[aliases.get(nid, nid)], action)
                visited.add(nxt)
                current = route_nodes[nxt]
    assert decided > 50
