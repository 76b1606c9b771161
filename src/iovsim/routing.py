"""Greedy ring-descent forwarding ranked by relative trust.

The forwarding score between two nodes is
    1 / (distance * sqrt(tl_a^2 + tl_b^2))
and by default the candidate with the LOWEST score is taken, which
favors long strides toward well-trusted relays (the argmax direction is
kept behind a flag for sensitivity runs). Cluster structure constrains
who is a candidate: hops never climb to a higher ring, and when a
strictly lower ring is reachable it is always preferred, so the ring
sequence of a delivered route is non-increasing. The fan is centred on
the destination, so no forwarding node shares its cluster: ring 0 is the
destination's position, and a node in radio range of it delivers directly.

Trust bootstraps at zero, where the score is undefined (1/0). Ranking
therefore works on the score's denominator: a zero denominator is an
infinite score, ranked after every finite one, and all-degenerate pools
fall back to the lowest node id.
"""

import math
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence

from .clustering import ClusterAssignment
from .network import EnergyLedger, NetworkConfig, Node, RX, TX, distance

DELIVERED = "delivered"
NO_CANDIDATE = "no-candidate"
REVISIT = "revisit"
HOP_LIMIT = "hop-limit"
ENERGY_EXHAUSTED = "energy-exhausted"


def relative_trust(a: Node, b: Node) -> float:
    """Pairwise forwarding score; undefined for co-located nodes or a
    pair with no trust on either side."""
    d = distance(a.pos, b.pos)
    if d == 0.0:
        raise ValueError("relative trust undefined at zero distance")
    norm = math.hypot(a.trust_score(), b.trust_score())
    if norm == 0.0:
        raise ValueError("relative trust undefined when both trust scores are zero")
    return 1.0 / (d * norm)


def _pick(current: Node, candidates: List[Node], rtl_argmax: bool) -> Node:
    # Min relative trust == max denominator, distance * hypot(trust, trust).
    # Zero denominators sort as infinite scores; id breaks ties either way.
    if len(candidates) == 1:
        return candidates[0]
    hypot = math.hypot
    at, tl = current.pos, current.trust_score()
    cx, cy = at.x, at.y
    sign = 1.0 if rtl_argmax else -1.0

    def key(n: Node):
        pos = n.pos
        return sign * (hypot(cx - pos.x, cy - pos.y) * hypot(tl, n.trust_score())), n.id

    return min(candidates, key=key)


def next_hop(current: Node, dest: Node, assignment: ClusterAssignment,
             nodes: Dict[int, Node], radio_range: float,
             rtl_argmax: bool = False,
             exclude: AbstractSet[int] = frozenset(), *,
             neighbours: Optional[Mapping[int, Sequence[int]]] = None) -> Optional[int]:
    """One forwarding decision; None when the node is stuck.

    `assignment` must be centred on `dest`. Direct delivery wins when the
    destination is in range. Otherwise a strictly nearer ring is preferred;
    same-ring (lateral) moves are allowed only when no nearer ring is
    reachable, and a farther ring is never considered. In the lowest
    reachable ring the sector is chosen as nearest_cluster does.
    `exclude` is only read.

    `neighbours` narrows the scan to the current node's radio neighbours;
    without it every node is scanned. It must be a radio index, as
    network.neighbour_index builds (or attacks.phantom_neighbours
    overlays): under each id, every id within radio_range of it except
    itself. Its ids are trusted, not checked against the range again.
    """
    if current.id == dest.id:
        raise ValueError("already at destination")
    amap = assignment.by_node
    if assignment.destination != dest.id or current.id not in amap:
        raise ValueError("the cluster assignment must be centred on dest and hold current")
    at = current.pos
    if distance(at, dest.pos) <= radio_range:
        return dest.id
    if neighbours is None:
        pool = (
            n for nid in nodes
            if nid not in exclude and nid != current.id and nid != dest.id
            and (n := nodes[nid]).alive and distance(at, n.pos) <= radio_range
        )
    else:
        # the destination is out of range, so the index never lists it
        pool = (
            n for nid in neighbours[current.id]
            if nid not in exclude and (n := nodes[nid]).alive
        )
    cands = amap.nearest_members(pool, at, amap.ring_of(current.id))
    if not cands:
        return None
    return _pick(current, cands, rtl_argmax).id


@dataclass
class RouteTrace:
    src: int
    dest: int
    hops: List[int]
    delivered: bool
    reason: str
    per_hop_delay_ms: List[float] = field(default_factory=list)
    per_hop_energy_mj: List[float] = field(default_factory=list)

    def transit_ms(self) -> float:
        return sum(self.per_hop_delay_ms)


def route(src_id: int, dest_id: int, assignment: ClusterAssignment,
          nodes: Dict[int, Node], cfg: NetworkConfig, ledger: EnergyLedger,
          aliases: Optional[Dict[int, int]] = None, *,
          neighbours: Optional[Mapping[int, Sequence[int]]] = None) -> RouteTrace:
    """Forward hop by hop until delivery or a terminal condition.

    Each hop bills one tx at the sender and one rx at the receiver.
    `aliases` maps masqueraded identities to the node that actually
    holds the radio, so their energy lands on the real owner.
    `neighbours` is passed to every next_hop call.
    """
    aliases = aliases or {}
    src, dest = nodes[src_id], nodes[dest_id]
    if src_id == dest_id:
        raise ValueError("source and destination must differ")
    if not (src.alive and dest.alive):
        raise ValueError("source and destination must be alive")
    trace = RouteTrace(src=src_id, dest=dest_id, hops=[src_id], delivered=False, reason="")
    visited = {src_id}
    current = src
    hop_budget = len(nodes)
    per_hop = cfg.per_hop_delay_ms()
    while True:
        if not current.alive:
            trace.reason = ENERGY_EXHAUSTED
            return trace
        if len(trace.hops) - 1 >= hop_budget:
            trace.reason = HOP_LIMIT
            return trace
        nxt = next_hop(current, dest, assignment, nodes, cfg.radio_range, cfg.rtl_argmax,
                       exclude=visited, neighbours=neighbours)
        if nxt is None:
            trace.reason = NO_CANDIDATE
            return trace
        if nxt in visited:
            trace.reason = REVISIT
            return trace
        receiver = nodes[nxt]
        sender_real = nodes[aliases.get(current.id, current.id)]
        receiver_real = nodes[aliases.get(nxt, nxt)]
        drawn = ledger.charge(sender_real, TX) + ledger.charge(receiver_real, RX)
        trace.per_hop_delay_ms.append(per_hop)
        trace.per_hop_energy_mj.append(drawn)
        trace.hops.append(nxt)
        visited.add(nxt)
        if nxt == dest_id:
            trace.delivered = True
            trace.reason = DELIVERED
            return trace
        current = receiver
