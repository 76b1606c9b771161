"""Destination-centered ring/sector clustering.

Clusters are concentric rings around the destination, one radio range
(d_1hop) thick, cut into equal angular sectors: a fan. The ring index is
how many one-hop strides separate a node from the destination, so the
ring sequence along a good route counts down to zero.

An assignment computes a node's ring and sector on first use and keeps
them, and picks a forwarding cluster in one pass over the candidates
(nearest_members), so a communication pays once for each node routing
actually looks at.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List

from .network import Node, Position, distance, polar_angle

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ClusterId:
    ring: int
    sector: int


class LazyClusters(Mapping):
    """Read-only map from each node live at assignment time to its
    ClusterId. Rings and sectors are computed on first use and kept, in
    separate memos, for this assignment's lifetime."""

    def __init__(self, live: Mapping[int, Position], dest: Position, d_1hop: float,
                 sector_count: int):
        self._live = live
        self._dest = dest
        self._d_1hop = d_1hop
        self._sector_count = sector_count
        self._rings: Dict[int, int] = {}
        self._sectors: Dict[int, int] = {}

    def __getitem__(self, nid: int) -> ClusterId:
        return ClusterId(ring=self.ring_of(nid), sector=self._sector_of(nid))

    def ring_of(self, nid: int) -> int:
        """The member's ring, without computing its sector."""
        ring = self._rings.get(nid)
        if ring is None:
            ring = self._rings[nid] = ring_index(self._live[nid], self._dest, self._d_1hop)
        return ring

    def _sector_of(self, nid: int) -> int:
        sector = self._sectors.get(nid)
        if sector is None:
            sector = self._sectors[nid] = sector_index(
                self._live[nid], self._dest, self._sector_count)
        return sector

    def __contains__(self, nid) -> bool:
        return nid in self._live

    def __iter__(self) -> Iterator[int]:
        return iter(self._live)

    def __len__(self) -> int:
        return len(self._live)

    def nearest_members(self, pool: Iterable[Node], at: Position, max_ring: int) -> List[Node]:
        """The nodes of the cluster nearest_cluster would pick among the
        clusters of `pool` at or below `max_ring`, in one pass; `at` is the
        forwarding node's position, whose bearing from the destination
        breaks ring ties between sectors.

        Nodes not in this map are skipped. Sectors are computed only for
        the lowest ring found, the bearing only when that ring spans more
        than one sector, and no ClusterId is built.
        """
        live, rings = self._live, self._rings
        dest, d_1hop = self._dest, self._d_1hop
        best = max_ring
        group: List[Node] = []
        for n in pool:
            nid = n.id
            ring = rings.get(nid)  # only members are ever memoised
            if ring is None:
                pos = live.get(nid)
                if pos is None:
                    continue
                ring = rings[nid] = ring_index(pos, dest, d_1hop)
            if ring < best:
                best = ring
                group = [n]
            elif ring == best:
                group.append(n)
        if len(group) < 2:
            return group
        sectors = [self._sector_of(n.id) for n in group]
        spanned = set(sectors)
        if len(spanned) == 1:
            return group
        chosen = _nearest_sector(spanned, polar_angle(at, around=dest), self._sector_count)
        return [n for n, s in zip(group, sectors) if s == chosen]

    def __repr__(self) -> str:
        return f"LazyClusters({dict(self)!r})"


@dataclass(frozen=True)
class ClusterAssignment:
    destination: int
    d_1hop: float
    sector_count: int
    by_node: LazyClusters


def ring_index(pos: Position, dest: Position, d_1hop: float) -> int:
    """Ring 0 is the destination itself; otherwise ceil(distance / d_1hop)."""
    if not d_1hop > 0:  # also rejects NaN
        raise ValueError("d_1hop must be positive")
    d = distance(pos, dest)
    if d == 0.0:
        return 0
    return math.ceil(d / d_1hop)


def sector_index(pos: Position, dest: Position, sector_count: int) -> int:
    """Angular slice around the destination: floor(sector_count * theta / 2pi).

    The destination itself has no angle; it gets sector 0 by convention.
    """
    if not sector_count >= 1:  # also rejects NaN
        raise ValueError("sector_count must be >= 1")
    if pos.x == dest.x and pos.y == dest.y:  # also -0.0 vs 0.0, where atan2 gives pi
        return 0
    theta = polar_angle(pos, around=dest)
    sector = int(sector_count * theta / TWO_PI)
    return min(sector, sector_count - 1)


def assign_clusters(nodes, dest_id: int, d_1hop: float, sector_count: int) -> ClusterAssignment:
    """Map every live node (including the destination) to its ClusterId.

    Liveness is fixed at the call; each node's ring and sector are
    computed on first lookup. Bad parameters raise here, not at lookup.
    Deterministic and idempotent: same inputs, same assignment.
    """
    items = nodes.values() if isinstance(nodes, dict) else nodes
    return assign_positions({n.id: n.pos for n in items if n.alive},
                            dest_id, d_1hop, sector_count)


def assign_positions(positions: Mapping[int, Position], dest_id: int, d_1hop: float,
                     sector_count: int) -> ClusterAssignment:
    """assign_clusters over a ready map of live node id -> position.

    The map is held, not copied: the caller must never mutate it, and
    makes a new one when the live set changes.
    """
    if dest_id not in positions:
        raise ValueError(f"destination {dest_id} is not a live node")
    by_node = LazyClusters(positions, positions[dest_id], d_1hop, sector_count)
    by_node[dest_id]  # validates d_1hop and sector_count now
    return ClusterAssignment(
        destination=dest_id, d_1hop=d_1hop, sector_count=sector_count, by_node=by_node
    )


def _angular_gap(a: float, b: float) -> float:
    gap = abs(a - b) % TWO_PI
    return min(gap, TWO_PI - gap)


def sector_midline(sector: int, sector_count: int) -> float:
    return (sector + 0.5) * TWO_PI / sector_count


def _nearest_sector(sectors: Iterable[int], toward: float, sector_count: int) -> int:
    """The sector whose midline is angularly closest to `toward`; ties go
    to the smaller sector index."""
    return min(sectors, key=lambda s: (_angular_gap(sector_midline(s, sector_count), toward), s))


def nearest_cluster(candidates: Iterable[ClusterId], toward: float, sector_count: int) -> ClusterId:
    """Pick the candidate cluster closest to the destination.

    Lowest ring wins; ring ties go to the sector whose midline is
    angularly closest to `toward` (the bearing of the forwarding node
    as seen from the destination), then to the smaller sector index.
    """
    cands = list(candidates)
    if not cands:
        raise ValueError("no candidate clusters")
    ring = min(c.ring for c in cands)
    sector = _nearest_sector({c.sector for c in cands if c.ring == ring}, toward, sector_count)
    return ClusterId(ring=ring, sector=sector)
