"""Destination-centered ring/sector clustering.

Clusters are concentric rings around the destination, one radio range
(d_1hop) thick, cut into equal angular sectors: a fan. The ring index is
how many one-hop strides separate a node from the destination, so the
ring sequence along a good route counts down to zero.

An assignment computes a node's cluster on first lookup, so a
communication pays only for the nodes routing actually looks at.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator

from .network import Position, distance, polar_angle

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ClusterId:
    ring: int
    sector: int


class LazyClusters(Mapping):
    """Read-only map from each node live at assignment time to its
    ClusterId, computed on first lookup and kept for this assignment."""

    def __init__(self, live: Dict[int, Position], dest: Position, d_1hop: float,
                 sector_count: int):
        self._live = live
        self._dest = dest
        self._d_1hop = d_1hop
        self._sector_count = sector_count
        self._memo: Dict[int, ClusterId] = {}

    def __getitem__(self, nid: int) -> ClusterId:
        cid = self._memo.get(nid)
        if cid is None:
            pos = self._live[nid]
            cid = self._memo[nid] = ClusterId(
                ring=ring_index(pos, self._dest, self._d_1hop),
                sector=sector_index(pos, self._dest, self._sector_count),
            )
        return cid

    def __contains__(self, nid) -> bool:
        return nid in self._live

    def __iter__(self) -> Iterator[int]:
        return iter(self._live)

    def __len__(self) -> int:
        return len(self._live)

    def __repr__(self) -> str:
        return f"LazyClusters({dict(self)!r})"


@dataclass(frozen=True)
class ClusterAssignment:
    destination: int
    d_1hop: float
    sector_count: int
    by_node: Mapping[int, ClusterId]

    def __hash__(self):  # pragma: no cover - never keyed on, defensive only
        return hash((self.destination, self.d_1hop, self.sector_count))


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
    if pos == dest or distance(pos, dest) == 0.0:
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
    live = {n.id: n.pos for n in items if n.alive}
    if dest_id not in live:
        raise ValueError(f"destination {dest_id} is not a live node")
    dest_pos = live[dest_id]
    by_node = LazyClusters(live, dest_pos, d_1hop, sector_count)
    by_node[dest_id]  # validates d_1hop and sector_count now
    return ClusterAssignment(
        destination=dest_id, d_1hop=d_1hop, sector_count=sector_count, by_node=by_node
    )


def _angular_gap(a: float, b: float) -> float:
    gap = abs(a - b) % TWO_PI
    return min(gap, TWO_PI - gap)


def sector_midline(sector: int, sector_count: int) -> float:
    return (sector + 0.5) * TWO_PI / sector_count


def nearest_cluster(candidates: Iterable[ClusterId], toward: float, sector_count: int) -> ClusterId:
    """Pick the candidate cluster closest to the destination.

    Lowest ring wins; ring ties go to the sector whose midline is
    angularly closest to `toward` (the bearing of the forwarding node
    as seen from the destination), then to the smaller sector index.
    """
    cands = list(candidates)
    if not cands:
        raise ValueError("no candidate clusters")
    return min(
        cands,
        key=lambda c: (c.ring, _angular_gap(sector_midline(c.sector, sector_count), toward), c.sector),
    )
