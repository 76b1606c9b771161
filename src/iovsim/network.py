"""Physical network substrate: deployment, radio geometry, energy.

Topology is static. Links are unit-disk: two nodes can exchange packets
iff their euclidean distance is within radio_range, so each node's
neighbour list is built once per deployment (neighbour_index). Energy
draws go through an EnergyLedger so every mJ leaving a battery has a
matching ledger entry (conservation is testable).

Nodes carry no packet buffer: harness.simulate counts drop-tail drops
with arithmetic, and PacketQueue is the per-packet model of that buffer.
"""

import math
import random
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import chain, combinations, product
from typing import Dict, List, Mapping, Optional, Tuple

from .trust import TrustState

TX = "tx"
RX = "rx"
SLEEP = "sleep"
TRANSITION = "transition"
IDLE = "idle"


@dataclass(frozen=True)
class Position:
    x: float
    y: float


def distance(a: Position, b: Position) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def polar_angle(of: Position, around: Position) -> float:
    """Angle of `of` in the frame centered at `around`, wrapped to [0, 2*pi)."""
    theta = math.atan2(of.y - around.y, of.x - around.x)
    if theta < 0.0:
        theta += 2.0 * math.pi
    return theta


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energy costs in mJ."""

    tx: float = 0.4
    rx: float = 0.1
    sleep: float = 0.004
    transition: float = 2.0
    idle: float = 0.0125

    def __post_init__(self):
        for name in (TX, RX, SLEEP, TRANSITION, IDLE):
            if not getattr(self, name) >= 0:
                raise ValueError(f"energy cost {name} must be >= 0")

    def cost_of(self, action: str) -> float:
        if action not in (TX, RX, SLEEP, TRANSITION, IDLE):
            raise ValueError(f"unknown energy action {action!r}")
        return getattr(self, action)


class PacketQueue:
    """Bounded two-class queue: control packets outrank data, FIFO within
    a class, and arrivals beyond capacity are dropped on arrival (drop-tail)."""

    CONTROL = "control"
    DATA = "data"

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self.dropped = 0
        self._control = deque()
        self._data = deque()

    def __len__(self) -> int:
        return len(self._control) + len(self._data)

    def push(self, item, klass: str = DATA) -> bool:
        """Enqueue item; returns False (and counts a drop) when full."""
        if klass not in (self.CONTROL, self.DATA):
            raise ValueError(f"unknown packet class {klass!r}")
        if len(self) >= self.capacity:
            self.dropped += 1
            return False
        (self._control if klass == self.CONTROL else self._data).append(item)
        return True

    def pop(self):
        if self._control:
            return self._control.popleft()
        if self._data:
            return self._data.popleft()
        raise IndexError("pop from empty PacketQueue")

    def clear(self) -> None:
        self._control.clear()
        self._data.clear()


@dataclass
class NetworkConfig:
    """Static parameters of one deployment.

    packet_size is in bits, link_rate_bps in bits/s; the per-hop latency
    is packet_size / link_rate plus a fixed processing delay.
    """

    node_count: int = 100
    area_side: float = 2500.0
    radio_range: float = 550.0
    sector_count: int = 8
    queue_capacity: int = 25
    packet_size: int = 512
    packets_per_comm: int = 20
    link_rate_bps: float = 2_000_000.0
    processing_delay_ms: float = 0.1
    initial_energy_mj: float = 1000.0
    energy_costs: EnergyModel = field(default_factory=EnergyModel)
    rtl_argmax: bool = False
    rng_seed: int = 1

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError("need at least two nodes")
        # float checks are written so that NaN fails them
        if not self.area_side > 0:
            raise ValueError("area_side must be positive")
        if not self.radio_range > 0:
            raise ValueError("radio_range must be positive")
        if self.sector_count < 1:
            raise ValueError("sector_count must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.packet_size < 1:
            raise ValueError("packet_size must be >= 1 bit")
        if self.packets_per_comm < 1:
            raise ValueError("packets_per_comm must be >= 1")
        if not self.link_rate_bps > 0:
            raise ValueError("link_rate_bps must be positive")
        if not self.processing_delay_ms >= 0:
            raise ValueError("processing_delay_ms must be >= 0")
        if not self.initial_energy_mj > 0:
            raise ValueError("initial_energy_mj must be positive")
        # Bounds every distance / radio_range (ring indices) and, as the
        # cell side is wider than the range, every grid cell index.
        if not math.isfinite(math.hypot(self.area_side, self.area_side) / self.radio_range):
            raise ValueError("area_side / radio_range is too large: distances in radio "
                             "ranges overflow")

    def per_hop_delay_ms(self) -> float:
        return (self.packet_size / self.link_rate_bps) * 1000.0 + self.processing_delay_ms


@dataclass
class Node:
    id: int
    pos: Position
    residual_energy: float
    queue: Optional[PacketQueue] = None
    is_attacker: bool = False
    trust: TrustState = field(default_factory=TrustState)

    @property
    def alive(self) -> bool:
        return self.residual_energy > 0.0

    def trust_score(self) -> float:
        return self.trust.score(self.residual_energy)


def deploy(config: NetworkConfig) -> Dict[int, Node]:
    """Scatter node_count nodes uniformly over the square, seeded.

    Draw order is fixed (x then y, per ascending id) so a seed pins the
    whole topology byte for byte.
    """
    rng = random.Random(config.rng_seed)
    nodes: Dict[int, Node] = {}
    for nid in range(config.node_count):
        x = rng.uniform(0.0, config.area_side)
        y = rng.uniform(0.0, config.area_side)
        nodes[nid] = Node(
            id=nid,
            pos=Position(x, y),
            residual_energy=config.initial_energy_mj,
        )
    return nodes


# A hair wider than the radio range: rounding in x / side can then never
# put two nodes within range of each other two cells apart.
_CELL_SLACK = 1.0 + 2.0 ** -20


def neighbour_index(nodes: Mapping[int, Node], radio_range: float) -> Dict[int, Tuple[int, ...]]:
    """Each node's radio neighbours (distance <= radio_range), sorted by id.

    Cell-list method: nodes are binned into a uniform grid whose cell
    side is (a hair over) the radio range, so a node's neighbours lie in
    its own cell or one of the eight around it. Liveness is not consulted; topology
    is static, so one index serves a whole deployment.
    """
    side = radio_range * _CELL_SLACK
    cells: Dict[Tuple[int, int], List[Node]] = defaultdict(list)
    for n in nodes.values():
        cells[(math.floor(n.pos.x / side), math.floor(n.pos.y / side))].append(n)
    found: Dict[int, List[int]] = {n.id: [] for n in nodes.values()}
    for (cx, cy), here in cells.items():
        # Each pair once: within the cell, then with the four cells ahead
        # of it (the other four see this cell as one of theirs). hypot
        # takes absolute values, so a distance is the same from either end.
        ahead = ((cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1))
        pairs = [combinations(here, 2)]
        pairs += (product(here, cells[c]) for c in ahead if c in cells)
        for a, b in chain.from_iterable(pairs):
            if distance(a.pos, b.pos) <= radio_range:
                found[a.id].append(b.id)
                found[b.id].append(a.id)
    return {nid: tuple(sorted(ids)) for nid, ids in found.items()}


class EnergyLedger:
    """Double-entry log of energy draws: battery decrease == ledger entry.

    Batteries only drain, so a node dies at most once; `deaths` counts
    the charges that emptied a battery, and a caller can cache anything
    derived from liveness until it moves.
    """

    def __init__(self, model: EnergyModel):
        self.model = model
        self.entries: List[Tuple[int, str, float]] = []
        self.total_drawn = 0.0
        self.dead_noops = 0
        self.deaths = 0

    def charge(self, node: Node, action: str) -> float:
        """Draw the cost of `action` from node, flooring at zero.

        Charging a dead node is a reported no-op, not a fault.
        """
        cost = self.model.cost_of(action)
        if not node.alive:
            self.dead_noops += 1
            return 0.0
        drawn = min(cost, node.residual_energy)
        node.residual_energy -= drawn
        self.entries.append((node.id, action, drawn))
        self.total_drawn += drawn
        if not node.alive:
            self.deaths += 1
        return drawn
