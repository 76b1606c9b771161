"""Per-node trust scoring from communication history.

A node's trust score is its residual energy times the sum, over its
logged communications, of delivery_ratio * throughput / (round_trip * energy_spent).
Nodes with no history score zero, which is what keeps fabricated
identities out of miner selection: they can claim a score while
advertising themselves, but they cannot present records to back it.
"""

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class CommRecord:
    """Outcome of one communication as seen by the node that logged it.

    rx/tx are packet counts, ts_* are clock readings in ms, e_* are the
    node's residual-energy readings (mJ) at start and completion.
    """

    rx: int
    tx: int
    ts_start: float
    ts_complete: float
    e_start: float
    e_complete: float

    def __post_init__(self):
        if self.tx < 1:
            raise ValueError("tx must be >= 1")
        if not 0 <= self.rx <= self.tx:
            raise ValueError("rx must satisfy 0 <= rx <= tx")
        if not self.ts_complete > self.ts_start:
            raise ValueError("ts_complete must be strictly after ts_start")
        if not self.e_start > self.e_complete:
            raise ValueError("a communication must consume some energy")


def delivery_ratio(rec: CommRecord) -> float:
    return rec.rx / rec.tx


def round_trip_ms(rec: CommRecord) -> float:
    return rec.ts_complete - rec.ts_start


def throughput(rec: CommRecord) -> float:
    """Packets delivered per ms of round trip."""
    return rec.rx / round_trip_ms(rec)


def energy_spent(rec: CommRecord) -> float:
    return rec.e_start - rec.e_complete


def _quality(rec: CommRecord) -> float:
    return (delivery_ratio(rec) * throughput(rec)) / (round_trip_ms(rec) * energy_spent(rec))


def trust_level(residual_energy: float, records: Sequence[CommRecord]) -> float:
    """Trust score: residual energy weighted by accumulated link quality.

    Empty history gives 0.0 regardless of energy.
    """
    if residual_energy < 0:
        raise ValueError("residual energy must be non-negative")
    if not records:
        return 0.0
    return residual_energy * sum(_quality(r) for r in records)


@dataclass
class TrustState:
    """Mutable record log for one node, with an optional sliding window.

    Each record's quality is computed once, kept alongside the record,
    and the quality sum is re-summed with sum() in record order on every
    append, so it stays bit-identical to trust_level() on the same
    records (a running += would not match sum() from Python 3.12 on,
    which compensates its rounding).
    """

    window: Optional[int] = None
    records: List[CommRecord] = field(default_factory=list)
    _q_sum: float = field(default=0.0, init=False, repr=False, compare=False)
    _qualities: List[float] = field(default_factory=list, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        if self.window is not None and self.window < 1:
            raise ValueError("window must be >= 1 when set")
        self._qualities = [_quality(r) for r in self.records]
        self._trim_and_sum()

    def add(self, rec: CommRecord) -> None:
        self.records.append(rec)
        self._qualities.append(_quality(rec))
        self._trim_and_sum()

    def _trim_and_sum(self) -> None:
        if self.window is not None and len(self.records) > self.window:
            excess = len(self.records) - self.window
            del self.records[0:excess]
            del self._qualities[0:excess]
        self._q_sum = sum(self._qualities)

    def score(self, residual_energy: float) -> float:
        if not self.records:
            return 0.0
        return residual_energy * self._q_sum


def select_miners(nodes: Sequence, k: int) -> List:
    """Pick the k live nodes with the highest trust score.

    Ties break toward the lower node id so selection is total-ordered.
    Nodes are anything with .id, .alive and .trust_score().
    """
    live = [n for n in nodes if n.alive]
    if not 1 <= k <= len(live):
        raise ValueError(f"k={k} outside [1, {len(live)}]")
    return heapq.nsmallest(k, live, key=lambda n: (-n.trust_score(), n.id))

