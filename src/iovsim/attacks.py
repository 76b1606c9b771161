"""Adversarial traffic: marking and per-kind mechanics.

A fixed fraction of communications is marked hostile up front, from a
dedicated RNG stream so honest traffic draws identically whether or not
attacks are enabled. Mechanics:

  sybil   the attacker spins up phantom identities at its own position
          that advertise its trust score, inflating candidate pools
  ddos    a flooder sends flood_multiplier junk packets to the victim
          ahead of the real traffic; they take the first slots of its
          drop-tail buffer, so the real packets that do not fit are shed
  finney  the communication's block is submitted with a broken digest
          link and bounces off verification
  mitm    an intermediate hop corrupts the payload, so what arrives
          fails the digest check and counts as lost

Phantom identities carry no communication records of their own, so
their evidenced trust is zero and miner selection never picks them;
only routing sees the advertised score.
"""

import random
from collections import ChainMap
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from .network import Node

SYBIL = "sybil"
DDOS = "ddos"
FINNEY = "finney"
MITM = "mitm"
KINDS = (SYBIL, DDOS, FINNEY, MITM)

PHANTOM_ID_BASE = 1_000_000


def default_mix() -> Dict[str, float]:
    return {k: 1.0 for k in KINDS}


@dataclass(frozen=True)
class AttackProfile:
    fraction: float = 0.10
    mix: Dict[str, float] = field(default_factory=default_mix)
    sybil_identity_count: int = 5
    flood_multiplier: int = 10

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("attack fraction must be in [0, 1]")
        unknown = set(self.mix) - set(KINDS)
        if unknown:
            raise ValueError(f"unknown attack kinds in mix: {sorted(unknown)}")
        if not all(w >= 0 for w in self.mix.values()):  # NaN fails too
            raise ValueError("mix weights must be >= 0")
        if self.fraction > 0 and sum(self.mix.values()) <= 0:
            raise ValueError("mix weights must not all be zero")
        if self.sybil_identity_count < 1:
            raise ValueError("sybil_identity_count must be >= 1")
        if self.flood_multiplier < 1:
            raise ValueError("flood_multiplier must be >= 1")

    def disabled(self) -> "AttackProfile":
        return AttackProfile(
            fraction=0.0,
            mix=dict(self.mix),
            sybil_identity_count=self.sybil_identity_count,
            flood_multiplier=self.flood_multiplier,
        )


def mark_communications(total: int, profile: AttackProfile,
                        rng: random.Random) -> Dict[int, str]:
    """Choose round(fraction * total) communication indices, without
    replacement, and give each a kind drawn from the mix weights."""
    if total < 0:
        raise ValueError("total must be >= 0")
    count = round(profile.fraction * total)
    if count == 0:
        return {}
    indices = rng.sample(range(total), count)
    kinds = [k for k in KINDS if profile.mix.get(k, 0.0) > 0]
    weights = [profile.mix[k] for k in kinds]
    drawn = rng.choices(kinds, weights=weights, k=count)
    return dict(sorted(zip(indices, drawn)))


def make_phantoms(owner: Node, count: int, serial: int) -> Tuple[List[Node], Dict[int, int]]:
    """Phantom identities co-located with the owner, advertising the
    owner's trust state by sharing it. Returns (phantoms, alias map);
    the alias map routes their energy bills back to the owner."""
    phantoms = []
    aliases = {}
    for i in range(count):
        pid = PHANTOM_ID_BASE + serial * count + i
        phantoms.append(Node(
            id=pid,
            pos=owner.pos,
            residual_energy=owner.residual_energy,
            is_attacker=True,
            trust=owner.trust,
        ))
        aliases[pid] = owner.id
    return phantoms, aliases


def phantom_neighbours(neighbours: Mapping[int, Sequence[int]], owner_id: int,
                       phantom_ids: Sequence[int]) -> Mapping[int, Tuple[int, ...]]:
    """Overlay phantoms on a static neighbour index without copying it.

    Phantoms sit at the owner's position, so the owner and every node in
    its range also hear them, and each phantom hears the owner's
    neighbours, the owner and the other phantoms. Lists stay sorted by id.
    """
    around = tuple(neighbours[owner_id])
    overlay = {nid: tuple(sorted((*neighbours[nid], *phantom_ids))) for nid in around}
    overlay[owner_id] = tuple(sorted((*around, *phantom_ids)))
    for pid in phantom_ids:
        overlay[pid] = tuple(sorted((*around, owner_id, *(p for p in phantom_ids if p != pid))))
    return ChainMap(overlay, neighbours)
