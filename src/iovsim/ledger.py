"""Append-only block ledger with segment splitting.

Appending block n to a segment of resulting length nb costs
nb*(dr+dv) + (nb-1)*dh + dw, so a long segment makes every further
append slower. Splitting the chain in two and appending to the shorter
part is what buys the delay back; the split point search lives in bfo.
An inconsistent block is rejected after a verification scan of the
current segment, which costs nb*dv with nb the length at rejection time.
"""

from dataclasses import dataclass, field
from typing import List, Tuple

MASK64 = (1 << 64) - 1
GENESIS_DIGEST = 0


def digest64(data: bytes) -> int:
    """FNV-1a, 64-bit. Fast and stable; not cryptographic, and the model
    does not need it to be: validity here means bookkeeping consistency."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & MASK64
    return h


@dataclass(frozen=True)
class Block:
    index: int
    payload_digest: int
    prev_digest: int
    miner: int
    valid: bool = True

    def __post_init__(self):
        for name in ("payload_digest", "prev_digest"):
            v = getattr(self, name)
            if not 0 <= v <= MASK64:
                raise ValueError(f"{name} must fit in 64 bits")


@dataclass(frozen=True)
class ChainCostModel:
    """Per-append cost components, in ms: read, verify, hash, write."""

    dr: float = 0.08
    dv: float = 0.08
    dh: float = 0.08
    dw: float = 0.08

    def __post_init__(self):
        for name in ("dr", "dv", "dh", "dw"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class SidechainConfig:
    """A split of a chain of total_len blocks into a prefix of split_point
    blocks and a suffix with the rest. Both parts must be non-empty."""

    split_point: int
    total_len: int

    def __post_init__(self):
        if self.total_len < 2:
            raise ValueError("cannot split a chain of fewer than 2 blocks")
        if not 1 <= self.split_point <= self.total_len - 1:
            raise ValueError("split_point must leave both parts non-empty")

    def part_lengths(self) -> Tuple[int, int]:
        return self.split_point, self.total_len - self.split_point


def append_delay(nb: int, cost: ChainCostModel) -> float:
    """Delay of an accepted append; nb is the segment length including
    the new block."""
    if nb < 1:
        raise ValueError("nb must be >= 1")
    return nb * (cost.dr + cost.dv) + (nb - 1) * cost.dh + cost.dw


def rejection_delay(current_len: int, cost: ChainCostModel) -> float:
    """Cost of turning away an inconsistent block: a verification pass
    over the current_len blocks already in the segment."""
    if current_len < 0:
        raise ValueError("segment length cannot be negative")
    return current_len * cost.dv


@dataclass
class Chain:
    blocks: List[Block] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.blocks)

    def tip_digest(self) -> int:
        return self.blocks[-1].payload_digest if self.blocks else GENESIS_DIGEST

    def copy(self) -> "Chain":
        return Chain(blocks=list(self.blocks))


def make_block(index: int, miner: int, payload: bytes, prev_digest: int,
               tamper: bool = False) -> Block:
    """Build a block extending prev_digest; tamper=True corrupts the link."""
    prev = prev_digest if not tamper else (prev_digest ^ 0xDEAD) & MASK64 | 1
    return Block(
        index=index,
        payload_digest=digest64(payload),
        prev_digest=prev,
        miner=miner,
        valid=not tamper,
    )


def append(chain: Chain, block: Block, miner_tl: float,
           cost: ChainCostModel) -> Tuple[Chain, float, bool]:
    """Try to append; returns (chain, delay_ms, accepted).

    The stored flag is not trusted: consistency is re-checked against
    the segment tip. miner_tl is the appending miner's trust score,
    kept in the signature so callers weight delays without re-lookup.
    """
    if miner_tl < 0:
        raise ValueError("miner trust score cannot be negative")
    if block.prev_digest != chain.tip_digest():
        return chain, rejection_delay(len(chain), cost), False
    chain.blocks.append(block)
    return chain, append_delay(len(chain), cost), True


def verify(chain: Chain, prev_digest: int = GENESIS_DIGEST) -> List[bool]:
    """Recompute link consistency for every stored block, given the
    digest the segment is rooted on."""
    flags = []
    expected = prev_digest
    for b in chain.blocks:
        flags.append(b.prev_digest == expected)
        expected = b.payload_digest
    return flags


def split(chain: Chain, cfg: SidechainConfig) -> Tuple[Chain, Chain]:
    """Cut the chain at the split point. No block is lost or reordered:
    concatenating the parts reproduces the original block sequence."""
    if cfg.total_len != len(chain):
        raise ValueError("split config does not match chain length")
    return Chain(list(chain.blocks[: cfg.split_point])), Chain(list(chain.blocks[cfg.split_point :]))


def active_segment(a: Chain, b: Chain) -> Chain:
    """New blocks go to the shorter part; ties go to the first."""
    return a if len(a) <= len(b) else b


def build_chain(length: int, miner: int = 0) -> Chain:
    """A consistent chain of `length` blocks, for tests and dry runs."""
    chain = Chain()
    cost = ChainCostModel(0.0, 0.0, 0.0, 0.0)
    for i in range(length):
        block = make_block(i, miner, b"seed:%d" % i, chain.tip_digest())
        chain, _, accepted = append(chain, block, 0.0, cost)
        assert accepted
    return chain
