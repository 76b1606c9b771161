"""Bacterial-foraging search for a cheap chain split point.

Each bacterium proposes a split. Its fitness is the trust-weighted mean
delay of a simulated batch of appends to the resulting active segment,
90% consistent blocks and 10% tampered ones, so lower is better. A
population is culled against a threshold proportional to the mean
fitness and the culled slots are re-seeded; the best split ever seen is
kept (elitist) and returned.

The batch is priced arithmetically from the active segment's length
m = min(s, L - s): a consistent block always links to the segment tip
and a tampered one never does, so each slot's flag alone decides
between an append delay and a rejection delay, and no chain is copied
or block hashed. The tamper slots are seeded by m as well, so one
search prices each distinct m once and reuses it for every split
(including mirrored ones) with that active length.

The search stops early once every active length its split draw can
produce has been priced; the rounds it skips cannot change its result
(see optimize_trace).
"""

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .ledger import Chain, ChainCostModel, SidechainConfig, append_delay, rejection_delay
from .seeding import mix64

_FITNESS_TAG = 0xF17


@dataclass(frozen=True)
class BfoConfig:
    nb: int = 20          # population size
    lb: float = 0.8       # culling-threshold factor, in (0, 2]
    ni: int = 30          # iterations
    n_eval: int = 10      # appends simulated per fitness call, multiple of 10
    rng_seed: int = 1

    def __post_init__(self):
        if self.nb < 1:
            raise ValueError("population size nb must be >= 1")
        if not 0 < self.lb <= 2:
            raise ValueError("lb must be in (0, 2]")
        if self.ni < 0:
            raise ValueError("iteration count ni must be >= 0")
        if self.n_eval < 10 or self.n_eval % 10 != 0:
            raise ValueError("n_eval must be a positive multiple of 10")


@dataclass
class Bacterium:
    split_point: int
    fitness: Optional[float] = None


def bounded_draw(center: float, spread: float, lo: int, hi: int,
                 rng: random.Random) -> int:
    """Uniform integer from [round(center - spread), round(center + spread)],
    clamped into [lo, hi]. Mass outside the clamp piles onto the bounds."""
    if spread < 0:
        raise ValueError("spread must be >= 0")
    if lo > hi:
        raise ValueError("empty draw range")
    value = rng.randint(round(center - spread), round(center + spread))
    return max(lo, min(hi, value))


def _split_draw(cfg: BfoConfig, chain_len: int) -> Tuple[float, float, int, int]:
    """bounded_draw's (center, spread, lo, hi) for a split point: centre
    nb*lb/2, spread nb/2, clamped into [1, chain_len - 1]."""
    return cfg.nb * cfg.lb / 2.0, cfg.nb / 2.0, 1, chain_len - 1


def _active_lengths(cfg: BfoConfig, chain_len: int) -> Set[int]:
    """Every active length min(s, chain_len - s) of a split s the search
    can draw: s runs over round(center - spread)..round(center + spread)
    clamped into [lo, hi], the values bounded_draw returns."""
    center, spread, lo, hi = _split_draw(cfg, chain_len)
    first, last = (max(lo, min(hi, round(v))) for v in (center - spread, center + spread))
    return {min(s, chain_len - s) for s in range(first, last + 1)}


def spawn_population(cfg: BfoConfig, chain_len: int, rng: random.Random) -> List[Bacterium]:
    """nb bacteria with split points drawn around nb*lb/2, spread nb/2."""
    if chain_len < 2:
        raise ValueError("chain must have at least 2 blocks to split")
    draw = _split_draw(cfg, chain_len)
    return [Bacterium(split_point=bounded_draw(*draw, rng)) for _ in range(cfg.nb)]


def _price_batch(length: int, slots: Sequence[bool],
                 miners: Sequence[Tuple[int, float]],
                 cost: ChainCostModel) -> float:
    """Fitness of an append batch on a segment of `length` blocks.

    An accepted append grows the segment and costs append_delay at the
    new length; a rejected one costs rejection_delay at the current
    length. Both are weighted by the appending miner's trust score.
    """
    if not miners:
        raise ValueError("need at least one miner")
    if not slots:
        raise ValueError("empty append batch")
    ok_sum = ok_n = bad_sum = bad_n = 0
    for i, consistent in enumerate(slots):
        _, miner_tl = miners[i % len(miners)]
        if miner_tl < 0:
            raise ValueError("miner trust score cannot be negative")
        if consistent:
            length += 1
            ok_sum += append_delay(length, cost) * miner_tl
            ok_n += 1
        else:
            bad_sum += rejection_delay(length, cost) * miner_tl
            bad_n += 1
    fitness = 0.0
    if ok_n:
        fitness += ok_sum / ok_n
    if bad_n:
        fitness += bad_sum / bad_n
    return fitness


def evaluate_append_run(active: Chain, slots: Sequence[bool],
                        miners: Sequence[Tuple[int, float]],
                        cost: ChainCostModel) -> float:
    """Run the append batch against `active` and return the fitness.

    slots[i] says whether append i carries a consistent block. Miners
    are (id, trust_score) pairs taken round-robin. The result is
    mean(trust-weighted accepted-append delays) plus
    mean(trust-weighted rejection delays). Only the length of `active`
    matters, and `active` is left unchanged.
    """
    return _price_batch(len(active), slots, miners, cost)


def split_fitness(b: Bacterium, chain: Chain, cost: ChainCostModel,
                  miners: Sequence[Tuple[int, float]], n_eval: int,
                  rng: random.Random) -> float:
    """Fitness of one proposed split; the chain is not touched.

    One tenth of the appends are tampered; their positions in the batch
    are drawn without replacement from the given rng.
    """
    cfg = SidechainConfig(split_point=b.split_point, total_len=len(chain))
    n_bad = n_eval // 10
    slots = [True] * n_eval
    for pos in rng.sample(range(n_eval), n_bad):
        slots[pos] = False
    return _price_batch(min(cfg.part_lengths()), slots, miners, cost)


def fitness_seed(master_seed: int, split_point: int, chain_len: int) -> int:
    """Seed for one fitness evaluation, derived from the active-segment
    length so mirrored splits (s and len-s) see the same draw."""
    active_len = min(split_point, chain_len - split_point)
    return mix64(master_seed, _FITNESS_TAG, active_len)


def _evaluate(b: Bacterium, cfg: BfoConfig, chain: Chain, cost: ChainCostModel,
              miners: Sequence[Tuple[int, float]],
              memo: Optional[Dict[int, float]] = None) -> None:
    """Set b.fitness. memo maps active length to fitness within one
    search (same seed, chain length, miners and cost); None disables it."""
    active_len = min(b.split_point, len(chain) - b.split_point)
    if memo is not None and active_len in memo:
        b.fitness = memo[active_len]
        return
    rng = random.Random(fitness_seed(cfg.rng_seed, b.split_point, len(chain)))
    b.fitness = split_fitness(b, chain, cost, miners, cfg.n_eval, rng)
    if memo is not None:
        memo[active_len] = b.fitness


def cull_threshold(population: Sequence[Bacterium], lb: float) -> float:
    """lb times the population mean fitness; above it a bacterium dies."""
    if not population:
        raise ValueError("empty population")
    if any(b.fitness is None for b in population):
        raise ValueError("population has unevaluated bacteria")
    return lb * sum(b.fitness for b in population) / len(population)


def step_population(population: List[Bacterium], cfg: BfoConfig, chain: Chain,
                    cost: ChainCostModel, miners: Sequence[Tuple[int, float]],
                    rng: random.Random,
                    memo: Optional[Dict[int, float]] = None) -> List[Bacterium]:
    """One culling round: strictly-above-threshold bacteria are replaced
    by fresh spawns (and evaluated); survivors keep their fitness.
    memo is the search's fitness cache, as in _evaluate."""
    fth = cull_threshold(population, cfg.lb)
    draw = _split_draw(cfg, len(chain))
    out = []
    for b in population:
        if b.fitness > fth:
            fresh = Bacterium(split_point=bounded_draw(*draw, rng))
            _evaluate(fresh, cfg, chain, cost, miners, memo)
            out.append(fresh)
        else:
            out.append(b)
    return out


def optimize_trace(cfg: BfoConfig, chain: Chain, cost: ChainCostModel,
                   miners: Sequence[Tuple[int, float]]
                   ) -> Tuple[SidechainConfig, List[Tuple[int, float, int]]]:
    """Full search; also returns (iteration, best_fitness, best_split)
    per iteration, iteration 0 being the initial spawn.

    The culling rounds stop as soon as every active length the split draw
    can produce is in the search's memo; the history then repeats the
    last row up to iteration ni, so it always has ni + 1 rows. No later
    round could change the result: every evaluated bacterium joins a
    population whose minimum is taken, so the best fitness is at most
    every memoised one; any new spawn gets a memoised fitness; the best
    split changes only on a strict <; and the rng is local to the
    search, so skipping its later draws moves no other stream. (A
    fitness is NaN only where an infinite cost or trust meets a zero
    factor; then no fitness of the search is finite, nothing compares
    below the first best, and the result is settled at iteration 0.)
    """
    if len(chain) < 2:
        raise ValueError("chain must have at least 2 blocks to split")
    rng = random.Random(cfg.rng_seed)
    memo: Dict[int, float] = {}
    population = spawn_population(cfg, len(chain), rng)
    for b in population:
        _evaluate(b, cfg, chain, cost, miners, memo)
    best = min(population, key=lambda b: b.fitness)
    best_split, best_fitness = best.split_point, best.fitness
    history = [(0, best_fitness, best_split)]
    support = _active_lengths(cfg, len(chain))
    for it in range(1, cfg.ni + 1):
        if support <= memo.keys():
            history += [(rest, best_fitness, best_split) for rest in range(it, cfg.ni + 1)]
            break
        population = step_population(population, cfg, chain, cost, miners, rng, memo)
        contender = min(population, key=lambda b: b.fitness)
        if contender.fitness < best_fitness:
            best_fitness, best_split = contender.fitness, contender.split_point
        history.append((it, best_fitness, best_split))
    return SidechainConfig(split_point=best_split, total_len=len(chain)), history


def optimize_split(cfg: BfoConfig, chain: Chain, cost: ChainCostModel,
                   miners: Sequence[Tuple[int, float]]) -> SidechainConfig:
    """Best split found after ni culling rounds (elitist minimum); see
    optimize_trace for why it may run fewer."""
    result, _ = optimize_trace(cfg, chain, cost, miners)
    return result
