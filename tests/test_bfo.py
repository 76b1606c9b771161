import math
import random

import pytest

from iovsim import bfo
from iovsim.bfo import (
    BfoConfig,
    Bacterium,
    bounded_draw,
    cull_threshold,
    evaluate_append_run,
    fitness_seed,
    optimize_split,
    optimize_trace,
    spawn_population,
    split_fitness,
    step_population,
)
from iovsim.ledger import (
    Chain,
    ChainCostModel,
    SidechainConfig,
    active_segment,
    append,
    build_chain,
    make_block,
    split,
)

UNIT = ChainCostModel(1.0, 1.0, 1.0, 1.0)
ONE_MINER = [(0, 1.0)]


def test_config_validation():
    BfoConfig()
    with pytest.raises(ValueError):
        BfoConfig(nb=0)
    with pytest.raises(ValueError):
        BfoConfig(lb=0.0)
    with pytest.raises(ValueError):
        BfoConfig(lb=2.1)
    with pytest.raises(ValueError):
        BfoConfig(n_eval=15)
    with pytest.raises(ValueError):
        BfoConfig(n_eval=0)


def test_bounded_draw_stays_in_range_and_clamps():
    rng = random.Random(5)
    for _ in range(2000):
        v = bounded_draw(4.0, 5.0, 1, 9, rng)
        assert 1 <= v <= 9
    # degenerate spread pins the draw
    assert bounded_draw(7.0, 0.0, 1, 9, random.Random(0)) == 7
    with pytest.raises(ValueError):
        bounded_draw(4.0, -1.0, 1, 9, random.Random(0))
    with pytest.raises(ValueError):
        bounded_draw(4.0, 1.0, 9, 1, random.Random(0))


def test_bounded_draw_distribution_matches_clamped_uniform():
    # center 4, spread 5 draws uniformly from [-1, 9]; clamping folds the
    # mass of {-1, 0, 1} onto 1, so P(1) = 3/11 and P(k) = 1/11 for 2..9.
    n = 110_000
    rng = random.Random(20)
    counts = {k: 0 for k in range(1, 10)}
    for _ in range(n):
        counts[bounded_draw(4.0, 5.0, 1, 9, rng)] += 1
    expected = {1: 3 * n / 11}
    expected.update({k: n / 11 for k in range(2, 10)})
    chi2 = sum((counts[k] - expected[k]) ** 2 / expected[k] for k in counts)
    assert chi2 < 20.09  # chi-square 99th percentile, 8 dof


def test_spawn_population_size_and_bounds():
    cfg = BfoConfig(nb=20, lb=0.8)
    rng = random.Random(9)
    pop = spawn_population(cfg, 200, rng)
    assert len(pop) == 20
    # draw window is [round(8-10), round(8+10)] clamped to [1, 199]
    assert all(1 <= b.split_point <= 18 for b in pop)
    assert all(b.fitness is None for b in pop)
    with pytest.raises(ValueError):
        spawn_population(cfg, 1, rng)


def test_evaluate_append_run_worked_example():
    # fresh segment, 9 consistent appends then a tampered one:
    # accepted delays 3,6,...,27 (mean 15), one rejection over the 9
    # stored blocks (mean 9) -> 24 with unit costs and unit trust.
    slots = [True] * 9 + [False]
    fitness = evaluate_append_run(Chain(), slots, ONE_MINER, UNIT)
    assert fitness == 24.0


def test_evaluate_append_run_scales_with_miner_trust():
    slots = [True] * 9 + [False]
    fitness = evaluate_append_run(Chain(), slots, [(0, 0.5)], UNIT)
    assert fitness == 12.0
    with pytest.raises(ValueError):
        evaluate_append_run(Chain(), slots, [], UNIT)
    with pytest.raises(ValueError):
        evaluate_append_run(Chain(), [], ONE_MINER, UNIT)


def test_evaluate_append_run_leaves_segment_unchanged():
    active = build_chain(5)
    blocks = list(active.blocks)
    # 5 stored blocks: delays 18,21,...,42 (mean 30) plus one rejection over 14
    assert evaluate_append_run(active, [True] * 9 + [False], ONE_MINER, UNIT) == 44.0
    assert active.blocks == blocks


def test_evaluate_append_run_round_robin_miners():
    # two miners alternate; all appends accepted, weighted by own trust
    miners = [(0, 1.0), (1, 3.0)]
    slots = [True] * 4
    # delays 3,6,9,12 weighted 1,3,1,3 -> (3+18+9+36)/4 = 16.5
    assert evaluate_append_run(Chain(), slots, miners, UNIT) == 16.5


def test_split_fitness_prefers_short_active_segment():
    chain = build_chain(200)
    rng_a, rng_b = random.Random(3), random.Random(3)
    near = split_fitness(Bacterium(1), chain, UNIT, ONE_MINER, 10, rng_a)
    mid = split_fitness(Bacterium(100), chain, UNIT, ONE_MINER, 10, rng_b)
    assert near < mid
    # original chain untouched by the throwaway evaluation
    assert len(chain) == 200


def test_fitness_seed_mirror_symmetry():
    assert fitness_seed(7, 40, 200) == fitness_seed(7, 160, 200)
    assert fitness_seed(7, 40, 200) != fitness_seed(7, 41, 200)
    assert fitness_seed(7, 40, 200) != fitness_seed(8, 40, 200)


def test_cull_threshold_worked_example():
    pop = [Bacterium(1, 10.0), Bacterium(2, 20.0), Bacterium(3, 30.0)]
    assert cull_threshold(pop, 0.9) == pytest.approx(18.0)
    with pytest.raises(ValueError):
        cull_threshold([], 0.9)
    with pytest.raises(ValueError):
        cull_threshold([Bacterium(1)], 0.9)


def test_step_population_replaces_only_above_threshold():
    chain = build_chain(50)
    cfg = BfoConfig(nb=2, lb=1.0)
    keeper = Bacterium(5, 10.0)
    loser = Bacterium(40, 30.0)  # threshold is 20; strictly above dies
    out = step_population([keeper, loser], cfg, chain, UNIT, ONE_MINER,
                          random.Random(1))
    assert out[0] is keeper
    assert out[1] is not loser
    assert out[1].fitness is not None


def test_step_population_keeps_borderline():
    chain = build_chain(50)
    cfg = BfoConfig(nb=2, lb=1.0)
    a, b = Bacterium(5, 10.0), Bacterium(6, 10.0)  # both at threshold
    out = step_population([a, b], cfg, chain, UNIT, ONE_MINER, random.Random(1))
    assert out == [a, b]


def test_optimize_is_deterministic_and_elitist():
    chain = build_chain(120)
    cfg = BfoConfig(nb=10, lb=0.8, ni=15, rng_seed=42)
    result_a, hist_a = optimize_trace(cfg, chain, UNIT, ONE_MINER)
    result_b, hist_b = optimize_trace(cfg, chain, UNIT, ONE_MINER)
    assert result_a == result_b
    assert hist_a == hist_b
    assert len(hist_a) == 16
    fits = [f for _, f, _ in hist_a]
    assert fits == sorted(fits, reverse=True)  # best-so-far never worsens
    assert optimize_split(cfg, chain, UNIT, ONE_MINER) == result_a


def test_optimize_finds_cheap_split_on_long_chain():
    # on a 200-block chain every reachable split (1..18 by spawn window)
    # gets cheaper toward the edge; the search should land at 1
    chain = build_chain(200)
    cfg = BfoConfig(nb=20, lb=0.8, ni=30, rng_seed=11)
    result = optimize_split(cfg, chain, UNIT, ONE_MINER)
    assert result.total_len == 200
    assert min(result.part_lengths()) <= 3
    with pytest.raises(ValueError):
        optimize_trace(cfg, Chain(), UNIT, ONE_MINER)


def _copied_chain_fitness(b, chain, cost, miners, n_eval, rng):
    """Reference fitness on block data: split a copy of the chain, then
    hash and append each block of the batch to the active segment."""
    part_a, part_b = split(chain, SidechainConfig(b.split_point, len(chain)))
    active = active_segment(part_a, part_b)
    slots = [True] * n_eval
    for pos in rng.sample(range(n_eval), n_eval // 10):
        slots[pos] = False
    ok_sum = ok_n = bad_sum = bad_n = 0
    for i, consistent in enumerate(slots):
        miner_id, miner_tl = miners[i % len(miners)]
        block = make_block(index=len(active), miner=miner_id,
                           payload=b"eval:%d:%d" % (i, miner_id),
                           prev_digest=active.tip_digest(), tamper=not consistent)
        active, delay, accepted = append(active, block, miner_tl, cost)
        if accepted:
            ok_sum += delay * miner_tl
            ok_n += 1
        else:
            bad_sum += delay * miner_tl
            bad_n += 1
    fitness = 0.0
    if ok_n:
        fitness += ok_sum / ok_n
    if bad_n:
        fitness += bad_sum / bad_n
    return fitness


@pytest.mark.parametrize("n_eval", [10, 40])
@pytest.mark.parametrize("chain_len", [2, 37, 250])
def test_split_fitness_matches_block_level_oracle_exactly(chain_len, n_eval):
    chain = build_chain(chain_len)
    cost = ChainCostModel(0.08, 0.11, 0.07, 0.13)
    # weighted round robin: one miner takes two turns, one has zero trust
    miners = [(3, 0.7), (8, 2.25), (3, 0.7), (1, 0.0), (5, 1.3)]
    for s in sorted({1, chain_len // 2, chain_len - 1}):
        for seed in range(5):
            got = split_fitness(Bacterium(s), chain, cost, miners, n_eval,
                                random.Random(seed))
            want = _copied_chain_fitness(Bacterium(s), chain, cost, miners, n_eval,
                                         random.Random(seed))
            assert got == want, (s, seed)
    assert len(chain) == chain_len


def test_negative_miner_trust_is_rejected():
    chain = build_chain(20)
    with pytest.raises(ValueError):
        split_fitness(Bacterium(5), chain, UNIT, [(0, 1.0), (1, -0.5)], 10,
                      random.Random(0))
    with pytest.raises(ValueError):
        evaluate_append_run(Chain(), [True] * 10, [(0, -1.0)], UNIT)
    with pytest.raises(ValueError):
        split_fitness(Bacterium(20), chain, UNIT, ONE_MINER, 10, random.Random(0))


def _counting_split_fitness(monkeypatch):
    calls = []
    real = bfo.split_fitness

    def counted(b, chain, *args):
        calls.append(min(b.split_point, len(chain) - b.split_point))
        return real(b, chain, *args)

    monkeypatch.setattr(bfo, "split_fitness", counted)
    return calls


@pytest.mark.parametrize("chain_len", [12, 300])
def test_search_evaluates_each_active_length_once(chain_len, monkeypatch):
    # on 12 blocks mirrored splits (s and 12 - s) share an active length
    chain = build_chain(chain_len)
    cfg = BfoConfig(nb=20, lb=0.8, ni=30, n_eval=20, rng_seed=5)
    miners = [(2, 1.5), (4, 0.25), (9, 3.0)]
    cost = ChainCostModel(0.08, 0.11, 0.07, 0.13)

    calls = _counting_split_fitness(monkeypatch)
    memo_result = optimize_trace(cfg, chain, cost, miners)
    assert len(calls) == len(set(calls))

    real_evaluate = bfo._evaluate
    monkeypatch.setattr(bfo, "_evaluate",
                        lambda b, c, ch, co, mi, memo=None: real_evaluate(b, c, ch, co, mi))
    calls.clear()
    plain_result = optimize_trace(cfg, chain, cost, miners)
    assert len(calls) > len(set(calls))
    assert memo_result == plain_result


def _full_length_search(cfg, chain, cost, miners):
    """Reference search: every one of the ni culling rounds is run."""
    rng = random.Random(cfg.rng_seed)
    memo = {}
    population = spawn_population(cfg, len(chain), rng)
    for b in population:
        bfo._evaluate(b, cfg, chain, cost, miners, memo)
    best = min(population, key=lambda b: b.fitness)
    best_split, best_fitness = best.split_point, best.fitness
    history = [(0, best_fitness, best_split)]
    for it in range(1, cfg.ni + 1):
        population = step_population(population, cfg, chain, cost, miners, rng, memo)
        contender = min(population, key=lambda b: b.fitness)
        if contender.fitness < best_fitness:
            best_fitness, best_split = contender.fitness, contender.split_point
        history.append((it, best_fitness, best_split))
    return SidechainConfig(split_point=best_split, total_len=len(chain)), history


def _counting_rounds(monkeypatch):
    rounds = []
    real_step = bfo.step_population

    def counted(*args, **kwargs):
        rounds.append(1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(bfo, "step_population", counted)
    return rounds


def test_early_stop_matches_full_length_search(monkeypatch):
    rounds = _counting_rounds(monkeypatch)  # the reference calls the original
    rng = random.Random(2024)
    lengths = [2, 3, 5, 12, 18, 19, 20, 37, 60, 300, 4900]
    chains = {n: build_chain(n) for n in lengths}
    stopped_early = 0
    for i in range(320):
        chain_len = lengths[i % len(lengths)]
        cfg = BfoConfig(nb=1 if i % 16 == 0 else rng.randint(1, 30),
                        lb=rng.choice([0.05, 0.5, 0.8, 1.0, 2.0, rng.uniform(0.05, 2.0)]),
                        ni=0 if i % 23 == 0 else rng.randint(0, 40),
                        n_eval=10 * rng.randint(1, 3), rng_seed=rng.randrange(1 << 30))
        # an infinite read cost with a zero-trust miner makes NaN fitnesses
        dr = math.inf if i % 7 == 0 else rng.random()
        cost = ChainCostModel(dr, rng.random(), rng.random(), rng.random())
        miners = [(k, rng.choice([0.0, rng.uniform(0.0, 3.0)]))
                  for k in range(rng.randint(1, 5))]
        rounds.clear()
        got = optimize_trace(cfg, chains[chain_len], cost, miners)
        stopped_early += len(rounds) < cfg.ni
        want = _full_length_search(cfg, chains[chain_len], cost, miners)
        # repr compares NaN rows too, and every float bit for bit
        assert repr(got) == repr(want), (chain_len, cfg, cost, miners)
    assert stopped_early > 160  # most searches exercise the stop


def test_active_lengths_cover_exactly_what_the_draw_returns():
    # odd nb with lb = 2 puts both window ends on .5, where round() goes
    # to the even neighbour
    for nb, lb, chain_len in [(20, 0.8, 300), (3, 2.0, 40), (5, 2.0, 9), (1, 1.0, 2),
                              (1, 2.0, 7), (30, 2.0, 19), (7, 0.05, 12)]:
        cfg = BfoConfig(nb=nb, lb=lb)
        draw = bfo._split_draw(cfg, chain_len)
        rng = random.Random(nb)
        seen = {min(s, chain_len - s)
                for s in (bounded_draw(*draw, rng) for _ in range(4000))}
        assert seen == bfo._active_lengths(cfg, chain_len), (nb, lb, chain_len)
    assert bfo._active_lengths(BfoConfig(nb=3, lb=2.0), 40) == {2, 3, 4}


def test_search_stops_once_every_active_length_is_priced(monkeypatch):
    rounds = _counting_rounds(monkeypatch)
    cfg = BfoConfig()
    _, history = optimize_trace(cfg, build_chain(300), ChainCostModel(), ONE_MINER)
    assert len(rounds) < cfg.ni
    assert len(history) == cfg.ni + 1
    assert [it for it, _, _ in history] == list(range(cfg.ni + 1))
