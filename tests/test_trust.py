import random
from fractions import Fraction

import pytest

from iovsim.network import Position
from iovsim.trust import (
    CommRecord,
    TrustState,
    delivery_ratio,
    energy_spent,
    round_trip_ms,
    select_miners,
    throughput,
    trust_level,
)

from helpers import dominating_record_pair, node_with_tl, random_record


def test_record_invariants():
    ok = dict(rx=1, tx=2, ts_start=0.0, ts_complete=1.0, e_start=2.0, e_complete=1.0)
    CommRecord(**ok)
    with pytest.raises(ValueError):
        CommRecord(**{**ok, "tx": 0})
    with pytest.raises(ValueError):
        CommRecord(**{**ok, "rx": 3})
    with pytest.raises(ValueError):
        CommRecord(**{**ok, "rx": -1})
    with pytest.raises(ValueError):
        CommRecord(**{**ok, "ts_complete": 0.0})
    with pytest.raises(ValueError):
        CommRecord(**{**ok, "e_complete": 2.0})


def test_record_metrics_against_fraction_oracle():
    rng = random.Random(23)
    for _ in range(1000):
        rec = random_record(rng)
        assert delivery_ratio(rec) == pytest.approx(
            float(Fraction(rec.rx) / Fraction(rec.tx)), rel=1e-9, abs=1e-12
        )
        rtt = rec.ts_complete - rec.ts_start
        assert round_trip_ms(rec) == rtt
        assert throughput(rec) == pytest.approx(rec.rx / rtt, rel=1e-9, abs=1e-12)
        assert energy_spent(rec) == rec.e_start - rec.e_complete


def test_trust_level_worked_example():
    # one record: pdr 0.8, throughput 4/ms, rtt 2 ms, energy 2 mJ
    rec = CommRecord(rx=8, tx=10, ts_start=0.0, ts_complete=2.0, e_start=3.0, e_complete=1.0)
    assert trust_level(1.0, [rec]) == pytest.approx(0.8)


def test_trust_level_edges():
    rec = CommRecord(rx=1, tx=1, ts_start=0.0, ts_complete=1.0, e_start=2.0, e_complete=1.0)
    assert trust_level(5.0, []) == 0.0
    assert trust_level(0.0, [rec]) == 0.0
    with pytest.raises(ValueError):
        trust_level(-1.0, [rec])


def test_trust_state_matches_pure_function():
    rng = random.Random(4)
    state = TrustState()
    records = []
    for _ in range(200):
        rec = random_record(rng)
        state.add(rec)
        records.append(rec)
        residual = rng.uniform(0.0, 100.0)
        assert state.score(residual) == trust_level(residual, records)


def test_trust_state_window():
    rng = random.Random(5)
    state = TrustState(window=10)
    records = []
    for _ in range(50):
        rec = random_record(rng)
        state.add(rec)
        records.append(rec)
    assert state.score(3.0) == trust_level(3.0, records[-10:])
    assert len(state.records) == 10
    with pytest.raises(ValueError):
        TrustState(window=0)


def test_trust_state_built_with_records_scores_like_pure_function():
    rng = random.Random(6)
    for count in (1, 2, 17):
        records = [random_record(rng) for _ in range(count)]
        state = TrustState(records=list(records))
        for residual in (0.0, 3.0, rng.uniform(0.0, 100.0)):
            assert state.score(residual) == trust_level(residual, records)
        rec = random_record(rng)
        state.add(rec)
        assert state.score(3.0) == trust_level(3.0, records + [rec])


def test_trust_state_window_trims_initial_records():
    rng = random.Random(7)
    r = random_record(rng)
    state = TrustState(window=1, records=[r, r, r])
    assert state.records == [r]
    assert state.score(3.0) == trust_level(3.0, [r])
    records = [random_record(rng) for _ in range(8)]
    state = TrustState(window=3, records=list(records))
    assert state.records == records[-3:]
    assert state.score(2.0) == trust_level(2.0, records[-3:])


def test_trust_state_quality_sum_is_not_an_init_field():
    with pytest.raises(TypeError):
        TrustState(_q_sum=5.0)
    rng = random.Random(8)
    records = [random_record(rng) for _ in range(3)]
    built, grown = TrustState(records=list(records)), TrustState()
    for rec in records:
        grown.add(rec)
    assert built == grown


def test_dominance_increases_trust():
    rng = random.Random(77)
    for _ in range(1000):
        worse, better = dominating_record_pair(rng)
        assert trust_level(10.0, [better]) > trust_level(10.0, [worse])


def test_select_miners_worked_example():
    nodes = [
        node_with_tl(0, Position(0, 0), 3.0),
        node_with_tl(1, Position(1, 0), 1.0),
        node_with_tl(2, Position(2, 0), 2.0),
    ]
    assert [n.id for n in select_miners(nodes, 2)] == [0, 2]


def test_select_miners_tie_breaks_on_lower_id():
    nodes = [node_with_tl(1, Position(0, 0), 2.0), node_with_tl(0, Position(1, 0), 2.0)]
    assert [n.id for n in select_miners(nodes, 1)] == [0]


def test_select_miners_bounds_and_dead_exclusion():
    nodes = [node_with_tl(i, Position(i, 0), float(i + 1)) for i in range(4)]
    nodes[3].residual_energy = 0.0
    picked = select_miners(nodes, 3)
    assert [n.id for n in picked] == [2, 1, 0]
    with pytest.raises(ValueError):
        select_miners(nodes, 4)  # only 3 live
    with pytest.raises(ValueError):
        select_miners(nodes, 0)


def test_select_miners_ranks_by_descending_score():
    rng = random.Random(12)
    nodes = [node_with_tl(i, Position(i, 0), rng.uniform(0, 50)) for i in range(30)]
    scores = [n.trust_score() for n in select_miners(nodes, len(nodes))]
    assert scores == sorted(scores, reverse=True)


def test_select_miners_matches_a_full_sort():
    # many zero-score ties (empty histories), some dead nodes, ids shuffled
    rng = random.Random(31)
    for _ in range(40):
        count = rng.randint(2, 60)
        ids = rng.sample(range(1000), count)
        nodes = [node_with_tl(nid, Position(0, 0), rng.choice([0.0, 0.0, 0.0, 1.0, 2.0])
                              * rng.uniform(1.0, 5.0)) for nid in ids]
        for n in rng.sample(nodes, count // 5):
            n.residual_energy = 0.0
        live = [n for n in nodes if n.alive]
        full = [n.id for n in sorted(live, key=lambda n: (-n.trust_score(), n.id))]
        for k in {1, len(live), rng.randint(1, len(live))}:
            assert [n.id for n in select_miners(nodes, k)] == full[:k]
