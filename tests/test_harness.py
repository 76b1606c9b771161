import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import iovsim
from iovsim.attacks import DDOS, FINNEY, MITM, SYBIL, PHANTOM_ID_BASE, AttackProfile
from iovsim.bfo import BfoConfig
from iovsim.config import ScenarioConfig
from iovsim.harness import (
    CSV_HEADER,
    EventLog,
    SweepError,
    emit_csv,
    run_scenario,
    scenario_label,
    simulate,
    sweep,
)
from iovsim.ledger import ChainCostModel, verify
from iovsim.network import NetworkConfig, PacketQueue
from iovsim.trust import TrustState


def small_scenario(comms: int = 60, seed: int = 3, **overrides) -> ScenarioConfig:
    network = NetworkConfig(node_count=60, rng_seed=seed)
    cfg = ScenarioConfig(network=network, comm_count=comms,
                         bfo=BfoConfig(nb=6, ni=5), **overrides)
    return cfg.with_attacks(False)


def only_attack(kind: str, fraction: float = 0.3) -> AttackProfile:
    return AttackProfile(fraction=fraction, mix={kind: 1.0})


def dispatch_pairs(events: EventLog):
    return [(e.data["src"], e.data["dest"])
            for e in events.events if e.kind == "dispatch"]


def test_event_log_orders_and_guards():
    log = EventLog()
    log.append("a", 1.0, x=1)
    log.append("b", 1.0)
    log.append("c", 2.5, y="z")
    assert [e.seq for e in log.events] == [0, 1, 2]
    with pytest.raises(ValueError, match="regression"):
        log.append("d", 2.0)
    parsed = json.loads(log.events[2].as_json())
    assert parsed == {"time_ms": 2.5, "seq": 2, "kind": "c", "y": "z"}


def test_event_json_refuses_non_finite_values():
    log = EventLog()
    log.append("a", 0.0, x=float("nan"))
    log.append("b", float("inf"))
    for event in log.events:
        with pytest.raises(ValueError):
            event.as_json()


def test_costs_near_the_overflow_bound_keep_outputs_finite(tmp_path):
    # a quarter of the largest append cost the 20-comm clock bound admits
    cost = ChainCostModel(dr=sys.float_info.max / 20 / 20 / 4, dv=0.0)
    cfg = small_scenario(comms=20, cost_model=cost).with_attacks(True)
    csv_path, trace = tmp_path / "o.csv", tmp_path / "t.jsonl"
    report = run_scenario(cfg, trace_path=str(trace))
    emit_csv([report], str(csv_path))
    row = next(csv.DictReader(csv_path.open()))
    assert all(math.isfinite(float(row[k])) for k in CSV_HEADER.split(",")[2:])
    assert report.avg_delay_ms > 1e300
    times = [json.loads(line)["time_ms"] for line in trace.read_text().splitlines()]
    assert all(math.isfinite(t) for t in times)


def test_event_log_writes_jsonl(tmp_path):
    log = EventLog()
    log.append("a", 0.0, n=1)
    log.append("b", 1.0)
    path = tmp_path / "trace.jsonl"
    log.write_jsonl(str(path))
    raw = path.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["kind"] == "a"


def test_scenario_label():
    cfg = small_scenario(comms=500)
    assert scenario_label(cfg) == "comms500"
    assert scenario_label(cfg.with_attacks(True)) == "comms500-attack"


def test_simulate_is_deterministic():
    cfg = small_scenario(comms=40)
    report_a, events_a = simulate(cfg)
    report_b, events_b = simulate(cfg)
    assert report_a == report_b
    assert [e.as_json() for e in events_a.events] == [e.as_json() for e in events_b.events]


def test_simulate_varies_with_seed():
    a, ev_a = simulate(small_scenario(comms=40, seed=1))
    b, ev_b = simulate(small_scenario(comms=40, seed=2))
    assert dispatch_pairs(ev_a) != dispatch_pairs(ev_b)
    assert a.avg_delay_ms != b.avg_delay_ms


def test_attack_toggle_leaves_honest_draws_alone():
    cfg_off = small_scenario(comms=60)
    cfg_on = cfg_off.with_attacks(True)
    _, ev_off = simulate(cfg_off)
    _, ev_on = simulate(cfg_on)
    assert dispatch_pairs(ev_off) == dispatch_pairs(ev_on)


def test_clean_run_has_no_attack_artifacts():
    cfg = small_scenario(comms=60)
    state = {}
    report, events = simulate(cfg, state_out=state)
    assert report.n_comms == 60
    assert not [e for e in events.events if e.kind == "attack_effect"]
    assert report.chain_stats.rejected_blocks == 0
    assert report.chain_stats.main_length == 60
    assert report.drops == 0
    assert all(verify(state["chain"]))
    assert state["marks"] == {}


def test_energy_conservation_against_ledger():
    cfg = small_scenario(comms=60).with_attacks(True)
    state = {}
    simulate(cfg, state_out=state)
    nodes, energy = state["nodes"], state["energy"]
    spent = sum(cfg.network.initial_energy_mj - n.residual_energy
                for n in nodes.values())
    assert spent == pytest.approx(energy.total_drawn, rel=1e-12)
    assert energy.total_drawn > 0


def test_trust_histories_accrue_at_sources():
    cfg = small_scenario(comms=60)
    state = {}
    simulate(cfg, state_out=state)
    recorded = [n for n in state["nodes"].values() if n.trust.records]
    assert recorded
    for n in recorded:
        for rec in n.trust.records:
            assert rec.ts_complete > rec.ts_start
            assert rec.e_start > rec.e_complete


def test_trust_window_caps_history():
    cfg = small_scenario(comms=80, trust_window=3)
    state = {}
    simulate(cfg, state_out=state)
    assert all(len(n.trust.records) <= 3 for n in state["nodes"].values())
    assert any(n.trust.records for n in state["nodes"].values())


def test_finney_marks_are_rejected_exactly():
    cfg = small_scenario(comms=50)
    cfg = replace(cfg, attack=only_attack(FINNEY, 0.2))
    state = {}
    report, _ = simulate(cfg, state_out=state)
    finney_marks = sum(1 for k in state["marks"].values() if k == FINNEY)
    assert finney_marks == 10
    assert report.chain_stats.rejected_blocks == finney_marks
    assert report.chain_stats.main_length == 50 - finney_marks
    assert all(verify(state["chain"]))


def test_ddos_floods_cost_packets_and_energy():
    base = small_scenario(comms=60)
    baseline, _ = simulate(base)
    noisy = replace(base, attack=only_attack(DDOS, 0.5))
    attacked, events = simulate(noisy)
    assert attacked.drops > baseline.drops
    assert attacked.pdr_pct < baseline.pdr_pct
    assert attacked.avg_energy_mj > baseline.avg_energy_mj
    floods = [e for e in events.events
              if e.kind == "attack_effect" and e.data["attack"] == DDOS]
    assert floods


def replay_drops(cfg: ScenarioConfig, events: EventLog) -> int:
    """Replay a run's packets through a real PacketQueue per communication
    and return its drop count, checking each count the trace holds."""
    flood = cfg.attack.flood_multiplier
    queues, corrupted = {}, set()
    for e in events.events:
        d = e.data
        if e.kind == "dispatch":
            queues[d["comm"]] = q = PacketQueue(cfg.network.queue_capacity)
        elif e.kind == "attack_effect" and d["attack"] == DDOS:
            assert sum(q.push(("flood", i)) for i in range(flood)) == d["queued"]
        elif e.kind == "attack_effect" and d["attack"] == MITM:
            corrupted.add(d["comm"])
        elif e.kind == "complete" and d["delivered"]:
            accepted = sum(q.push(("data", i)) for i in range(d["tx"]))
            assert d["rx"] == (0 if d["comm"] in corrupted else accepted)
    return sum(q.dropped for q in queues.values())


@pytest.mark.parametrize("capacity", [1, 3, 25])
@pytest.mark.parametrize("flood", [1, 10, 40])
@pytest.mark.parametrize("packets", [1, 20])
def test_drop_arithmetic_matches_a_replayed_packet_queue(capacity, flood, packets):
    base = small_scenario(comms=60)
    cfg = replace(base,
                  network=replace(base.network, queue_capacity=capacity,
                                  packets_per_comm=packets),
                  attack=AttackProfile(fraction=0.5, mix={DDOS: 2.0, MITM: 1.0},
                                       flood_multiplier=flood))
    report, events = simulate(cfg)
    assert any(e.kind == "attack_effect" and e.data["attack"] == DDOS for e in events.events)
    assert replay_drops(cfg, events) == report.drops
    if flood + packets > capacity:
        assert report.drops > 0


def test_simulate_builds_each_trust_state_once(monkeypatch):
    built = []
    post_init = TrustState.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(TrustState, "__post_init__", counting)
    cfg = small_scenario(comms=60, trust_window=3).with_attacks(True)
    state = {}
    simulate(cfg, state_out=state)
    assert len(built) == cfg.network.node_count
    assert all(n.trust.window == 3 for n in state["nodes"].values())


def test_import_leaves_the_process_pool_unloaded():
    # only sweep with jobs > 1 needs multiprocessing, which is slow to import
    src_dir = str(Path(iovsim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    code = "import sys, iovsim; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_mitm_erases_received_packets():
    base = small_scenario(comms=60)
    baseline, _ = simulate(base)
    tampered = replace(base, attack=only_attack(MITM, 1.0))
    attacked, events = simulate(tampered)
    assert attacked.pdr_pct < baseline.pdr_pct
    hits = [e for e in events.events
            if e.kind == "attack_effect" and e.data["attack"] == MITM]
    assert hits
    # corruption happens strictly inside the path, never at an endpoint
    dispatch = {e.data["comm"]: e.data for e in events.events if e.kind == "dispatch"}
    for e in hits:
        assert e.data["at"] not in (dispatch[e.data["comm"]]["src"],
                                    dispatch[e.data["comm"]]["dest"])


def test_sybil_never_reaches_the_miner_bench():
    cfg = small_scenario(comms=80)
    cfg = replace(cfg, attack=only_attack(SYBIL, 0.5))
    report, events = simulate(cfg)
    spawns = [e for e in events.events
              if e.kind == "attack_effect" and e.data["attack"] == SYBIL]
    assert spawns
    miners = {e.data["miner"] for e in events.events if e.kind == "block_submit"}
    assert all(m < PHANTOM_ID_BASE for m in miners)
    assert report.n_comms == 80


def test_event_times_never_regress_within_a_run():
    cfg = small_scenario(comms=60).with_attacks(True)
    _, events = simulate(cfg)
    times = [e.time_ms for e in events.events]
    assert times == sorted(times)
    kinds = {e.kind for e in events.events}
    assert {"dispatch", "hop", "block_submit", "complete", "resplit"} <= kinds


def test_sidechain_resplits_cut_block_delay():
    on = small_scenario(comms=120)
    off = replace(on, sidechain_enabled=False)
    r_on, ev_on = simulate(on)
    r_off, ev_off = simulate(off)
    assert r_on.block_delay_ms_total < r_off.block_delay_ms_total
    assert r_on.chain_stats.main_length == r_off.chain_stats.main_length == 120
    assert [e for e in ev_on.events if e.kind == "resplit"]
    assert not [e for e in ev_off.events if e.kind == "resplit"]
    assert r_on.chain_stats.active_length < r_off.chain_stats.active_length


def test_run_stops_when_the_network_dies():
    network = NetworkConfig(node_count=2, area_side=50.0, initial_energy_mj=0.45,
                            rng_seed=5)
    cfg = ScenarioConfig(network=network, comm_count=10).with_attacks(False)
    report, _ = simulate(cfg)
    assert 1 <= report.n_comms < 10


def test_zero_comm_scenario_reports_zeros():
    report, events = simulate(small_scenario(comms=0))
    assert report.n_comms == 0
    assert report.avg_delay_ms == 0.0
    assert report.pdr_pct == 0.0
    assert events.events == []


def test_run_scenario_writes_trace(tmp_path):
    cfg = small_scenario(comms=20)
    path = tmp_path / "events.jsonl"
    report = run_scenario(cfg, trace_path=str(path))
    direct, events = simulate(cfg)
    assert report == direct
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(events.events)
    assert json.loads(lines[0])["kind"] == "dispatch"


def test_sweep_grid_order_and_parallel_equivalence():
    base = small_scenario(comms=10)
    serial = sweep(base, [10, 15], [1, 2], jobs=1)
    assert [r.n_comms for r in serial] == [10, 10, 15, 15]
    assert [r.seed for r in serial] == [1, 2, 1, 2]
    parallel = sweep(base, [10, 15], [1, 2], jobs=2)
    assert parallel == serial


def _explode_on_seed_two(cfg: ScenarioConfig):
    if cfg.network.rng_seed == 2:
        raise RuntimeError("boom")
    return run_scenario(cfg)


def test_sweep_finishes_grid_before_raising():
    base = small_scenario(comms=10)
    with pytest.raises(SweepError) as exc_info:
        sweep(base, [10], [1, 2, 3], runner=_explode_on_seed_two)
    err = exc_info.value
    assert len(err.reports) == 2
    assert [r.seed for r in err.reports] == [1, 3]
    assert err.failures == [("comms10", 2, "boom")]
    assert "boom" in str(err)


def test_emit_csv_schema(tmp_path):
    base = small_scenario(comms=10)
    reports = sweep(base, [10], [1, 2])
    path = tmp_path / "out.csv"
    emit_csv(reports, str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    rows = list(csv.DictReader(raw.decode("utf-8").splitlines()))
    for row in rows:
        assert row["scenario"] == "comms10"
        float(row["avg_delay_ms"])
        assert "." in row["pdr_pct"] and len(row["pdr_pct"].split(".")[1]) == 4
    with pytest.raises(ValueError):
        emit_csv([], str(path))
