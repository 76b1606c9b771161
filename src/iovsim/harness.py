"""Scenario driver: the per-communication pipeline, metrics, sweeps, CSV.

Each communication picks a random live (src, dest) pair, clusters the
network around the destination, routes a burst of packets, logs the
outcome into the source's trust history, and submits one block for the
communication to the ledger. The block-append delay is part of the
communication's completion time, which is how ledger growth degrades
network QoS and why periodic re-splitting of the chain wins it back.

Scheduling is synchronous (communications run one after another on a
single clock), but every state change is logged as a timestamped Event
and event time never runs backwards.
"""

import json
import random
from collections import ChainMap
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .attacks import (DDOS, FINNEY, MITM, SYBIL, make_phantoms, mark_communications,
                      phantom_neighbours)
from .bfo import optimize_split
from .clustering import assign_positions
from .config import ScenarioConfig
from .ledger import Chain, ChainCostModel, append_delay, make_block, rejection_delay
from .network import RX, TX, EnergyLedger, deploy, neighbour_index
from .routing import route
from .seeding import mix64
from .trust import CommRecord, select_miners

_PAIRS_TAG = 0x9A165
_MARK_TAG = 0xA77AC
_FX_TAG = 0xEFFEC
_RESPLIT_TAG = 0x5B117


@dataclass(frozen=True)
class Event:
    time_ms: float
    seq: int
    kind: str
    data: Dict

    def as_json(self) -> str:
        payload = {"time_ms": self.time_ms, "seq": self.seq, "kind": self.kind}
        payload.update(self.data)
        return json.dumps(payload, sort_keys=True, allow_nan=False)


class EventLog:
    """Ordered event record; appending an earlier timestamp is a bug."""

    def __init__(self):
        self.events: List[Event] = []
        self._seq = 0

    def append(self, kind: str, time_ms: float, **data) -> Event:
        if self.events and time_ms < self.events[-1].time_ms:
            raise ValueError(
                f"event time regression: {time_ms} after {self.events[-1].time_ms}"
            )
        ev = Event(time_ms=time_ms, seq=self._seq, kind=kind, data=data)
        self._seq += 1
        self.events.append(ev)
        return ev

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for ev in self.events:
                fh.write(ev.as_json() + "\n")


@dataclass(frozen=True)
class ChainStats:
    main_length: int
    active_length: int
    rejected_blocks: int


@dataclass(frozen=True)
class MetricsReport:
    scenario: str
    seed: int
    n_comms: int
    avg_delay_ms: float
    avg_energy_mj: float
    avg_throughput_kbps: float
    pdr_pct: float
    drops: int
    route_failures: int
    chain_stats: ChainStats
    # diagnostics beyond the CSV schema
    delivered: int = 0
    block_delay_ms_total: float = 0.0


def scenario_label(cfg: ScenarioConfig) -> str:
    tag = "-attack" if cfg.attack.fraction > 0 else ""
    return f"comms{cfg.comm_count}{tag}"


def simulate(cfg: ScenarioConfig,
             state_out: Optional[Dict] = None) -> Tuple[MetricsReport, EventLog]:
    """Run one scenario and return its report plus the full event log.

    Deterministic: the same config (seeds included) yields a
    byte-identical report and log. Attack marking, pair sampling and
    attack mechanics each consume their own RNG stream, so disabling
    attacks does not move any honest draw.

    state_out, when given, receives the final nodes, chain, energy
    ledger and attack marks for inspection; it plays no part in the run.
    """
    net = cfg.network
    nodes = deploy(net)
    neighbours = neighbour_index(nodes, net.radio_range)
    for n in nodes.values():
        n.trust.window = cfg.trust_window  # histories are still empty
    energy = EnergyLedger(net.energy_costs)
    seed = net.rng_seed
    pair_rng = random.Random(mix64(seed, _PAIRS_TAG))
    fx_rng = random.Random(mix64(seed, _FX_TAG))
    marks = mark_communications(cfg.comm_count, cfg.attack, random.Random(mix64(seed, _MARK_TAG)))

    chain = Chain()
    active_len = 0          # pricing length of the segment taking appends
    rejected = 0
    miners = []
    events = EventLog()
    clock = 0.0
    resplit_round = 0

    completed = 0
    delay_sum = 0.0
    block_delay_sum = 0.0
    rx_sum = tx_sum = 0
    drops = 0
    route_failures = 0
    delivered_count = 0

    deaths_seen = None
    for j in range(cfg.comm_count):
        if energy.deaths != deaths_seen:
            # liveness only moves when a battery empties; the old position
            # map stays as it was for any assignment still holding it
            deaths_seen = energy.deaths
            live = [n for n in nodes.values() if n.alive]
            live_ids = sorted(n.id for n in live)
            live_pos = {n.id: n.pos for n in live}
        if len(live) < 2:
            break
        if j % cfg.miner_refresh_period == 0 or not miners:
            k = min(max(1, round(cfg.miner_fraction * len(live))), len(live))
            miners = select_miners(live, k)

        src_id, dest_id = pair_rng.sample(live_ids, 2)
        kind = marks.get(j)
        events.append("dispatch", clock, comm=j, src=src_id, dest=dest_id, attack=kind)

        route_nodes = nodes
        route_neighbours = neighbours
        route_pos = live_pos
        aliases: Dict[int, int] = {}
        if kind == SYBIL:
            eligible = [i for i in live_ids if i not in (src_id, dest_id)]
            if eligible:
                owner = nodes[fx_rng.choice(eligible)]
                owner.is_attacker = True
                phantoms, aliases = make_phantoms(owner, cfg.attack.sybil_identity_count, serial=j)
                route_nodes = {**nodes, **{p.id: p for p in phantoms}}
                route_neighbours = phantom_neighbours(neighbours, owner.id,
                                                      [p.id for p in phantoms])
                route_pos = ChainMap({p.id: p.pos for p in phantoms}, live_pos)
                events.append("attack_effect", clock, comm=j, attack=SYBIL,
                              owner=owner.id, identities=len(phantoms))

        assignment = assign_positions(route_pos, dest_id, net.radio_range, net.sector_count)
        src_energy_before = nodes[src_id].residual_energy
        trace = route(src_id, dest_id, assignment, route_nodes, net, energy, aliases,
                      neighbours=route_neighbours)
        hop_clock = clock
        for hop_to, hop_delay in zip(trace.hops[1:], trace.per_hop_delay_ms):
            hop_clock += hop_delay
            events.append("hop", hop_clock, comm=j, to=hop_to)

        # packet accounting at the destination: a drop-tail buffer of
        # queue_capacity slots, empty at the start of every comm, takes
        # the flood first and then the data; what does not fit is dropped
        dest_node = nodes[dest_id]
        room = net.queue_capacity
        if kind == DDOS:
            eligible = [i for i in live_ids if i not in (src_id, dest_id)]
            if eligible:
                flooder = nodes[fx_rng.choice(eligible)]
                flooder.is_attacker = True
                for _ in range(cfg.attack.flood_multiplier):
                    energy.charge(flooder, TX)
                    energy.charge(dest_node, RX)
                queued = min(room, cfg.attack.flood_multiplier)
                room -= queued
                drops += cfg.attack.flood_multiplier - queued
                events.append("attack_effect", hop_clock, comm=j, attack=DDOS,
                              flooder=flooder.id, queued=queued)
        rx_pkts = 0
        tx_pkts = net.packets_per_comm
        if trace.delivered:
            rx_pkts = min(room, tx_pkts)
            drops += tx_pkts - rx_pkts
        if kind == MITM and trace.delivered and len(trace.hops) >= 3:
            corrupt_at = fx_rng.randrange(1, len(trace.hops) - 1)
            middleman = aliases.get(trace.hops[corrupt_at], trace.hops[corrupt_at])
            nodes[middleman].is_attacker = True
            rx_pkts = 0
            events.append("attack_effect", hop_clock, comm=j, attack=MITM, at=middleman)

        # one block per communication; a finney mark breaks its digest link
        miner = miners[j % len(miners)]
        block = make_block(
            index=len(chain),
            miner=miner.id,
            payload=b"comm:%d:%d:%d" % (j, src_id, dest_id),
            prev_digest=chain.tip_digest(),
            tamper=(kind == FINNEY),
        )
        if block.prev_digest == chain.tip_digest():
            chain.blocks.append(block)
            active_len += 1
            bdelay = append_delay(active_len, cfg.cost_model)
            accepted = True
        else:
            bdelay = rejection_delay(active_len, cfg.cost_model)
            rejected += 1
            accepted = False
        block_delay_sum += bdelay
        end_clock = hop_clock + bdelay
        events.append("block_submit", end_clock, comm=j, miner=miner.id,
                      accepted=accepted, segment_len=active_len)

        # completion time accumulated hop by hop so event times and the
        # clock agree bit for bit
        comm_delay = end_clock - clock
        src_energy_after = nodes[src_id].residual_energy
        if src_energy_before > src_energy_after and comm_delay > 0:
            nodes[src_id].trust.add(CommRecord(
                rx=rx_pkts, tx=tx_pkts,
                ts_start=clock, ts_complete=clock + comm_delay,
                e_start=src_energy_before, e_complete=src_energy_after,
            ))
        clock += comm_delay

        completed += 1
        delay_sum += comm_delay
        rx_sum += rx_pkts
        tx_sum += tx_pkts
        if trace.delivered:
            delivered_count += 1
        else:
            route_failures += 1
        events.append("complete", clock, comm=j, delivered=trace.delivered,
                      reason=trace.reason, rx=rx_pkts, tx=tx_pkts)

        if cfg.sidechain_enabled and (j + 1) % cfg.resplit_period == 0 and len(chain) >= 2:
            resplit_round += 1
            bcfg = replace(cfg.bfo, rng_seed=mix64(cfg.bfo.rng_seed, _RESPLIT_TAG, resplit_round))
            miner_view = [(m.id, m.trust_score()) for m in miners]
            chosen = optimize_split(bcfg, chain, cfg.cost_model, miner_view)
            active_len = min(chosen.part_lengths())
            events.append("resplit", clock, comm=j, split=chosen.split_point,
                          chain_len=len(chain), active_len=active_len)

    if state_out is not None:
        state_out.update(nodes=nodes, chain=chain, energy=energy, marks=marks)
    report = MetricsReport(
        scenario=scenario_label(cfg),
        seed=seed,
        n_comms=completed,
        avg_delay_ms=delay_sum / completed if completed else 0.0,
        avg_energy_mj=energy.total_drawn / completed if completed else 0.0,
        avg_throughput_kbps=(rx_sum * net.packet_size) / delay_sum if delay_sum > 0 else 0.0,
        pdr_pct=100.0 * rx_sum / tx_sum if tx_sum else 0.0,
        drops=drops,
        route_failures=route_failures,
        chain_stats=ChainStats(
            main_length=len(chain), active_length=active_len, rejected_blocks=rejected
        ),
        delivered=delivered_count,
        block_delay_ms_total=block_delay_sum,
    )
    return report, events


def run_scenario(cfg: ScenarioConfig, trace_path: Optional[str] = None) -> MetricsReport:
    report, events = simulate(cfg)
    if trace_path:
        events.write_jsonl(trace_path)
    return report


class SweepError(Exception):
    """One or more sweep cells failed; the rest were still run."""

    def __init__(self, failures: List[Tuple[str, int, str]], reports: List[MetricsReport]):
        self.failures = failures
        self.reports = reports
        lines = ", ".join(f"{label} seed={seed}: {msg}" for label, seed, msg in failures)
        super().__init__(f"{len(failures)} sweep run(s) failed: {lines}")


def sweep(base: ScenarioConfig, comm_counts: Sequence[int], seeds: Sequence[int],
          jobs: int = 1,
          runner: Callable[[ScenarioConfig], MetricsReport] = run_scenario
          ) -> List[MetricsReport]:
    """Run the comm_count x seed grid and return reports in grid order.

    The grid order is fixed up front, so the output is identical no
    matter how many worker processes execute the cells. A failing cell
    does not stop the others; failures surface together at the end.
    """
    cfgs = [
        replace(base, comm_count=count).reseeded(s)
        for count in comm_counts
        for s in seeds
    ]
    results: List[Optional[MetricsReport]] = []
    failures: List[Tuple[str, int, str]] = []
    if jobs <= 1:
        for cfg in cfgs:
            try:
                results.append(runner(cfg))
            except Exception as exc:  # propagate after finishing the grid
                failures.append((scenario_label(cfg), cfg.network.rng_seed, str(exc)))
                results.append(None)
    else:
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing is slow to import
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(runner, cfg) for cfg in cfgs]
            for cfg, fut in zip(cfgs, futures):
                try:
                    results.append(fut.result())
                except Exception as exc:
                    failures.append((scenario_label(cfg), cfg.network.rng_seed, str(exc)))
                    results.append(None)
    if failures:
        raise SweepError(failures, [r for r in results if r is not None])
    return [r for r in results if r is not None]


CSV_HEADER = "scenario,seed,n_comms,avg_delay_ms,avg_energy_mj,avg_throughput_kbps,pdr_pct,drops,route_failures"


def emit_csv(reports: Sequence[MetricsReport], path: str) -> None:
    """Write reports in the fixed column order; floats get 4 decimals,
    lines end with LF, encoding is UTF-8."""
    if not reports:
        raise ValueError("no reports to write")
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.scenario},{r.seed},{r.n_comms},{r.avg_delay_ms:.4f},{r.avg_energy_mj:.4f},"
            f"{r.avg_throughput_kbps:.4f},{r.pdr_pct:.4f},{r.drops},{r.route_failures}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
