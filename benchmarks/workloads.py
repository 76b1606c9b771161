"""The benchmark's fixed workloads and the cells each one runs.

A cell is one scenario run plus its CSV row, and its JSONL trace when the
workload writes one. A workload seed fixes a cycle of cells; the timed
phase runs the cycle from the start and wraps around until time is up.
Cell seeds are derived from the workload seed here, so the simulator only
ever sees the generated scenario.
"""

import hashlib
import math
from typing import Dict, List, NamedTuple, Tuple

# Same node density as the default 100 nodes on a 2500 m side.
_CITY_SIDE = 2500.0 * math.sqrt(10.0)
_LONG_SIDE = 2500.0 * math.sqrt(0.3)


class Workload(NamedTuple):
    name: str
    scenario: Dict            # input to iovsim.config_from_dict
    attacks: Tuple[bool, ...]  # attack toggles run for every cell seed
    cell_seeds: int           # distinct cell seeds in one cycle
    writes_trace: bool
    traced_cells: int         # cells, from the start of the cycle, in the traced pass


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The paper's calibration run: BFO, clustering and routing share the time.
        Workload(
            name="paper_mix",
            scenario={},
            attacks=(False, True),
            cell_seeds=8,
            writes_trace=True,
            traced_cells=2,
        ),
        # Ten times the nodes: the full-pool next_hop scan and clustering dominate.
        Workload(
            name="city_1000",
            scenario={"comm_count": 300,
                      "network": {"node_count": 1000, "area_side": _CITY_SIDE}},
            attacks=(False,),
            cell_seeds=12,
            writes_trace=False,
            traced_cells=1,
        ),
        # A ~4.9k-block chain: the split search and trust re-sums dominate.
        Workload(
            name="long_ledger",
            scenario={"comm_count": 5000,
                      "network": {"node_count": 30, "area_side": _LONG_SIDE}},
            attacks=(True,),
            cell_seeds=8,
            writes_trace=False,
            traced_cells=1,
        ),
    )
}


class Cell(NamedTuple):
    index: int
    label: str
    seed: int
    attack: bool


def cell_seed(workload: str, seed: int, k: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def cells(w: Workload, seed: int) -> List[Cell]:
    """The cycle for one workload seed; attack toggles interleave so any
    prefix of the cycle has both kinds in near-equal number."""
    out: List[Cell] = []
    for k in range(w.cell_seeds):
        s = cell_seed(w.name, seed, k)
        for attack in w.attacks:
            out.append(Cell(len(out), f"s{s}-attack-{'on' if attack else 'off'}", s, attack))
    return out


def build_config(iovsim, w: Workload, cell: Cell):
    """ScenarioConfig for one cell, through the library's public API."""
    return iovsim.config_from_dict(w.scenario).reseeded(cell.seed).with_attacks(cell.attack)
