"""Golden digest tables: the CSV row and the JSONL trace are the contract.

Each table maps a case key to the sha256 of the CSV and of the JSONL
trace that one run writes, recorded from a known-good build, and pairs
it with the function that builds the run's config from that key. A
refactor or optimisation that changes any output byte fails; an
intended change to the outputs must say why and re-record the digests.

This module needs only the standard library and the package, so the
same cases run under pytest (tests/test_golden.py) and under any
interpreter without it (tests/run_goldens.py).
"""

import hashlib
import math
import os
from dataclasses import replace

from iovsim.config import ScenarioConfig
from iovsim.harness import emit_csv, run_scenario


def default_run(seed: int, attacks: bool) -> ScenarioConfig:
    """The default network for 100 communications."""
    return ScenarioConfig(comm_count=100).reseeded(seed).with_attacks(attacks)


def city_run(seed: int, attacks: bool) -> ScenarioConfig:
    """1000 nodes at the default density (side 2500 * sqrt(10)), where
    per-hop work and clustering are spread over ten times the nodes."""
    base = ScenarioConfig(comm_count=100)
    network = replace(base.network, node_count=1000, area_side=2500.0 * math.sqrt(10.0))
    return replace(base, network=network).reseeded(seed).with_attacks(attacks)


def death_run(seed: int, attacks: bool) -> ScenarioConfig:
    """100 nodes with 5 mJ each over 400 communications: about 90 die,
    so the live set shrinks mid-run."""
    base = ScenarioConfig(comm_count=400)
    network = replace(base.network, initial_energy_mj=5.0)
    return replace(base, network=network).reseeded(seed).with_attacks(attacks)


def run_out_run(seed: int) -> ScenarioConfig:
    """30 nodes at the default density with 3 mJ each, attacks on: the
    run stops at communication 135, when fewer than two nodes are live."""
    base = ScenarioConfig(comm_count=600)
    network = replace(base.network, node_count=30, area_side=2500.0 * math.sqrt(0.3),
                      initial_energy_mj=3.0)
    return replace(base, network=network).reseeded(seed).with_attacks(True)


# Non-default destination buffers, so the drop counts in the CSV and the
# `queued` counts in the trace cover both ends of the drop-tail buffer.
BUFFERS = {
    # half the communications flooded with 40 packets into a 3-slot buffer
    "ddos_q3_f40": (dict(queue_capacity=3),
                    dict(fraction=0.5, mix={"ddos": 1.0}, flood_multiplier=40)),
    # the default attack mix, one data packet per comm, a 60-slot buffer
    "q60_p1": (dict(queue_capacity=60, packets_per_comm=1), {}),
}


def buffer_run(name: str, seed: int) -> ScenarioConfig:
    network, attack = BUFFERS[name]
    base = ScenarioConfig(comm_count=100).reseeded(seed).with_attacks(True)
    return replace(base, network=replace(base.network, **network),
                   attack=replace(base.attack, **attack))


# (seed, attacks) -> (sha256 of the CSV, sha256 of the JSONL trace)
GOLDEN = {
    (1, False): ("23f5bd69627107f89646028b7b8e42a99be429f2536ac2efe3284b4bd8fa22e8",
                 "d42a20b7239d2a7c1ed55b13eb454193fc278fdcb9834cbcecbea5d43e6b9793"),
    (1, True): ("0e38370a9b6e6e217fa3ab53e1a14c3f65470f392980bace609b4a9e9e73ebfa",
                "bca01e521b33d3afd8425a587cc0e9636e26756682f5ddb4f825f629e7a64cc7"),
    (2, False): ("028bc1f7bb8ccf20619d4e21c6e314b6c1d9d571a679e15e61b6cf29d750a268",
                 "9c00fec6fbcbe224737fc7aaa9578c285351ac3d39ab31c965436e1b69fdc5ef"),
    (2, True): ("2181956a683980f202ffa379a0baf52efeb7a92dd0afe37742243b6f089c6346",
                "c76c4ab3e2f1939a739cdb066ef17c89d5911170b7eed7eb6c3d30c95b3fd92e"),
    (3, False): ("80e5d55a33c9e2e874a02274ea223002dce42c2e85f97071d0f4d6a5fc06fc82",
                 "743d5c97205159e7eb3246d068db742afb1d853c9057e90a05c14a6eeaedabef"),
    (3, True): ("af7e2340379e9d09241090b3b67a076263b6e3b0e4e86e635b727f28a883af0a",
                "bb3457a072b39e61efbd320604c0461f033eaed450cd7d54099a3c1c9b4267fa"),
}

GOLDEN_1000 = {
    (1, False): ("586fdfef971ee9818f936e3d9ae0397335519677bcc4ca7beb661ecfbef07b36",
                 "ce357963e20e05ef9069ea42f29fbd810d70590bf376b40124ac6e9d5325a1c2"),
    (1, True): ("076e19f551669a7d4241576c385e594dbf3afdadc449bc0d2dfd18c472849315",
                "28991b731c15d3ed981962e45da255f4e98636a980858e6ce8457e720f2306fb"),
}

GOLDEN_DEATHS = {
    (1, False): ("c9aa572d051d729c5666fc66b8e1fd8cc6eab62f47c9611b6bee40604b939057",
                 "bf26e9decbbe62439fc3f259ff6d809162da2ab68b60bc1981fb657c3a4be0bb"),
    (1, True): ("57dac5843525a028b58fab9a8fc9ff4c7bd18f72617ea3048a854f0cf998c122",
                "02af5551429d9ca732406268b7fb9221a93c7e78a73fc9b08db3a884ca927f37"),
    (2, False): ("b0499a87b629a5a7de0485c75bb96d88a7d867f11ac2987c1b60d015767c39da",
                 "ba2f466778c07a6e1bbaf5f8a7598469d8ba5af057fdd88e4a9417d7e4a9e26d"),
    (2, True): ("602123303b65bf3282f51c2dd7edd70f9e74f9f71aeaa3d1c7dba565187c57c8",
                "8b23067138ce284997a6670e88cd181a38921312613c5c97d915cbbd3c27eb9c"),
}

# (seed,) -> digests; the run holds 135 communications
GOLDEN_RUN_OUT = {
    (1,): ("2e2733dc9254fa010d520f9a4dba69651160e1cc595ddbd48b41e3799f382e3c",
           "22095b3a6cdd2315a110ca106f2596be5baa06562ec7df59257f21de3cdaf55e"),
}
RUN_OUT_COMMS = 135

# (BUFFERS name, seed) -> digests
GOLDEN_BUFFERS = {
    ("ddos_q3_f40", 1): ("1bcbdc7b49b49a0b3894945c42131941dff53b6dd4048fa827460210e2721701",
                         "bc92be72a185c9efa081717e9944033b67448d7e5cfbeb20077ca4398ed9b1be"),
    ("ddos_q3_f40", 2): ("789c6c07d3a1512be5a76738cc727f59b629f155da1f7384c0ef64b8bb5ed3e7",
                         "27fa580d5982a632ed626d0bacb7dc8387c204b0eab91126e6d57c62330bd22a"),
    ("q60_p1", 1): ("f81ba0d907e2a821be7d0511d8c699da10dfb342222c49b2d90ec5089d471c13",
                    "db3c1329489c443cba8a9403746a35036106141c74c89ec664fe19da6021415b"),
    ("q60_p1", 2): ("a69faaf44855ffce56457d060731b42cef94598f96fb613fb1c6fb85342e7ae1",
                    "bf6ed83fe10fa7587b24481a210574118ad6519f4e1dc6035618db9d19bd5761"),
}

# table name -> (config builder taking the key, digest table)
TABLES = {
    "default": (default_run, GOLDEN),
    "city_1000": (city_run, GOLDEN_1000),
    "deaths": (death_run, GOLDEN_DEATHS),
    "run_out": (run_out_run, GOLDEN_RUN_OUT),
    "buffers": (buffer_run, GOLDEN_BUFFERS),
}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_digests(cfg: ScenarioConfig, directory: str):
    """Run cfg, write its CSV and trace into directory, and return
    ((csv sha256, trace sha256), report)."""
    csv_path = os.path.join(directory, "run.csv")
    trace_path = os.path.join(directory, "trace.jsonl")
    report = run_scenario(cfg, trace_path=trace_path)
    emit_csv([report], csv_path)
    return (_sha256(csv_path), _sha256(trace_path)), report

