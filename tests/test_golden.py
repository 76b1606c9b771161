"""Golden digests: the CSV row and the JSONL trace are the contract.

Each case runs the default network for 100 communications with one
master seed, attacks off or on, and compares the sha256 of both output
files with digests recorded from a known-good build. A refactor or
optimisation that changes any output byte fails here; an intended
change to the outputs must say why and re-record these digests.
The 1000-node cases keep the default density (side 2500 * sqrt(10)),
where per-hop work and clustering are spread over ten times the nodes.
"""

import hashlib
import math
from dataclasses import replace

import pytest

from iovsim.config import ScenarioConfig
from iovsim.harness import emit_csv, run_scenario

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


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed,attacks", sorted(GOLDEN))
def test_outputs_match_golden_digests(seed, attacks, tmp_path):
    cfg = ScenarioConfig(comm_count=100).reseeded(seed).with_attacks(attacks)
    csv_path, trace_path = tmp_path / "run.csv", tmp_path / "trace.jsonl"
    emit_csv([run_scenario(cfg, trace_path=str(trace_path))], str(csv_path))
    assert (_sha256(csv_path), _sha256(trace_path)) == GOLDEN[(seed, attacks)]


# (seed, attacks) -> digests for 1000 nodes at the default density
GOLDEN_1000 = {
    (1, False): ("586fdfef971ee9818f936e3d9ae0397335519677bcc4ca7beb661ecfbef07b36",
                 "ce357963e20e05ef9069ea42f29fbd810d70590bf376b40124ac6e9d5325a1c2"),
    (1, True): ("076e19f551669a7d4241576c385e594dbf3afdadc449bc0d2dfd18c472849315",
                "28991b731c15d3ed981962e45da255f4e98636a980858e6ce8457e720f2306fb"),
}


@pytest.mark.parametrize("seed,attacks", sorted(GOLDEN_1000))
def test_1000_node_outputs_match_golden_digests(seed, attacks, tmp_path):
    base = ScenarioConfig(comm_count=100)
    network = replace(base.network, node_count=1000, area_side=2500.0 * math.sqrt(10.0))
    cfg = replace(base, network=network).reseeded(seed).with_attacks(attacks)
    csv_path, trace_path = tmp_path / "run.csv", tmp_path / "trace.jsonl"
    emit_csv([run_scenario(cfg, trace_path=str(trace_path))], str(csv_path))
    assert (_sha256(csv_path), _sha256(trace_path)) == GOLDEN_1000[(seed, attacks)]


# Death-path cases: batteries small enough that most nodes die, so the
# live set shrinks mid-run. (seed, attacks) -> digests for 100 nodes with
# 5 mJ each over 400 communications (about 90 nodes die).
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


@pytest.mark.parametrize("seed,attacks", sorted(GOLDEN_DEATHS))
def test_death_path_outputs_match_golden_digests(seed, attacks, tmp_path):
    base = ScenarioConfig(comm_count=400)
    network = replace(base.network, initial_energy_mj=5.0)
    cfg = replace(base, network=network).reseeded(seed).with_attacks(attacks)
    csv_path, trace_path = tmp_path / "run.csv", tmp_path / "trace.jsonl"
    emit_csv([run_scenario(cfg, trace_path=str(trace_path))], str(csv_path))
    assert (_sha256(csv_path), _sha256(trace_path)) == GOLDEN_DEATHS[(seed, attacks)]


def test_run_out_of_live_nodes_matches_golden_digests(tmp_path):
    # 30 nodes at the default density with 3 mJ each, attacks on: the
    # run stops at communication 135, when fewer than two nodes are live
    base = ScenarioConfig(comm_count=600)
    network = replace(base.network, node_count=30, area_side=2500.0 * math.sqrt(0.3),
                      initial_energy_mj=3.0)
    cfg = replace(base, network=network).reseeded(1).with_attacks(True)
    csv_path, trace_path = tmp_path / "run.csv", tmp_path / "trace.jsonl"
    report = run_scenario(cfg, trace_path=str(trace_path))
    emit_csv([report], str(csv_path))
    assert report.n_comms == 135
    assert (_sha256(csv_path), _sha256(trace_path)) == (
        "2e2733dc9254fa010d520f9a4dba69651160e1cc595ddbd48b41e3799f382e3c",
        "22095b3a6cdd2315a110ca106f2596be5baa06562ec7df59257f21de3cdaf55e")
