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
