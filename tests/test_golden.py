"""Golden digests: the CSV row and the JSONL trace are the contract.

Each case runs the default network for 100 communications with one
master seed, attacks off or on, and compares the sha256 of both output
files with digests recorded from a known-good build. A refactor or
optimisation that changes any output byte fails here; an intended
change to the outputs must say why and re-record these digests.
"""

import hashlib

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
