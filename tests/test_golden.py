"""Golden digests: the CSV row and the JSONL trace are the contract.

The case tables and the digests live in golden_cases, which
tests/run_goldens.py also runs without pytest.
"""

import pytest

from golden_cases import (
    GOLDEN,
    GOLDEN_1000,
    GOLDEN_BUFFERS,
    GOLDEN_DEATHS,
    GOLDEN_RUN_OUT,
    RUN_OUT_COMMS,
    buffer_run,
    city_run,
    death_run,
    default_run,
    run_digests,
    run_out_run,
)


@pytest.mark.parametrize("seed,attacks", sorted(GOLDEN))
def test_outputs_match_golden_digests(seed, attacks, tmp_path):
    got, _ = run_digests(default_run(seed, attacks), str(tmp_path))
    assert got == GOLDEN[(seed, attacks)]


@pytest.mark.parametrize("seed,attacks", sorted(GOLDEN_1000))
def test_1000_node_outputs_match_golden_digests(seed, attacks, tmp_path):
    got, _ = run_digests(city_run(seed, attacks), str(tmp_path))
    assert got == GOLDEN_1000[(seed, attacks)]


@pytest.mark.parametrize("seed,attacks", sorted(GOLDEN_DEATHS))
def test_death_path_outputs_match_golden_digests(seed, attacks, tmp_path):
    got, _ = run_digests(death_run(seed, attacks), str(tmp_path))
    assert got == GOLDEN_DEATHS[(seed, attacks)]


def test_run_out_of_live_nodes_matches_golden_digests(tmp_path):
    got, report = run_digests(run_out_run(1), str(tmp_path))
    assert report.n_comms == RUN_OUT_COMMS
    assert got == GOLDEN_RUN_OUT[(1,)]


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_BUFFERS))
def test_buffer_outputs_match_golden_digests(name, seed, tmp_path):
    got, _ = run_digests(buffer_run(name, seed), str(tmp_path))
    assert got == GOLDEN_BUFFERS[(name, seed)]
