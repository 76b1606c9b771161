import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iovsim
from iovsim.cli import _parse_comms, _parse_seeds, main
from iovsim.config import ConfigError


@pytest.fixture
def scenario_file(tmp_path):
    cfg = {
        "comm_count": 30,
        "network": {"node_count": 50, "rng_seed": 3},
        "bfo": {"nb": 6, "ni": 5},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_parse_comms_forms():
    assert _parse_comms("50:500:50") == list(range(50, 501, 50))
    assert _parse_comms("10:30:7") == [10, 17, 24]
    assert _parse_comms("25") == [25]
    assert _parse_comms("5,10,20") == [5, 10, 20]
    with pytest.raises(ConfigError):
        _parse_comms("50:10:5")
    with pytest.raises(ConfigError):
        _parse_comms("1:2:3:4")
    with pytest.raises(ConfigError):
        _parse_comms("-5")
    for bad in ("a:b:c", "1.5", "10:x:5", "", "5,,10"):
        with pytest.raises(ConfigError):
            _parse_comms(bad)


def test_parse_seeds_forms():
    assert _parse_seeds("1..5") == [1, 2, 3, 4, 5]
    assert _parse_seeds("7") == [7]
    assert _parse_seeds("3,1,9") == [3, 1, 9]
    with pytest.raises(ConfigError):
        _parse_seeds("5..1")
    for bad in ("1..x", "a", "1.5", "..3", "1,b"):
        with pytest.raises(ConfigError):
            _parse_seeds(bad)


def test_run_writes_csv_and_summary(scenario_file, tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["run", "--config", scenario_file, "--seed", "4",
                 "--out", str(out), "--attack", "off"])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 1
    assert rows[0]["scenario"] == "comms30"
    assert rows[0]["seed"] == "4"
    assert float(rows[0]["pdr_pct"]) > 0
    assert "wrote" in capsys.readouterr().out


def test_run_attack_flag_changes_label(scenario_file, tmp_path):
    out = tmp_path / "run.csv"
    assert main(["run", "--config", scenario_file, "--out", str(out),
                 "--attack", "on"]) == 0
    assert read_rows(out)[0]["scenario"] == "comms30-attack"


def test_run_trace_option_writes_events(scenario_file, tmp_path):
    out, trace = tmp_path / "run.csv", tmp_path / "trace.jsonl"
    assert main(["run", "--config", scenario_file, "--out", str(out),
                 "--trace", str(trace)]) == 0
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines
    first = json.loads(lines[0])
    assert first["kind"] == "dispatch" and first["seq"] == 0


def test_run_is_byte_deterministic(scenario_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", scenario_file, "--seed", "2", "--out", str(a)]) == 0
    assert main(["run", "--config", scenario_file, "--seed", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_grid_and_jobs_agree(scenario_file, tmp_path):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    args = ["sweep", "--config", scenario_file, "--comms", "10,20",
            "--seeds", "1..2", "--attack", "off"]
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--out", str(parallel), "--jobs", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    rows = read_rows(serial)
    assert [(r["scenario"], r["seed"]) for r in rows] == [
        ("comms10", "1"), ("comms10", "2"), ("comms20", "1"), ("comms20", "2"),
    ]


def test_bfo_trace_csv(scenario_file, tmp_path, capsys):
    out = tmp_path / "bfo.csv"
    assert main(["bfo", "--config", scenario_file, "--chain-len", "120",
                 "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "iteration,best_fitness,split"
    assert len(lines) == 2 + 5  # header + initial spawn + ni iterations
    fits = [float(l.split(",")[1]) for l in lines[1:]]
    assert fits == sorted(fits, reverse=True)
    assert "split=" in capsys.readouterr().out


# sha256 of the bfo CSV as the full-length (ni-round) search wrote it;
# the history is the same for every chain length here because m = 1 wins
BFO_CSV_SHA256 = {
    "default": "ac1d64bcf996261c7e67a910a8c689dc1562d20d334191494ed6579aec07ac2e",
    "scenario": "83db8b7ce1d34b87a4cb525b2ad34398ee1471f1d08525e09b3463f3c0852776",
}


@pytest.mark.parametrize("chain_len", [2, 19, 300])
@pytest.mark.parametrize("which", ["default", "scenario"])
def test_bfo_csv_bytes_are_pinned(which, chain_len, scenario_file, tmp_path, capsys):
    config = scenario_file
    if which == "default":
        config = tmp_path / "default.json"
        config.write_text("{}")
    out = tmp_path / "bfo.csv"
    assert main(["bfo", "--config", str(config), "--chain-len", str(chain_len),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BFO_CSV_SHA256[which]
    assert f" of {chain_len}" in capsys.readouterr().out


def test_bfo_rejects_short_chain(scenario_file, tmp_path, capsys):
    code = main(["bfo", "--config", scenario_file, "--chain-len", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_is_exit_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_bad_config_keys_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"knob": 1}))
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "unknown keys" in capsys.readouterr().err


def test_bad_sweep_range_exit_2(scenario_file, tmp_path, capsys):
    code = main(["sweep", "--config", scenario_file, "--comms", "50:10:5",
                 "--seeds", "1..2", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--comms", "a:b:c"),
    ("--comms", "1.5"),
    ("--seeds", "1..x"),
])
def test_malformed_sweep_range_exit_2(flag, value, scenario_file, tmp_path, capsys):
    args = {"--comms": "10", "--seeds": "1..2", flag: value}
    out = tmp_path / "o.csv"
    code = main(["sweep", "--config", scenario_file, "--comms", args["--comms"],
                 "--seeds", args["--seeds"], "--out", str(out)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


MALFORMED_SCENARIOS = [
    '{"network": {"radio_range": NaN}}',
    '{"network": {"radio_range": -Infinity}}',
    '{"network": {"area_side": 1e400}}',
    '{"network": {"radio_range": 1e-320}, "comm_count": 5}',
    '{"network": {"area_side": 1.5e308}, "comm_count": 5}',
    '{"cost_model": {"dr": Infinity}}',
    '{"network": {"energy_costs": {"tx": NaN}}}',
    '{"attack": {"mix": {"sybil": Infinity}}}',
    '{"comm_count": true}',
    '{"comm_count": 2.5}',
    '{"comm_count": 20.0}',
    '{"comm_count": "20"}',
    '{"network": {"node_count": 10.5}}',
    '{"network": {"rng_seed": "x"}}',
    '{"network": {"rtl_argmax": 1}}',
    '{"network": {"sector_count": null}}',
    '{"network": {"inequality_mode": "inverted"}}',
    # well typed, but a worst-case total overflows: clock, energy, bits sent
    '{"cost_model": {"dr": 1e308, "dv": 1e308}, "comm_count": 5}',
    '{"network": {"processing_delay_ms": 1e308}, "comm_count": 5}',
    '{"network": {"initial_energy_mj": 1e308}, "comm_count": 5}',
    '{"network": {"packet_size": %d}, "comm_count": 5}' % 10 ** 307,
    '{"bfo": {"lb": false}}',
    '{"trust_window": 3.0}',
    '{"miner_fraction": null}',
]


@pytest.mark.parametrize("text", MALFORMED_SCENARIOS)
def test_malformed_scenario_exit_2_without_output(text, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    out, trace = tmp_path / "o.csv", tmp_path / "t.jsonl"
    code = main(["run", "--config", str(cfg), "--out", str(out), "--trace", str(trace)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists() and not trace.exists()


def test_overflowing_sweep_cell_exit_2_without_output(tmp_path, capsys):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"cost_model": {"dr": 1e305}, "comm_count": 5}))
    out = tmp_path / "o.csv"
    code = main(["sweep", "--config", str(cfg), "--comms", "5,200",
                 "--seeds", "1", "--out", str(out)])
    assert code == 2
    assert "overflow" in capsys.readouterr().err
    assert not out.exists()


def test_run_is_byte_identical_across_hash_seeds(tmp_path):
    # Two interpreters with different string-hash seeds, so any set or dict
    # order that leaks into the run would show. The child imports the
    # package under test, as criterion 9's sweep does.
    src_dir = str(Path(iovsim.__file__).resolve().parent.parent)
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"comm_count": 80, "network": {"node_count": 60},
                               "bfo": {"nb": 6, "ni": 5}}))
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(
            filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
        out, trace = tmp_path / f"o{hash_seed}.csv", tmp_path / f"t{hash_seed}.jsonl"
        proc = subprocess.run([sys.executable, "-m", "iovsim", "run", "--config", str(cfg),
                               "--seed", "3", "--attack", "on", "--out", str(out),
                               "--trace", str(trace)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]
    assert b'"attack": "sybil"' in outputs[0][1]


def test_unwritable_output_is_exit_1(scenario_file, tmp_path, capsys):
    code = main(["run", "--config", scenario_file,
                 "--out", str(tmp_path / "no" / "dir" / "o.csv")])
    assert code == 1
    assert "io error" in capsys.readouterr().err
