import json
import sys
from dataclasses import replace

import pytest

from iovsim.attacks import DDOS, SYBIL, AttackProfile
from iovsim.config import (
    ConfigError,
    ScenarioConfig,
    config_from_dict,
    load_config,
)
from iovsim.ledger import ChainCostModel
from iovsim.network import EnergyModel, NetworkConfig
from iovsim.seeding import mix64


def test_defaults_are_valid_and_seedable():
    cfg = ScenarioConfig()
    assert cfg.comm_count == 500
    assert cfg.sidechain_enabled
    reseeded = cfg.reseeded(7)
    assert reseeded.network.rng_seed == 7
    assert reseeded.bfo.rng_seed == mix64(7, 0xB0F0)
    assert cfg.network.rng_seed == 1  # original untouched


def test_reseeding_decouples_streams():
    a, b = ScenarioConfig().reseeded(1), ScenarioConfig().reseeded(2)
    assert a.network.rng_seed != b.network.rng_seed
    assert a.bfo.rng_seed != b.bfo.rng_seed
    assert a.network.rng_seed != a.bfo.rng_seed


def test_with_attacks_toggles_fraction_only():
    cfg = ScenarioConfig()
    off = cfg.with_attacks(False)
    assert off.attack.fraction == 0.0
    assert off.attack.mix == cfg.attack.mix
    back_on = off.with_attacks(True)
    assert back_on.attack.fraction == 0.10
    custom = config_from_dict({"attack": {"fraction": 0.25}})
    assert custom.with_attacks(True).attack.fraction == 0.25


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(comm_count=-1)
    with pytest.raises(ValueError):
        ScenarioConfig(miner_fraction=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(resplit_period=0)
    with pytest.raises(ValueError):
        ScenarioConfig(trust_window=0)
    ScenarioConfig(trust_window=25)


def test_config_from_dict_full_round_trip():
    data = {
        "comm_count": 50,
        "miner_fraction": 0.2,
        "sidechain_enabled": False,
        "network": {
            "node_count": 60,
            "radio_range": 400.0,
            "energy_costs": {"tx": 0.5, "rx": 0.2},
        },
        "attack": {"fraction": 0.3, "mix": {SYBIL: 1.0, DDOS: 3.0}},
        "bfo": {"nb": 10, "ni": 5},
        "cost_model": {"dr": 1.0, "dv": 1.0, "dh": 1.0, "dw": 1.0},
    }
    cfg = config_from_dict(data)
    assert cfg.comm_count == 50
    assert not cfg.sidechain_enabled
    assert cfg.network.node_count == 60
    assert cfg.network.energy_costs.tx == 0.5
    assert cfg.network.energy_costs.sleep == 0.004  # unspecified keeps default
    assert cfg.attack.mix == {SYBIL: 1.0, DDOS: 3.0}
    assert cfg.bfo.nb == 10
    assert cfg.cost_model.dr == 1.0


def test_unknown_keys_rejected_at_every_level():
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"comms": 50})
    with pytest.raises(ConfigError, match="network.*unknown keys"):
        config_from_dict({"network": {"radio": 100}})
    with pytest.raises(ConfigError, match="energy_costs.*unknown keys"):
        config_from_dict({"network": {"energy_costs": {"txx": 1.0}}})


def test_invalid_values_surface_as_config_errors():
    with pytest.raises(ConfigError):
        config_from_dict({"network": {"node_count": 1}})
    with pytest.raises(ConfigError):
        config_from_dict({"attack": {"fraction": 2.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"network": "not-an-object"})
    with pytest.raises(ConfigError):
        config_from_dict({"bfo": {"n_eval": 7}})


@pytest.mark.parametrize("data,where", [
    ({"network": {"radio_range": float("nan")}}, "network.radio_range"),
    ({"cost_model": {"dr": float("inf")}}, "cost_model.dr"),
    ({"network": {"energy_costs": {"idle": float("-inf")}}}, "network.energy_costs.idle"),
    ({"network": {"area_side": 10 ** 400}}, "network.area_side"),
    ({"comm_count": True}, "comm_count"),
    ({"comm_count": 3.0}, "comm_count"),
    ({"bfo": {"nb": False}}, "bfo.nb"),
    ({"network": {"rng_seed": "x"}}, "network.rng_seed"),
    ({"sidechain_enabled": 0}, "sidechain_enabled"),
    ({"network": {"sector_count": "8"}}, "network.sector_count"),
    ({"attack": {"mix": {"sybil": "1"}}}, "attack.mix"),
    ({"attack": {"mix": ["sybil"]}}, "attack.mix"),
    ({"trust_window": 2.5}, "trust_window"),
])
def test_mistyped_and_non_finite_values_rejected(data, where):
    with pytest.raises(ConfigError, match=where):
        config_from_dict(data)


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: EnergyModel(tx=NAN),
    lambda: EnergyModel(idle=NAN),
    lambda: NetworkConfig(area_side=NAN),
    lambda: NetworkConfig(radio_range=NAN),
    lambda: NetworkConfig(link_rate_bps=NAN),
    lambda: NetworkConfig(processing_delay_ms=NAN),
    lambda: NetworkConfig(initial_energy_mj=NAN),
    lambda: ChainCostModel(dr=NAN),
    lambda: AttackProfile(mix={DDOS: NAN}),
], ids=["energy-tx", "energy-idle", "area_side", "radio_range", "link_rate_bps",
        "processing_delay_ms", "initial_energy_mj", "cost-dr", "mix-weight"])
def test_nan_fails_the_sign_checks_through_the_api(build):
    # the JSON path rejects NaN by type; built in Python it must still fail
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build", [
    lambda: ScenarioConfig(network=NetworkConfig(link_rate_bps=1e-306)),
    lambda: ScenarioConfig(network=NetworkConfig(processing_delay_ms=1e308)),
    lambda: ScenarioConfig(cost_model=ChainCostModel(dr=1e308, dv=1e308)),
    lambda: ScenarioConfig(network=NetworkConfig(node_count=3, initial_energy_mj=1e308)),
    lambda: ScenarioConfig(network=NetworkConfig(packets_per_comm=10 ** 300,
                                                 packet_size=10 ** 10)),
], ids=["per-hop", "clock-processing", "clock-append", "energy", "bits"])
def test_overflowing_totals_rejected_through_the_api(build):
    with pytest.raises(ValueError, match="overflow"):
        build()


def test_overflow_bound_covers_sweep_cells_and_sybil_identities():
    cfg = ScenarioConfig(cost_model=ChainCostModel(dr=1e300), comm_count=5)
    with pytest.raises(ConfigError, match="overflow"):
        replace(cfg, comm_count=10 ** 9)  # as sweep builds its cells
    # one comm of 100 nodes plus the phantoms, each hop max / 106 ms
    edge = NetworkConfig(processing_delay_ms=sys.float_info.max / 106)
    ScenarioConfig(network=edge, comm_count=1, attack=AttackProfile(sybil_identity_count=5))
    with pytest.raises(ConfigError, match="overflow"):
        ScenarioConfig(network=edge, comm_count=1, attack=AttackProfile(sybil_identity_count=7))


def test_typed_values_accepted():
    cfg = config_from_dict({
        "network": {"radio_range": 600, "energy_costs": {"tx": 1}},
        "attack": {"mix": {"sybil": 2}},
        "trust_window": None,
        "sidechain_enabled": False,
    })
    assert cfg.network.radio_range == 600
    assert cfg.network.energy_costs.tx == 1
    assert cfg.attack.mix == {"sybil": 2}
    assert cfg.trust_window is None
    assert config_from_dict({"trust_window": 4}).trust_window == 4


def test_load_config_reads_json(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps({"comm_count": 12, "network": {"rng_seed": 9}}))
    cfg = load_config(str(p))
    assert cfg.comm_count == 12
    assert cfg.network.rng_seed == 9


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)
