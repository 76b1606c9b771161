"""Scenario configuration and strict JSON ingestion.

JSON keys mirror the dataclass field names in lower_snake_case, one
nested object per sub-config. Unknown keys are rejected rather than
ignored so a typo cannot silently run the default, and every value must
match its field's annotation: an int is not a bool or a float, a float
is a finite number (ints allowed), and Optional fields also take null.
"""

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Type

from .attacks import AttackProfile
from .bfo import BfoConfig
from .ledger import ChainCostModel, append_delay
from .network import EnergyModel, NetworkConfig
from .seeding import mix64

_BFO_SEED_TAG = 0xB0F0


class ConfigError(ValueError):
    """Raised for malformed or out-of-range configuration input."""


@dataclass
class ScenarioConfig:
    network: NetworkConfig = field(default_factory=NetworkConfig)
    attack: AttackProfile = field(default_factory=AttackProfile)
    bfo: BfoConfig = field(default_factory=BfoConfig)
    cost_model: ChainCostModel = field(default_factory=ChainCostModel)
    comm_count: int = 500
    miner_fraction: float = 0.10
    sidechain_enabled: bool = True
    resplit_period: int = 50
    miner_refresh_period: int = 10
    trust_window: Optional[int] = None

    def __post_init__(self):
        if self.comm_count < 0:
            raise ValueError("comm_count must be >= 0")
        if not 0.0 < self.miner_fraction <= 1.0:
            raise ValueError("miner_fraction must be in (0, 1]")
        if self.resplit_period < 1:
            raise ValueError("resplit_period must be >= 1")
        if self.miner_refresh_period < 1:
            raise ValueError("miner_refresh_period must be >= 1")
        if self.trust_window is not None and self.trust_window < 1:
            raise ValueError("trust_window must be >= 1 when set")
        # Worst-case run totals must fit a float; a ConfigError, as sweep builds cells here.
        net = self.network
        try:  # an int too large for a float raises; float arithmetic goes to inf
            hop = net.per_hop_delay_ms()
            clock = self.comm_count * ((net.node_count + self.attack.sybil_identity_count) * hop
                                       + append_delay(max(self.comm_count, 1), self.cost_model))
            bits = self.comm_count * net.packets_per_comm * net.packet_size
            finite = all(map(math.isfinite, (hop, clock, net.node_count * net.initial_energy_mj,
                                             bits)))
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError("per-hop delay, clock, total energy or bits sent can overflow")

    def reseeded(self, seed: int) -> "ScenarioConfig":
        """Copy with all RNG streams re-derived from one master seed."""
        return replace(
            self,
            network=replace(self.network, rng_seed=seed),
            bfo=replace(self.bfo, rng_seed=mix64(seed, _BFO_SEED_TAG)),
        )

    def with_attacks(self, enabled: bool) -> "ScenarioConfig":
        if enabled:
            fraction = self.attack.fraction if self.attack.fraction > 0 else 0.10
            return replace(self, attack=replace(self.attack, fraction=fraction))
        return replace(self, attack=self.attack.disabled())


_NESTED: Dict[Type, Dict[str, Type]] = {
    ScenarioConfig: {
        "network": NetworkConfig,
        "attack": AttackProfile,
        "bfo": BfoConfig,
        "cost_model": ChainCostModel,
    },
    NetworkConfig: {"energy_costs": EnergyModel},
}


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _matches(tp, value) -> bool:
    """Whether a JSON value fits a field annotation."""
    if typing.get_origin(tp) is typing.Union:
        return any(_matches(arg, value) for arg in typing.get_args(tp))
    if typing.get_origin(tp) is dict:
        key_tp, value_tp = typing.get_args(tp)
        return isinstance(value, dict) and all(
            _matches(key_tp, k) and _matches(value_tp, v) for k, v in value.items())
    if tp is type(None):
        return value is None
    if tp is bool or tp is str:
        return isinstance(value, tp)
    if tp is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if tp is float:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and _finite(value))
    return True


def _type_name(tp) -> str:
    return tp.__name__ if isinstance(tp, type) else str(tp).replace("typing.", "")


def _build(cls: Type, data: Any, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or cls.__name__}: expected an object")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ConfigError(f"{path or cls.__name__}: unknown keys {unknown}")
    nested = _NESTED.get(cls, {})
    kwargs = {}
    for key, value in data.items():
        if key in nested:
            kwargs[key] = _build(nested[key], value, f"{path}{key}.")
        elif _matches(types[key], value):
            kwargs[key] = value
        else:
            raise ConfigError(f"{path}{key}: {value!r} is not a valid {_type_name(types[key])}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path or cls.__name__}: {exc}") from exc


def config_from_dict(data: Dict[str, Any]) -> ScenarioConfig:
    return _build(ScenarioConfig, data, "")


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
