"""Run configuration: one INI-style file with full defaulting.

Every tunable of the pipeline is reachable here; only the data path has no
default. Section [agents] sets shared agent hyperparameters, overridable
per kind in [agents.ppo] / [agents.a2c] / [agents.ddpg].
"""
from __future__ import annotations

import configparser
import datetime as dt
import io
from dataclasses import dataclass, field

from .agents import AGENT_KINDS, AgentConfig
from .env import EnvConfig, ObsScaling
from .errors import InputInvalid
from .indicators import IndicatorConfig
from .turbulence import DEFAULT_LOOKBACK, DEFAULT_QUANTILE


@dataclass
class RunConfig:
    data_path: str
    schema: dict[str, str] = field(default_factory=dict)
    delimiter: str = ","
    rejection_ceiling: float = 0.01
    index_path: str | None = None

    in_sample_end: dt.date = dt.date(2015, 12, 31)
    validation_months: int = 3
    trade_months: int = 3

    env: EnvConfig = field(default_factory=EnvConfig)
    indicators: IndicatorConfig = field(default_factory=IndicatorConfig)

    turbulence_lookback: int = DEFAULT_LOOKBACK
    turbulence_quantile: float = DEFAULT_QUANTILE
    turbulence_ridge: float | None = None

    agent_configs: dict[str, AgentConfig] = field(default_factory=dict)

    seed: int = 0
    out_dir: str = "run_output"
    min_variance_lookback: int = 252

    def __post_init__(self):
        for kind in AGENT_KINDS:
            self.agent_configs.setdefault(kind, AgentConfig())


_SCHEMA_KEYS = ("date", "ticker", "open", "high", "low", "close",
                "adj_close", "volume")


def _get(parser, section, key, cast, default):
    if parser.has_option(section, key):
        raw = parser.get(section, key).strip()
        if raw == "":
            return default
        try:
            return cast(raw)
        except ValueError as exc:
            raise InputInvalid(f"[{section}] {key}: {exc}") from exc
    return default


def _hidden(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.replace(",", " ").split())


def _agent_config(parser, sections: list[str]) -> AgentConfig:
    """Merge [agents] then the kind-specific section over the defaults."""
    base = AgentConfig()
    kv = {}
    casts = {
        "gamma": float, "hidden": _hidden, "actor_lr": float,
        "critic_lr": float, "total_steps": int, "rollout": int,
        "epochs": int, "minibatch": int, "clip_epsilon": float,
        "buffer_capacity": int, "batch_size": int, "tau": float,
        "noise_scale": float, "warmup_steps": int,
    }
    for section in sections:
        if not parser.has_section(section):
            continue
        for key, cast in casts.items():
            if parser.has_option(section, key):
                kv[key] = _get(parser, section, key, cast, getattr(base, key))
    return AgentConfig(**kv) if kv else base


def load_config(path_or_text, overrides: dict | None = None) -> RunConfig:
    """Parse a config file (path or already-read text)."""
    parser = configparser.ConfigParser()
    if isinstance(path_or_text, io.StringIO) or "\n" in str(path_or_text):
        parser.read_string(path_or_text if isinstance(path_or_text, str)
                           else path_or_text.read())
    else:
        read = parser.read(str(path_or_text))
        if not read:
            raise InputInvalid(f"config file not found: {path_or_text}")

    if not parser.has_option("data", "path"):
        raise InputInvalid("config must set [data] path")

    schema = {}
    for key in _SCHEMA_KEYS:
        if parser.has_option("data", f"col_{key}"):
            schema[key] = parser.get("data", f"col_{key}")

    env = EnvConfig(
        initial_balance=_get(parser, "env", "initial_balance", float, 1_000_000.0),
        h_max=_get(parser, "env", "h_max", int, 100),
        fee_rate=_get(parser, "env", "fee_rate", float, 0.001),
        reward_scale=_get(parser, "env", "reward_scale", float, 1e-4),
        obs_scaling=ObsScaling(
            price=_get(parser, "env", "obs_scale_price", float, 100.0),
            macd=_get(parser, "env", "obs_scale_macd", float, 100.0),
            rsi=_get(parser, "env", "obs_scale_rsi", float, 100.0),
            cci=_get(parser, "env", "obs_scale_cci", float, 250.0),
            adx=_get(parser, "env", "obs_scale_adx", float, 100.0),
        ),
    )
    indicators = IndicatorConfig(
        macd_fast=_get(parser, "indicators", "macd_fast", int, 12),
        macd_slow=_get(parser, "indicators", "macd_slow", int, 26),
        macd_signal=_get(parser, "indicators", "macd_signal", int, 9),
        rsi_period=_get(parser, "indicators", "rsi_period", int, 14),
        cci_period=_get(parser, "indicators", "cci_period", int, 14),
        adx_period=_get(parser, "indicators", "adx_period", int, 14),
    )
    agent_configs = {
        kind: _agent_config(parser, ["agents", f"agents.{kind.lower()}"])
        for kind in AGENT_KINDS
    }

    cfg = RunConfig(
        data_path=parser.get("data", "path"),
        schema=schema,
        delimiter=_get(parser, "data", "delimiter", str, ","),
        rejection_ceiling=_get(parser, "data", "rejection_ceiling", float, 0.01),
        index_path=_get(parser, "data", "index_path", str, None),
        in_sample_end=_get(parser, "windows", "in_sample_end",
                           dt.date.fromisoformat, dt.date(2015, 12, 31)),
        validation_months=_get(parser, "windows", "validation_months", int, 3),
        trade_months=_get(parser, "windows", "trade_months", int, 3),
        env=env,
        indicators=indicators,
        turbulence_lookback=_get(parser, "turbulence", "lookback", int,
                                 DEFAULT_LOOKBACK),
        turbulence_quantile=_get(parser, "turbulence", "quantile", float,
                                 DEFAULT_QUANTILE),
        turbulence_ridge=_get(parser, "turbulence", "ridge", float, None),
        agent_configs=agent_configs,
        seed=_get(parser, "run", "seed", int, 0),
        out_dir=_get(parser, "run", "out_dir", str, "run_output"),
        min_variance_lookback=_get(parser, "baselines", "min_variance_lookback",
                                   int, 252),
    )
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, key, value)
    if cfg.seed < 0:
        raise InputInvalid(f"seed must be non-negative, got {cfg.seed}")
    return cfg


def snapshot_config(cfg: RunConfig) -> str:
    """Render the effective configuration back to INI text."""
    parser = configparser.ConfigParser()
    parser["data"] = {"path": cfg.data_path, "delimiter": cfg.delimiter,
                      "rejection_ceiling": repr(cfg.rejection_ceiling)}
    if cfg.index_path:
        parser["data"]["index_path"] = cfg.index_path
    for key, col in cfg.schema.items():
        parser["data"][f"col_{key}"] = col
    parser["windows"] = {
        "in_sample_end": cfg.in_sample_end.isoformat(),
        "validation_months": str(cfg.validation_months),
        "trade_months": str(cfg.trade_months),
    }
    parser["env"] = {
        "initial_balance": repr(cfg.env.initial_balance),
        "h_max": str(cfg.env.h_max),
        "fee_rate": repr(cfg.env.fee_rate),
        "reward_scale": repr(cfg.env.reward_scale),
        "obs_scale_price": repr(cfg.env.obs_scaling.price),
        "obs_scale_macd": repr(cfg.env.obs_scaling.macd),
        "obs_scale_rsi": repr(cfg.env.obs_scaling.rsi),
        "obs_scale_cci": repr(cfg.env.obs_scaling.cci),
        "obs_scale_adx": repr(cfg.env.obs_scaling.adx),
    }
    parser["indicators"] = {
        "macd_fast": str(cfg.indicators.macd_fast),
        "macd_slow": str(cfg.indicators.macd_slow),
        "macd_signal": str(cfg.indicators.macd_signal),
        "rsi_period": str(cfg.indicators.rsi_period),
        "cci_period": str(cfg.indicators.cci_period),
        "adx_period": str(cfg.indicators.adx_period),
    }
    parser["turbulence"] = {
        "lookback": str(cfg.turbulence_lookback),
        "quantile": repr(cfg.turbulence_quantile),
        "ridge": "" if cfg.turbulence_ridge is None
                 else repr(cfg.turbulence_ridge),
    }
    for kind in AGENT_KINDS:
        ac = cfg.agent_configs[kind]
        parser[f"agents.{kind.lower()}"] = {
            "gamma": repr(ac.gamma),
            "hidden": " ".join(str(h) for h in ac.hidden),
            "actor_lr": repr(ac.actor_lr),
            "critic_lr": repr(ac.critic_lr),
            "total_steps": str(ac.total_steps),
            "rollout": str(ac.rollout),
            "epochs": str(ac.epochs),
            "minibatch": str(ac.minibatch),
            "clip_epsilon": repr(ac.clip_epsilon),
            "buffer_capacity": str(ac.buffer_capacity),
            "batch_size": str(ac.batch_size),
            "tau": repr(ac.tau),
            "noise_scale": repr(ac.noise_scale),
            "warmup_steps": str(ac.warmup_steps),
        }
    parser["run"] = {"seed": str(cfg.seed), "out_dir": cfg.out_dir}
    parser["baselines"] = {
        "min_variance_lookback": str(cfg.min_variance_lookback)}
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
