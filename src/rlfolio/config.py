"""Run configuration: one INI file, read into the config dataclasses.

Each section sets the fields of one dataclass (`_SECTIONS`), so a key's name,
type and default live only there; an empty value keeps the default. [agents]
sets every kind's `AgentConfig`, overridable per kind in [agents.ppo] /
[agents.a2c] / [agents.ddpg]; [data] also takes `col_<name>` keys that rename
input columns. Values are taken literally (no `%` interpolation). Unknown
sections and keys, unparsable values and out-of-range values raise
`InputInvalid`.
"""
from __future__ import annotations

import configparser
import datetime as dt
import io
import math
import typing
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path

from .agents import AGENT_KINDS, AgentConfig
from .env import EnvConfig, ObsScaling
from .errors import InputInvalid
from .indicators import IndicatorConfig
from .market_data import DEFAULT_SCHEMA
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
        if min(self.validation_months, self.trade_months) < 1:
            raise InputInvalid("[windows] validation_months and "
                               "trade_months must be >= 1")
        ridge = self.turbulence_ridge
        if ridge is not None and not (math.isfinite(ridge) and ridge >= 0):
            raise InputInvalid("[turbulence] ridge must be finite and >= 0, "
                               f"got {ridge}")
        if self.seed < 0:
            raise InputInvalid(f"[run] seed must be >= 0, got {self.seed}")
        for kind in AGENT_KINDS:
            self.agent_configs.setdefault(kind, AgentConfig())


def _keys(cls, prefix: str = "") -> dict[str, str]:
    """INI key -> field name for each field of `cls` but nested dataclasses."""
    return {prefix + name: name
            for name, tp in typing.get_type_hints(cls).items()
            if not is_dataclass(tp)}


def _same(*names: str) -> dict[str, str]:
    return {name: name for name in names}


# (section, dataclass, key -> field), in snapshot order. [agents] is written
# back once per kind, as [agents.<kind>].
_SECTIONS = (
    ("data", RunConfig, {"path": "data_path", **_same(
        "delimiter", "rejection_ceiling", "index_path")}),
    ("windows", RunConfig, _same(
        "in_sample_end", "validation_months", "trade_months")),
    ("env", EnvConfig, _keys(EnvConfig)),
    ("env", ObsScaling, _keys(ObsScaling, "obs_scale_")),
    ("indicators", IndicatorConfig, _keys(IndicatorConfig)),
    ("turbulence", RunConfig, {"lookback": "turbulence_lookback",
                               "quantile": "turbulence_quantile",
                               "ridge": "turbulence_ridge"}),
    ("agents", AgentConfig, _keys(AgentConfig)),
    ("run", RunConfig, _same("seed", "out_dir")),
    ("baselines", RunConfig, _same("min_variance_lookback")),
)
_AGENT_SECTIONS = {kind: f"agents.{kind.lower()}" for kind in AGENT_KINDS}
_COLUMN_KEYS = {f"col_{name}": name for name in DEFAULT_SCHEMA}


def _cast(tp, text: str):
    """Parse `text` as a value of type `tp`: float, int, str, date,
    tuple[int, ...] (comma or space separated), or `X | None`."""
    if type(None) in typing.get_args(tp):
        tp = typing.get_args(tp)[0]
    if tp is dt.date:
        return dt.date.fromisoformat(text)
    if typing.get_origin(tp) is tuple:
        return tuple(int(x) for x in text.replace(",", " ").split())
    return tp(text)


def _format(value) -> str:
    """INI text of a field value; `None` is written as an empty value."""
    if isinstance(value, tuple):
        return " ".join(str(x) for x in value)
    return "" if value is None else str(value)


def _read(values: dict[str, str], section: str, cls,
          keys: dict[str, str]) -> dict:
    """Take `keys` out of `values`; return the fields they set non-empty."""
    hints = typing.get_type_hints(cls)
    out = {}
    for key, name in keys.items():
        text = values.pop(key, "")
        if text:
            try:
                out[name] = _cast(hints[name], text)
            except ValueError as exc:
                raise InputInvalid(f"[{section}] {key}: {exc}") from exc
    return out


def _build(cls, section: str, kwargs: dict):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise InputInvalid(f"[{section}] {exc}") from exc


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Read and parse the config file at `path` (see `parse_config`)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputInvalid(f"cannot read config {path}: {exc.strerror}") from exc
    return parse_config(text, overrides)


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse config text. `overrides` (such as CLI flags) are `RunConfig`
    field values that replace the file's before validation."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
        raw = {section: dict(parser[section]) for section in parser.sections()}
    except configparser.Error as exc:
        raise InputInvalid(f"config: {exc}") from exc
    kwargs = {cls: {} for _, cls, _ in _SECTIONS}
    for section, cls, keys in _SECTIONS:
        kwargs[cls].update(_read(raw.get(section, {}), section, cls, keys))
    run = kwargs[RunConfig]
    if "data_path" not in run:
        raise InputInvalid("config must set [data] path")
    data = raw.get("data", {})
    run["schema"] = {name: data.pop(key) for key, name in _COLUMN_KEYS.items()
                     if key in data}
    run["env"] = _build(EnvConfig, "env", {
        **kwargs[EnvConfig],
        "obs_scaling": _build(ObsScaling, "env", kwargs[ObsScaling])})
    run["indicators"] = _build(IndicatorConfig, "indicators",
                               kwargs[IndicatorConfig])
    # shared values are checked alone first, so their errors name [agents]
    _build(AgentConfig, "agents", kwargs[AgentConfig])
    run["agent_configs"] = {
        kind: _build(AgentConfig, section, {
            **kwargs[AgentConfig],
            **_read(raw.get(section, {}), section, AgentConfig,
                    _keys(AgentConfig))})
        for kind, section in _AGENT_SECTIONS.items()}
    known = {s for s, _, _ in _SECTIONS} | set(_AGENT_SECTIONS.values())
    unknown = [f"[{s}] {key}" for s, values in raw.items() if s in known
               for key in values] + [f"[{s}]" for s in raw if s not in known]
    if unknown:
        raise InputInvalid(f"unknown section or key: {', '.join(unknown)}")
    run.update(overrides or {})
    return RunConfig(**run)


def snapshot_config(cfg: RunConfig) -> str:
    """Render a configuration as INI text that `parse_config` reads back to
    an equal `RunConfig`."""
    objects = {RunConfig: cfg, EnvConfig: cfg.env,
               ObsScaling: cfg.env.obs_scaling, IndicatorConfig: cfg.indicators}
    parser = configparser.ConfigParser(interpolation=None)
    for section, cls, keys in _SECTIONS:
        targets = ({_AGENT_SECTIONS[kind]: cfg.agent_configs[kind]
                    for kind in AGENT_KINDS} if cls is AgentConfig
                   else {section: objects[cls]})
        for name, obj in targets.items():
            parser.read_dict({name: {key: _format(getattr(obj, attr))
                                     for key, attr in keys.items()}})
    parser.read_dict({"data": {f"col_{name}": col
                               for name, col in cfg.schema.items()}})
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
