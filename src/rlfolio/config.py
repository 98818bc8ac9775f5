"""Run configuration: one INI file, read into the config dataclasses.

Each section is one dataclass (`_SECTIONS`) whose field names are the
section's keys, so a key's name, type and default live only there; an empty
value keeps the default. An `AgentConfig` field declares the learners that
read it (`setting`'s `kinds`): [agents.ppo] / [agents.a2c] / [agents.ddpg]
take only their learner's keys, and [agents] sets each key for every
learner that reads it, under that learner's own section.
Values are taken literally (no `%` interpolation). Unknown sections and
keys, unparsable values and out-of-range values raise `UserError`.
"""
from __future__ import annotations

import configparser
import datetime as dt
import io
import typing
from dataclasses import dataclass, fields
from pathlib import Path

from .agents import AGENT_KINDS, AgentConfig
from .env import EnvConfig
from .errors import UserError
from .settings import check_settings, setting
from .turbulence import DEFAULT_LOOKBACK


@dataclass(frozen=True)
class DataConfig:
    path: str
    rejection_ceiling: float = setting(0.01, "[0, 1]")
    index_path: str | None = None

    __post_init__ = check_settings


@dataclass(frozen=True)
class WindowsConfig:
    in_sample_end: dt.date = dt.date(2015, 12, 31)
    validation_months: int = setting(3, "[1, inf)")
    trade_months: int = setting(3, "[1, inf)")

    __post_init__ = check_settings


@dataclass(frozen=True)
class TurbulenceConfig:
    # rolling_turbulence also needs lookback >= D + 1, known once data loads
    lookback: int = setting(DEFAULT_LOOKBACK, "[2, inf)")
    quantile: float = setting(0.99, "(0, 1]")

    __post_init__ = check_settings


@dataclass(frozen=True)
class RunOptions:
    seed: int = setting(0, "[0, inf)")
    out_dir: str = "run_output"

    __post_init__ = check_settings


@dataclass(frozen=True)
class BaselinesConfig:
    # np.cov of one return is NaN
    min_variance_lookback: int = setting(252, "[2, inf)")

    __post_init__ = check_settings


@dataclass
class RunConfig:
    """One attribute per INI section; `agents` holds each kind's
    [agents.<kind>]."""
    data: DataConfig
    windows: WindowsConfig
    env: EnvConfig
    turbulence: TurbulenceConfig
    agents: dict[str, AgentConfig]
    run: RunOptions
    baselines: BaselinesConfig


# in snapshot order; [agents] is written back once per kind, as
# [agents.<kind>]
_SECTIONS = {"data": DataConfig, "windows": WindowsConfig, "env": EnvConfig,
             "turbulence": TurbulenceConfig, "agents": AgentConfig,
             "run": RunOptions, "baselines": BaselinesConfig}
_AGENT_SECTIONS = {kind: f"agents.{kind.lower()}" for kind in AGENT_KINDS}
# each INI section's keys, in snapshot order
_KEYS = {**{s: [f.name for f in fields(cls)] for s, cls in _SECTIONS.items()},
         **{s: [f.name for f in fields(AgentConfig)
                if kind in (f.metadata["kinds"] or AGENT_KINDS)]
            for kind, s in _AGENT_SECTIONS.items()}}


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


def _build(cls, values: dict, section: str):
    """`cls` from the key values of INI `section`, each cast to its field's
    type; a value that does not parse or lies out of range is reported under
    `[section]`."""
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, text in values.items():
        try:
            kwargs[key] = _cast(hints[key], text)
        except ValueError as exc:
            raise UserError(f"[{section}] {key}: {exc}") from exc
    try:
        return cls(**kwargs)
    except UserError as exc:
        raise UserError(f"[{section}] {exc}") from exc


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Read and parse the config file at `path`, UTF-8 with any leading
    byte-order mark skipped (see `parse_config`)."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise UserError(f"cannot read config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise UserError(f"config {path} is not UTF-8: {exc.reason}") from exc
    return parse_config(text, overrides)


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse config text. `overrides` (such as CLI flags) are [run] key
    values that replace the file's before validation; a None override
    replaces nothing."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise UserError(f"config: {exc}") from exc
    raw = {section: dict(parser[section]) for section in parser.sections()}
    unknown = [f"[{s}] {key}" for s, values in raw.items() if s in _KEYS
               for key in values if key not in _KEYS[s]]
    unknown += [f"[{s}]" for s in raw if s not in _KEYS]
    if unknown:
        raise UserError(f"unknown section or key: {', '.join(unknown)}")
    raw = {s: {key: v for key, v in values.items() if v}
           for s, values in raw.items()}
    if "path" not in raw.get("data", {}):
        raise UserError("config must set [data] path")
    raw.setdefault("run", {}).update(
        {k: v for k, v in (overrides or {}).items() if v is not None})
    cfg = {}
    for section, cls in _SECTIONS.items():
        values = raw.get(section, {})
        cfg[section] = _build(cls, values, section)
        if cls is AgentConfig:  # built alone, so its errors name [agents]
            cfg[section] = {kind: _build(cls, {
                **{k: v for k, v in values.items() if k in _KEYS[s]},
                **raw.get(s, {})}, s) for kind, s in _AGENT_SECTIONS.items()}
    return RunConfig(**cfg)


def snapshot_config(cfg: RunConfig) -> str:
    """Render a configuration from `parse_config` as INI text that it reads
    back to an equal `RunConfig`; a learner's section lists only the keys
    that learner reads."""
    parser = configparser.ConfigParser(interpolation=None)
    for section in _SECTIONS:
        obj = getattr(cfg, section)
        targets = ({s: obj[kind] for kind, s in _AGENT_SECTIONS.items()}
                   if section == "agents" else {section: obj})
        for name, target in targets.items():
            parser.read_dict({name: {key: _format(getattr(target, key))
                                     for key in _KEYS[name]}})
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
