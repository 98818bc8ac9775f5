"""The valid range of each numeric config field, declared once next to the
field, and the one check of it that the config dataclasses run."""
from dataclasses import field, fields

from .errors import SettingInvalid


def setting(default, interval: str):
    """A dataclass field whose value must lie in `interval`, written as in
    mathematics: "(0, 1]", "[1, inf)". Each element of a tuple must; None
    passes, and NaN lies in no interval."""
    return field(default=default, metadata={"interval": interval})


def check_settings(obj) -> None:
    """Raise `SettingInvalid` for the first field of dataclass `obj` whose
    value lies outside its declared interval."""
    for f in fields(obj):
        interval, value = f.metadata.get("interval"), getattr(obj, f.name)
        if interval is None or value is None:
            continue
        lo, hi = (float(bound) for bound in interval[1:-1].split(","))
        for v in value if isinstance(value, tuple) else (value,):
            if not ((lo <= v if interval[0] == "[" else lo < v)
                    and (v <= hi if interval[-1] == "]" else v < hi)):
                raise SettingInvalid(f.name,
                                     f"must be in {interval}, got {value}")
