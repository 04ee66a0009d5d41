"""JSON round-trip for the report dataclasses.

Recovery, promotion, catch-up and rejoin each hand back a frozen
dataclass that the soak and CI archive next to the JSONL event logs.
:class:`Report` derives ``as_dict`` / ``from_dict`` from the
dataclass's own fields: tuples travel as lists, a nested report as its
own dict, and a live ``db`` handle not at all (a JSON artifact carries
the audit trail, not the instance).
"""

from __future__ import annotations

from dataclasses import MISSING, fields

__all__ = ["Report"]

_BY_TAG: dict[str, type["Report"]] = {}


def _thaw(value):
    if isinstance(value, Report):
        return value.as_dict()
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


def _freeze(value):
    if isinstance(value, dict) and value.get("report") in _BY_TAG:
        return _BY_TAG[value["report"]].from_dict(value)
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


class Report:
    """Base of a frozen report dataclass; ``tag`` is the ``"report"``
    key its JSON form carries."""

    def __init_subclass__(cls, *, tag: str, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._tag = tag
        _BY_TAG[tag] = cls

    def as_dict(self) -> dict:
        out = {"report": self._tag}
        out.update((f.name, _thaw(getattr(self, f.name)))
                   for f in fields(self) if f.name != "db")
        return out

    @classmethod
    def from_dict(cls, data: dict):
        """Rebuild an archived report: unknown keys are ignored, a
        missing key takes the field's default (``db`` comes back
        ``None``)."""
        values = {}
        for f in fields(cls):
            if f.name == "db":
                values[f.name] = None
            elif f.name in data or f.default is MISSING:
                values[f.name] = _freeze(data[f.name])
        return cls(**values)
