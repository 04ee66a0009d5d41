"""The JSON form of the report dataclasses.

Recovery, promotion, catch-up and rejoin each hand back a frozen
dataclass; the soak keeps them among its facts and the
``replication.catch_up`` action carries one. :class:`Report` derives
``as_dict`` from the dataclass's own fields: tuples travel as lists,
a nested report as its own dict, and a live ``db`` handle not at all
(a JSON artifact carries the audit trail, not the instance).
"""

from __future__ import annotations

from dataclasses import fields

__all__ = ["Report"]


def _thaw(value):
    if isinstance(value, Report):
        return value.as_dict()
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


class Report:
    """Base of a frozen report dataclass; ``tag`` is the ``"report"``
    key its JSON form carries."""

    def __init_subclass__(cls, *, tag: str, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._tag = tag

    def as_dict(self) -> dict:
        out = {"report": self._tag}
        out.update((f.name, _thaw(getattr(self, f.name)))
                   for f in fields(self) if f.name != "db")
        return out
