"""Diffing database states.

Updates on derived functions have deliberately indirect effects —
flags flip, NCs appear, nulls materialize. A designer inspecting "what
did that update actually do?" wants the delta, not two full table
dumps. A :class:`StateDiff` reports:

* facts added / removed, per function;
* facts whose truth flag changed (T -> A or A -> T);
* negated conjunctions created / dismantled.

:func:`diff_records` folds the undo records an update left behind
(:mod:`repro.fdb.undo`) into that delta in O(changes) — it is what
:meth:`repro.fdb.journal.Journal` exposes as ``change_of(index)`` /
``last_change()``, and the surface language as the ``changes``
statement. :func:`diff_snapshots` compares two full persistence
snapshots, for states with no shared history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.fdb.persistence import _decode_value

__all__ = ["StateDiff", "diff_records", "diff_snapshots"]


@dataclass(frozen=True)
class StateDiff:
    """The delta between two instance states."""

    added: tuple[tuple[str, tuple, str], ...]          # (fn, pair, flag)
    removed: tuple[tuple[str, tuple, str], ...]
    flag_changes: tuple[tuple[str, tuple, str, str], ...]  # old, new
    ncs_created: tuple[str, ...]
    ncs_dismantled: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.flag_changes
                    or self.ncs_created or self.ncs_dismantled)

    def describe(self) -> str:
        if self.is_empty:
            return "(no changes)"
        lines = []
        for function, pair, flag in self.added:
            lines.append(f"+ <{function}, {pair[0]}, {pair[1]}> [{flag}]")
        for function, pair, flag in self.removed:
            lines.append(f"- <{function}, {pair[0]}, {pair[1]}> [{flag}]")
        for function, pair, old, new in self.flag_changes:
            lines.append(
                f"~ <{function}, {pair[0]}, {pair[1]}> {old} -> {new}"
            )
        for nc in self.ncs_created:
            lines.append(f"+ NC {nc}")
        for nc in self.ncs_dismantled:
            lines.append(f"- NC {nc}")
        return "\n".join(lines)


def diff_records(records: Iterable[tuple],
                 functions: Sequence[str]) -> StateDiff:
    """The net effect of one update's undo records, listed the way
    :func:`diff_snapshots` lists it: by ``functions`` (the database's
    base functions in declaration order), then by row order."""
    # (function, pair) -> [flag before, flag after, fact before, fact after]
    # with None for "not stored"; NC index -> [NC before, NC after].
    facts: dict[tuple[str, tuple], list] = {}
    ncs: dict[int, list] = {}
    for owner, op, *change in records:
        if op == "fact":
            fact, old, new = change
            ends = facts.setdefault((owner.name, fact.pair),
                                    [old, None, fact, None])
            ends[1], ends[3] = new, fact
        elif op == "nc":
            index, old, new = change
            ncs.setdefault(index, [old, None])[1] = new
    rank = {name: position for position, name in enumerate(functions)}

    def in_row_order(side: int) -> list:
        """The facts stored before (0) / after (1), as that state's
        tables list them: ``seq`` is a fact's rank in its table."""
        stored = [(key, ends) for key, ends in facts.items()
                  if ends[side] is not None]
        stored.sort(key=lambda item: (rank[item[0][0]],
                                      item[1][2 + side].seq))
        return stored

    before, after = in_row_order(0), in_row_order(1)
    return StateDiff(
        added=tuple((*key, new.flag) for key, (old, new, *_) in after
                    if old is None),
        removed=tuple((*key, old.flag) for key, (old, new, *_) in before
                      if new is None),
        flag_changes=tuple(
            (*key, old.flag, new.flag) for key, (old, new, *_) in before
            if new is not None and new is not old),
        ncs_created=tuple(str(new) for _, (old, new) in sorted(ncs.items())
                          if old is None and new is not None),
        ncs_dismantled=tuple(
            str(old) for _, (old, new) in sorted(ncs.items())
            if old is not None and new is None),
    )


def _facts_of(snapshot: dict) -> dict[tuple[str, tuple], str]:
    facts: dict[tuple[str, tuple], str] = {}
    for entry in snapshot["base"]:
        function = entry["definition"]["name"]
        for fact in entry["facts"]:
            pair = (
                _decode_value(fact["x"]), _decode_value(fact["y"])
            )
            facts[(function, pair)] = fact["flag"]
    return facts


def _ncs_of(snapshot: dict) -> dict[int, str]:
    result = {}
    for entry in snapshot["ncs"]:
        members = " AND ".join(
            f"<{m['function']}, {_decode_value(m['x'])}, "
            f"{_decode_value(m['y'])}>"
            for m in entry["members"]
        )
        result[entry["index"]] = f"g{entry['index']}: NOT({members})"
    return result


def diff_snapshots(before: dict, after: dict) -> StateDiff:
    """Compare two :func:`repro.fdb.persistence.to_dict` snapshots."""
    old_facts = _facts_of(before)
    new_facts = _facts_of(after)
    added = tuple(
        (function, pair, flag)
        for (function, pair), flag in new_facts.items()
        if (function, pair) not in old_facts
    )
    removed = tuple(
        (function, pair, flag)
        for (function, pair), flag in old_facts.items()
        if (function, pair) not in new_facts
    )
    flag_changes = tuple(
        (function, pair, old_flag, new_facts[(function, pair)])
        for (function, pair), old_flag in old_facts.items()
        if (function, pair) in new_facts
        and new_facts[(function, pair)] != old_flag
    )
    old_ncs = _ncs_of(before)
    new_ncs = _ncs_of(after)
    created = tuple(
        text for index, text in new_ncs.items() if index not in old_ncs
    )
    dismantled = tuple(
        text for index, text in old_ncs.items() if index not in new_ncs
    )
    return StateDiff(added, removed, flag_changes, created, dismantled)
