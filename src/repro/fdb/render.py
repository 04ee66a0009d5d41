"""Paper-style rendering of database state.

Section 4.2 prints the instance after each update as side-by-side
tables::

    Teach            | Class_list      | Pupil
    -----------------|-----------------|--------------
    gauss   n1 T {}  | math john T {}  | gauss   john *
    laplace math T {}| math bill T {}  | ...

Base tables show the quadruple columns (x, y, flag, NCL); derived
functions show their derivable pairs with "ambiguous implied facts
indicated by a *". :func:`render_state` reproduces that layout so the
E8 bench and the examples can print states directly comparable with the
paper's figures.
"""

from __future__ import annotations

from repro.fdb.database import FunctionalDatabase
from repro.fdb.evaluate import evaluate_derivations
from repro.fdb.logic import Truth

__all__ = ["render_base_table", "render_derived_table", "render_state"]


def _columnize(rows: list[tuple[str, ...]]) -> list[str]:
    """Left-align each column to its widest cell."""
    if not rows:
        return []
    widths = [
        max(len(row[i]) for row in rows) for i in range(len(rows[0]))
    ]
    return [
        " ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]


def render_base_table(db: FunctionalDatabase, name: str,
                      *, title: str | None = None) -> list[str]:
    """Lines of one base table: title, rule, quadruple rows."""
    table = db.table(name)
    body = _columnize([(x, y, flag, ncl) for x, y, flag, ncl in table.rows()])
    return [title or name.capitalize(), *body]


def _extension_rows(
    extension: dict[tuple, Truth]
) -> list[tuple[str, str, str]]:
    """One row per derivable pair, in the extension's key order."""
    return [
        (str(x), str(y), "*" if truth is Truth.AMBIGUOUS else "")
        for (x, y), truth in extension.items()
    ]


def render_derived_table(db: FunctionalDatabase, name: str,
                         *, title: str | None = None) -> list[str]:
    """Lines of one derived function's extension, ambiguous facts
    starred (the paper's Pupil column), in the chain walk's order: the
    join from scratch, not the maintained extension, whose order
    follows the op history (:mod:`repro.fdb.memo`)."""
    extension = evaluate_derivations(db, db.derived(name).derivations)
    body = _columnize(_extension_rows(extension))
    return [title or name.capitalize(), *body]


def render_state(
    db: FunctionalDatabase,
    base: tuple[str, ...] | None = None,
    derived: tuple[str, ...] | None = None,
    *,
    separator: str = " | ",
) -> str:
    """The full Section 4.2 layout: base tables then derived extensions,
    side by side, with a horizontal rule under the titles."""
    base = base if base is not None else db.base_names
    derived = derived if derived is not None else db.derived_names
    columns = [render_base_table(db, name) for name in base]
    columns += [render_derived_table(db, name) for name in derived]
    if not columns:
        return "(empty database)"
    widths = [max((len(line) for line in column), default=0)
              for column in columns]
    height = max(len(column) for column in columns)
    lines = []
    for row in range(height):
        cells = [
            (column[row] if row < len(column) else "").ljust(width)
            for column, width in zip(columns, widths)
        ]
        lines.append(separator.join(cells).rstrip())
        if row == 0:
            rule_cells = ["-" * width for width in widths]
            lines.append(
                separator.replace(" ", "-").join(rule_cells)
            )
    return "\n".join(lines)
