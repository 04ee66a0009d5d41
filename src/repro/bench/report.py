"""Structured bench reports: JSON first, text as a render of it.

A :class:`Report` accumulates *structured blocks* (lines and tables as
data) and whatever the bench attached (metric snapshots, series). The
runner folds every test's report of one bench module into that
experiment's one record, ``BENCH_<exp>.json``, and the human-readable
``benchmarks/results/<exp>.txt`` is rendered *from* the record by
:func:`render_payload_text` — so the two can never disagree.
"""

from __future__ import annotations

__all__ = ["Report", "render_payload_text"]


class Report:
    """Collects structured blocks and attached data for one test."""

    def __init__(self) -> None:
        self.blocks: list[dict] = []
        self.data: dict = {}

    # -- authoring (the API the bench modules use) ---------------------------

    def attach(self, mapping: dict) -> None:
        """Merge extra keys into the record (e.g. an observability
        snapshot)."""
        self.data.update(mapping)

    def line(self, text: str = "") -> None:
        self.blocks.append({"kind": "line", "text": text})

    def block(self, text: str) -> None:
        for each in text.splitlines():
            self.line(each)

    def table(self, headers: tuple[str, ...], rows: list[tuple]) -> None:
        self.blocks.append({
            "kind": "table",
            "headers": [str(h) for h in headers],
            "rows": [[str(cell) for cell in row] for row in rows],
        })


def _render_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows))
        if rows else len(headers[i])
        for i in range(len(headers))
    ]

    def fmt(cells) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

    out = [fmt(headers), fmt(["-" * w for w in widths])]
    out.extend(fmt(row) for row in rows)
    return out


def render_payload_text(payload: dict) -> str:
    """The human-readable report of one experiment record — a pure
    function of the JSON, which is the whole point."""
    lines: list[str] = []
    for block in payload.get("blocks", []):
        if block["kind"] == "table":
            lines.extend(_render_table(block["headers"], block["rows"]))
        else:
            lines.append(block["text"])
    return "\n".join(lines) + "\n"
