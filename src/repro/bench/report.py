"""Structured bench reports: JSON first, text as a render of it.

Every bench module writes one report per experiment. Historically the
``.txt`` was the primary artifact and the JSON an afterthought bolted
onto one bench; here the relationship is inverted: a :class:`Report`
accumulates *structured blocks* (lines and tables as data), the JSON
payload carries those blocks plus whatever the bench attached (metric
snapshots, series), and the human-readable text is rendered *from*
the payload by :func:`render_payload_text` — so the two can never
disagree.

A :class:`ReportStore` owns the accumulation rules across one session:
several tests of one bench module flush into the same experiment
payload (blocks append, data keys merge, later flushes win on
conflicts), exactly the behaviour the old conftest implemented with
module globals. Both the pytest fixture (``benchmarks/conftest.py``)
and the standalone runner (:mod:`repro.bench.runner`) drive the same
classes, so a bench behaves identically under either harness.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["Report", "ReportStore", "render_payload_text"]


class Report:
    """Collects structured blocks and attached data for one bench."""

    def __init__(self, exp_id: str) -> None:
        self.exp_id = exp_id
        self.blocks: list[dict] = []
        self.data: dict = {}

    # -- authoring (the API the bench modules use) ---------------------------

    def attach(self, mapping: dict) -> None:
        """Merge extra keys into the JSON payload (e.g. an
        observability snapshot)."""
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


def _render_blocks(blocks: list[dict]) -> list[str]:
    lines: list[str] = []
    for block in blocks:
        if block["kind"] == "table":
            lines.extend(_render_table(block["headers"], block["rows"]))
        else:
            lines.append(block["text"])
    return lines


def render_payload_text(payload: dict) -> str:
    """The human-readable report of one experiment payload — a pure
    function of the JSON, which is the whole point."""
    return "\n".join(_render_blocks(payload.get("blocks", []))) + "\n"


class ReportStore:
    """Accumulates flushed reports per experiment and writes the
    ``results/<exp_id>.json`` + ``.txt`` pair (text rendered from the
    JSON payload)."""

    def __init__(self, results_dir: str | Path) -> None:
        self.results_dir = Path(results_dir)
        self._payloads: dict[str, dict] = {}

    def payload(self, exp_id: str) -> dict | None:
        return self._payloads.get(exp_id)

    def flush(self, report: Report) -> Path:
        """Fold one report into its experiment's payload and rewrite
        both artifacts. Returns the text path (what the old fixture
        echoed)."""
        self.results_dir.mkdir(exist_ok=True)
        payload = self._payloads.setdefault(
            report.exp_id, {"exp_id": report.exp_id, "blocks": []}
        )
        payload["blocks"] = payload["blocks"] + report.blocks
        payload.update(report.data)
        # `report` mirrors the rendered lines into the JSON so casual
        # consumers (and the old CI assertions) need no renderer.
        payload["report"] = _render_blocks(payload["blocks"])
        json_path = self.results_dir / f"{report.exp_id}.json"
        json_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=str)
            + "\n",
            encoding="utf-8",
        )
        text_path = self.results_dir / f"{report.exp_id}.txt"
        text_path.write_text(render_payload_text(payload),
                             encoding="utf-8")
        return text_path
