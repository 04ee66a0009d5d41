"""The surface language and interactive tool.

The paper's deliverable is "an interactive design aid ... to facilitate
the identification of derived functions" together with consistent
update algorithms. This subpackage is that tool: a small statement
language covering the whole lifecycle —

* design:  ``add teach: faculty -> course (many-many)`` feeds Method
  2.1; cycles are reported to the session's designer (interactively in
  the REPL); ``commit`` freezes the design into a live database;
* update:  ``insert pupil(gauss, bill)``, ``delete teach(euclid,
  math)``, ``replace cutoff(90, A) with (85, A)``;
* query:   ``show pupil``, ``truth pupil(euclid, john)``,
  ``query (teach o class_list)(euclid)``, ``pairs teach^-1``;
* inspect: ``ncs``, ``metrics``, ``design``;
* manage:  ``resolve``, ``save "db.json"``, ``load "db.json"``.

:class:`repro.lang.interp.Interpreter` executes statements against a
design session + database pair; ``fdb-repl`` (see ``pyproject.toml``)
runs it as a console tool.
"""

from __future__ import annotations

from repro.lazy import export_lazily

__all__ = export_lazily(__name__, {
    ".tokenizer": ("Token", "tokenize"),
    ".parser": ("parse_program", "parse_statement"),
    ".interp": ("Interpreter",),
})
