"""A small relational substrate for the Section 3.1 comparison.

The paper contrasts its update semantics with two classical view-update
frameworks over relational databases: the Dayal-Bernstein "correct
translation" criterion [6] and the Fagin-Ullman-Vardi minimal-change
semantics [9]. Reproducing that comparison needs a relational engine —
relations, natural join, projection, chain views — plus the two
translators. This subpackage provides exactly that, from scratch.

The views under study are the paper's *chain views*
``v(A1, Ak+1) = pi(r1 join r2 join ... join rk)`` over relations that
chain on shared attributes — the relational image of a functional
derivation by composition ("the most important operator in our
derivations is composition (analog of join)").
"""

from __future__ import annotations

from repro.lazy import export_lazily

__all__ = export_lazily(__name__, {
    ".relation": ("Relation", "RelationalDatabase"),
    ".algebra": ("natural_join", "project", "select"),
    ".view": ("ChainView", "DerivationChain"),
    ".translate": (
        "Deletion", "Translation", "ViewDeleteTranslator",
        "measure_side_effects",
    ),
    ".dayal_bernstein": ("DayalBernsteinTranslator",),
    ".fuv": ("FUVTranslator",),
    ".keller": (
        "KellerTranslator", "choose_fewest_deletions",
        "choose_least_view_damage",
    ),
})
