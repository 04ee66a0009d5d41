"""Auditing derivations against the stored instance.

The paper's introduction motivates "a design aid that assists in the
identification and *verification* of derived functions and their
derivations": a wrong derivation silently corrupts every answer the
derived function gives. This module provides the runtime half of that
verification — checking a live instance, not just the schema:

* **Derivation agreement** — a derived function with several confirmed
  derivations (grade via scores *and* via attendance, had the designer
  accepted both) is only consistent if the derivations agree on the
  current instance. :func:`audit_derivations` reports every pair of
  facts on which two derivations disagree (one derives it as true, the
  other cannot derive it at all).

* **Insert coverage** — logical implication (2) of Section 3.2 holds
  per derivation, so a derived fact asserted true should be witnessed
  by *every* derivation (``insert_mode='all'`` guarantees it;
  ``'primary'`` trades that away). :func:`audit_insert_coverage` finds
  true derived facts lacking a witness chain in some derivation.

Both audits are advisory: they return findings, never mutate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fdb.database import FunctionalDatabase
from repro.fdb.evaluate import evaluate_derivations
from repro.fdb.logic import Truth
from repro.fdb.values import Value

__all__ = [
    "DerivationDisagreement",
    "CoverageGap",
    "audit_derivations",
    "audit_insert_coverage",
]


@dataclass(frozen=True)
class DerivationDisagreement:
    """Two derivations of one function disagree on one fact."""

    function: str
    pair: tuple[Value, Value]
    derives_it: str       # the derivation that yields the fact
    misses_it: str        # the derivation that cannot

    def __str__(self) -> str:
        x, y = self.pair
        return (
            f"{self.function}(<{x}, {y}>): derivable via "
            f"[{self.derives_it}] but not via [{self.misses_it}]"
        )


@dataclass(frozen=True)
class CoverageGap:
    """A true derived fact with no witness in some derivation."""

    function: str
    pair: tuple[Value, Value]
    missing_in: str

    def __str__(self) -> str:
        x, y = self.pair
        return (
            f"{self.function}(<{x}, {y}>) is true but has no chain "
            f"via [{self.missing_in}]"
        )


def audit_derivations(
    db: FunctionalDatabase,
    names: tuple[str, ...] | None = None,
) -> list[DerivationDisagreement]:
    """Find instance-level disagreements among a derived function's
    confirmed derivations.

    A disagreement is a pair one derivation derives (true or
    ambiguous) while another derives nothing for it at all. Agreement
    in *strength* is not required — a fact true via one derivation and
    ambiguous via another is consistent partial information.
    """
    findings: list[DerivationDisagreement] = []
    for name in names if names is not None else db.derived_names:
        derived = db.derived(name)
        if len(derived.derivations) < 2:
            continue
        extensions = [
            (str(derivation), evaluate_derivations(db, (derivation,)))
            for derivation in derived.derivations
        ]
        for index, (text, extension) in enumerate(extensions):
            for other_text, other in extensions:
                if other_text == text:
                    continue
                for pair in extension:
                    if pair not in other:
                        findings.append(DerivationDisagreement(
                            name, pair, text, other_text
                        ))
    return findings


def audit_insert_coverage(
    db: FunctionalDatabase,
    names: tuple[str, ...] | None = None,
) -> list[CoverageGap]:
    """Find true derived facts not witnessed by every derivation.

    Under ``insert_mode='all'`` this list stays empty for facts created
    by derived inserts; under ``'primary'`` each such insert leaves a
    gap per non-primary derivation — which is exactly what the E13
    ablation bench measures.
    """
    findings: list[CoverageGap] = []
    for name in names if names is not None else db.derived_names:
        derived = db.derived(name)
        if len(derived.derivations) < 2:
            continue
        trues = [
            {pair for pair, truth in evaluate_derivations(
                db, (derivation,)).items() if truth is Truth.TRUE}
            for derivation in derived.derivations
        ]
        for pair in sorted(set().union(*trues), key=str):
            for derivation, true in zip(derived.derivations, trues):
                if pair not in true:
                    findings.append(CoverageGap(name, pair, str(derivation)))
    return findings
