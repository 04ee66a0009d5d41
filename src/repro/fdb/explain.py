"""Explaining truth verdicts.

Three-valued answers invite "why?": why is ``pupil(euclid, bill)``
suddenly ambiguous, and which update would resolve it? This module
produces the proof-style evidence behind a verdict:

* for a **base** fact: its stored quadruple (or its absence);
* for a **derived** fact: every chain that could derive it, each
  annotated with its match quality, its members' truth flags, and —
  when the chain is disqualified — the negated conjunction it
  contains; plus the verdict each chain individually supports.

The explanation mirrors :mod:`repro.fdb.evaluate` exactly (same chain
enumeration, same disqualification rule), so the printed evidence and
``truth_of`` can never disagree — a property the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fdb.database import FunctionalDatabase
from repro.fdb.evaluate import Chain, iter_chains, negating_ncs, truth_of
from repro.fdb.logic import Truth
from repro.fdb.values import Value

__all__ = ["ChainEvidence", "Explanation", "explain"]


@dataclass(frozen=True)
class ChainEvidence:
    """One chain and what it contributes to the verdict."""

    chain: Chain
    supports: Truth
    negated_by: tuple[int, ...]  # NC indices disqualifying the chain

    def describe(self) -> str:
        facts = []
        for function, fact in self.chain.conjuncts():
            facts.append(f"<{function}, {fact.x}, {fact.y}>[{fact.flag}]")
        text = " . ".join(facts)
        quality = "exact" if self.chain.all_exact else "ambiguous match"
        if self.supports is Truth.FALSE:
            ncs = ", ".join(f"g{d}" for d in self.negated_by)
            return f"{text}  ({quality}; negated by {ncs})"
        return f"{text}  ({quality}; supports {self.supports})"


@dataclass(frozen=True)
class Explanation:
    """Why a fact has its truth value."""

    function: str
    x: Value
    y: Value
    verdict: Truth
    kind: str  # "base" | "derived"
    stored_flag: str | None            # base facts only
    chains: tuple[ChainEvidence, ...]  # derived facts only

    def describe(self) -> str:
        head = f"{self.function}({self.x}) = {self.y}: {self.verdict}"
        lines = [head]
        if self.kind == "base":
            if self.stored_flag is None:
                lines.append("  not stored (absence means false)")
            elif self.stored_flag == "T":
                lines.append("  stored with flag T (asserted true)")
            else:
                lines.append(
                    "  stored with flag A (member of a negated "
                    "conjunction, or left ambiguous by one)"
                )
            return "\n".join(lines)
        if not self.chains:
            lines.append("  no chain derives it")
            return "\n".join(lines)
        for evidence in self.chains:
            lines.append(f"  {evidence.describe()}")
        return "\n".join(lines)


def _chain_evidence(db: FunctionalDatabase, chain: Chain) -> ChainEvidence:
    supports = chain.supports(db)
    negated_by = (tuple(sorted(set(negating_ncs(db.ncs, chain.facts))))
                  if supports is Truth.FALSE else ())
    return ChainEvidence(chain, supports, negated_by)


def explain(db: FunctionalDatabase, function: str, x: Value,
            y: Value) -> Explanation:
    """Build the evidence behind ``truth_of(db, function, x, y)``."""
    verdict = truth_of(db, function, x, y)
    if db.is_base(function):
        fact = db.table(function).get(x, y)
        return Explanation(
            function, x, y, verdict, "base",
            fact.flag if fact is not None else None, (),
        )
    derived = db.derived(function)
    chains = tuple(
        _chain_evidence(db, chain)
        for derivation in derived.derivations
        for chain in iter_chains(db, derivation, x, y)
    )
    return Explanation(function, x, y, verdict, "derived", None, chains)

