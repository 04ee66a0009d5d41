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

The second half of the module explains *cost* rather than truth:
:func:`cost_breakdown` prices a set of derivations hop by hop (stored
rows, worst-case fan-out, cumulative chain estimate), which is what
the slowlog (:mod:`repro.obs.slowlog`) attaches to over-threshold
queries and updates. The detail is built lazily — only for spans that
actually crossed their threshold — so the fast path never pays for
the diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.derivation import Derivation, Op
from repro.fdb.database import FunctionalDatabase
from repro.fdb.evaluate import Chain, iter_chains, negating_ncs, truth_of
from repro.fdb.logic import Truth
from repro.fdb.values import Value

__all__ = ["ChainEvidence", "Explanation", "explain",
           "hop_costs", "cost_breakdown", "derived_breakdown"]


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


# -- cost breakdowns (slow-path attribution) ----------------------------------


def _branching(db: FunctionalDatabase, step) -> int:
    """Worst-case per-input fan-out of one derivation step.

    Chain enumeration branches at each hop by the size of the stored
    image (identity hops) or preimage (inverse hops); the worst single
    input bounds the branching factor. Bounded below by 1 so the
    cumulative product never collapses to zero on empty tables.
    """
    table = db.table(step.function.name)
    if step.op is Op.INVERSE:
        widths = [len(table.preimage(y))
                  for y in {fact.y for fact in table.facts()}]
    else:
        widths = [len(table.image(x))
                  for x in {fact.x for fact in table.facts()}]
    return max(widths, default=1) or 1


def hop_costs(db: FunctionalDatabase,
              derivation: Derivation) -> list[dict]:
    """One dict per hop of ``derivation``: function, role, stored rows,
    per-hop fan-out and cumulative estimated chain count."""
    hops: list[dict] = []
    cumulative = 1
    for position, step in enumerate(derivation.steps, start=1):
        table = db.table(step.function.name)
        fanout = _branching(db, step)
        cumulative *= fanout
        hops.append({
            "hop": position,
            "function": step.function.name,
            "role": str(step.op),
            "rows": len(table),
            "fanout": fanout,
            "est_cost": cumulative,
        })
    return hops


def cost_breakdown(db: FunctionalDatabase,
                   derivations: Iterable[Derivation]) -> dict:
    """The slowlog ``detail`` payload for a set of derivations.

    ``chains`` lists the derivations as text; ``hops`` flattens every
    hop of every derivation, each tagged with its derivation, so one
    table renders the lot; ``est_chains`` sums the worst-case chain
    count across derivations.
    """
    chains: list[str] = []
    hops: list[dict] = []
    est_chains = 0
    for derivation in derivations:
        rendered = str(derivation)
        chains.append(rendered)
        derivation_hops = hop_costs(db, derivation)
        for hop in derivation_hops:
            hop["derivation"] = rendered
        hops.extend(derivation_hops)
        if derivation_hops:
            est_chains += derivation_hops[-1]["est_cost"]
    return {"chains": chains, "hops": hops, "est_chains": est_chains}


def derived_breakdown(db: FunctionalDatabase, name: str) -> dict:
    """Breakdown over every confirmed derivation of derived function
    ``name``; a base function is a single one-hop chain of itself."""
    if db.is_derived(name):
        return cost_breakdown(db, db.derived(name).derivations)
    table = db.table(name)
    return {
        "chains": [name],
        "hops": [{"hop": 1, "function": name, "role": "base",
                  "rows": len(table), "fanout": 1, "est_cost": 1,
                  "derivation": name}],
        "est_chains": 1,
    }
