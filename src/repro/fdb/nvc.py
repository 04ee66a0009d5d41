"""Null-valued chains (NVCs).

Section 3.2: inserting a derived fact ``<f3, a3, c3>`` implies, by the
derivation's logical implication (2), that intermediate objects exist —
but their identity is unknown. "To accommodate this partial information
we resort to null values. Thus we will insert <f1, a3, n1> and
<f2, n1, c3>, where n1 is a uniquely indexed null value. We call this
chain of tuples the 'null-valued chain' (NVC) of the derived fact."

This module implements the paper's three NVC procedures
(``create-NVC``, ``clean-up-NVC``, ``exists-NVC``) against a
:class:`repro.fdb.database.FunctionalDatabase`. An NVC for a
single-step derivation (``taught_by = teach^-1``) has no interior nulls
and degenerates to the single reoriented base fact — insertion and
lookup still work uniformly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.core.derivation import Derivation, Op
from repro.fdb.evaluate import Chain, iter_chains
from repro.fdb.facts import Fact
from repro.fdb.logic import Truth
from repro.fdb.values import Value, is_null
from repro.obs.hooks import OBS

if TYPE_CHECKING:
    from repro.fdb.database import FunctionalDatabase

__all__ = ["create_nvc", "exists_nvc", "first_nvc", "clean_up_nvc",
           "interior_values"]


def _stored_pair(step_op: Op, source: Value, target: Value) -> tuple[Value, Value]:
    """The (x, y) actually stored in the step's table: an inverted step
    stores the pair reversed."""
    if step_op is Op.INVERSE:
        return (target, source)
    return (source, target)


def create_nvc(
    db: FunctionalDatabase,
    derivation: Derivation,
    x: Value,
    y: Value,
) -> list[Fact]:
    """Procedure ``create-NVC(f, x, y)``.

    Generates k-1 fresh nulls and stores one true fact per derivation
    step: ``<x, n1, T, nil>``, ``<n1, n2, T, nil>``, ...,
    ``<n_{k-1}, y, T, nil>`` (reoriented for inverted steps). Returns
    the stored facts in step order. A step whose pair an earlier step
    stored (``f o f^-1`` with x = y) reuses that fact: the chain's
    conjunction is a set of facts, and a fresh null collides with no
    other.
    """
    if OBS.enabled:
        OBS.inc("fdb.nvc.created")
    steps = derivation.steps
    nulls = list(db.nulls.fresh_many(len(steps) - 1))
    boundary: list[Value] = [x, *nulls, y]
    stored: dict[tuple, Fact] = {}
    created: list[Fact] = []
    for index, step in enumerate(steps):
        name = step.function.name
        pair = _stored_pair(step.op, boundary[index], boundary[index + 1])
        fact = stored.get((name, pair))
        if fact is None:
            fact = stored[name, pair] = db.table(name).add_pair(
                *pair, Truth.TRUE)
        created.append(fact)
    return created


def interior_values(chain: Chain) -> list[Value]:
    """The k-1 connection values of a chain (effective range of each
    fact but the last)."""
    values: list[Value] = []
    for step, fact in zip(chain.derivation.steps[:-1], chain.facts[:-1]):
        values.append(fact.x if step.op is Op.INVERSE else fact.y)
    return values


def exists_nvc(
    db: FunctionalDatabase,
    derivation: Derivation,
    x: Value,
    y: Value,
) -> Chain | None:
    """Function ``exists-NVC(f, x, y)``.

    Checks whether null values n1..n_{k-1} exist such that the chain
    ``<x, n1> in f1, <n1, n2> in f2, ..., <n_{k-1}, y> in fk`` is
    stored. Returns that chain (the first found) or None.
    """
    return first_nvc(iter_chains(db, derivation, x, y,
                                 allow_ambiguous=False))


def first_nvc(chains: Iterable[Chain]) -> Chain | None:
    """The first of ``chains`` (exact chains for one fact, in walk
    order) whose interior values are all nulls, or None."""
    for chain in chains:
        if all(is_null(value) for value in interior_values(chain)):
            return chain
    return None


def clean_up_nvc(db: FunctionalDatabase, chain: Chain) -> None:
    """Procedure ``clean-up-NVC(f, x, y)``: make an ambiguous NVC true
    by base-inserting each of its elements (which dismantles any NCs
    they belong to and sets their truth flags to T)."""
    for function, fact in chain.conjuncts():
        updates.base_insert(db, function, fact.x, fact.y)


# updates imports this module's procedures, so it binds here, once.
from repro.fdb import updates  # noqa: E402
