"""Seeded synthetic workload generators.

The paper's evaluation artifacts are worked examples and complexity
claims; the scaling and comparison benches (E4, E5, E9, E10) need
families of schemas, instances and update streams parameterized by
size. Everything here is driven by an explicit seed through
``random.Random`` — two runs with the same configuration produce the
same workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.derivation import Derivation, Op, Step
from repro.core.schema import FunctionDef, Schema
from repro.core.types import ObjectType, TypeFunctionality, compose_functionalities
from repro.fdb.database import FunctionalDatabase
from repro.fdb.logic import Truth
from repro.fdb.updates import Update

if TYPE_CHECKING:
    from repro.relational.relation import RelationalDatabase

__all__ = [
    "WorkloadConfig",
    "tree_schema_with_derived",
    "cyclic_design_schema",
    "chain_fdb",
    "random_instance",
    "random_updates",
    "paired_chain_workload",
]

_FUNCTIONALITY_POOL = (
    TypeFunctionality.ONE_ONE,
    TypeFunctionality.ONE_MANY,
    TypeFunctionality.MANY_ONE,
    TypeFunctionality.MANY_MANY,
)


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs for :func:`random_updates`.

    The mix weights need not sum to one; they are normalized. Derived
    weights are ignored when the database has no derived functions.
    """

    seed: int = 0
    base_insert: float = 0.35
    base_delete: float = 0.25
    derived_insert: float = 0.2
    derived_delete: float = 0.2
    value_pool: int = 50
    fresh_value_rate: float = 0.3

    def weights(self, with_derived: bool) -> dict[str, float]:
        mix = {
            "base_insert": self.base_insert,
            "base_delete": self.base_delete,
        }
        if with_derived:
            mix["derived_insert"] = self.derived_insert
            mix["derived_delete"] = self.derived_delete
        total = sum(mix.values())
        if total <= 0:
            raise ValueError("update mix must have positive weight")
        return {kind: weight / total for kind, weight in mix.items()}


# -- schema families ------------------------------------------------------------


def tree_schema_with_derived(
    n_types: int,
    n_derived: int,
    seed: int = 0,
    *,
    max_path: int = 4,
) -> Schema:
    """A UFA-friendly schema: a random tree of base functions over
    ``n_types`` object types, plus ``n_derived`` derived functions whose
    definitions follow tree paths (so each has a genuine derivation and
    a matching type functionality).

    Used by the AMS scaling bench (E4): the function graph is a tree
    plus ``n_derived`` chords, so AMS has real work on every edge.
    """
    if n_types < 2:
        raise ValueError("need at least two object types")
    rng = random.Random(seed)
    types = [ObjectType(f"T{i}") for i in range(n_types)]
    schema = Schema()
    # Random tree: connect type i to a random earlier type.
    parent_edges: dict[int, tuple[int, FunctionDef]] = {}
    for i in range(1, n_types):
        j = rng.randrange(i)
        functionality = rng.choice(_FUNCTIONALITY_POOL)
        function = FunctionDef(f"f{i}", types[j], types[i], functionality)
        schema.add(function)
        parent_edges[i] = (j, function)

    def tree_path(a: int, b: int) -> list[Step]:
        """Steps along the unique tree path from type a to type b."""
        def to_root(node: int) -> list[tuple[int, FunctionDef, bool]]:
            hops = []
            while node != 0:
                parent, function = parent_edges[node]
                hops.append((parent, function, False))  # up = inverse
                node = parent
            return hops

        up_a = to_root(a)
        up_b = to_root(b)
        ancestors_a = [a] + [hop[0] for hop in up_a]
        ancestors_b = {b: 0}
        for depth, hop in enumerate(up_b, start=1):
            ancestors_b[hop[0]] = depth
        meet_index = next(
            i for i, node in enumerate(ancestors_a) if node in ancestors_b
        )
        meet = ancestors_a[meet_index]
        down_length = ancestors_b[meet]
        steps = [
            Step(function, Op.INVERSE) for _, function, _ in up_a[:meet_index]
        ]
        descend = up_b[:down_length]
        for _, function, _ in reversed(descend):
            steps.append(Step(function, Op.IDENTITY))
        return steps

    added = 0
    attempts = 0
    while added < n_derived and attempts < n_derived * 50:
        attempts += 1
        a, b = rng.sample(range(n_types), 2)
        steps = tree_path(a, b)
        if not 2 <= len(steps) <= max_path:
            continue
        derivation = Derivation(steps)
        name = f"d{added}"
        schema.add(FunctionDef(
            name, types[a], types[b], derivation.functionality
        ))
        added += 1
    if added < n_derived:
        raise ValueError(
            f"could not place {n_derived} derived functions on this tree "
            f"(placed {added}); lower n_derived or raise max_path"
        )
    return schema


def cyclic_design_schema(n_paths: int, *, path_length: int = 2) -> Schema:
    """A theta-graph schema for the design-aid worst case (E5):
    ``n_paths`` parallel many-many paths between two hub types, then a
    closing hub-to-hub function whose addition creates ``n_paths``
    simultaneous cycles (and an exponential number once the kept cycles
    interconnect)."""
    if n_paths < 1 or path_length < 1:
        raise ValueError("need n_paths >= 1 and path_length >= 1")
    left = ObjectType("Hub0")
    right = ObjectType("Hub1")
    schema = Schema()
    for p in range(n_paths):
        previous = left
        for h in range(path_length - 1):
            mid = ObjectType(f"M{p}_{h}")
            schema.add(FunctionDef(
                f"p{p}_{h}", previous, mid, TypeFunctionality.MANY_MANY
            ))
            previous = mid
        schema.add(FunctionDef(
            f"p{p}_{path_length - 1}", previous, right,
            TypeFunctionality.MANY_MANY,
        ))
    schema.add(FunctionDef(
        "closer", left, right, TypeFunctionality.MANY_MANY
    ))
    return schema


def chain_fdb(
    k: int,
    *,
    functionality: TypeFunctionality = TypeFunctionality.MANY_MANY,
    derived_name: str = "v",
    insert_mode: str = "all",
) -> FunctionalDatabase:
    """An empty database with base chain ``f1: T0 -> T1``, ...,
    ``fk: T(k-1) -> Tk`` and the derived ``v = f1 o ... o fk``."""
    if k < 1:
        raise ValueError("need k >= 1")
    db = FunctionalDatabase(insert_mode=insert_mode)
    types = [ObjectType(f"T{i}") for i in range(k + 1)]
    functions = []
    for i in range(k):
        function = FunctionDef(
            f"f{i + 1}", types[i], types[i + 1], functionality
        )
        db.declare_base(function)
        functions.append(function)
    composite = compose_functionalities(f.functionality for f in functions)
    db.declare_derived(
        FunctionDef(derived_name, types[0], types[k], composite),
        Derivation.of(*functions),
    )
    return db


# -- instances -------------------------------------------------------------------


def random_instance(
    db: FunctionalDatabase,
    rows_per_function: int,
    *,
    seed: int = 0,
    value_pool: int = 50,
) -> None:
    """Fill every base table with random true facts.

    Values are drawn per object type from pools ``<type>_0 ..
    <type>_{value_pool-1}``, so functions sharing a type join on shared
    values (giving derived functions non-trivial extensions).
    """
    rng = random.Random(seed)

    def pick(object_type: ObjectType) -> str:
        return f"{object_type.name}_{rng.randrange(value_pool)}"

    for name in db.base_names:
        definition = db.schema[name]
        table = db.table(name)
        guard = 0
        while len(table) < rows_per_function and guard < rows_per_function * 20:
            guard += 1
            x, y = pick(definition.domain), pick(definition.range)
            if table.get(x, y) is None:
                table.add_pair(x, y, Truth.TRUE)


def random_updates(
    db: FunctionalDatabase,
    count: int,
    config: WorkloadConfig = WorkloadConfig(),
) -> list[Update]:
    """A random update stream matched to the database's schema.

    Deletes target pairs likely to exist (sampled from current tables or
    by walking chains for derived functions); inserts mix existing and
    fresh values per ``config.fresh_value_rate``. The stream is built
    against the database's *current* state and does not mutate it.
    """
    rng = random.Random(config.seed)
    weights = config.weights(with_derived=bool(db.derived_names))
    kinds = list(weights)
    probabilities = [weights[kind] for kind in kinds]

    def pick_value(object_type: ObjectType) -> str:
        if rng.random() < config.fresh_value_rate:
            return f"{object_type.name}_new{rng.randrange(config.value_pool)}"
        return f"{object_type.name}_{rng.randrange(config.value_pool)}"

    def existing_pair(name: str) -> tuple | None:
        table = db.table(name)
        pairs = tuple(table.pairs())
        if not pairs:
            return None
        return rng.choice(pairs)

    def derivable_pair(name: str) -> tuple | None:
        """Walk one random exact chain of the primary derivation."""
        derivation = db.derived(name).primary
        for _ in range(10):
            pair = _walk_chain(db, derivation, rng)
            if pair is not None:
                return pair
        return None

    updates: list[Update] = []
    guard = 0
    while len(updates) < count and guard < count * 30:
        guard += 1
        kind = rng.choices(kinds, probabilities)[0]
        if kind == "base_insert":
            name = rng.choice(db.base_names)
            definition = db.schema[name]
            updates.append(Update.ins(
                name, pick_value(definition.domain),
                pick_value(definition.range),
            ))
        elif kind == "base_delete":
            name = rng.choice(db.base_names)
            pair = existing_pair(name)
            if pair is not None:
                updates.append(Update.delete(name, *pair))
        elif kind == "derived_insert":
            name = rng.choice(db.derived_names)
            definition = db.schema[name]
            updates.append(Update.ins(
                name, pick_value(definition.domain),
                pick_value(definition.range),
            ))
        else:
            name = rng.choice(db.derived_names)
            pair = derivable_pair(name)
            if pair is not None:
                updates.append(Update.delete(name, *pair))
    return updates


def _walk_chain(db: FunctionalDatabase, derivation: Derivation,
                rng: random.Random) -> tuple | None:
    """One random exactly-matching chain walk; returns its (start, end)
    or None when the walk dead-ends."""
    current = None
    start = None
    for step in derivation:
        table = db.table(step.function.name)
        inverse = step.op is Op.INVERSE
        if current is None:
            facts = tuple(table.facts())
        elif inverse:
            facts = table.facts_with_y(current)
        else:
            facts = table.facts_with_x(current)
        if not facts:
            return None
        fact = rng.choice(facts)
        source = fact.y if inverse else fact.x
        target = fact.x if inverse else fact.y
        if start is None:
            start = source
        current = target
    return (start, current)


# -- paired relational / functional workloads (E9) ---------------------------------


def paired_chain_workload(
    k: int,
    rows: int,
    *,
    seed: int = 0,
    value_pool: int | None = None,
) -> tuple[RelationalDatabase, FunctionalDatabase, list[tuple]]:
    """The same chain instance in both data models.

    Builds ``r1(A0 A1), ..., rk(A(k-1) Ak)`` with ``rows`` random tuples
    each and the chain view ``v``, plus the corresponding functional
    database (base ``f1..fk``, derived ``v``) holding identical pairs.
    Returns (relational db, functional db, current view tuples) — the
    view tuples are the candidate targets for delete workloads.
    """
    from repro.relational.relation import Relation, RelationalDatabase
    from repro.relational.view import ChainView

    if k < 2:
        raise ValueError("a chain workload needs k >= 2")
    pool = value_pool if value_pool is not None else max(4, rows // 2)
    rng = random.Random(seed)
    levels = [
        [f"A{level}_{i}" for i in range(pool)] for level in range(k + 1)
    ]
    pair_sets: list[list[tuple]] = []
    for level in range(k):
        seen: set[tuple] = set()
        guard = 0
        while len(seen) < rows and guard < rows * 20:
            guard += 1
            seen.add((
                rng.choice(levels[level]), rng.choice(levels[level + 1])
            ))
        pair_sets.append(sorted(seen))

    relational = RelationalDatabase([
        Relation(f"r{i + 1}", (f"A{i}", f"A{i + 1}"), pair_sets[i])
        for i in range(k)
    ])
    view = relational.add_view(
        ChainView("v", tuple(f"r{i + 1}" for i in range(k)))
    )

    functional = chain_fdb(k)
    # chain_fdb names the derived function "v" and bases f1..fk.
    for i in range(k):
        functional.load(f"f{i + 1}", pair_sets[i])

    targets = list(view.evaluate(relational).tuples)
    return relational, functional, targets
