"""The hop-at-a-time join against the chain walk it replaced.

``derived_extension`` / ``derived_image`` / ``Query.pairs`` /
``Query.image`` answer through ``evaluate_derivations``, which builds
no :class:`Chain`. The fold they used to run — every chain of
``iter_chains`` classified by ``Chain.supports`` and accumulated into a
pair -> strongest-truth map — lives on here as the *reference*
(:func:`reference_pairs`): the join must give the same dict with its
keys in the same order, on random update streams and on the hand-built
shapes the generators do not reach.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cancel
from repro.core.derivation import Derivation, Op, Step
from repro.core.schema import FunctionDef
from repro.core.types import ObjectType, TypeFunctionality
from repro.errors import DeadlineExceeded
from repro.fdb import evaluate
from repro.fdb import render
from repro.fdb.database import FunctionalDatabase
from repro.fdb.evaluate import (
    derived_extension,
    derived_image,
    evaluate_derivations,
    iter_chains,
)
from repro.fdb.logic import Truth
from repro.fdb.query import fn
from repro.fdb.render import render_state
from repro.fdb.table import FunctionTable
from repro.fdb.updates import Update, apply_update
from repro.obs.hooks import OBS
from repro.workloads.generator import chain_fdb, random_instance
from tests.test_transaction_properties import apply_step, build, make_steps

T, AMB = Truth.TRUE, Truth.AMBIGUOUS
MM = TypeFunctionality.MANY_MANY
A, B, C, D = (ObjectType(n) for n in "ABCD")


# -- the reference: the chain walk, folded ------------------------------------


def reference_pairs(db, derivations, x=None) -> dict:
    """What the parent's ``_accumulate(iter_chains(...))`` loop built."""
    into: dict = {}
    for derivation in derivations:
        for chain in iter_chains(db, derivation, x=x):
            support = chain.supports(db)
            if support is Truth.FALSE:
                continue
            if support > into.get(chain.pair, Truth.FALSE):
                into[chain.pair] = support
    return into


def reference_extension(db, name: str) -> dict:
    return reference_pairs(db, db.derived(name).derivations)


def assert_same(actual: dict, expected: dict) -> None:
    """Equal as dicts and in key (insertion) order."""
    assert list(actual.items()) == list(expected.items())


def assert_join_matches_walk(db, derivations, pairs: dict, image_of,
                            sample: int | None = None) -> None:
    """``pairs`` is the walk's fold, and ``image_of(x)`` the fold with
    the start bound — which is ``pairs`` restricted to ``x`` — for the
    first ``sample`` (default: all) start values."""
    assert_same(pairs, reference_pairs(db, derivations))
    for x in list(dict.fromkeys(x for x, _ in pairs))[:sample]:
        image = image_of(x)
        assert_same(image, {y: truth for (_, y), truth
                            in reference_pairs(db, derivations, x).items()})
        assert image == {y: truth for (start, y), truth
                         in pairs.items() if start == x}


def assert_matches_reference(db, name: str) -> dict:
    """The join from scratch is the walk's fold, key order included;
    the maintained extension, whose order follows the op history, is
    the same mapping."""
    derivations = db.derived(name).derivations
    extension = evaluate_derivations(db, derivations)
    assert_join_matches_walk(db, derivations, extension,
                             lambda x: derived_image(db, name, x))
    assert derived_extension(db, name) == extension
    return extension


def database(*functions: FunctionDef, **derived) -> FunctionalDatabase:
    """Base ``functions`` plus ``name=(FunctionDef, derivations)``."""
    db = FunctionalDatabase()
    for function in functions:
        db.declare_base(function)
    for definition, derivations in derived.values():
        db.declare_derived(definition, derivations)
    return db


def inv(function: FunctionDef) -> Step:
    return Step(function, Op.INVERSE)


# -- (a) random streams -------------------------------------------------------


def queries_over_chain(k: int) -> list:
    """Expressions over ``chain_fdb(k)`` whose normal forms start or
    end on an inverse step, repeat a function, or have one step."""
    v, first, last = fn("v"), fn("f1"), fn(f"f{k}")
    return [v, ~v, ~first, v * ~last, ~first * v, first * ~first]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 3),
       rows=st.integers(0, 10), count=st.integers(1, 24),
       single_valued=st.booleans(), every=st.integers(1, 4))
def test_join_equals_chain_walk_on_random_streams(
        seed, k, rows, count, single_valued, every):
    db = build(seed, k, rows, single_valued)
    steps = make_steps(db, seed, count)
    for done, step in enumerate(steps, start=1):
        apply_step(db, step)
        if done % every and done != len(steps):
            continue
        assert db.structure_fault() is None
        assert_matches_reference(db, "v")
        for query in queries_over_chain(k):
            assert_join_matches_walk(
                db, query.derivations(db), query.pairs(db),
                lambda x: query.image(db, x), sample=3)


def test_section_42_tables_row_for_row(pupil_db, u_sequence, monkeypatch):
    """The five Section 4.2 tables render as they did from the chain
    walk (``tests/test_updates.py`` holds them to the paper's rows)."""
    for update in u_sequence:
        apply_update(pupil_db, update)
        assert_matches_reference(pupil_db, "pupil")
        rendered = render_state(pupil_db)
        with monkeypatch.context() as patch:
            patch.setattr(render, "evaluate_derivations", reference_pairs)
            assert render_state(pupil_db) == rendered


# -- (b) shapes the generators do not reach -----------------------------------


def test_inverse_first_step():
    f = FunctionDef("f", B, A, MM)
    g = FunctionDef("g", B, C, MM)
    db = database(f, g, v=(FunctionDef("v", A, C, MM),
                           Derivation([inv(f), Step(g)])))
    db.load("f", [("b1", "a1"), ("b2", "a1"), ("b2", "a2")])
    db.load("g", [("b1", "c1"), ("b2", "c2")])
    db.table("f").add_pair(db.nulls.fresh(), "a3")
    assert assert_matches_reference(db, "v") == {
        ("a1", "c1"): T, ("a1", "c2"): T, ("a2", "c2"): T,
        ("a3", "c1"): AMB, ("a3", "c2"): AMB,
    }


def test_inverse_last_step():
    f = FunctionDef("f", A, B, MM)
    g = FunctionDef("g", C, B, MM)
    db = database(f, g, v=(FunctionDef("v", A, C, MM),
                           Derivation([Step(f), inv(g)])))
    db.load("f", [("a1", "b1"), ("a2", "b2")])
    db.load("g", [("c1", "b1"), ("c2", "b1")])
    db.table("g").add_pair("c3", db.nulls.fresh())
    assert assert_matches_reference(db, "v") == {
        ("a1", "c1"): T, ("a1", "c2"): T, ("a1", "c3"): AMB,
        ("a2", "c3"): AMB,
    }


def test_one_step_derivation():
    """``taught_by = teach^-1``: the first hop is the last."""
    teach = FunctionDef("teach", A, B, MM)
    db = database(teach, taught_by=(FunctionDef("taught_by", B, A, MM),
                                    Derivation([inv(teach)])))
    db.load("teach", [("euclid", "math"), ("gauss", "math")])
    db.table("teach").get("gauss", "math").truth = AMB
    assert assert_matches_reference(db, "taught_by") == {
        ("math", "euclid"): T, ("math", "gauss"): AMB,
    }
    assert derived_image(db, "taught_by", "math") == {
        "euclid": T, "gauss": AMB}


def test_two_derivations_strongest_verdict_first_position():
    """A pair sits where its first non-false chain put it, with the
    strongest verdict any derivation gives it."""
    f = FunctionDef("f", A, B, MM)
    g = FunctionDef("g", A, B, MM)
    db = database(f, g, v=(FunctionDef("v", A, B, MM),
                           [Derivation.of(f), Derivation.of(g)]))
    db.load("f", [("a1", "b1"), ("a2", "b2")])
    db.load("g", [("a3", "b3"), ("a2", "b2"), ("a1", "b1")])
    db.table("f").get("a2", "b2").truth = AMB   # g makes it true
    db.table("g").get("a1", "b1").truth = AMB   # f already had it true
    extension = assert_matches_reference(db, "v")
    assert list(extension.items()) == [
        (("a1", "b1"), T), (("a2", "b2"), T), (("a3", "b3"), T)]


def test_one_fact_at_two_steps_counts_once():
    """``d = f o f^-1 o g``: the chain <f,a,b> <f,a,b> <g,a,c> holds
    three facts, two of them distinct — both members of the NC a
    delete on ``u = f^-1 o g`` created, so the chain is known false."""
    f = FunctionDef("f", A, B, MM)
    g = FunctionDef("g", A, C, MM)
    db = database(
        f, g,
        d=(FunctionDef("d", A, C, MM),
           Derivation([Step(f), inv(f), Step(g)])),
        u=(FunctionDef("u", B, C, MM), Derivation([inv(f), Step(g)])),
    )
    db.load("f", [("a", "b"), ("a2", "b")])
    db.load("g", [("a", "c"), ("a2", "c2")])
    apply_update(db, Update.delete("u", "b", "c"))
    assert len(db.ncs) == 1
    assert assert_matches_reference(db, "d") == {
        ("a", "c2"): AMB, ("a2", "c2"): T}
    assert assert_matches_reference(db, "u") == {("b", "c2"): T}


def test_nc_that_lists_one_fact_twice():
    """An NC whose two members are one fact, <f,a,b> <f,a,b> (a bare
    ``create`` can store one; ``derived_delete`` dedupes its conjuncts):
    every chain through that fact is a superset of it."""
    f = FunctionDef("f", A, B, MM)
    db = database(f, h=(FunctionDef("h", A, A, MM),
                        Derivation([Step(f), inv(f)])))
    db.load("f", [("a", "b"), ("a2", "b")])
    fact = db.table("f").get("a", "b")
    nc = db.ncs.create([("f", fact), ("f", fact)])
    assert len(nc.members) == 2 and len(set(nc.members)) == 1
    assert assert_matches_reference(db, "h") == {("a2", "a2"): T}


def test_ncl_index_of_no_live_nc_reads_alike(pupil_db, u_sequence):
    """A fact whose NCL names no live NC (written around the table's
    primitives): that index negates nothing, for the walk and the join
    alike, and ``structure_fault`` is what names the damage."""
    for update in u_sequence[:2]:
        apply_update(pupil_db, update)
    fact = pupil_db.table("class_list").get("math", "john")
    fact.ncl = fact.ncl | {99}
    assert "g99" in pupil_db.structure_fault()
    extension = assert_matches_reference(pupil_db, "pupil")
    assert_same(pupil_db.extension("pupil"), extension)
    for (x, y), truth in extension.items():
        assert pupil_db.truth_of("pupil", x, y) is truth
    assert ("euclid", "john") not in extension
    assert pupil_db.truth_of("pupil", "euclid", "john") is Truth.FALSE


def three_hop():
    f1 = FunctionDef("f1", A, B, MM)
    f2 = FunctionDef("f2", B, C, MM)
    f3 = FunctionDef("f3", C, D, MM)
    db = database(
        f1, f2, f3,
        v=(FunctionDef("v", A, D, MM), Derivation.of(f1, f2, f3)),
        u=(FunctionDef("u", B, D, MM), Derivation.of(f2, f3)),
    )
    db.load("f1", [("a", "b"), ("a2", "b")])
    db.load("f2", [("b", "c")])
    db.load("f3", [("c", "d"), ("c", "d2")])
    return db


def test_nc_of_another_function_inside_a_longer_chain():
    """Deleting ``u(b, d)`` negates <f2,b,c> <f3,c,d>; every 3-hop
    chain of ``v`` through both is a superset of that NC."""
    db = three_hop()
    apply_update(db, Update.delete("u", "b", "d"))
    assert assert_matches_reference(db, "v") == {
        ("a", "d2"): AMB, ("a2", "d2"): AMB}
    assert assert_matches_reference(db, "u") == {("b", "d2"): AMB}


def test_nc_with_one_member_outside_the_chain_stays_ambiguous():
    db = three_hop()
    apply_update(db, Update.delete("v", "a", "d"))
    (nc,) = db.ncs
    assert len(nc.members) == 3
    extension = assert_matches_reference(db, "v")
    assert ("a", "d") not in extension
    # <f1,a2,b> is no member: two of the NC's three are in the chain.
    assert extension[("a2", "d")] is AMB
    assert extension[("a", "d2")] is AMB
    assert extension[("a2", "d2")] is AMB   # through ambiguous <f2,b,c>


# -- (e) replaced, not forked -------------------------------------------------


def test_extension_builds_no_chain_and_probes_each_value_once(monkeypatch):
    db = chain_fdb(3)
    random_instance(db, 30, seed=4, value_pool=8)
    db.table("f2").add_pair(db.nulls.fresh(), "T2_1")
    db.table("f1").add_pair("T0_1", db.nulls.fresh())
    walked = sum(1 for _ in iter_chains(db, db.derived("v").primary))
    assert walked > 300
    expected = reference_extension(db, "v")

    def forbidden(*args, **kwargs):
        raise AssertionError("an extension went back to the chain walk")

    probes: list = []
    for name in ("matching_x", "matching_y"):
        original = getattr(FunctionTable, name)

        def spy(table, value, _original=original, _name=name):
            probes.append((table.name, _name, value))
            return _original(table, value)

        monkeypatch.setattr(FunctionTable, name, spy)
    monkeypatch.setattr(evaluate, "Chain", forbidden)
    monkeypatch.setattr(evaluate, "iter_chains", forbidden)

    assert_same(derived_extension(db, "v"), expected)
    # chain_fdb's hops are over three different tables, so a repeated
    # (table, column, value) is a repeated (hop, value).
    assert probes and len(probes) == len(set(probes))
    assert len(probes) < walked
    probes.clear()
    assert_same(fn("v").pairs(db), expected)
    assert len(probes) == len(set(probes))
    assert fn("v").image(db, "T0_1") == derived_image(db, "v", "T0_1")


def test_join_keeps_the_walks_instruments():
    """With ``OBS`` on an extension counts what the walk counted: one
    enumeration and one accumulation per derivation, and every
    complete chain."""
    db = three_hop()
    derivation = db.derived("v").primary
    walked = sum(1 for _ in iter_chains(db, derivation))
    with OBS.collecting():
        derived_extension(db, "v")
        counters = OBS.metrics.snapshot()["counters"]
    OBS.reset()
    OBS.metrics.clear()  # reset() keeps registrations; drop them too
    assert counters["fdb.chains.enumerated"] == walked == 4
    assert counters["fdb.chains.enumerations"] == 1
    assert counters["fdb.evaluate.accumulations"] == 1


# -- (f) cancellation ---------------------------------------------------------


def test_expired_deadline_cancels_the_join():
    db = chain_fdb(3)
    random_instance(db, 40, seed=2, value_pool=6)
    assert sum(1 for _ in iter_chains(db, db.derived("v").primary)) >= 1000
    derivations = db.derived("v").derivations
    with cancel.deadline_scope(cancel.Deadline(expires_at=0.0)):
        with pytest.raises(DeadlineExceeded):
            derived_extension(db, "v")
        with pytest.raises(DeadlineExceeded):
            evaluate_derivations(db, derivations, "T0_1")
    assert derived_extension(db, "v") == reference_extension(db, "v")
