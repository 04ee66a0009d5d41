"""E14 — quantifying ambiguity with possible worlds (Section 5).

Paper artifact: the closing open problem — "it is desirable to
quantify the degree of ambiguity. In this light the applicability of
probabilistic and default logics must be investigated."

The bench runs the possible-worlds analysis on the paper's own u1
state (one NC over two facts: three worlds, each member true with
probability 1/3) and then measures how the world count and the mean
uncertainty grow as more derived deletes pile up NCs — the series a
designer would watch to decide when ambiguity needs manual resolution.
Every number is exact: worlds are counted on the NC hypergraph, so the
series run to hundreds of ambiguous facts (2^200 + 1 and 3^200 worlds).
"""

from __future__ import annotations

from repro.fdb.database import FunctionalDatabase
from repro.fdb.worlds import analyze, derived_marginal, marginal
from repro.workloads.generator import chain_fdb
from repro.workloads.university import pupil_database


def u1_state() -> FunctionalDatabase:
    db = pupil_database()
    db.delete("pupil", "euclid", "john")
    return db


def stacked_deletes(n_deletes: int) -> FunctionalDatabase:
    """A fan-out instance where each derived delete adds one NC over a
    shared hub fact plus a private fact."""
    db = chain_fdb(2)
    db.load("f2", [("hub", "c")])
    db.load("f1", [(f"a{i}", "hub") for i in range(n_deletes)])
    for i in range(n_deletes):
        db.delete("v", f"a{i}", "c")
    return db


def independent_deletes(n_deletes: int) -> FunctionalDatabase:
    """``n`` u1-style derived deletes sharing no fact: n independent
    two-fact NCs, three worlds each."""
    db = chain_fdb(2)
    db.load("f1", [(f"a{i}", f"b{i}") for i in range(n_deletes)])
    db.load("f2", [(f"b{i}", f"c{i}") for i in range(n_deletes)])
    for i in range(n_deletes):
        db.delete("v", f"a{i}", f"c{i}")
    return db


def test_u1_worlds_match_hand_computation(report):
    db = u1_state()
    analysis = analyze(db)
    assert analysis.world_count == 3
    assert analysis.atom_count == 2
    assert marginal(db, "teach", "euclid", "math") == 1 / 3
    assert derived_marginal(db, "pupil", "euclid", "john") == 0.0
    assert derived_marginal(db, "pupil", "laplace", "bill") == 1.0
    assert derived_marginal(db, "pupil", "euclid", "bill") == 1 / 3

    report.line("E14 -- possible worlds on the paper's u1 state")
    report.line()
    report.block(str(analysis))
    report.line()
    report.table(
        ("derived fact", "3VL verdict", "P(derivable)"),
        [
            ("pupil(euclid, john)", "false", "0.000"),
            ("pupil(euclid, bill)", "ambiguous", "0.333"),
            ("pupil(laplace, john)", "ambiguous", "0.333"),
            ("pupil(laplace, bill)", "true", "1.000"),
        ],
    )
    report.line()
    report.line("the marginals refine the paper's three truth values: "
                "false = 0, true = 1, ambiguous strictly between.")


def test_world_growth_series(report):
    rows = []
    for n_deletes in (2, 4, 8, 16, 64, 200):
        db = stacked_deletes(n_deletes)
        analysis = analyze(db)
        # Worlds: hub false (2^n private assignments) + hub true (all
        # private facts must be false: 1 world) = 2^n + 1.
        assert analysis.atom_count == n_deletes + 1
        assert analysis.world_count == 2 ** n_deletes + 1
        rows.append((
            n_deletes,
            analysis.atom_count,
            (analysis.world_count if n_deletes <= 16
             else f"2^{n_deletes} + 1"),
            f"{analysis.entropy_like:.3f}",
        ))
    report.line()
    report.line("ambiguity growth under stacked derived deletes "
                "(shared hub fact):")
    report.table(
        ("derived deletes", "ambiguous facts", "possible worlds",
         "mean uncertainty"),
        rows,
    )


def test_independent_nc_series(report):
    rows = []
    for n_deletes in (10, 40, 200):
        db = independent_deletes(n_deletes)
        analysis = analyze(db)
        # Each NC allows 3 of its 4 assignments; a member is true in 1.
        assert analysis.atom_count == 2 * n_deletes
        assert analysis.world_count == 3 ** n_deletes
        assert all(p == 1 / 3 for p in analysis.base_marginals.values())
        assert derived_marginal(db, "v", "a0", "c0") == 0.0
        rows.append((
            n_deletes,
            analysis.atom_count,
            f"3^{n_deletes}",
            f"{analysis.entropy_like:.3f}",
        ))
    report.line()
    report.line("independent derived deletes (no shared fact): every "
                "member marginal is exactly 1/3")
    report.table(
        ("derived deletes", "ambiguous facts", "possible worlds",
         "mean uncertainty"),
        rows,
    )


def test_bench_exact_analysis(benchmark):
    db = stacked_deletes(10)
    analysis = benchmark(analyze, db)
    assert analysis.world_count == 2 ** 10 + 1


def test_bench_marginal_200_deletes(benchmark):
    db = stacked_deletes(200)
    probability = benchmark(marginal, db, "f2", "hub", "c")
    assert probability == 1 / (2 ** 200 + 1)
