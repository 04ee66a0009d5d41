"""Living with ambiguity: journaling, possible worlds, and audits.

Run:  python examples/ambiguity_analysis.py

The paper's updates deliberately *create* partial information instead
of guessing. This example shows the tooling a registrar would use to
manage that ambiguity over time:

1. updates run through a :class:`repro.fdb.journal.Journal`, so any
   surprising consequence can be undone (and a derived fact deleted
   and inserted again gets its null-valued chain back, not new nulls);
2. :mod:`repro.fdb.worlds` quantifies the ambiguity — how many ways
   could the real world be, and how likely is each suspect fact?
   (Section 5's "probabilistic logics" question);
3. :mod:`repro.fdb.audit` cross-checks multiple derivations of the
   same function against the instance.
"""

from __future__ import annotations

from repro.core.derivation import Derivation
from repro.core.schema import FunctionDef
from repro.core.types import ObjectType, TypeFunctionality
from repro.fdb.audit import audit_derivations
from repro.fdb.database import FunctionalDatabase
from repro.fdb.journal import Journal
from repro.fdb.updates import Update
from repro.fdb.worlds import analyze, derived_marginal
from repro.workloads.university import pupil_database


def heading(text: str) -> None:
    print(f"\n=== {text} ===")


def journaled_updates() -> None:
    heading("1. journaled updates")
    journal = Journal(pupil_database())
    journal.execute(Update.delete("pupil", "euclid", "john"))
    journal.execute(Update.ins("pupil", "gauss", "bill"))
    print(journal.describe())

    print("\noops -- the gauss insert was a mistake; undo it:")
    undone = journal.undo()
    print(f"  undone {undone}; teach is back to "
          f"{len(journal.db.table('teach'))} rows and the null counter "
          f"rewound to n{journal.db.nulls.next_index}")

    print("actually it was fine; redo:")
    journal.redo()
    print(f"  teach rows now: "
          f"{[str(f) for f in journal.db.table('teach').facts()]}")

    print("\ndeleting the fact makes its null-valued chain ambiguous; "
          "inserting it again\nre-truthifies that chain "
          "(clean-up-NVC) instead of issuing a new null:")
    for update in (Update.delete("pupil", "gauss", "bill"),
                   Update.ins("pupil", "gauss", "bill")):
        journal.execute(update)
        truth = journal.db.truth_of("pupil", "gauss", "bill")
        print(f"  {update}: pupil(gauss, bill) is {truth.name}, next "
              f"null n{journal.db.nulls.next_index}")


def world_analysis() -> None:
    heading("2. possible-worlds analysis")
    db = pupil_database()
    db.delete("pupil", "euclid", "john")
    print("after DEL(pupil, <euclid, john>):")
    print(analyze(db))
    print()
    for pair in (("euclid", "john"), ("euclid", "bill"),
                 ("laplace", "bill")):
        probability = derived_marginal(db, "pupil", *pair)
        print(f"  P(pupil{pair} derivable) = {probability:.3f}")
    print("\nthe marginals refine true/ambiguous/false into [0, 1] -- "
          "Section 5's probabilistic reading of ambiguity.")


def derivation_audit() -> None:
    heading("3. auditing rival derivations")
    # Suppose the designer had confirmed BOTH derivations of grade.
    SC = ObjectType("[student; course]")
    L, M, P = (ObjectType(n) for n in
               ("letter_grade", "marks", "attn_percentage"))
    MO = TypeFunctionality.MANY_ONE
    db = FunctionalDatabase()
    score = FunctionDef("score", SC, M, MO)
    cutoff = FunctionDef("cutoff", M, L, MO)
    attendance = FunctionDef("attendance", SC, P, MO)
    attendance_eval = FunctionDef("attendance_eval", P, L, MO)
    for f in (score, cutoff, attendance, attendance_eval):
        db.declare_base(f)
    db.declare_derived(
        FunctionDef("grade", SC, L, MO),
        [Derivation.of(score, cutoff),
         Derivation.of(attendance, attendance_eval)],
    )
    db.load("score", [(("john", "math"), 91)])
    db.load("cutoff", [(91, "A")])
    db.load("attendance", [(("john", "math"), 55)])
    db.load("attendance_eval", [(55, "C")])

    print("grade via scores says A; grade via attendance says C:")
    for finding in audit_derivations(db):
        print(f"  {finding}")
    print("\nexactly the inconsistency the paper's Section 2.3 designer "
          "avoided by invalidating grade = attendance o attendance_eval.")


def main() -> None:
    journaled_updates()
    world_analysis()
    derivation_audit()


if __name__ == "__main__":
    main()
