"""Driving the design aid through its surface language.

Run:  python examples/interactive_script.py

The same tool a human reaches over ``fdb-repl`` is scriptable: this
example feeds a whole design-and-update session to the interpreter and
prints the transcript. (For the real interactive dialogue — the system
reporting cycles and a person answering — run ``fdb-repl`` and type the
``add`` statements yourself.)
"""

from __future__ import annotations

from repro.core.design_aid import AutoDesigner
from repro.lang.interp import Interpreter

SCRIPT = """
# -- design phase: the paper's university schema -------------------
add teach: faculty -> course (many-many);
add taught_by: course -> faculty (many-many);      # cycle! -> derived
add class_list: course -> student (many-many);
add grade: [student; course] -> letter_grade (many-one);
add score: [student; course] -> marks (many-one);
add cutoff: marks -> letter_grade (many-one);      # cycle! grade -> derived
design;
commit;

# -- data phase -----------------------------------------------------
insert teach(euclid, geometry);
insert class_list(geometry, john);
insert score((john, geometry), 91);
insert cutoff(91, A);

# derived queries and updates
truth taught_by(geometry, euclid);
query (teach o class_list)(euclid);
truth grade((john, geometry), A);
delete grade((john, geometry), A);
ncs;
truth grade((john, geometry), A);

# a derived insert stores a null score; the real score, stored later,
# is forced onto it (score is many-one), which ends the undo history
insert grade((mary, geometry), B);
insert score((mary, geometry), 78);
resolve;
truth cutoff(78, B);
metrics;
"""


def main() -> None:
    interpreter = Interpreter(AutoDesigner())
    for line in interpreter.execute(SCRIPT):
        print(line)


if __name__ == "__main__":
    main()
