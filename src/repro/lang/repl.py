"""The interactive console tool (``fdb-repl``).

This is the paper's "interactive design aid" as a runnable program: a
read-eval-print loop over the surface language, with Method 2.1's
designer dialogue carried out on the console — cycles are printed with
their candidate derived functions and the designer answers with the
name of the function to classify as derived (or nothing to keep the
cycle), exactly the interaction Section 2.3 narrates.

Run ``fdb-repl`` (installed by the package) or
``python -m repro.lang.repl``. Pass a script path to execute it before
entering the loop; ``--batch`` exits after the script;
``--deadline SECONDS`` bounds every statement's wall clock (same as
the ``deadline`` command).
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, TextIO

from repro.core.derivation import Derivation
from repro.core.design_aid import CycleReport, Designer
from repro.core.schema import FunctionDef
from repro.lang.interp import Interpreter

__all__ = ["ConsoleDesigner", "Repl", "main"]

_PROMPT = "fdb> "
_BANNER = """\
functional database design aid & update tool
(reproduction of Yerneni & Lanka, ICDE 1989 -- type 'help')"""


class ConsoleDesigner(Designer):
    """Method 2.1's designer dialogue over input()/print()."""

    def __init__(self, input_fn: Callable[[str], str] = input,
                 output: TextIO | None = None) -> None:
        self._input = input_fn
        self._output = output

    def _say(self, text: str) -> None:
        # Resolve sys.stdout lazily so stream redirection (tests,
        # pipes) set up after import still takes effect.
        print(text, file=self._output or sys.stdout)

    def break_cycle(self, report: CycleReport) -> str | None:
        self._say(report.describe())
        if not report.candidates:
            self._say("no candidate derived functions; keeping the cycle")
            return None
        names = [f.name for f in report.candidate_functions]
        while True:
            answer = self._input(
                f"remove which edge as derived? [{'/'.join(names)}/keep] "
            ).strip()
            if answer in ("", "keep", "none"):
                return None
            if answer in names:
                return answer
            self._say(f"please answer one of {names} or 'keep'")

    def confirm_derivation(self, function: FunctionDef,
                           derivation: Derivation) -> bool:
        while True:
            answer = self._input(
                f"confirm derivation {function.name} = {derivation}? [y/n] "
            ).strip().lower()
            if answer in ("y", "yes", ""):
                return True
            if answer in ("n", "no"):
                return False
            self._say("please answer y or n")


class Repl:
    """The loop: read a statement, execute, print."""

    def __init__(self, input_fn: Callable[[str], str] = input,
                 output: TextIO | None = None) -> None:
        self._input = input_fn
        self._output = output
        designer = ConsoleDesigner(input_fn, output)
        self.interpreter = Interpreter(designer)

    def _say(self, text: str) -> None:
        print(text, file=self._output or sys.stdout)

    def run_script(self, text: str) -> None:
        for line in self.interpreter.execute(text):
            self._say(line)

    def loop(self) -> None:
        """Read statements until ``exit`` / ``quit`` / end of input,
        then release the interpreter's write-ahead log."""
        self._say(_BANNER)
        try:
            while True:
                try:
                    line = self._input(_PROMPT)
                except (EOFError, KeyboardInterrupt):
                    self._say("")
                    return
                stripped = line.strip()
                if stripped in ("exit", "quit"):
                    return
                if not stripped:
                    continue
                for out in self.interpreter.execute(line):
                    self._say(out)
        finally:
            self.interpreter.close()


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``fdb-repl`` console script."""
    args = list(sys.argv[1:] if argv is None else argv)
    batch = "--batch" in args
    if batch:
        args.remove("--batch")
    deadline: float | None = None
    if "--deadline" in args:
        at = args.index("--deadline")
        try:
            deadline = float(args[at + 1])
        except (IndexError, ValueError):
            print("--deadline requires a number of seconds",
                  file=sys.stderr)
            return 2
        del args[at:at + 2]
    repl = Repl()
    if deadline is not None:
        repl.interpreter.deadline_seconds = deadline
    try:
        for path in args:
            repl.run_script(Path(path).read_text(encoding="utf-8"))
        if not batch:
            repl.loop()
    finally:
        repl.interpreter.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(main())
