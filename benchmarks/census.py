"""Call census: which function definitions in ``src/repro`` does no entry
point reach?

    python benchmarks/census.py [REPORT]

Runs every entry point of the repo in a subprocess of its own (the
examples, the crash matrix, the three CI chaos soaks, the E1-E19 bench
runner, the E20 smoke and one REPL script per docs/LANGUAGE.md verb)
with a generated ``sitecustomize.py`` on ``PYTHONPATH``. The hook
installs ``sys.settrace`` / ``threading.settrace`` with a global
function that records the code object of every call and returns
``None`` (so no line events fire), and at exit writes one
``co_filename``, ``co_firstlineno``, ``co_name`` row per code object.

Those rows are matched against the ``ast`` function definitions of
``src/repro``: a definition is keyed by its first line (its first
decorator's line when decorated, which is what ``co_firstlineno``
holds) and reported by qualname (``Class.method``,
``outer.<locals>.inner``). A definition no entry point entered must
be named in ``benchmarks/census_allow.txt`` with the surface it
serves, one line each::

    path::qualname  kind  detail

``path`` is relative to ``src/repro``. The kinds, and what ``detail``
must name:

* ``paper`` -- the experiment (``E7``);
* ``verb`` -- the REPL verb (a docs/LANGUAGE.md row);
* ``api`` -- the docs/API.md row, by the names it quotes in
  backquotes (each must occur in that file);
* ``fault-path`` -- an error, retry or recovery branch a clean run
  does not take: the test that drives it (``tests/test_x.py::name``);
* ``test-double`` -- a sink or fake the tests substitute: the test;
* ``oracle`` -- a reference the tests compare against: the test.

``__repr__`` / ``__str__``, abstract methods and the members of a
``typing.Protocol`` class are exempt: nothing is meant to enter them.

Exit status 1 when an entry point exits non-zero (or a REPL script
prints ``error:``), when a definition is unreached and not listed,
when an entry has no known kind or no detail, or when an entry names
a definition that no longer exists. A listed definition that *was*
reached only gets a note: fault paths depend on timing.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
ALLOWLIST = ROOT / "benchmarks" / "census_allow.txt"
LANGUAGE = ROOT / "docs" / "LANGUAGE.md"

KINDS = ("paper", "verb", "api", "fault-path", "test-double", "oracle")
EXEMPT_NAMES = ("__repr__", "__str__")

HOOK = '''\
import atexit, os, sys, tempfile, threading

_codes = set()


def _record(frame, event, arg):
    _codes.add(frame.f_code)
    return None


def _write():
    sys.settrace(None)
    threading.settrace(None)
    fd, path = tempfile.mkstemp(suffix=".calls",
                                dir=os.environ["CENSUS_CALLS"])
    with os.fdopen(fd, "w", encoding="utf-8") as out:
        for code in list(_codes):
            out.write(f"{code.co_filename}\\t{code.co_firstlineno}"
                      f"\\t{code.co_name}\\n")


atexit.register(_write)
threading.settrace(_record)
sys.settrace(_record)
'''


# -- definitions -------------------------------------------------------------


@dataclass(frozen=True)
class Definition:
    path: str      # relative to src/repro, "/"-separated
    qualname: str
    line: int      # first decorator line, else the def line
    name: str
    exempt: bool

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"


def _is_protocol(node: ast.ClassDef) -> bool:
    return any((isinstance(base, ast.Name) and base.id == "Protocol")
               or (isinstance(base, ast.Attribute)
                   and base.attr == "Protocol") for base in node.bases)


def _is_abstract(node: ast.AST) -> bool:
    return any((isinstance(d, ast.Name) and d.id == "abstractmethod")
               or (isinstance(d, ast.Attribute)
                   and d.attr == "abstractmethod")
               for d in node.decorator_list)


def definitions(package: Path) -> list[Definition]:
    """Every function definition under ``package``, in file order."""
    found: list[Definition] = []
    for file in sorted(package.rglob("*.py")):
        rel = file.relative_to(package).as_posix()
        tree = ast.parse(file.read_text(encoding="utf-8"), str(file))

        def visit(node: ast.AST, prefix: str, protocol: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.",
                          _is_protocol(child))
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    line = min([child.lineno] + [d.lineno for d in
                                                 child.decorator_list])
                    found.append(Definition(
                        rel, prefix + child.name, line, child.name,
                        child.name in EXEMPT_NAMES or protocol
                        or _is_abstract(child)))
                    visit(child, f"{prefix}{child.name}.<locals>.", False)
                else:
                    visit(child, prefix, protocol)

        visit(tree, "", False)
    return found


def reached(calls_dir: Path, package: Path,
            defs: list[Definition]) -> set[str]:
    """Keys of the definitions whose code objects the hook recorded."""
    by_site = {(d.path, d.line, d.name): d.key for d in defs}
    root = str(package.resolve()) + os.sep
    hits: set[str] = set()
    for calls in calls_dir.glob("*.calls"):
        for row in calls.read_text(encoding="utf-8").splitlines():
            filename, line, name = row.split("\t")
            filename = os.path.realpath(filename)
            if not filename.startswith(root):
                continue
            rel = Path(filename[len(root):]).as_posix()
            key = by_site.get((rel, int(line), name))
            if key is not None:
                hits.add(key)
    return hits


# -- the allowlist -----------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    key: str
    kind: str
    detail: str
    lineno: int


def read_allowlist(path: Path) -> list[Entry]:
    entries = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8")
                                 .splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, kind, detail = (line.split(None, 2) + ["", ""])[:3]
        entries.append(Entry(key, kind, detail.strip(), lineno))
    return entries


def doc_verbs(language: Path) -> list[str]:
    """The first word of every unindented line of a plain fenced block
    in docs/LANGUAGE.md (as tests/test_lang_catalogue.py reads it)."""
    verbs: list[str] = []
    fence = None  # the open block's info string
    for line in language.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fence = line[3:].strip() if fence is None else None
        elif fence == "" and line and not line[0].isspace():
            verb = line.split()[0]
            if verb not in verbs:
                verbs.append(verb)
    return verbs


def _names_test(detail: str, root: Path) -> str | None:
    """``None`` when ``detail`` is ``tests/<file>.py::<name>...`` and the
    file defines that name; else why not."""
    file, _, names = detail.partition("::")
    path = root / file
    if not file.startswith("tests/") or not names:
        return "detail must name a test as tests/<file>.py::<name>"
    if not path.is_file():
        return f"no test file {file}"
    name = names.split("::")[-1].split("[")[0]
    if not re.search(rf"\b(def|class) {re.escape(name)}\b",
                     path.read_text(encoding="utf-8")):
        return f"{file} defines no {name}"
    return None


def check_detail(entry: Entry, root: Path) -> str | None:
    """Why ``entry``'s detail does not name a surface of its kind, or
    ``None`` when it does."""
    if not entry.detail:
        return "no detail"
    if entry.kind == "paper":
        exp = entry.detail.split()[0].lower()
        if not list((root / "benchmarks").glob(f"bench_{exp}_*.py")):
            return f"no experiment {entry.detail.split()[0]}"
    elif entry.kind == "verb":
        verb = entry.detail.split()[0]
        if verb not in doc_verbs(root / "docs" / "LANGUAGE.md"):
            return f"no docs/LANGUAGE.md row for verb {verb!r}"
    elif entry.kind == "api":
        api = (root / "docs" / "API.md").read_text(encoding="utf-8")
        names = re.findall(r"`([^`]+)`", entry.detail)
        if not names:
            return "detail must quote a docs/API.md name in backquotes"
        for name in names:
            if name not in api:
                return f"docs/API.md has no {name!r}"
    else:
        return _names_test(entry.detail, root)
    return None


def verdict(defs: list[Definition], hits: set[str],
            entries: list[Entry], root: Path) -> tuple[list[str],
                                                       list[str]]:
    """``(failures, notes)`` of one census."""
    failures: list[str] = []
    notes: list[str] = []
    known = {d.key for d in defs}
    listed: dict[str, Entry] = {}
    for entry in entries:
        where = f"census_allow.txt:{entry.lineno}: {entry.key}"
        if entry.kind not in KINDS:
            failures.append(f"{where}: unknown kind {entry.kind!r}")
        elif (problem := check_detail(entry, root)) is not None:
            failures.append(f"{where}: {problem}")
        if entry.key not in known:
            failures.append(f"{where}: no such definition")
        elif entry.key in listed:
            failures.append(f"{where}: listed twice")
        elif entry.key in hits:
            notes.append(f"{where}: listed but reached")
        listed[entry.key] = entry
    for d in defs:
        if d.exempt or d.key in hits or d.key in listed:
            continue
        failures.append(f"{d.key} (line {d.line}): unreached and not "
                        f"listed")
    return failures, notes


# -- the entry points --------------------------------------------------------

PRELUDE = """\
add teach: faculty -> course (many-many)
add class_list: course -> student (many-many)
add pupil: faculty -> student (many-many)
commit
insert teach(euclid, math)
insert class_list(math, john)
insert class_list(math, mary)
"""
# The designer's answers: pupil is PRELUDE's derived edge, and its
# derivation is confirmed (again by a verb that re-designs).
ANSWERS = "pupil\n" + "y\n" * 4

VERB_SCRIPTS = {
    "add": "add grade: [student; course] -> letter_grade (many-one)\n",
    "design": "design\n",
    "retract": "add spare: faculty -> room\nretract spare\n",
    "minimal": "minimal\n",
    "commit": "show all\nadd office: faculty -> room (many-one)\n"
              "commit\nshow all\n",
    "dot": 'dot "design.dot"\n',
    "insert": "insert pupil(gauss, bill)\nshow pupil\n",
    "delete": "delete pupil(euclid, john)\ndelete teach(euclid, math)\n",
    "replace": "replace teach(euclid, math) with (euclid, physics)\n",
    "begin": "begin\ninsert teach(gauss, optics)\n"
             "delete pupil(euclid, john)\nend\n",
    "end": "begin\ninsert teach(gauss, optics)\nend\n",
    "abort": "begin\ninsert teach(gauss, optics)\nabort\n",
    "history": "delete pupil(euclid, john)\nhistory\n",
    "undo": "delete pupil(euclid, john)\nundo\n",
    "redo": "delete pupil(euclid, john)\nundo\nredo\n",
    "changes": "delete pupil(euclid, john)\nchanges\n",
    "show": "delete pupil(euclid, john)\nshow pupil\nshow all\n",
    "truth": "delete pupil(euclid, john)\ntruth pupil(euclid, john)\n"
             "truth pupil(euclid, mary)\ntruth teach(euclid, math)\n",
    "explain": "delete pupil(euclid, john)\nexplain pupil(euclid, john)\n"
               "explain teach(euclid, math)\n",
    "query": "query (teach o class_list)(euclid)\nquery pupil^-1(john)\n",
    "pairs": "pairs teach^-1\npairs (teach o class_list)^-1\n",
    "extent": "extent faculty\nextent student\n",
    "for": "for each f in faculty such that teach(f) = math and "
           "pupil(f) contains john print teach, pupil\n",
    "ncs": "delete pupil(euclid, john)\nncs\n",
    "metrics": "delete pupil(euclid, john)\nmetrics\n",
    "worlds": "delete pupil(euclid, john)\nworlds\n",
    "prob": "delete pupil(euclid, john)\nprob teach(euclid, math)\n",
    "default": "delete pupil(euclid, john)\ndefault teach(euclid, math)\n",
    "resolve": "insert pupil(gauss, bill)\nresolve\n",
    "constraint": "constraint include class_list.domain in teach.range\n"
                  "constraint range teach.range 0 100\n"
                  "constraint card class_list per domain min 1 max 30\n",
    "check": "constraint card class_list per domain min 1 max 1\ncheck\n",
    "guard": "constraint card class_list per domain min 1 max 2\n"
             "guard on\ninsert class_list(math, bill)\nguard off\n",
    "stats": "trace on\ndelete pupil(euclid, john)\ntrace off\nstats\n",
    "trace": "trace on\ndelete pupil(euclid, john)\ntrace off\n"
             'trace show\ntrace show --dot "u1.dot"\n',
    "deadline": "deadline 5\ndeadline\ninsert teach(gauss, optics)\n"
                "deadline off\n",
    "save": 'save "university.json"\ndelete teach(euclid, math)\n'
            'load "university.json"\n',
    "load": 'save "university.json"\nload "university.json"\n',
    "checkpoint": 'checkpoint "ckpt"\ndelete pupil(euclid, john)\n',
    "recover": 'checkpoint "ckpt"\ndelete pupil(euclid, john)\n'
               'recover "ckpt" salvage\nrecover "ckpt"\n',
    "source": 'source "setup.fdb"\ntruth teach(gauss, optics)\n',
    "schema": 'schema "extra.schema"\ndesign\n',
    "help": "help\n",
}

# The one statement error a verb script is there to print.
EXPECTED_ERRORS = {"guard": r"error: update .* undone; it violates"}

SOURCE_SCRIPT = "insert teach(gauss, optics)\n"
SCHEMA_FILE = "room: faculty -> office (many-one)\n"

SOAKS = (
    ["--threads", "8", "--ops", "30", "--seed", "0"],
    ["--replicas", "3", "--threads", "4", "--ops", "24", "--seed", "0",
     "--auto-failover"],
    ["--shards", "2", "--replicas", "2", "--auto-failover", "--threads",
     "6", "--ops", "20", "--seed", "0"],
)
PAPER_BENCHES = ["e1", "e2", "e3", "e5", "e6", "e7", "e8", "e9", "e11",
                 "e12", "e13", "e14", "e17"]


@dataclass
class Run:
    name: str
    argv: list[str]
    stdin: str = ""
    repl: bool = False
    expected_error: str | None = None  # a REPL script's, as a regex
    cwd: Path | None = None


def entry_points(work: Path) -> list[Run]:
    py = sys.executable
    runs = [Run(f"example {path.stem}", [py, str(path)])
            for path in sorted((ROOT / "examples").glob("*.py"))]
    runs.append(Run("crash matrix", [py, "-m", "repro.faults"]))
    for i, args in enumerate(SOAKS):
        runs.append(Run(f"soak {' '.join(args[:2])}",
                        [py, "-m", "repro.faults", "--soak", *args,
                         "--jsonl", f"soak{i}.jsonl",
                         "--scrape-dir", f"scrapes{i}"]))
    # The bench runner writes BENCH_*.json and benchmarks/results/ into
    # the checkout it runs in: give it a copy.
    runs.append(Run("bench --smoke", [py, "-m", "repro.bench", "--smoke"],
                    cwd=work / "bench"))
    runs.append(Run("bench " + " ".join(PAPER_BENCHES),
                    [py, "-m", "repro.bench", *PAPER_BENCHES],
                    cwd=work / "bench"))
    runs.append(Run("e20 --quick --trace",
                    [py, str(ROOT / "benchmarks" / "e20_layer_budget"
                             / "run.py"), "--quick", "--trace",
                     "--out", str(work / "e20-summary.json")]))
    runs.append(Run("repl loop", [py, "-m", "repro"],
                    stdin="help\nshow all\nexit\n"))
    verbs = doc_verbs(LANGUAGE)
    missing = [verb for verb in verbs if verb not in VERB_SCRIPTS]
    if missing:
        raise SystemExit(f"census: no REPL script for documented "
                         f"verb(s) {', '.join(missing)}")
    for verb in verbs:
        script = work / f"verb-{verb}.fdb"
        script.write_text(PRELUDE + VERB_SCRIPTS[verb], encoding="utf-8")
        runs.append(Run(f"repl {verb}",
                        [py, "-m", "repro.lang.repl", "--batch",
                         str(script)], stdin=ANSWERS, repl=True,
                        expected_error=EXPECTED_ERRORS.get(verb)))
    return runs


def prepare(work: Path) -> None:
    (work / "setup.fdb").write_text(SOURCE_SCRIPT, encoding="utf-8")
    (work / "extra.schema").write_text(SCHEMA_FILE, encoding="utf-8")
    bench = work / "bench"
    shutil.copytree(ROOT / "benchmarks", bench / "benchmarks",
                    ignore=shutil.ignore_patterns(
                        "results", "e20_layer_budget", "__pycache__"))
    for path in ROOT.glob("BENCH_*.json"):
        shutil.copy(path, bench / path.name)


def run_all(work: Path, calls: Path) -> list[tuple[Run, int, float, str]]:
    hook_dir = work / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["CENSUS_CALLS"] = str(calls)
    env["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir()
    results = []
    for run in entry_points(work):
        started = time.perf_counter()
        done = subprocess.run(run.argv, cwd=run.cwd or work, env=env,
                              input=run.stdin, text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
        seconds = time.perf_counter() - started
        status = done.returncode
        tail = done.stdout[-2000:]
        errors = [line for line in done.stdout.splitlines()
                  if run.repl and line.startswith("error:")
                  and not (run.expected_error
                           and re.match(run.expected_error, line))]
        if status == 0 and errors:
            status, tail = -1, "\n".join(errors)
        print(f"census: {run.name:<32} exit {status:>3}  {seconds:6.1f} s",
              flush=True)
        results.append((run, status, seconds, tail))
    return results


def main(argv: list[str]) -> int:
    if len(argv) > 1 or (argv and argv[0].startswith("-")):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    report = Path(argv[0] if argv else "census-report.txt")
    defs = definitions(PACKAGE)
    entries = read_allowlist(ALLOWLIST)
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        work = Path(tmp)
        calls = work / "calls"
        calls.mkdir()
        prepare(work)
        results = run_all(work, calls)
        hits = reached(calls, PACKAGE, defs)
    failures, notes = verdict(defs, hits, entries, ROOT)
    for run, status, _, tail in results:
        if status != 0:
            failures.insert(0, f"entry point {run.name!r} failed "
                               f"(exit {status}):\n{tail}")
    counted = [d for d in defs if not d.exempt]
    unreached = [d for d in counted if d.key not in hits]
    lines = [f"definitions: {len(defs)} ({len(defs) - len(counted)} "
             f"exempt); reached: {len(counted) - len(unreached)}; "
             f"unreached: {len(unreached)}; allowlist entries: "
             f"{len(entries)}", ""]
    lines += [f"{'ok' if status == 0 else 'FAIL':<4} {seconds:6.1f} s  "
              f"{run.name}" for run, status, seconds, _ in results]
    lines += ["", "unreached:"]
    listed = {entry.key: entry for entry in entries}
    for d in unreached:
        entry = listed.get(d.key)
        surface = f"{entry.kind}  {entry.detail}" if entry else "UNLISTED"
        lines.append(f"  {d.key}  {surface}")
    lines += ["", "notes:"] + [f"  {n}" for n in notes]
    lines += ["", "failures:"] + [f"  {f}" for f in failures]
    report.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for note in notes:
        print(f"census: note: {note}")
    for failure in failures:
        print(f"census: FAIL {failure}", file=sys.stderr)
    print(f"census: {len(counted) - len(unreached)}/{len(counted)} "
          f"definitions reached, {len(unreached)} unreached; "
          f"{'ok' if not failures else f'{len(failures)} failure(s)'}"
          f" -> {report}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
