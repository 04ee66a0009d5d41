"""Guard: one frame codec, one apply step.

The WAL line format is known to ``repro.fdb.wal`` alone — its key
names and the ``json.loads`` that reads a log line live in
``decode_frame`` — and "apply a committed ``Update | UpdateSequence``
atomically" is ``repro.fdb.updates.apply_entry`` alone. A second
parser drifts from the first (a replica that accepts what recovery
refuses); a second apply dispatch drifts from what replay does. This
test walks the AST of every ``repro`` subpackage and fails on either,
in the style of ``test_write_path_guard``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

FORMAT_KEYS = {"crc", "abort_of", "header"}

# Every ``json.loads`` in the guarded packages, by enclosing function.
# Only ``decode_frame`` reads a log line; the others read a snapshot
# file, the soak's scraped ``/health`` body, a soak run directory's
# JSONL records (a WAL line there is a string field ``decode_frame``
# reads), an event JSONL file, and a committed ``BENCH_*.json``
# baseline.
JSON_LOADS = {
    "fdb/wal.py": ["decode_frame"],
    "fdb/persistence.py": ["load_with_meta", "loads"],
    "faults/rundir.py": ["_read_lines"],
    "faults/soak.py": ["scrape"],
    "obs/events.py": ["read_jsonl"],
    "bench/__main__.py": ["main"],
}

# Every place a ``Transaction`` is constructed: the two public ways
# to open one, and the write-ahead scope, which keeps its
# ``structure_fault()`` check inside the transaction the caller's
# apply then joins — ``LoggedDatabase.execute`` and the REPL apply
# inside it. Everything else applies through ``apply_entry``.
TRANSACTIONS = {
    "fdb/transaction.py": ["atomic"],
    "fdb/database.py": ["transaction"],
    "fdb/wal.py": ["committing"],
}


def sources() -> dict[str, ast.Module]:
    """Every module of every ``repro`` subpackage, keyed
    ``package/module.py``."""
    root = Path(repro.__file__).parent
    return {
        f"{path.parent.name}/{path.name}":
            ast.parse(path.read_text(encoding="utf-8"))
        for package in sorted(root.iterdir())
        if (package / "__init__.py").exists()
        for path in sorted(package.glob("*.py"))
    }


def enclosing(tree: ast.AST, wanted) -> list[str]:
    """Names of the innermost functions containing a ``wanted`` node
    (``<module>`` outside any), one per hit, sorted."""
    found: list[str] = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if wanted(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return sorted(found)


def calls(node: ast.AST, *names: str) -> bool:
    """Whether ``node`` is a call of ``name(...)`` or ``x.name(...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    called = func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None
    return called in names


def is_json_loads(node: ast.AST) -> bool:
    return (calls(node, "loads")
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json")


def is_format_key(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value in FORMAT_KEYS


def is_apply_dispatch(node: ast.AST) -> bool:
    """An ``if isinstance(x, UpdateSequence)`` choosing between
    applying one update and applying several."""
    if not (isinstance(node, ast.If) and calls(node.test, "isinstance")
            and len(node.test.args) == 2
            and isinstance(node.test.args[1], ast.Name)
            and node.test.args[1].id == "UpdateSequence"):
        return False
    return any(calls(inner, "apply_update", "apply_sequence")
               for branch in (*node.body, *node.orelse)
               for inner in ast.walk(branch))


def private_wal_imports(tree: ast.AST) -> list[str]:
    return sorted(
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module == "repro.fdb.wal"
        for alias in node.names if alias.name.startswith("_")
    )


def where(predicate) -> dict[str, list[str]]:
    found = {module: enclosing(tree, predicate)
             for module, tree in sources().items()}
    return {module: names for module, names in found.items() if names}


def test_detectors_see_what_they_guard():
    tree = ast.parse(
        "from repro.fdb.wal import UpdateLog, _crc_of\n"
        "def peek(line):\n"
        "    return json.loads(line).get('abort_of')\n"
        "def apply(db, op):\n"
        "    with Transaction(db):\n"
        "        if isinstance(op, UpdateSequence):\n"
        "            for u in op:\n"
        "                apply_update(db, u)\n"
        "        else:\n"
        "            apply_update(db, op)\n"
        "def touched(op):\n"
        "    if isinstance(op, UpdateSequence):\n"
        "        return {u.function for u in op}\n"
        "    return loads(op)\n"
    )
    assert enclosing(tree, is_json_loads) == ["peek"]
    assert enclosing(tree, is_format_key) == ["peek"]
    assert enclosing(tree, is_apply_dispatch) == ["apply"]
    assert enclosing(tree, lambda n: calls(n, "Transaction")) == ["apply"]
    assert private_wal_imports(tree) == ["_crc_of"]


def test_the_format_is_read_in_one_function():
    assert where(is_json_loads) == JSON_LOADS
    keyed = where(is_format_key)
    assert set(keyed) == {"fdb/wal.py"}, (
        f"WAL key names outside the codec: {keyed}")


def test_an_entry_is_applied_in_one_function():
    assert where(is_apply_dispatch) == {"fdb/updates.py": ["apply_entry"]}
    assert where(lambda n: calls(n, "Transaction")) == TRANSACTIONS


def test_no_module_reaches_into_the_codec():
    offenders = {module: private_wal_imports(tree)
                 for module, tree in sources().items()
                 if not module.startswith("fdb/")}
    offenders = {m: names for m, names in offenders.items() if names}
    assert not offenders, (
        f"underscore names imported from repro.fdb.wal: {offenders}")


def test_the_retired_decoders_stay_retired():
    for module, tree in sources().items():
        names = {node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
        assert not names & {"_decode_v2", "_last_nonblank_line",
                            "_decode"}, module
