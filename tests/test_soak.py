"""The chaos harness, sized for the suite: one module over topologies.

The full-size runs (``python -m repro.faults --soak ...``) are CI's
``chaos`` job; this keeps a scaled-down cell of every topology in the
regular suite, so replay equality, strict recovery and the
no-acked-loss invariant are exercised on every run — and shows the
oracles themselves turning red on faults planted in a stored run.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.faults import soak
from repro.faults.__main__ import main
from repro.faults.rundir import CHECKS
from repro.faults.soak import Cell, SoakConfig, check, run_soak
from repro.fdb import persistence
from repro.fdb.updates import Update, UpdateSequence
from repro.fdb.wal import decode_frame, encode_entry
from repro.obs.events import EventRecord


def _lines(path) -> list:
    return [json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def _names(path) -> list:
    return [line.get("name") for line in _lines(path)]


def _write_lines(path, lines) -> None:
    path.write_text("".join(json.dumps(line) + "\n" for line in lines),
                    encoding="utf-8")


class TestSoak:
    """The one-lane facade: ``shards=1, replicas=0``."""

    def test_soak_with_faults_converges(self, tmp_path):
        report = run_soak(SoakConfig(
            threads=8,
            ops_per_thread=12,
            seed=0,
            workdir=tmp_path,
        ))
        (cell,) = report.cells
        assert not cell.failed("replay")
        assert not cell.failed("recovery")
        assert not cell.failed("liveness")
        assert cell.facts["breaker"]["opens"] > 0
        assert cell.facts["breaker"]["closes"] > 0
        assert report.ok, "\n".join(report.lines())
        # The cell's event log is real JSONL with the breaker narration.
        run_dir = tmp_path / "storage"
        names = _names(run_dir / "events.jsonl")
        assert "breaker.open" in names
        assert "breaker.closed" in names
        # One lane is still a lane: its series, history and scrapes.
        assert {line["lane"] for line in _lines(run_dir / "disk.jsonl")} \
            == {0}
        assert "service_shard_0_" in (
            run_dir / "metrics-mid.prom").read_text(encoding="utf-8")

    def test_soak_without_faults_is_pure_concurrency(self, tmp_path):
        report = run_soak(SoakConfig(
            threads=6,
            ops_per_thread=10,
            seed=2,
            faults=False,
            workdir=tmp_path,
        ))
        (cell,) = report.cells
        assert not cell.failed("replay")
        assert not cell.failed("recovery")
        assert not cell.failed("liveness")
        # Every planned operation resolved to some outcome.
        assert not cell.failed("accounting")
        assert "soak.phase" not in _names(tmp_path / "storage"
                                          / "events.jsonl")


TOPOLOGIES = {
    "two-lanes": dict(shards=2, threads=6, ops_per_thread=10, seed=3),
    "replicated-lane": dict(
        replicas=2, threads=2, ops_per_thread=8, seed=5,
        modes=("sync(1)",), scenarios=("replica_crash", "primary_kill"),
    ),
    "sharded-replicated-leased": dict(
        shards=2, replicas=2, auto_failover=True, threads=4,
        ops_per_thread=10, seed=1,
    ),
}


# The suite-sized replicated lane waits out a crashed replica's ack
# for one second, not two.
ACK_TIMEOUTS = {"replicated-lane": 1.0}


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_topology_holds_every_check(topology, tmp_path, monkeypatch):
    monkeypatch.setattr(soak, "WALL_CLOCK_LIMIT", 60.0)
    monkeypatch.setattr(soak, "ACK_TIMEOUT",
                        ACK_TIMEOUTS.get(topology, soak.ACK_TIMEOUT))
    config = SoakConfig(workdir=str(tmp_path), **TOPOLOGIES[topology])
    report = run_soak(config)
    assert report.ok, "\n".join(report.lines())
    assert len(report.cells) == len(config.matrix())
    for cell in report.cells:
        assert set(cell.facts["committed"]) == set(range(config.shards))
        assert all(cell.facts["committed"].values())
    # The run directories, re-checked offline, give the same verdicts.
    offline = check(tmp_path)
    assert [(c.mode, c.scenario, c.failures) for c in offline.cells] \
        == [(c.mode, c.scenario, c.failures) for c in report.cells]
    assert offline.failures == report.failures and offline.ok
    # The branches below are one-cell topologies: that cell's directory.
    run_dir = next(tmp_path.glob("*/run.json")).parent
    if config.shards > 1:
        # Real multi-shard traffic: labels on both lanes, histories
        # and per-lane series for each.
        assert all(report.cells[0].facts["markers"].values())
        assert {line["lane"] for line in _lines(run_dir / "disk.jsonl")} \
            == set(range(config.shards))
        for shard in range(config.shards):
            assert f"service_shard_{shard}_" in (
                run_dir / "metrics-mid.prom").read_text(encoding="utf-8")
    if config.auto_failover:
        (cell,) = report.cells
        # Failed over by election, nothing promoted by hand, and zero
        # acked loss (the cell records a failover failure otherwise).
        assert cell.facts["elections"] == 1
        assert report.facts["events"]["replication.promote"] == 1
        assert report.facts["events"]["replication.elected"] == 1
        assert not cell.failed("failover")
        assert cell.facts["acked"] > 0
        assert cell.facts["rejoin"]["records_dropped"] >= 1
        assert "replication_lease_" in (
            run_dir / "metrics-mid.prom").read_text(encoding="utf-8")
        assert "replication.fence" in _names(run_dir / "events.jsonl")


def test_small_soak_matrix_holds_invariants(tmp_path, monkeypatch):
    monkeypatch.setattr(soak, "WALL_CLOCK_LIMIT", 60.0)
    monkeypatch.setattr(soak, "ACK_TIMEOUT", 1.0)
    config = SoakConfig(
        replicas=2,
        threads=2,
        ops_per_thread=8,
        seed=5,
        modes=("sync(1)",),
        scenarios=("partition", "primary_kill"),
        workdir=str(tmp_path),
        serve_endpoint=False,
    )
    report = run_soak(config)
    assert report.ok, "\n".join(report.lines())
    assert len(report.cells) == 2
    events = report.facts["events"]
    # the primary_kill cell failed over
    assert events["replication.promote"] >= 1
    assert events["replication.write_fenced"] >= 1
    assert events["replication.rejoin"] >= 1
    kill = next(c for c in report.cells
                if c.scenario == "primary_kill")
    assert kill.facts["promotion"] is not None
    assert kill.facts["fence_seq"] is not None
    # every acked op survived: the cell records failures otherwise
    assert not kill.failures


# -- the oracles can fail -----------------------------------------------------


def _base_on(cell, shard):
    return next(n for n in cell.front.map.names_on(shard)
                if cell.full.is_base(n))


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One hand-driven replicated two-lane cell, recorded once: a few
    ops committed through the front door by hand, then verify."""
    workdir = tmp_path_factory.mktemp("recorded")
    config = SoakConfig(shards=2, replicas=1, serve_endpoint=False)
    with Cell(config, "sync(1)", "storage", workdir) as cell:
        on = [_base_on(cell, shard) for shard in (0, 1)]
        for index in range(3):
            cell.run_op("write", Update.ins(on[0], f"x{index}", f"y{index}"))
            cell.run_op("write", Update.ins(on[1], f"p{index}", f"q{index}"))
        cell.run_op("seq", UpdateSequence((
            Update.ins(on[0], "mx", "my"), Update.ins(on[1], "mp", "mq"),
        ), label="multi"))
        cell.run_op("write", Update.delete(on[0], "x0", "y0"))
        assert {outcome for *_, outcome in cell.client} == {"applied"}
        cell.verify()
    return workdir


def _lane_0(run_dir):
    """Lane 0's primary's state file, its database, and a base function
    placed on the lane."""
    meta = json.loads((run_dir / "run.json").read_text(encoding="utf-8"))
    path = run_dir / "state" / f"{meta['lanes'][0]['primary']}.json"
    db = persistence.load(path)
    return path, db, next(name for name in sorted(db.base_names)
                          if meta["shards"][name] == 0)


def _plant_extra_fact(run_dir):
    path, db, name = _lane_0(run_dir)
    db.load(name, [("planted_x", "planted_y")])
    path.write_text(persistence.dumps(db), encoding="utf-8")


def _plant_dropped_record(run_dir):
    lines = _lines(run_dir / "disk.jsonl")
    last = max(i for i, line in enumerate(lines) if line["lane"] == 0)
    _write_lines(run_dir / "disk.jsonl", lines[:last] + lines[last + 1:])


def _plant_lonely_label(run_dir):
    _write_lines(run_dir / "disk.jsonl", [
        line for line in _lines(run_dir / "disk.jsonl")
        if line["lane"] != 1 or getattr(
            decode_frame(line["line"]).payload, "label", "") != "multi"])


def _plant_unrecorded_commit(run_dir):
    *_, name = _lane_0(run_dir)
    _write_lines(run_dir / "client.jsonl", _lines(
        run_dir / "client.jsonl") + [{
            "kind": "write", "outcome": "applied",
            "payload": encode_entry(Update.ins(name, "ghost_x", "ghost_y")),
        }])


def _plant_acked_past_the_fence(run_dir):
    last = max(decode_frame(line["line"]).seq
               for line in _lines(run_dir / "disk.jsonl")
               if line["lane"] == 0)
    events = _lines(run_dir / "events.jsonl")
    top = max(event["seq"] for event in events)
    _write_lines(run_dir / "events.jsonl", events + [
        EventRecord(top + 1, 0.0, "action", "replication.fence", attrs={
            "old_term": 1, "new_term": 2, "fence_seq": last,
            "chosen": "s0r0"}).to_dict(),
        EventRecord(top + 2, 0.0, "action", "replication.commit_acked",
                    attrs={"seq": last + 1, "term": 1,
                           "node": "shard-0-primary"}).to_dict(),
    ])


@pytest.mark.parametrize("plant, check_name", [
    (_plant_extra_fact, "replay"),
    (_plant_dropped_record, "spans"),
    (_plant_lonely_label, "markers"),
    (_plant_unrecorded_commit, "accounting"),
    (_plant_acked_past_the_fence, "timeline"),
], ids=["extra-fact", "short-committed-log", "unpaired-marker",
        "commit-missing-from-disk", "acked-past-the-fence"])
def test_oracle_turns_red_on_a_planted_fault(plant, check_name, recorded,
                                             tmp_path):
    """Copy the recorded run directory twice and damage one thing the
    checks read in one copy — a node's state, or the record of what
    clients saw, what the disks hold or what the event stream says:
    the matching check — and it by name — fails there, and the table
    is green on the other copy. No worker, no service: the fold reads
    files."""
    assert check_name in {row.name for row in CHECKS}
    clean, planted = tmp_path / "clean", tmp_path / "planted"
    shutil.copytree(recorded, clean)
    shutil.copytree(recorded, planted)
    (report,) = check(clean).cells
    # A hand-driven cell ran no epilogue, so nothing breathed; every
    # other row of the table is green.
    assert all(f.startswith("breathe:") for f in report.failures), \
        report.failures
    assert report.facts["markers"] == {0: 1, 1: 1}

    plant(planted)
    (report,) = check(planted).cells
    assert report.failed(check_name), report.failures


def test_breathe_takes_an_alert_the_breaker_raised_as_the_raise(tmp_path):
    """The breaker phase's forced outage can raise the SLO alert before
    the SLO phase starts: the phase takes the active alert as its
    raise and goes on to clear it."""
    with Cell(SoakConfig(serve_endpoint=False), None, "storage",
              tmp_path) as cell:
        cell._epilogues()
        cell.verify()
    assert not cell.report.failed("breathe"), cell.report.failures


# -- the CLI honours or rejects every flag ------------------------------------


@pytest.mark.parametrize("argv", [
    ["--soak", "--auto-failover"],
    ["--soak", "--modes", "quorum"],
    ["--soak", "--scenarios", "partition"],
    ["--soak", "--shards", "2", "--scenarios", "meteor"],
    ["--soak", "--replicas", "1", "--modes", "sometimes"],
    ["--soak", "--shards", "0"],
    ["--soak", "--threads", "0"],
    ["--soak", "--ops", "0"],
    ["--check", "."],
    ["--check", ".", "--soak"],
    ["--check", ".", "--threads", "4"],
], ids=lambda argv: " ".join(argv[1:] if argv[0] == "--soak" else argv))
def test_cli_rejects_flags_the_topology_cannot_honour(argv, capsys,
                                                      tmp_path,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)  # "--check .": a directory with no run
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_honours_no_faults_with_replicas(tmp_path, capsys):
    common = ["--soak", "--replicas", "1", "--modes", "sync(1)",
              "--scenarios", "partition", "--threads", "2", "--ops", "8",
              "--no-endpoint"]
    assert main([*common, "--workdir", str(tmp_path / "with")]) == 0
    assert "soak.phase" in _names(
        tmp_path / "with" / "sync1-partition" / "events.jsonl")
    assert main([*common, "--no-faults",
                 "--workdir", str(tmp_path / "without")]) == 0
    assert "soak.phase" not in _names(
        tmp_path / "without" / "sync1-partition" / "events.jsonl")
    assert "soak: ok" in capsys.readouterr().out


def test_cli_honours_modes_and_scenarios_with_shards(tmp_path, capsys):
    assert main([
        "--soak", "--shards", "2", "--replicas", "1",
        "--modes", "quorum", "--scenarios", "primary_kill",
        "--threads", "2", "--ops", "8", "--no-endpoint",
        "--workdir", str(tmp_path),
    ]) == 0
    assert "[quorum / primary_kill] ok" in capsys.readouterr().out
    run_dir = tmp_path / "quorum-primary_kill"
    events = _lines(run_dir / "events.jsonl")
    modes = {event["attrs"].get("mode") for event in events
             if event["name"] == "replication.commit_acked"}
    assert modes == {"quorum"}
    # primary_kill, not the sharded default: no storage phases ran,
    # and the one cell failed lane 0 over.
    names = [event["name"] for event in events]
    assert "breaker.open" not in names
    assert "replication.promote" in names
    assert {line["lane"] for line in _lines(run_dir / "disk.jsonl")} \
        == {0, 1}
    # The stored run re-checks to the same verdict.
    assert main(["--check", str(tmp_path)]) == 0
    assert "[quorum / primary_kill] ok" in capsys.readouterr().out


def test_worlds_row_sees_a_rollback_that_restores_nothing(tmp_path,
                                                          monkeypatch):
    """The `worlds` row's aborted-transaction leg: with the engine's
    rollback replaced by a no-op, the doomed derived deletes keep their
    NCs and the world count moves — the row, by name, turns red."""
    config = SoakConfig(serve_endpoint=False)
    with Cell(config, None, "storage", tmp_path) as cell:
        cell.verify()
    assert not cell.report.failed("worlds"), cell.report.failures
    monkeypatch.setattr("repro.fdb.transaction.rollback",
                        lambda records: None)
    (report,) = check(tmp_path).cells
    assert report.failed("worlds"), report.failures
