"""The chaos harness, sized for the suite: one module over topologies.

The full-size runs (``python -m repro.faults --soak ...``) are CI's
``chaos`` job; this keeps a scaled-down cell of every topology in the
regular suite, so replay equality, strict recovery and the
no-acked-loss invariant are exercised on every run — and shows the
oracles themselves turning red on planted faults.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import soak
from repro.faults.__main__ import main
from repro.faults.soak import CHECKS, Cell, SoakConfig, run_soak
from repro.fdb.updates import Update, UpdateSequence


def _names(path) -> list:
    return [json.loads(line).get("name")
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


class TestSoak:
    """The one-lane facade: ``shards=1, replicas=0``."""

    def test_soak_with_faults_converges(self, tmp_path):
        report = run_soak(SoakConfig(
            threads=8,
            ops_per_thread=12,
            seed=0,
            workdir=tmp_path,
            jsonl=tmp_path / "events.jsonl",
        ))
        (cell,) = report.cells
        assert not cell.failed("replay")
        assert not cell.failed("recovery")
        assert not cell.failed("liveness")
        assert cell.facts["breaker"]["opens"] > 0
        assert cell.facts["breaker"]["closes"] > 0
        assert report.ok, "\n".join(report.lines())
        # The event log is real JSONL with the breaker narration.
        names = _names(tmp_path / "events.jsonl")
        assert "breaker.open" in names
        assert "breaker.closed" in names
        # One lane is still a lane: its series, journal and scrapes.
        assert (tmp_path / "shard-0.jsonl").exists()
        assert "service_shard_0_" in (
            tmp_path / "metrics-mid.prom").read_text(encoding="utf-8")

    def test_soak_without_faults_is_pure_concurrency(self, tmp_path):
        report = run_soak(SoakConfig(
            threads=6,
            ops_per_thread=10,
            seed=2,
            faults=False,
            workdir=tmp_path,
            jsonl=tmp_path / "events.jsonl",
        ))
        (cell,) = report.cells
        assert not cell.failed("replay")
        assert not cell.failed("recovery")
        assert not cell.failed("liveness")
        # Every planned operation resolved to some outcome.
        assert not cell.failed("accounting")
        assert "soak.phase" not in _names(tmp_path / "events.jsonl")


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
    if config.shards > 1:
        # Real multi-shard traffic: markers on both lanes, journals
        # and per-lane series for each.
        assert all(report.cells[0].facts["markers"].values())
        for shard in range(config.shards):
            assert (tmp_path / f"shard-{shard}.jsonl").exists()
            assert f"service_shard_{shard}_" in (
                tmp_path / "metrics-mid.prom").read_text(encoding="utf-8")
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
            tmp_path / "metrics-mid.prom").read_text(encoding="utf-8")
        assert (tmp_path / "timeline.jsonl").exists()


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


def _plant_extra_fact(cell):
    lane = cell.front.lane(0)
    name = next(n for n in cell.front.map.names_on(0)
                if lane.db.is_base(n))
    lane.db.load(name, [("planted_x", "planted_y")])


def _plant_short_log(cell):
    cell.front.lane(0).committed.pop()


def _plant_lonely_marker(cell):
    cell.front.lane(1).cross_markers.pop()


@pytest.mark.parametrize("plant, check", [
    (_plant_extra_fact, "replay"),
    (_plant_short_log, "spans"),
    (_plant_lonely_marker, "markers"),
], ids=["extra-fact", "short-committed-log", "unpaired-marker"])
def test_oracle_turns_red_on_a_planted_fault(plant, check, tmp_path):
    """Commit a few ops through a two-lane front door by hand, see the
    table pass, then damage one thing behind the service's back: the
    matching check — and it by name — must fail."""
    assert check in {c.name for c in CHECKS}
    config = SoakConfig(shards=2, serve_endpoint=False)
    with Cell(config, None, "storage", tmp_path) as cell:
        front = cell.front
        on = [next(n for n in front.map.names_on(shard)
                   if cell.full.is_base(n)) for shard in (0, 1)]
        for index in range(3):
            front.insert(on[0], f"x{index}", f"y{index}")
            front.insert(on[1], f"p{index}", f"q{index}")
        front.execute(UpdateSequence((
            Update.ins(on[0], "mx", "my"), Update.ins(on[1], "mp", "mq"),
        ), label="multi"))
        front.delete(on[0], "x0", "y0")
        cell.verify()
        # A hand-driven cell ran no epilogue, so nothing breathed; every
        # other row of the table is green.
        assert all(f.startswith("breathe:")
                   for f in cell.report.failures), cell.report.failures
        assert cell.report.facts["markers"] == {0: 1, 1: 1}

        plant(cell)
        cell.report.failures.clear()
        cell.verify()
        assert cell.report.failed(check), cell.report.failures


# -- the CLI honours or rejects every flag ------------------------------------


@pytest.mark.parametrize("argv", [
    ["--auto-failover"],
    ["--modes", "quorum"],
    ["--scenarios", "partition"],
    ["--shards", "2", "--scenarios", "meteor"],
    ["--replicas", "1", "--modes", "sometimes"],
    ["--shards", "0"],
], ids=lambda argv: " ".join(argv))
def test_cli_rejects_flags_the_topology_cannot_honour(argv, capsys):
    with pytest.raises(SystemExit) as raised:
        main(["--soak", *argv])
    assert raised.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_honours_no_faults_with_replicas(tmp_path, capsys):
    common = ["--soak", "--replicas", "1", "--modes", "sync(1)",
              "--scenarios", "partition", "--threads", "2", "--ops", "8",
              "--no-endpoint", "--scrape-dir", str(tmp_path)]
    assert main([*common, "--jsonl", str(tmp_path / "with.jsonl")]) == 0
    assert "soak.phase" in _names(tmp_path / "with.jsonl")
    assert main([*common, "--no-faults",
                 "--jsonl", str(tmp_path / "without.jsonl")]) == 0
    assert "soak.phase" not in _names(tmp_path / "without.jsonl")
    assert "soak: ok" in capsys.readouterr().out


def test_cli_honours_modes_and_scenarios_with_shards(tmp_path, capsys):
    jsonl = tmp_path / "events.jsonl"
    assert main([
        "--soak", "--shards", "2", "--replicas", "1",
        "--modes", "quorum", "--scenarios", "primary_kill",
        "--threads", "2", "--ops", "8", "--no-endpoint",
        "--jsonl", str(jsonl), "--scrape-dir", str(tmp_path),
    ]) == 0
    assert "[quorum / primary_kill] ok" in capsys.readouterr().out
    modes = {json.loads(line)["attrs"].get("mode")
             for line in jsonl.read_text(encoding="utf-8").splitlines()
             if '"replication.commit_acked"' in line}
    assert modes == {"quorum"}
    # primary_kill, not the sharded default: no storage phases ran,
    # and the one cell failed lane 0 over.
    names = _names(jsonl)
    assert "breaker.open" not in names
    assert "replication.promote" in names
    for artifact in ("shard-0.jsonl", "shard-1.jsonl", "timeline.jsonl"):
        assert (tmp_path / artifact).exists()


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
        cell.report.failures.clear()
        cell.verify()
        assert cell.report.failed("worlds"), cell.report.failures

