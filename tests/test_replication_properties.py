"""Property tests for the shipping protocol and the leadership lease
(seeded randoms).

The replication tentpole's core claim: a replica bootstrapped from
*any* intermediate checkpoint of the primary and fed the shipped WAL
stream from that point on ends up byte-for-byte identical to the
primary — including derived-function side-effects (materialised NVC
chains) and the indices of the nulls they mint. Update application is
deterministic because null and NC counters are persisted in the
snapshot, so every bootstrap point must converge to the same state.

The lease tests drive randomized partition / heal / clock-skew
schedules on a *virtual* clock (no sleeps, fully deterministic) and
assert the lease safety argument directly: at most one node holds a
valid lease at any instant — an election can only happen strictly
after the primary self-demoted, with at least the configured drift
margin of real time in between — and every acknowledged commit
survives to the finally elected primary.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.errors import (
    LeaseExpired,
    ReplicationTimeout,
    ReproError,
    StalePrimary,
)
from repro.fdb import persistence
from repro.fdb.database import FunctionalDatabase
from repro.fdb.updates import Update
from repro.fdb.wal import (
    LoggedDatabase,
    checkpoint,
    committed,
    decode_frame,
)
from repro.replication import (
    FailoverCoordinator,
    LeaseConfig,
    Replica,
    ReplicationGroup,
)
from repro.workloads.university import pupil_database

_FACULTY = tuple(f"f{i}" for i in range(5))
_COURSES = tuple(f"c{i}" for i in range(4))
_STUDENTS = tuple(f"s{i}" for i in range(5))

_DOMAINS = {
    "teach": (_FACULTY, _COURSES),
    "class_list": (_COURSES, _STUDENTS),
    "pupil": (_FACULTY, _STUDENTS),  # derived: inserts mint nulls
}


def _random_update(rng: random.Random) -> Update:
    name = rng.choice(tuple(_DOMAINS))
    xs, ys = _DOMAINS[name]
    x, y = rng.choice(xs), rng.choice(ys)
    roll = rng.random()
    if roll < 0.6:
        return Update.ins(name, x, y)
    if roll < 0.9:
        return Update.delete(name, x, y)
    return Update.rep(name, (x, y), (rng.choice(xs), rng.choice(ys)))


def _collect(log, stream: list) -> list:
    """Extend ``stream`` with the log's ``(seq, line)`` records past
    its last one — collected after each commit, before a checkpoint
    can fold them away — and return it."""
    stream.extend(log.records_between(stream[-1][0] if stream else 0,
                                      log.last_seq()))
    return stream


def _state_fingerprint(db: FunctionalDatabase) -> dict:
    """Everything the paper's machinery stores, printable form:
    stored facts with flags and NC labels, plus both index counters
    (null and NC), so two equal fingerprints mean replaying either
    copy forward stays equal."""
    return {
        "tables": {name: db.table(name).rows()
                   for name in db.base_names},
        "next_null_index": db.nulls.next_index,
        "next_nc_index": db.ncs.next_index,
        "ncs": len(db.ncs),
    }


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_replay_from_any_checkpoint_matches_primary(tmp_path, seed,
                                                    closing):
    rng = random.Random(seed)
    workdir = tmp_path / "primary"
    workdir.mkdir()
    db = pupil_database()
    logged = closing(LoggedDatabase(db, workdir / "wal.log"))
    stream: list = []

    # Drive the primary through a random update stream, dumping a
    # checkpoint snapshot at every commit boundary. Failed updates
    # leave an abort record in the stream — replicas must skip those
    # exactly as local replay does.
    checkpoints = {0: persistence.dumps(db, wal_applied=0, term=1)}
    for _ in range(24):
        update = _random_update(rng)
        try:
            logged.execute(update)
        except Exception:
            pass  # aborted: compensation record is in the stream
        seq = logged.log.last_seq()
        _collect(logged.log, stream)
        checkpoints[seq] = persistence.dumps(db, wal_applied=seq,
                                             term=1)

    head = logged.log.last_seq()
    assert head > 0
    expected = _state_fingerprint(db)

    for start, snapshot_text in checkpoints.items():
        replica = closing(Replica(f"r{start}", tmp_path / f"r{start}"))
        reply = replica.handle({
            "type": "snapshot", "term": 1,
            "snapshot": snapshot_text, "wal_applied": start,
        })
        assert reply["ok"], (start, reply)
        tail = [line for seq, line in stream if seq > start]
        reply = replica.handle({
            "type": "append", "term": 1,
            "records": tail, "through_seq": head,
        })
        assert reply["ok"], (start, reply)
        assert replica.applied_seq == head
        got = _state_fingerprint(replica.db)
        assert got == expected, f"bootstrap at seq {start} diverged"


@pytest.mark.parametrize("seed", [2, 5, 13])
def test_committed_journal_is_the_primarys_entries(tmp_path, seed,
                                                   closing):
    """One filter decides what counts as committed, whether the frames
    come from a scan of the file or from ``records_between`` copies of
    its lines: through compensated aborts and a mid-stream checkpoint
    (which folds the log's entries away, not the collected copies),
    ``committed()`` over the collected stream is ``entries()`` on the
    primary, and the collected lines are the file's, byte for byte."""
    from repro.faults import FAULTS, ErrorFault

    rng = random.Random(seed)
    logged = closing(LoggedDatabase(pupil_database(),
                                    tmp_path / "wal.log"))
    stream: list = []
    entries, aborts, folded = [], 0, 0
    for step in range(30):
        if step == 14:
            entries.extend(logged.log.entries())
            folded = logged.log.last_seq()
            checkpoint(logged, tmp_path / "snapshot.json")
        if rng.random() < 0.25:
            FAULTS.arm("wal.apply.before", ErrorFault(times=1))
        try:
            logged.execute(_random_update(rng))
        except Exception:
            aborts += 1  # compensated: entry and abort both ship
        finally:
            FAULTS.disarm_all()
        _collect(logged.log, stream)
        # What the log remembers of its file is what a scan reads,
        # through aborts and across the fold's rename.
        on_disk = logged.log.scan("salvage")
        assert logged.log.shippable_floor() == on_disk.base_seq
        assert logged.log.last_seq() == on_disk.max_seq
    entries.extend(logged.log.entries())

    frames = [decode_frame(line) for _, line in stream]
    assert [frame.seq for frame in frames] \
        == list(range(1, logged.log.last_seq() + 1))
    assert aborts and sum(f.kind == "abort" for f in frames) == aborts
    assert [frame.payload for frame in committed(frames)] == entries
    header, *tail = logged.log.path.read_text().splitlines()
    assert decode_frame(header).kind == "header"
    assert [line for seq, line in stream if seq > folded] == tail


@pytest.mark.parametrize("seed", [3, 11])
def test_crash_restart_mid_stream_converges(tmp_path, seed, closing):
    """A replica that crashes after every batch and restarts from its
    working directory alone still converges to the primary."""
    rng = random.Random(seed)
    workdir = tmp_path / "primary"
    workdir.mkdir()
    db = pupil_database()
    logged = closing(LoggedDatabase(db, workdir / "wal.log"))
    stream: list = []

    replica = closing(Replica("r0", tmp_path / "r0"))
    replica.handle({
        "type": "snapshot", "term": 1,
        "snapshot": persistence.dumps(db, wal_applied=0, term=1),
        "wal_applied": 0,
    })

    for _ in range(16):
        try:
            logged.execute(_random_update(rng))
        except Exception:
            pass
        seq = logged.log.last_seq()
        tail = [line for s, line in _collect(logged.log, stream)
                if s > replica.applied_seq]
        reply = replica.handle({
            "type": "append", "term": 1,
            "records": tail, "through_seq": seq,
        })
        assert reply["ok"]
        replica.crash()
        replica.restart()
        assert replica.applied_seq == seq

    assert _state_fingerprint(replica.db) == _state_fingerprint(db)


# -- lease safety under randomized partition / heal / skew ---------------------


class _World:
    """A shared virtual timeline; per-node clocks are constant-offset
    views of it (offsets bounded by the lease margin, as the protocol
    assumes)."""

    def __init__(self) -> None:
        self.now = 0.0


def _node_clock(world: _World, offset: float):
    return lambda: world.now + offset


def _lease_stack(tmp_path, closing, seed: int, replicas: int,
                 cfg: LeaseConfig):
    """A replicated group with lease + detectors + coordinator, all on
    virtual per-node clocks with random bounded skew."""
    rng = random.Random(seed)
    world = _World()
    skews = {"primary": rng.uniform(-cfg.margin, cfg.margin)}
    workdir = tmp_path / "primary"
    workdir.mkdir()
    db = pupil_database()
    persistence.save(db, workdir / "snapshot.json", wal_applied=0)
    logged = closing(LoggedDatabase(db, workdir / "wal.log"))
    group = closing(ReplicationGroup("sync(1)", ack_timeout=0.05,
                                     retry_interval=0.005))
    lease = group.enable_lease(
        cfg, clock=_node_clock(world, skews["primary"])
    )
    term = group.attach_primary(logged, node="primary")
    coord = FailoverCoordinator(
        group, cfg, clock=_node_clock(world, 0.0)
    )
    for i in range(replicas):
        name = f"r{i}"
        skews[name] = rng.uniform(-cfg.margin, cfg.margin)
        replica = Replica(name, tmp_path / name)
        group.add_replica(name, replica)
        coord.watch(replica, clock=_node_clock(world, skews[name]))
    return world, skews, rng, logged, group, lease, coord, term


@pytest.mark.parametrize("seed", [0, 1, 5, 9])
def test_election_only_after_demotion_under_skew(tmp_path, seed,
                                                 closing):
    """Randomized partition/heal schedule with per-node clock skew up
    to the margin: no election may run while the lease is held, and
    when one does run, at least ``margin`` of real (virtual) time must
    already separate it from the primary's self-demotion instant.
    Every acked commit must survive to the elected primary."""
    cfg = LeaseConfig(duration=0.5, margin=0.1, renew_interval=0.08,
                      check_interval=0.01)
    (world, skews, rng, logged, group, lease, coord,
     term) = _lease_stack(tmp_path, closing, seed, replicas=3, cfg=cfg)
    links = {link.name: link for link in group.shipper.links()}
    acked: list[int] = []
    last_renew = 0.0
    report = None
    forced_at = None
    steps = 0
    while report is None and steps < 400:
        steps += 1
        world.now += rng.uniform(0.01, 0.15)
        if forced_at is None:
            # The random phase: links flap independently.
            for link in links.values():
                if rng.random() < 0.2:
                    link.transport.partitioned = \
                        not link.transport.partitioned
            if steps > 40:
                # Force convergence: isolate the primary for good.
                for link in links.values():
                    link.transport.partitioned = True
                forced_at = world.now
        if world.now - last_renew >= cfg.renew_interval:
            last_renew = world.now
            lease.renew_once()
        held_before = lease.held()
        if held_before and forced_at is None and rng.random() < 0.5:
            try:
                group.check_primary(term)
                seq = logged.execute(
                    Update.ins("teach", f"prof{steps}", "cs")
                )
                try:
                    group.on_commit(seq)
                    acked.append(seq)
                except ReplicationTimeout:
                    pass  # durable locally, acked by nobody
            except LeaseExpired:
                # Lapsed between the held() sample and the write.
                assert not lease.held()
            except ReproError:
                pass
        # The primary's lapse instant on the shared timeline: its
        # validity window past the quorum watermark, skew removed.
        mark = lease.watermark()
        lapse_world = (
            None if mark is None
            else mark + cfg.primary_validity - skews["primary"]
        )
        report = coord.tick()
        if report is not None:
            # Election while the lease is held would mean two writers.
            assert not held_before
            assert not lease.held()
            assert lapse_world is not None
            gap = world.now - lapse_world
            assert gap >= cfg.margin - 1e-9, (
                f"election {gap:.3f}s after demotion, need "
                f">= margin {cfg.margin}"
            )
    assert report is not None, "no election despite full isolation"
    assert len(coord.elections) == 1

    # The deposed primary is turned away before its WAL from now on.
    wal_before = logged.log.last_seq()
    with pytest.raises(StalePrimary):
        group.check_primary(term)
    assert logged.log.last_seq() == wal_before

    # Every acked commit survived into the elected history.
    fence = group.fence_seq(term)
    lost = [seq for seq in acked if seq > fence]
    assert not lost, f"acked commits lost by the election: {lost}"
    assert not acked or report.applied_seq >= max(acked)

    # The new primary attaches, is granted the lease, and writes.
    chosen = group.replica(report.chosen)
    group.remove_replica(report.chosen)
    new_logged = closing(LoggedDatabase(chosen.db, chosen.wal_path))
    new_term = group.attach_primary(new_logged, node=report.chosen)
    assert lease.held()
    group.check_primary(new_term)
    with pytest.raises(StalePrimary):
        group.check_primary(term)


@pytest.mark.parametrize("seed", [2, 7])
def test_lease_recovers_without_election_on_fast_heal(tmp_path, seed,
                                                      closing):
    """A partition shorter than the detector horizon must *not* elect:
    the lease lapses on the primary (writes refused — the safe side),
    then recovers under the same term once a quorum answers again."""
    cfg = LeaseConfig(duration=0.5, margin=0.1, renew_interval=0.08,
                      check_interval=0.01)
    (world, skews, rng, logged, group, lease, coord,
     term) = _lease_stack(tmp_path, closing, seed, replicas=3, cfg=cfg)
    links = {link.name: link for link in group.shipper.links()}
    lease.renew_once()
    assert lease.held()

    for link in links.values():
        link.transport.partitioned = True
    # Past the primary's validity window but inside the detectors'
    # horizon: self-demoted, not yet electable.
    world.now += cfg.primary_validity + cfg.margin / 2
    lease.renew_once()
    assert not lease.held()
    with pytest.raises(LeaseExpired):
        group.check_primary(term)
    assert coord.tick() is None

    for link in links.values():
        link.transport.partitioned = False
    lease.renew_once()
    assert lease.held()
    group.check_primary(term)  # same term, no fence, no election
    assert coord.tick() is None
    assert not coord.elections
    assert group.term == term


def test_acked_commits_survive_automatic_failover(tmp_path, closing):
    """Real clocks, real threads: the renewer and coordinator run as
    they do in production; killing the primary must elect exactly one
    new leader that holds every acked commit."""
    cfg = LeaseConfig(duration=0.3, margin=0.05, renew_interval=0.05,
                      check_interval=0.01)
    workdir = tmp_path / "primary"
    workdir.mkdir()
    db = pupil_database()
    persistence.save(db, workdir / "snapshot.json", wal_applied=0)
    logged = closing(LoggedDatabase(db, workdir / "wal.log"))
    group = closing(ReplicationGroup("sync(1)", ack_timeout=1.0,
                                     retry_interval=0.005))
    lease = group.enable_lease(cfg)
    term = group.attach_primary(logged, node="primary")
    coord = FailoverCoordinator(group, cfg)
    for i in range(2):
        replica = Replica(f"r{i}", tmp_path / f"r{i}")
        group.add_replica(replica.name, replica)
        coord.watch(replica)
    lease.start()
    coord.start()
    try:
        acked = []
        for i in range(8):
            group.check_primary(term)
            seq = logged.execute(Update.ins("teach", f"p{i}", "cs"))
            group.on_commit(seq)
            acked.append(seq)
        for link in group.shipper.links():
            link.transport.partitioned = True
        deadline = time.monotonic() + 5.0
        while not coord.elections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert coord.elections, "no automatic election"
        assert len(coord.elections) == 1
        report = coord.elections[0]
        assert report.applied_seq >= max(acked)
        assert all(seq <= group.fence_seq(term) for seq in acked)
        with pytest.raises(StalePrimary):
            group.check_primary(term)

        chosen = group.replica(report.chosen)
        group.remove_replica(report.chosen)
        new_logged = closing(LoggedDatabase(chosen.db, chosen.wal_path))
        new_term = group.attach_primary(new_logged,
                                        node=report.chosen)
        group.check_primary(new_term)
        seq = new_logged.execute(Update.ins("teach", "new", "math"))
        group.on_commit(seq)
        assert lease.held()
        # Still exactly one election: the new leader's beats keep the
        # remaining detector quiet.
        time.sleep(cfg.detector_horizon + 0.1)
        assert len(coord.elections) == 1
    finally:
        coord.stop()
        lease.stop()
