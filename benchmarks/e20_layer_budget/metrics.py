"""E20 metric declarations, the percentile rule and the comparison
rule.

``BENCHMARK.json`` can carry only name / unit / direction / bound, and
its ``end_to_end`` list must be reported by every workload, so the
fuller record lives here: which workloads report a metric, its
absolute floor, and — for per-layer metrics — which end-to-end metric
on which workload it is expected to move. ``test_e20.py`` checks the
two stay in step.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from workloads import WORKLOADS

ALL = tuple(WORKLOADS)
DURABLE = tuple(name for name, w in WORKLOADS.items() if w.durable)
READERS = tuple(name for name in ALL if name != "derived_update_mem")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float  # relative share of the baseline it may worsen by
    floor: float  # absolute change below which nothing is a regression
    workloads: tuple[str, ...]
    what: str


# Every timing is in seconds of the quiet machine (``machine.py``):
# the sandbox's speed, read beside the work, is divided out. That took
# the spread of ten same-code runs from 15-35% to 3-10%; the bound
# stays at the widest the contract allows, because in the host's
# noisiest minutes a two-client median still spreads ~10%. The issue
# asked for 10% (medians) and 15% (p95s), measured on a quieter day.
NOISE = 0.25

# The four every workload reports, that are never 0 and that hold
# still are BENCHMARK.json's ``end_to_end``. The rest ride in its
# ``per_layer`` list under an ``e2e.`` prefix (same untraced rounds,
# bounds enforced by ``run.py --compare``): the class-specific ones,
# and ``base_write_p95_ms``, whose tail the host's hiccups inflate out
# of proportion to anything a probe can read (two-client runs spread
# 28% on it in a noisy window, 6% on the median) - a gate that noisy
# would refuse innocent changes.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", NOISE, 0.1, ALL,
             "median complete set-up of the run: imports in a fresh "
             "interpreter plus one round's schema, population, snapshot "
             "save, service/lane/replica construction and warm-up"),
    EndToEnd("ops_per_s", "1/s", "higher", NOISE, 0.0, ALL,
             "successful ops / measured wall"),
    EndToEnd("base_write_p50_ms", "ms", "lower", NOISE, 0.0, ALL,
             "base INS/DEL request to committed (and, when "
             "replicated, quorum-acked) reply"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, 0.0, ALL,
             "ru_maxrss of the workload's process after the untraced "
             "rounds"),
    EndToEnd("base_write_p95_ms", "ms", "lower", NOISE, 0.0, ALL, "same"),
    EndToEnd("failed_share", "ratio", "lower", 0.0, 0.0, ALL,
             "failed or refused / attempted"),
    EndToEnd("derived_ins_p50_ms", "ms", "lower", NOISE, 0.0,
             ("derived_update_mem",), "derived INS"),
    EndToEnd("derived_ins_p95_ms", "ms", "lower", NOISE, 0.0,
             ("derived_update_mem",), "derived INS"),
    EndToEnd("derived_del_p50_ms", "ms", "lower", NOISE, 0.0,
             ("derived_update_mem",), "derived DEL"),
    EndToEnd("derived_del_p95_ms", "ms", "lower", NOISE, 0.0,
             ("derived_update_mem",), "derived DEL"),
    EndToEnd("point_read_p50_ms", "ms", "lower", NOISE, 0.0, READERS,
             "truth_of"),
    EndToEnd("point_read_p95_ms", "ms", "lower", NOISE, 0.0,
             ("durable_small_1c", "durable_small_2c",
              "sharded_2lane_2c", "derived_read_mem"),
             "truth_of, where the class has >= 200 samples a round"),
    EndToEnd("scan_p50_ms", "ms", "lower", NOISE, 0.0,
             ("derived_read_mem",), "extension"),
    EndToEnd("recover_s", "s", "lower", NOISE, 0.02,
             ("durable_small_1c", "durable_large_1c"),
             "median of the run's recover(snapshot, wal) calls, 5 on "
             "each round's on-disk state"),
    EndToEnd("wal_bytes_per_write", "bytes", "lower", 0.01, 0.0, DURABLE,
             "WAL growth / committed writes; exact for a seed"),
)
UNIVERSAL = tuple(m.name for m in END_TO_END[:4])


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload it should move


def _layer(prefix: str, moves: str, *rows: tuple[str, str, str]):
    return tuple(PerLayer(f"{prefix}.{name}", unit, better, moves)
                 for name, unit, better in rows)


PER_LAYER = (
    *_layer("shard",
            "ops_per_s, base_write_p50_ms on sharded_2lane_2c; nothing "
            "elsewhere",
            ("route_self_us", "us", "lower"),
            ("busy_share", "ratio", "lower"),
            ("lane_op_skew", "ratio", "lower")),
    *_layer("service",
            "base_write_p50_ms on durable_small_1c; point_read_p50_ms "
            "on derived_read_mem",
            ("write_self_us", "us", "lower"),
            ("read_self_us", "us", "lower"),
            ("retries", "count", "lower"),
            ("lock_timeouts", "count", "lower"),
            ("deadlocks", "count", "lower")),
    *_layer("service.admission",
            "base_write_p95_ms, failed_share on the _2c workloads",
            ("wait_us", "us", "lower"),
            ("shed", "count", "lower")),
    *_layer("service.locks",
            "ops_per_s, base_write_p95_ms on durable_small_2c; ~0 on "
            "every _1c",
            ("acquire_us", "us", "lower"),
            ("acquire_p95_us", "us", "lower"),
            ("wait_share", "ratio", "lower")),
    *_layer("fdb.wal",
            "base_write_p50_ms on durable_small_1c; read-back: "
            "base_write_p50_ms, ops_per_s on replicated_quorum_1c",
            ("append_self_us", "us", "lower"),
            ("bytes_per_record", "bytes", "lower"),
            ("records", "count", "lower"),
            ("readback_us", "us", "lower"),
            ("readback_growth", "ratio", "lower")),
    *_layer("fdb.storage",
            "base_write_p50_ms on durable_small_1c; ops_per_s on "
            "durable_small_2c (group commit: fsyncs_per_commit < 1 "
            "there, 1 on _1c); nothing on the _mem workloads",
            ("append_us", "us", "lower"),
            ("fsync_us", "us", "lower"),
            ("fsyncs_per_commit", "ratio", "lower"),
            ("bytes_per_commit", "bytes", "lower"),
            ("busy_share", "ratio", "lower")),
    *_layer("fdb.transaction",
            "base_write_p50_ms, ops_per_s on durable_large_1c (undo "
            "log: begin_us equal on _small_1c and _large_1c); little "
            "on durable_small_*",
            ("begin_us", "us", "lower"),
            ("begin_us_per_kfact", "us", "lower"),
            ("rollbacks", "count", "lower"),
            ("busy_share", "ratio", "lower")),
    *_layer("fdb.updates",
            "derived_del_p50_ms, derived_ins_p50_ms on "
            "derived_update_mem",
            ("apply_self_us.base_ins", "us", "lower"),
            ("apply_self_us.base_del", "us", "lower"),
            ("apply_self_us.derived_ins", "us", "lower"),
            ("apply_self_us.derived_del", "us", "lower"),
            ("ncs_created", "count", "lower"),
            ("ncs_live_end", "count", "lower"),
            ("nulls_issued", "count", "lower"),
            ("ambiguous_facts_end", "count", "lower")),
    *_layer("fdb.evaluate",
            "point_read_p50_ms, scan_p50_ms, ops_per_s on "
            "derived_read_mem; derived_ins_p50_ms on "
            "derived_update_mem; nothing on durable_small_*",
            ("truth_of_us", "us", "lower"),
            ("extension_ms", "ms", "lower"),
            ("chains_per_truth_of", "ratio", "lower"),
            ("chains_per_extension_row", "ratio", "lower"),
            ("in_update_us", "us", "lower"),
            ("in_update_share", "ratio", "lower")),
    *_layer("fdb.persistence",
            "recover_s on durable_small_1c (replay-bound) and "
            "durable_large_1c (snapshot-load-bound)",
            ("checkpoint_s", "s", "lower"),
            ("snapshot_bytes_per_fact", "bytes", "lower"),
            ("recover_records", "count", "lower"),
            ("recover_us_per_record", "us", "lower")),
    *_layer("replication",
            "base_write_p50_ms, base_write_p95_ms, ops_per_s on "
            "replicated_quorum_1c only",
            ("on_commit_us", "us", "lower"),
            ("ship_us", "us", "lower"),
            ("replica_handle_us", "us", "lower"),
            ("ships_per_commit", "ratio", "lower"),
            ("acks_per_commit", "ratio", "higher"),
            ("wire_bytes_per_commit", "bytes", "lower"),
            ("commit_growth", "ratio", "lower"),
            ("end_lag_seq", "count", "lower"),
            ("ack_timeouts", "count", "lower")),
    *_layer("obs",
            "ops_per_s on durable_small_1c; prices repro.obs itself",
            ("metrics_overhead_share", "ratio", "lower"),
            ("tracing_overhead_share", "ratio", "lower")),
    *_layer("bench",
            "nothing: the benchmark's own overhead, gap and noise",
            ("trace_overhead_share", "ratio", "lower"),
            ("unattributed_share", "ratio", "lower"),
            ("round_spread", "ratio", "lower"),
            ("machine_slowdown", "ratio", "lower")),
)


def contract_per_layer() -> list[dict]:
    """``BENCHMARK.json``'s ``per_layer`` list: the layer metrics plus
    the class-specific end-to-end ones under ``e2e.``."""
    rows = [{"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER]
    rows += [{"name": f"e2e.{m.name}", "unit": m.unit, "better": m.better}
             for m in END_TO_END if m.name not in UNIVERSAL]
    return rows


# -- the percentile rule ----------------------------------------------------

MIN_BEYOND = 10


def percentile(samples: list[float], q: float) -> float | None:
    """The ``q``-quantile (nearest rank), or None unless at least
    ``MIN_BEYOND`` samples lie beyond it on the thinner side — a p95
    needs 200 samples, a median 20."""
    n = len(samples)
    if n * min(q, 1 - q) < MIN_BEYOND:
        return None
    ordered = sorted(samples)
    return ordered[min(n - 1, int(q * n))]


def decile_growth(series: list[float]) -> float | None:
    """Median of the last tenth over median of the first tenth of a
    per-commit series; > 1 means the cost grows with log length."""
    tenth = len(series) // 10
    if tenth < 5:
        return None
    first = statistics.median(series[:tenth])
    return statistics.median(series[-tenth:]) / first if first else None


# -- comparing two summaries ------------------------------------------------


def verdict(metric: EndToEnd, before: dict, after: dict) -> str:
    """ok | improved | regressed | unresolved for one metric on one
    workload. ``before`` / ``after`` are ``{"value", "rounds"}`` as the
    summary JSON records them."""
    a, b = before["value"], after["value"]
    if a is None or b is None:
        return "unresolved"
    sign = 1 if metric.better == "lower" else -1
    worse_by = sign * (b - a)
    allowed = max(metric.bound * abs(a), metric.floor)
    if abs(worse_by) <= allowed:
        return "ok"
    spread = max(_round_spread(before), _round_spread(after))
    if spread > allowed:
        # Noisier than the bound: only a clean separation of every
        # round counts.
        ra, rb = before.get("rounds") or [a], after.get("rounds") or [b]
        if _all_worse(rb, ra, metric.better):
            return "regressed"
        if _all_worse(ra, rb, metric.better):
            return "improved"
        return "unresolved"
    return "regressed" if worse_by > 0 else "improved"


def _all_worse(these: list, those: list, better: str) -> bool:
    """Every value of ``these`` is worse than every value of ``those``."""
    these = [v for v in these if v is not None]
    those = [v for v in those if v is not None]
    if not these or not those:
        return False
    if better == "lower":
        return min(these) > max(those)
    return max(these) < min(those)


def _round_spread(entry: dict) -> float:
    rounds = [r for r in entry.get("rounds") or () if r is not None]
    return max(rounds) - min(rounds) if len(rounds) > 1 else 0.0


def compare(before: dict, after: dict) -> list[tuple[str, str, str]]:
    """(workload, metric, verdict) for every pairing both summaries
    report."""
    rows = []
    for name in ALL:
        wa = before["workloads"].get(name, {}).get("end_to_end", {})
        wb = after["workloads"].get(name, {}).get("end_to_end", {})
        for metric in END_TO_END:
            if metric.name in wa and metric.name in wb:
                rows.append((name, metric.name,
                             verdict(metric, wa[metric.name],
                                     wb[metric.name])))
    return rows
