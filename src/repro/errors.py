"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so a
caller embedding the engine can catch one type. The subclasses mirror the
layers of the system: schema-level errors, function-graph errors, update
errors, and language errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemaError",
    "UnknownFunctionError",
    "UnknownTypeError",
    "DuplicateFunctionError",
    "DerivationError",
    "GraphError",
    "DesignError",
    "UpdateError",
    "ConstraintViolation",
    "NotABaseFunctionError",
    "NotADerivedFunctionError",
    "TransactionError",
    "PersistenceError",
    "StructureError",
    "ParseError",
    "OperationCancelled",
    "DeadlineExceeded",
    "ServiceError",
    "LockTimeout",
    "ServiceOverloaded",
    "ServiceReadOnly",
    "ServiceClosed",
    "CrossShardError",
    "ReplicationError",
    "StalePrimary",
    "LeaseExpired",
    "ReplicationTimeout",
    "StalenessUnserved",
    "ReplicaDiverged",
]


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(ReproError):
    """A schema-level inconsistency (bad definition, bad reference)."""


class UnknownFunctionError(SchemaError):
    """A function name was referenced that is not in the schema."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown function: {name!r}")
        self.name = name


class UnknownTypeError(SchemaError):
    """An object type was referenced that is not in the schema."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown object type: {name!r}")
        self.name = name


class DuplicateFunctionError(SchemaError):
    """Two function definitions share a name."""

    def __init__(self, name: str) -> None:
        super().__init__(f"duplicate function definition: {name!r}")
        self.name = name


class DerivationError(ReproError):
    """A derivation is malformed (steps do not chain, wrong endpoints...)."""


class GraphError(ReproError):
    """A function-graph operation failed (missing edge, bad path...)."""


class DesignError(ReproError):
    """An on-line design session was driven incorrectly."""


class UpdateError(ReproError):
    """An update could not be carried out."""


class ConstraintViolation(UpdateError):
    """An update would violate a declared constraint.

    Carries the constraint description so tools can report it.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)


class NotABaseFunctionError(UpdateError):
    """A base-only operation was attempted on a derived function."""

    def __init__(self, name: str) -> None:
        super().__init__(f"{name!r} is a derived function, not a base function")
        self.name = name


class NotADerivedFunctionError(UpdateError):
    """A derived-only operation was attempted on a base function."""

    def __init__(self, name: str) -> None:
        super().__init__(f"{name!r} is a base function, not a derived function")
        self.name = name


class TransactionError(ReproError):
    """Transaction misuse (nested begin, commit without begin...)."""


class PersistenceError(ReproError):
    """A snapshot could not be written or read back."""


class StructureError(ReproError):
    """The stored structure contradicts itself: an index or the NC/NCL
    pairing disagrees with the facts (see
    :meth:`repro.fdb.database.FunctionalDatabase.structure_fault`)."""


class OperationCancelled(ReproError):
    """An operation observed a cancellation checkpoint and aborted.

    Raised *between* units of work (chains enumerated, log records
    appended), never mid-mutation; inside a transaction or the WAL's
    write-ahead wrapper the abort rolls back cleanly.
    """


class DeadlineExceeded(OperationCancelled):
    """A request ran past its deadline and was cooperatively cancelled."""


class ServiceError(ReproError):
    """A request could not be served by the concurrent service layer."""


class LockTimeout(ServiceError):
    """A lock could not be acquired within the request's timeout.

    Transient by nature — the standard response is backoff and retry
    (see :class:`repro.service.retry.RetryPolicy`).
    """


class ServiceOverloaded(ServiceError):
    """Admission control shed the request (queue full or queue wait
    timed out). The client should back off before resubmitting."""


class ServiceReadOnly(ServiceError):
    """The durable-storage circuit breaker is open: updates are
    rejected fast while reads continue to be served."""


class ServiceClosed(ServiceError):
    """The service is draining or closed and accepts no new requests."""


class CrossShardError(ServiceError):
    """An operation crossed shard-lane boundaries where the sharded
    facade guarantees none (e.g. read-modify-write over clusters owned
    by different shards, or a single-lane read spanning shards).
    Callers should use the facade's scatter-gather or multi-shard
    write paths, which carry weaker guarantees — see
    ``docs/SHARDING.md``."""


class ReplicationError(ServiceError):
    """A replication-layer operation failed (shipping, failover,
    catch-up). Subclasses distinguish the caller-visible cases."""


class StalePrimary(ReplicationError):
    """A deposed primary tried to commit after the group moved on.

    Raised by the epoch fence: the writer's term is below the group's
    current term, so accepting the write would fork the committed
    history (split brain). The write was rejected *before* it could
    reach the write-ahead log.
    """

    def __init__(self, writer_term: int, group_term: int) -> None:
        super().__init__(
            f"stale primary: writer holds term {writer_term}, the "
            f"group is at term {group_term}"
        )
        self.writer_term = writer_term
        self.group_term = group_term


class LeaseExpired(StalePrimary, ServiceReadOnly):
    """The primary's leadership lease lapsed: no quorum of the group
    confirmed it within the validity window, so it self-demoted.

    Raised on the write path *before* any WAL append, like every
    :class:`StalePrimary` — a partitioned primary stops writing on its
    own, which is what makes split-brain structurally impossible. Also
    a :class:`ServiceReadOnly`: to clients the node is read-only until
    a quorum renews the lease (same term, no fence) or a new primary
    is elected (term fence).
    """

    def __init__(self, term: int, age: float,
                 validity: float) -> None:
        ReplicationError.__init__(
            self,
            f"leadership lease expired: term {term} was last "
            f"quorum-confirmed {age:.3f}s ago (validity window "
            f"{validity:.3f}s) — writes refused until a quorum renews "
            f"or a new primary is elected"
        )
        self.writer_term = term
        self.group_term = term
        self.age = age
        self.validity = validity


class ReplicationTimeout(ReplicationError):
    """The commit mode's durability quota (sync(k)/quorum acks) was
    not met within the ack timeout. The update is durable and applied
    on the primary but was *not* acknowledged to the caller — after a
    failover it may legitimately be absent."""


class StalenessUnserved(ReplicationError):
    """No replica satisfied the read's bounded-staleness requirement
    (``max_lag_seq`` / ``max_lag_seconds``)."""


class ReplicaDiverged(ReplicationError):
    """A replica refused a record stream that conflicts with what it
    already applied (term regression or sequence mismatch) — the
    catch-up protocol must re-bootstrap it from a checkpoint."""


class ParseError(ReproError):
    """The surface language could not be parsed.

    Attributes
    ----------
    line, column:
        1-based position of the offending token, when known.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        position = ""
        if line is not None:
            position = f" at line {line}"
            if column is not None:
                position += f", column {column}"
        super().__init__(message + position)
        self.line = line
        self.column = column
