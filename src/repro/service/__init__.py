"""Concurrent service layer over the functional database engine.

See :mod:`repro.service.service` for the architecture (derivation-
cluster locking, global write serialisation, deadlines, retry,
admission control, circuit breaker, drain) and
``docs/ROBUSTNESS.md`` for the operator's view. The chaos soak
harness that validates all of it lives in :mod:`repro.faults.soak`
(``python -m repro.faults --soak``).
"""

from repro.lazy import export_lazily

__all__ = export_lazily(__name__, {
    ".admission": ("AdmissionGate",),
    ".breaker": ("CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"),
    ".locks": ("LockManager", "SHARED", "EXCLUSIVE"),
    ".retry": ("RetryPolicy", "RETRYABLE"),
    ".service": ("DatabaseService", "WRITE_RESOURCE"),
})
