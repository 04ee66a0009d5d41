"""Deterministic fault injection (see :mod:`repro.faults.registry`).

The registry and fault types live here; the crash-matrix driver that
exercises every registered point is :mod:`repro.faults.harness`
(imported explicitly — not re-exported — so that the storage/WAL
modules, which register fault points at import time, never form an
import cycle with the harness that drives them).

Run the full matrix from the command line::

    python -m repro.faults
"""

from repro.lazy import export_lazily

__all__ = export_lazily(__name__, {
    ".registry": (
        "FAULTS", "CrashFault", "ErrorFault", "Fault", "FaultRegistry",
        "LatencyFault", "SimulatedCrash", "TornWrite", "TransientError",
    ),
})
