"""The error type of the deterministic telemetry layer (:mod:`repro.obs`)."""

from __future__ import annotations

__all__ = ["ObsError"]


class ObsError(RuntimeError):
    """Raised on invalid telemetry states (bad metric registrations,
    malformed traces, reconciliation failures)."""
