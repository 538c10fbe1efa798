"""Resilient execution primitives: supervision, deadlines, journaling.

This package is deliberately campaign-agnostic — it moves tasks through
worker processes and durable journals without knowing what a fault or a
report is.  ``repro.fault.campaign`` composes the three pieces:
:class:`SupervisedPool` runs every campaign — in-process or on
crash-tolerant worker processes — and enforces per-task wall-clock
deadlines with :func:`time_limit`; :class:`CampaignJournal` gives
crash-safe checkpoint/resume.
"""

from repro.exec.deadline import DeadlineExceeded, can_enforce, time_limit
from repro.exec.journal import (
    JOURNAL_SCHEMA,
    CampaignJournal,
    JournalError,
    fault_key,
)
from repro.exec.pool import (
    CHAOS_ENV,
    MetaMismatchError,
    PoolError,
    PoolOutcome,
    SupervisedPool,
    TaskPickleError,
)

__all__ = [
    "CHAOS_ENV",
    "JOURNAL_SCHEMA",
    "CampaignJournal",
    "DeadlineExceeded",
    "JournalError",
    "MetaMismatchError",
    "PoolError",
    "PoolOutcome",
    "SupervisedPool",
    "TaskPickleError",
    "can_enforce",
    "fault_key",
    "time_limit",
]
