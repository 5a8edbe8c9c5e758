"""DRAM bank state machine with open- and close-page row-buffer policies.

A bank is either precharged (no row open) or has exactly one open row.
Every access is classified as a row hit, a row miss on a closed bank, or a
row conflict; the classification drives both latency (via
:class:`repro.dram.timing.DramTiming`) and energy (activate/precharge
events, Figs. 10-11 of the paper).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class RowBufferPolicy(enum.Enum):
    """Row-buffer management policy (chosen per design, Section 5.2)."""

    OPEN_PAGE = "open"
    CLOSE_PAGE = "close"


class RowOutcome(enum.Enum):
    """How an access met the bank's row buffer.

    The value is the row code that
    :meth:`repro.dram.controller.MemoryController.device_cycles` and the
    batch kernels key device cycles on.
    """

    HIT = 0
    CLOSED = 1
    CONFLICT = 2


@dataclass(slots=True)
class BankAccess:
    """Result of presenting one access to a bank."""

    outcome: RowOutcome
    activates: int
    precharges: int


class Bank:
    """One DRAM bank: tracks the open row and busy-until time.

    The model is deliberately *state-accurate* rather than cycle-replayed:
    it reproduces row hit/closed/conflict sequences and bank occupancy, the
    two properties the paper's locality arguments rest on, without a full
    command-level replay.

    ``__slots__`` because a controller holds channels x banks instances
    and the hot path reads/writes their fields constantly.
    :meth:`repro.dram.controller.MemoryController.access` calls
    :meth:`access` and :meth:`reserve`; the batch kernels
    (:mod:`repro.vector.kernels`) transcribe both and write the same
    fields.
    """

    __slots__ = ("policy", "_open_row", "busy_until", "activate_count", "precharge_count")

    def __init__(self, policy: RowBufferPolicy = RowBufferPolicy.OPEN_PAGE) -> None:
        self.policy = policy
        self._open_row: Optional[int] = None
        self.busy_until = 0
        self.activate_count = 0
        self.precharge_count = 0

    @property
    def open_row(self) -> Optional[int]:
        """Row currently held in the row buffer, or None if precharged."""
        return self._open_row

    def access(self, row: int) -> BankAccess:
        """Present an access to ``row``; returns outcome and DRAM events.

        Under the close-page policy the row is precharged immediately after
        the access, so every access activates (and later precharges) a row.
        Under open-page the row stays open until a conflicting access.
        """
        if row < 0:
            raise ValueError("row must be non-negative")
        activates = 0
        precharges = 0
        if self._open_row is None:
            outcome = RowOutcome.CLOSED
            activates = 1
        elif self._open_row == row:
            outcome = RowOutcome.HIT
        else:
            outcome = RowOutcome.CONFLICT
            precharges = 1
            activates = 1

        if self.policy is RowBufferPolicy.CLOSE_PAGE:
            if outcome is RowOutcome.HIT:
                # Close-page never leaves a row open; a "hit" can only occur
                # for back-to-back accesses coalesced by the controller.
                pass
            self._open_row = None
            precharges += 1 if outcome is not RowOutcome.CONFLICT else 0
        else:
            self._open_row = row

        self.activate_count += activates
        self.precharge_count += precharges
        return BankAccess(outcome=outcome, activates=activates, precharges=precharges)

    def precharge(self) -> bool:
        """Explicitly close the open row; True if a row was open."""
        if self._open_row is None:
            return False
        self._open_row = None
        self.precharge_count += 1
        return True

    def reserve(self, start: int, duration: int) -> int:
        """Serialise an access of ``duration`` cycles behind earlier ones.

        Returns the cycle at which this access *starts* service: the later
        of ``start`` and the bank's previous busy-until time.  The bank then
        stays busy for ``duration`` cycles.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        begin = max(start, self.busy_until)
        self.busy_until = begin + duration
        return begin

    def reset_stats(self) -> None:
        """Zero event counters (keeps row-buffer state)."""
        self.activate_count = 0
        self.precharge_count = 0
