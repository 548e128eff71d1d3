"""Lockstep wrapper state: majority voting and the redundancy registers.

In lockstep mode the three cores' outgoing request bundles are voted as
one unit per cycle; the winning bundle drives memory and the response
is broadcast to all three cores, so a deviating core is contained the
moment it deviates.  A mismatch bumps the minority core's counter and
(when idle) requests the resynchronization flow, which is executed by
the boot-ROM handler: the voted architectural state is pushed onto the
stack, the wrapper resets all three cores, and the boot stub reloads
the saved state before resuming.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass

MODE_LOCKSTEP = 0
MODE_PERFORMANCE = 1

RESYNC_IDLE = 0
RESYNC_REQUESTED = 1
RESYNC_IN_PROGRESS = 2
RESYNC_DONE = 3

# register offsets within the ODRG page
REG_MODE = 0x00
REG_RESYNC_STATE = 0x04
REG_MISMATCH0 = 0x08
REG_MISMATCH1 = 0x0C
REG_MISMATCH2 = 0x10
REG_RESYNC_TRIGGER = 0x14
REG_RESYNC_DONE = 0x18
REG_SAVED_SP = 0x1C
REG_ERROR_SELECT = 0x20
REG_ERROR_OUTPUT = 0x24
REG_RESYNC_EVENTS = 0x28
REG_MSIP0 = 0x2C
REG_MSIP1 = 0x30
REG_MSIP2 = 0x34

# back-to-back resync requests with no healthy gap between them mean the
# recovery flow itself is failing
RESYNC_STREAK_LIMIT = 3
RESYNC_HEALTHY_GAP = 64

ALL_DIFFER = "all_differ"


@dataclass(frozen=True)
class VoteResult:
    value: object
    disagreeing: object  # None | 0 | 1 | 2 | "all_differ"


def vote(a, b, c) -> VoteResult:
    """Majority vote of three same-cycle signal bundles."""
    if a == b:
        return VoteResult(a, None if c == a else 2)
    if a == c:
        return VoteResult(a, 1)
    if b == c:
        return VoteResult(b, 0)
    return VoteResult(None, ALL_DIFFER)


# The register block's state: every field and its reset value, in
# ``snapshot`` order.  The slots, construction (which then sets ``mode``),
# ``snapshot`` and ``restore`` derive from this table, copying each value
# with ``copy``.
ODRG_STATE = {
    "mode": MODE_LOCKSTEP, "pending_mode": None, "mismatch_count": [0, 0, 0],
    "resync_state": RESYNC_IDLE, "resync_events": 0, "saved_sp": 0,
    "error_select": 0, "msip": [0, 0, 0], "resync_streak": 0,
    "last_done_cycle": -(10 ** 9),
}


class OdrgUnit:
    """Mode/resync/mismatch register block."""

    __slots__ = tuple(ODRG_STATE)

    def __init__(self, mode: int = MODE_LOCKSTEP):
        self.restore(ODRG_STATE.values())
        self.mode = mode

    # Reads have no side effects; writes with side effects beyond this
    # register block (reset pulse, msip lines) are routed through soc.

    def read(self, off: int, soc) -> int | None:
        if off == REG_MODE:
            return self.mode
        if off == REG_RESYNC_STATE:
            return self.resync_state
        if off in (REG_MISMATCH0, REG_MISMATCH1, REG_MISMATCH2):
            return self.mismatch_count[(off - REG_MISMATCH0) >> 2]
        if off == REG_SAVED_SP:
            return self.saved_sp
        if off == REG_ERROR_SELECT:
            return self.error_select
        if off == REG_ERROR_OUTPUT:
            return self._selected_output(soc)
        if off == REG_RESYNC_EVENTS:
            return self.resync_events
        if off in (REG_MSIP0, REG_MSIP1, REG_MSIP2):
            return self.msip[(off - REG_MSIP0) >> 2]
        if off == REG_RESYNC_TRIGGER or off == REG_RESYNC_DONE:
            return 0
        return None

    def _selected_output(self, soc) -> int:
        sel = self.error_select
        if sel in (0, 1, 2):
            return self.mismatch_count[sel]
        if sel == 3:
            return self.resync_events
        if sel == 4:
            return sum(b.correctable_count for b in soc.banks.banks)
        if sel == 5:
            return sum(b.uncorrectable_count for b in soc.banks.banks)
        return 0

    def write(self, off: int, value: int, soc) -> bool:
        if off == REG_MODE:
            want = value & 1
            if want != self.mode:
                self.pending_mode = want
            else:
                self.pending_mode = None
            return True
        if off in (REG_MISMATCH0, REG_MISMATCH1, REG_MISMATCH2):
            self.mismatch_count[(off - REG_MISMATCH0) >> 2] = 0
            return True
        if off == REG_RESYNC_TRIGGER:
            soc._resync_reset_pulse()
            return True
        if off == REG_RESYNC_DONE:
            soc._resync_done()
            return True
        if off == REG_SAVED_SP:
            self.saved_sp = value
            return True
        if off == REG_ERROR_SELECT:
            self.error_select = value & 7
            return True
        if off == REG_RESYNC_EVENTS:
            self.resync_events = 0
            return True
        if off in (REG_MSIP0, REG_MSIP1, REG_MSIP2):
            soc._set_msip((off - REG_MSIP0) >> 2, value & 1)
            return True
        return False

    def snapshot(self) -> tuple:
        return tuple(copy(getattr(self, name)) for name in ODRG_STATE)

    def restore(self, snap) -> None:
        for name, value in zip(ODRG_STATE, snap):
            setattr(self, name, copy(value))
