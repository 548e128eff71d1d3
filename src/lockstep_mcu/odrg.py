"""Lockstep wrapper state: majority voting and the redundancy registers.

In lockstep mode the three cores' outgoing request bundles are voted as
one unit per cycle; the winning bundle drives memory and the response
is broadcast to all three cores, so a deviating core is contained the
moment it deviates.  A mismatch bumps the minority core's counter and
(when idle) requests the resynchronization flow, which is executed by
the boot-ROM handler: the voted architectural state is pushed onto the
stack, the wrapper resets all three cores, and the boot stub reloads
the saved state before resuming.  The wrapper's registers are the
``ODRG_REGS`` page of the device register table.
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

M32 = 0xFFFFFFFF

# The device register table, one dict per page: offset -> (name, field,
# mask, shift, read, write, ecc), each row written by ``reg``.
#   field  the state the register shows: a dotted path from the ``Soc``,
#          whose number parts index a list (None for none);
#   read   what a word load returns: the field's ``mask`` bits from bit
#          ``shift`` (None), a constant, or what the ``Soc`` method
#          named by a (name, *args) tuple returns;
#   write  what a word store does: nothing (None), store its ``mask``
#          bits into the field at bit ``shift`` (STORE), clear the
#          field (CLEAR), or pass its ``mask`` bits to the ``Soc``
#          method named by a (name, *args) tuple after the args;
#   ecc    whether an access shows the guest ECC state.
# ``soc`` joins the pages into one address map; each page's ``REG_*``
# names are its registers' offsets.
STORE = "store"
CLEAR = "clear"


def reg(name: str, field: str | None = None, *, mask: int = M32,
        shift: int = 0, read=None, write=None, ecc: bool = False) -> tuple:
    return name, field, mask, shift, read, write, ecc


# The lockstep wrapper's page.  A mode write takes effect at the next
# all-harts-sleeping barrier; the error output shows what the error
# select picks (``soc._ERROR_SOURCES``).
ODRG_REGS = {
    0x00: reg("mode", "odrg.mode", mask=1, write=("_request_mode",)),
    0x04: reg("resync_state", "odrg.resync_state"),
    **{0x08 + 4 * h: reg(f"mismatch{h}", f"odrg.mismatch_count.{h}",
                         write=CLEAR) for h in range(3)},
    0x14: reg("resync_trigger", read=0, write=("_resync_reset_pulse",)),
    0x18: reg("resync_done", read=0, write=("_resync_done",)),
    0x1C: reg("saved_sp", "odrg.saved_sp", write=STORE),
    0x20: reg("error_select", "odrg.error_select", mask=7, write=STORE),
    0x24: reg("error_output", read=("_error_output",)),
    0x28: reg("resync_events", "odrg.resync_events", write=CLEAR),
    **{0x2C + 4 * h: reg(f"msip{h}", f"odrg.msip.{h}", mask=1,
                         write=("_set_msip", h)) for h in range(3)},
}
globals().update({f"REG_{row[0].upper()}": off
                  for off, row in ODRG_REGS.items()})

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

    def snapshot(self) -> tuple:
        return tuple(copy(getattr(self, name)) for name in ODRG_STATE)

    def restore(self, snap) -> None:
        for name, value in zip(ODRG_STATE, snap):
            setattr(self, name, copy(value))
