"""Crossbar ports and per-bank arbitration.

Every initiator owns persistent ``Port`` objects (one instruction, one
data).  A port holds at most one outstanding request; ungranted
requests simply stay pending and retry next cycle, stalling their
initiator.

Grant policy per bank and cycle: voted ports beat core ports beat the
loader beat the scrubber.  Among core ports a per-bank round-robin
pointer rotates across cores on conflicts (no core waits more than
three cycles), and within one core the data port beats the instruction
port (the older operation in the pipeline drains first).
"""

from __future__ import annotations

from operator import attrgetter

from .memory import NUM_BANKS

# request regions
R_SRAM = 0
R_ROM = 1
R_DEV = 2
R_NONE = 3  # unmapped: responds with a bus fault

# response status codes
RS_OK = 0
RS_CORRECTED = 1
RS_UNCORRECTABLE = 2
RS_FAULT = 3

VOTED = -1  # core_idx of the lockstep voted ports


# A port's state: every field and its cleared value, in ``state_tuple``
# order.  The slots, ``clear``, ``state_tuple``, ``load_state`` and
# ``copy_from`` derive from this table; ``want``, ``respond`` and
# ``request_tuple`` are on the per-cycle path and stay written out.
PORT_STATE = {
    "pending": False, "region": R_NONE, "bank": 0, "row": 0, "addr": 0,
    "is_write": False, "wdata": 0, "strobes": 0,
    "has_resp": False, "resp_val": 0, "resp_status": RS_OK,
}
_CLEARED = tuple(PORT_STATE.values())
_port_state = attrgetter(*PORT_STATE)


class Port:
    __slots__ = ("core_idx", "is_data", *PORT_STATE)

    def __init__(self, core_idx: int, is_data: bool):
        self.core_idx = core_idx
        self.is_data = is_data
        self.clear()

    def clear(self) -> None:
        self.load_state(_CLEARED)

    def want(self, region: int, bank: int, row: int, addr: int,
             is_write: bool = False, wdata: int = 0, strobes: int = 0) -> None:
        self.pending = True
        self.region = region
        self.bank = bank
        self.row = row
        self.addr = addr
        self.is_write = is_write
        self.wdata = wdata
        self.strobes = strobes
        self.has_resp = False

    def respond(self, value: int, status: int) -> None:
        self.pending = False
        self.has_resp = True
        self.resp_val = value
        self.resp_status = status

    def take_resp(self) -> tuple[int, int]:
        self.has_resp = False
        return self.resp_val, self.resp_status

    def request_tuple(self):
        """The outgoing signal bundle this cycle (None when idle)."""
        if not self.pending:
            return None
        return (self.region, self.bank, self.row, self.addr, self.is_write,
                self.wdata, self.strobes)

    def state_tuple(self) -> tuple:
        return _port_state(self)

    def load_state(self, t) -> None:
        for name, value in zip(PORT_STATE, t):
            setattr(self, name, value)

    def copy_from(self, other: "Port") -> None:
        self.load_state(other.state_tuple())


class Crossbar:
    """Per-bank round-robin state plus conflict accounting."""

    __slots__ = ("rr", "conflict_stalls")

    def __init__(self):
        self.rr = [0] * NUM_BANKS
        self.conflict_stalls = 0

    def arbitrate(self, contenders: list[Port], bank: int) -> Port:
        """Pick the winner among >= 2 ports wanting one bank."""
        self.conflict_stalls += len(contenders) - 1
        for p in contenders:
            if p.core_idx == VOTED:
                if p.is_data:
                    return p
                for q in contenders:
                    if q.core_idx == VOTED and q.is_data:
                        return q
                return p
        cores = sorted({p.core_idx for p in contenders})
        start = self.rr[bank]
        pick = None
        for step in range(3):
            c = (start + step) % 3
            if c in cores:
                pick = c
                break
        if pick is None:
            pick = cores[0]
        self.rr[bank] = (pick + 1) % 3
        data_port = None
        instr_port = None
        for p in contenders:
            if p.core_idx == pick:
                if p.is_data:
                    data_port = p
                else:
                    instr_port = p
        return data_port if data_port is not None else instr_port

    def snapshot(self) -> tuple:
        return (list(self.rr), self.conflict_stalls)

    def restore(self, snap: tuple) -> None:
        self.rr = list(snap[0])
        self.conflict_stalls = snap[1]
