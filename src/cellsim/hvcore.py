"""Hypervisor state machine.

Models deferred activation over a running root OS: enabling hands every
platform resource to the root cell (id 0), and creating a cell subtracts
resources from the root. Ownership is tracked in an exclusive ledger
whose conservation and exclusivity are global invariants. Accesses that
can trap go through handle_access, which implements the trap taxonomy:
direct (no event), emulated (distributor, sensitive instructions), or
violation (fatal to the offending cell).
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import Counter
from enum import Enum
from itertools import chain, repeat, starmap
from operator import add, index, itemgetter
from typing import NamedTuple, Optional

from ._dsl import decode_utf8, iter_directives, parse_number
from ._value import Record, Value
from .cellconfig import (
    CellConfig, Violation, ViolationKind, Workload, WorkloadKind, _describe, validate_against)
from .errors import (
    AlreadyEnabled, BadState, CellsStillExist, ConfigMismatch, ConfigSemanticError,
    ConfigSyntaxError, InvariantViolation, NameCollision, NoSuchCell, NoSuchResource, NotEnabled,
    OutOfRegion, RootCellImmortal, ValidationFailed)
from .machine import (
    DEVICE, U64_MAX, UNIT_KINDS, MachinePlatform, MemRegion, PermFlags)

CellId = int
ROOT_CELL: CellId = 0

# Instructions emulated by the hypervisor, and the simulated time one
# step() turn takes.
SENSITIVE_INSTRUCTIONS = frozenset({"cpuid"})
STEP_NS = 1000
CLOCK_MAX = 2 ** 63 - 1  # ns: the clock is int64, as raise_irqs and Scenario hold it


class CellState(Enum):
    CREATED = "created"
    RUNNING = "running"
    STOPPED = "stopped"
    FAILED = "failed"


class TrapKind(Enum):
    IRQ_REINJECTION = "IrqReinjection"
    DISTRIBUTOR_EMULATION = "DistributorEmulation"
    INSTRUCTION_EMULATION = "InstructionEmulation"
    ACCESS_VIOLATION = "AccessViolation"
    MANAGEMENT = "Management"
    __hash__ = object.__hash__  # see EXIT_SLOT


# Slot of each kind in a cell's exit counters, in TrapKind order. A list
# indexed through this table costs one hash per bump; a Counter keyed by
# (cell, kind) costs two and a tuple. TrapKind hashes by identity, in C, as
# its members are singletons; Enum's own __hash__ is Python code.
EXIT_SLOT = {kind: slot for slot, kind in enumerate(TrapKind)}


_TRAP_KINDS = tuple(TrapKind)  # each kind at its code, its EXIT_SLOT

# The text of each event form, at its form code. An event's detail is its form's
# template filled in with the event's a and b, as many as the template takes: a %s
# takes a cell's name, the str its config holds, and every other conversion an int.
# So an exit stores codes and ints, as Jailhouse keeps its JAILHOUSE_CPU_STAT_*
# exit statistics as counters, and text is built only when an event is read.
# Keys name the forms: a lifecycle operation's, an access kind's value for a
# violation, a sensitive instruction's name for its emulation.
_TEMPLATES = {
    "enable": "enable", "disable": "disable", "create": "create %s", "load": "load %s",
    "start": "start %s", "stop": "stop %s", "destroy": "destroy %s",
    "relaunch": "relaunch %s", "channel": "channel %s-%s", "offset": "offset 0x%x",
    "doorbell": "doorbell ch=%d vector=%d", "pci-cfg": "pci-cfg",
    "spurious": "spurious irq line %d", "MemRead": "MemRead 0x%x width %d",
    "MemWrite": "MemWrite 0x%x width %d", "IoRead": "IoRead 0x%x width %d",
    "IoWrite": "IoWrite 0x%x width %d", "cpuid": "cpuid",
}
EVENT_FORMS = tuple(_TEMPLATES.values())
_FORM = {key: code for code, key in enumerate(_TEMPLATES)}
_ARITY = tuple(template.count("%") for template in EVENT_FORMS)
_NAME_FIELDS = tuple(template.count("%s") for template in EVENT_FORMS)  # a, or a and b


class TrapEvent(NamedTuple):
    """One logged exit: code is its trap kind's EXIT_SLOT, form its EVENT_FORMS
    code, and a and b the values its text takes (0 where it takes none)."""

    time_ns: int
    cell: CellId
    code: int
    form: int
    a: object
    b: object

    @property
    def kind(self) -> TrapKind:
        return _TRAP_KINDS[self.code]

    @property
    def detail(self) -> str:
        return EVENT_FORMS[self.form] % (self.a, self.b)[:_ARITY[self.form]]

    def to_json(self) -> str:
        return json.dumps(
            {"t": self.time_ns, "cell": self.cell,
             "cause": self.kind.value, "detail": self.detail},
            separators=(",", ":"))


class AccessKind(Enum):
    MEM_READ = "MemRead"
    MEM_WRITE = "MemWrite"
    IO_READ = "IoRead"
    IO_WRITE = "IoWrite"
    SENSITIVE_INSTR = "SensitiveInstr"


# Each kind's space, the AccessMap table it is looked up in: None for an instruction.
_SPACE = {AccessKind.MEM_READ: 0, AccessKind.MEM_WRITE: 0,
          AccessKind.IO_READ: 1, AccessKind.IO_WRITE: 1, AccessKind.SENSITIVE_INSTR: None}


class Access(Value):
    """end, space and need, derived once for the trap path, are the first address past the
    access, its kind's _SPACE and the right it needs; they neither compare nor print."""

    __slots__ = ("kind", "addr_or_port", "width", "instr", "end", "space", "need")
    _derived = __slots__[4:]

    def __init__(self, kind, addr_or_port=0, width=4, instr=None):
        if kind.__class__ is not AccessKind:
            raise InvariantViolation("access kind must be an AccessKind, not %r" % (kind,))
        if width not in (1, 2, 4, 8) or not isinstance(width, int):
            raise InvariantViolation("access width must be 1, 2, 4 or 8")
        if not isinstance(addr_or_port, int):
            raise InvariantViolation("address must be an int, not %r" % (addr_or_port,))
        if addr_or_port < 0:
            raise InvariantViolation("address must be non-negative")
        if addr_or_port > U64_MAX:
            raise InvariantViolation("address must fit in 64 bits")
        space = _SPACE[kind]
        if space == 0 and addr_or_port % width:
            raise InvariantViolation(
                "memory access at 0x%x not aligned to width %d" % (addr_or_port, width))
        if kind is _SENSITIVE_INSTR and not instr:
            raise InvariantViolation("sensitive-instruction access needs a name")
        self._freeze(kind, addr_or_port, width, instr,
                     addr_or_port + width, space, _WRITE if kind in _WRITE_KINDS else _READ)


class AccessOutcome(Enum):
    DIRECT = "direct"
    EMULATED = "emulated"
    VIOLATION = "violation"


# Members the trap path reads, as module constants: on Python 3.10 and 3.11
# a class-level lookup such as CellState.RUNNING runs EnumType's __getattr__
# hook, about 125 ns against 10 ns for a global (timeit, Python 3.11.7).
_RUNNING, _FAILED = CellState.RUNNING, CellState.FAILED
_MEM_WRITE, _SENSITIVE_INSTR = AccessKind.MEM_WRITE, AccessKind.SENSITIVE_INSTR
_DIRECT, _EMULATED = AccessOutcome.DIRECT, AccessOutcome.EMULATED
_VIOLATION = AccessOutcome.VIOLATION
# the trap kinds' codes, which _log takes, and the forms the trap path logs
_REINJECT, _EMULATE_DIST, _EMULATE_INSTR, _VIOLATE, _MANAGE = EXIT_SLOT.values()
_OFFSET, _RELAUNCH = _FORM["offset"], _FORM["relaunch"]
_INSTR_FORM = {name: _FORM[name] for name in SENSITIVE_INSTRUCTIONS}

# Rights of an access-map entry, as plain ints (an IntFlag & costs about
# 1.5 us): READ and WRITE match PermFlags' bits.
_READ, _WRITE, _RW, _EMULATE = 1, 2, 3, 4
_WRITE_KINDS = (AccessKind.MEM_WRITE, AccessKind.IO_WRITE)


# One cell's view of memory and of I/O ports, like the stage-2 tables Jailhouse builds per
# cell: at each _SPACE index, sorted, disjoint entries and, apart, their bases for a bisect
# with no key, as Jailhouse keeps a cell's mmio_locations apart from its mmio_handlers.
AccessMap = NamedTuple("AccessMap", [("mem", tuple), ("io", tuple)])


# --- ownership ledger -------------------------------------------------------

# Ledger claims, (lo, hi, owner, flags), and access-map entries, (lo, hi, rights), sort by lo.
_LO, _OWNER = itemgetter(0), itemgetter(2)


class OwnershipLedger:
    """Exclusive owner map over one platform's resources.

    Each holder has a mask of each unit kind, CPU, DEVICE and IRQ, whose bit
    i is the platform's i-th unit of that kind (MachinePlatform.masks); root's
    are the platform's full masks minus the others'. Memory is one
    address-sorted list of claims, (lo, hi, owner, flags) for each RAM range a
    non-root cell holds; root owns the rest of platform RAM, with the region's
    flags. A claim moves whole, between root and one cell.
    """

    def __init__(self, platform: MachinePlatform):
        self._platform = platform
        # per kind, holder -> mask: {ROOT_CELL: full} for each full mask, built in C
        self._masks = tuple(map(dict.fromkeys, [(ROOT_CELL,)] * 3, platform.full_masks))
        self._claims: list[tuple[int, int, CellId, PermFlags]] = []

    def owner_of_unit(self, resource) -> Optional[CellId]:
        """Owner of a CPU, device or IRQ line; None if the platform lacks it."""
        return self.holder_of(*self._platform.locate(resource))

    def holder_of(self, kind: int, bit: int) -> Optional[CellId]:
        """The cell whose mask of the kind has the one-bit mask bit set; None if none has it."""
        for cell, mask in self._masks[kind].items():
            if mask & bit:
                return cell
        return None

    def masks_of(self, cell: CellId) -> list:
        """The cell's CPU, device and IRQ masks."""
        cpus, devices, irqs = self._masks
        return [cpus.get(cell, 0), devices.get(cell, 0), irqs.get(cell, 0)]

    def range_owner(self, lo: int, hi: int, host=None) -> Optional[CellId]:
        """Owner of [lo, hi) if it lies in one claim, or in one platform region where no
        claim is (host: that region's row, if the caller has found it); None otherwise."""
        if lo >= hi:
            raise InvariantViolation("empty range [0x%x, 0x%x)" % (lo, hi))
        claims = self._claims
        index = bisect_right(claims, lo, key=_LO)
        if index:
            _, c_hi, owner, _ = claims[index - 1]
            if lo < c_hi:
                return owner if hi <= c_hi else None
        if index < len(claims) and claims[index][0] < hi:
            return None
        return None if (host or self._platform.host_region(lo, hi)) is None else ROOT_CELL

    def transfer_units(self, cell: CellId, units) -> None:
        """Give a non-root cell root's units in a CPU, a device and an IRQ mask: all or none."""
        if list(map(int.__and__, units, self.masks_of(ROOT_CELL))) != list(units):
            raise InvariantViolation("cpus 0x%x, devices 0x%x, irqs 0x%x: not all root's, or not"
                                     " all on the platform" % tuple(units))
        for masks, mask in zip(self._masks, units):
            masks[ROOT_CELL] &= ~mask
            masks[cell] = masks.get(cell, 0) | mask

    def transfer_range(self, region: tuple, frm: CellId, to: CellId, host=None) -> None:
        """Give a (base, size, flags) region to a cell as one claim, or take that
        whole claim back; host as range_owner takes it."""
        lo, size, flags = region
        hi = lo + size
        claims = self._claims
        index = bisect_left(claims, lo, key=_LO)
        claim = (lo, hi, to if frm == ROOT_CELL else frm, flags)
        # root owns a range only inside platform RAM, and a claim lies inside it
        if frm == ROOT_CELL != to and self.range_owner(lo, hi, host) == ROOT_CELL:
            claims.insert(index, claim)
        elif to == ROOT_CELL and claims[index:index + 1] == [claim]:
            del claims[index]
        elif (host or self._platform.host_region(lo, hi)) is None:
            raise NoSuchResource(
                "[0x%x, 0x%x) not within one platform memory region" % (lo, hi))
        else:
            raise InvariantViolation(
                "cannot move [0x%x, 0x%x) from cell %d to %d: memory moves as one"
                " whole claim between the root cell and another cell" % (lo, hi, frm, to))

    def release_all(self, cell: CellId) -> None:
        """Hand everything the cell owns back to the root cell."""
        for masks in self._masks:
            masks[ROOT_CELL] |= masks.pop(cell, 0)
        self._claims = [claim for claim in self._claims if claim[2] != cell]

    def ram_of(self, cell: CellId):
        """The RAM a cell owns, as (base, size, flags) rows: its claims, or for
        root, each part of platform RAM that no claim covers."""
        if cell != ROOT_CELL:
            yield from ((lo, hi - lo, flags)
                        for lo, hi, owner, flags in self._claims if owner == cell)
            return
        for base, size, flags in self._platform.ram:
            lo, end = base, base + size
            for c_lo, c_hi, _, _ in self._claims:
                if base <= c_lo < end:
                    if lo < c_lo:
                        yield lo, c_lo - lo, flags
                    lo = c_hi
            if lo < end:
                yield lo, end - lo, flags

    def owners(self) -> set:
        """The cells the ledger names: root, which always has masks, and each holder."""
        return set().union(*self._masks, map(_OWNER, self._claims))

    def units_of(self, cell: CellId) -> list:
        """The CPUs, devices and IRQ lines the cell holds, built from its masks."""
        return list(chain.from_iterable(map(self._platform.units, UNIT_KINDS, self.masks_of(cell))))

    def keys_multiset(self) -> Counter:
        """Ledger keys as a multiset: each holder's units, claims and root's share
        of RAM (no claims: the platform's)."""
        keys = Counter(chain.from_iterable(map(self.units_of, self.owners())))
        keys.update(MemRegion(lo, hi - lo, flags) for lo, hi, _, flags in self._claims)
        keys.update(starmap(MemRegion, self.ram_of(ROOT_CELL)))
        return keys

    def audit(self) -> None:
        """Raise unless each kind's masks part the platform's, and the claims
        are ordered, disjoint and in one region's flags."""
        platform = self._platform
        for what, masks, full in zip(("cpu", "device", "irq"), self._masks, platform.full_masks):
            # pairwise disjoint iff their sum carries nowhere: as many bits as the parts
            if (sum(masks.values()) != full
                    or sum(map(int.bit_count, masks.values())) != full.bit_count()):
                held = ", ".join("cell %d: 0x%x" % item for item in masks.items())
                raise InvariantViolation("%s masks (%s) overlap, or their union is not the"
                                         " platform's 0x%x" % (what, held, full))
        prev_hi = 0
        for lo, hi, _, flags in self._claims:
            if lo < prev_hi:
                raise InvariantViolation("claim [0x%x, 0x%x) overlaps the one before" % (lo, hi))
            host = platform.host_region(lo, hi)
            if host is None or flags & ~host[2]:
                raise InvariantViolation(
                    "claim [0x%x, 0x%x) %r is not within one platform region's flags"
                    % (lo, hi, PermFlags(flags)))
            prev_hi = hi


# --- cells ------------------------------------------------------------------

# The cell lifecycle, stated once, as Jailhouse's JAILHOUSE_CELL_* states in
# include/jailhouse/hypercall.h: per operation, the states it acts on, the word
# refusing it on root (None: root's state refuses it) and its BadState text.
_CREATED, _STOPPED = CellState.CREATED, CellState.STOPPED
_NEEDS = "cell %(id)d is %(state)s; %(op)s needs %(needs)s"
_LIFECYCLE = {
    "load": ((_CREATED, _STOPPED), None, _NEEDS),
    "start": ((_CREATED, _STOPPED), None, _NEEDS),
    "stop": ((_RUNNING, _FAILED), "stopped", _NEEDS),
    "destroy": (tuple(CellState), "destroyed", None),
    "relaunch": ((_RUNNING, _STOPPED, _FAILED), "relaunched", "cell %(id)d was never started"),
}
ROOT_STATES = (_RUNNING, _FAILED)  # enable starts root; a violation fails it


class Cell(Record):
    # script, read at create, is parsed into script_ops, which run from 0 at start and relaunch
    __slots__ = ("id", "config", "state", "memory_image", "script", "script_pos", "script_ops")
    _derived = __slots__[6:]

    def __init__(self, id, config, state=CellState.CREATED, memory_image=None, script="",
                 script_pos=0):
        self.id, self.config, self.state, self.memory_image = id, config, state, memory_image or {}
        self.script, self.script_pos = script, script_pos
        self.script_ops = parse_script(script) if script else []

    @property
    def name(self) -> str:
        return self.config.name

    def write_image(self, addr: int, data: bytes) -> None:
        if not data:
            return
        lo, hi = addr, addr + len(data)
        pieces = [(start, chunk) for start, chunk in sorted(self.memory_image.items())
                  if lo <= start + len(chunk) and start <= hi]  # overlapping or adjacent
        merged_lo = min([lo] + [start for start, _ in pieces])
        merged_hi = max([hi] + [start + len(chunk) for start, chunk in pieces])
        buf = bytearray(merged_hi - merged_lo)
        for start, chunk in pieces:
            buf[start - merged_lo:start - merged_lo + len(chunk)] = chunk
            del self.memory_image[start]
        buf[lo - merged_lo:hi - merged_lo] = data
        self.memory_image[merged_lo] = bytes(buf)


# --- workload scripts -------------------------------------------------------

_SCRIPT_ACCESS_OPS = {"read": AccessKind.MEM_READ, "write": AccessKind.MEM_WRITE,
                      "ioread": AccessKind.IO_READ, "iowrite": AccessKind.IO_WRITE}


def parse_script(text: str) -> list[tuple]:
    """Parse a workload script into step ops.

    One directive per line, `#` comments:

        read <hex-addr> <width>      write <hex-addr> <width>
        ioread <hex-port> <width>    iowrite <hex-port> <width>
        instr <name>                 distwrite <hex-offset>
        idle                         repeat
    """
    ops: list[tuple] = []
    for lineno, tokens in iter_directives(text):
        keyword, col = tokens[0]
        if keyword in _SCRIPT_ACCESS_OPS:
            if len(tokens) != 3:
                raise ConfigSyntaxError(lineno, col, "%s needs addr and width" % keyword)
            addr = parse_number(tokens[1], lineno, "address")
            width = parse_number(tokens[2], lineno, "width", 10)
            try:
                ops.append(("access", Access(_SCRIPT_ACCESS_OPS[keyword], addr, width)))
            except InvariantViolation as exc:
                raise ConfigSemanticError(str(exc), lineno)
        elif keyword == "instr":
            if len(tokens) != 2:
                raise ConfigSyntaxError(lineno, col, "instr needs a name")
            ops.append(("access", Access(AccessKind.SENSITIVE_INSTR,
                                         instr=tokens[1][0])))
        elif keyword == "distwrite":
            if len(tokens) != 2:
                raise ConfigSyntaxError(lineno, col, "distwrite needs an offset")
            offset = parse_number(tokens[1], lineno, "offset")
            if offset % 4:
                raise ConfigSemanticError("distwrite offset 0x%x not aligned to 4" % offset, lineno)
            ops.append(("distwrite", offset, lineno))
        elif keyword == "idle":
            ops.append(("idle",))
        elif keyword == "repeat":
            ops.append(("repeat",))
        else:
            raise ConfigSyntaxError(lineno, col, "unknown script op %r" % keyword)
    return ops


def check_script(ops: list[tuple], platform: MachinePlatform) -> None:
    """Resolve each distwrite in ops to its access of the platform's gic-dist
    window; refuse one on a platform without a window, naming its line."""
    window = platform.window
    for at, op in enumerate(ops):
        if op[0] == "distwrite":
            if window is None:
                raise ConfigSemanticError("platform %s has no gic-dist window" % platform.name,
                                          op[2])
            try:  # an offset that carries the window's base past 64 bits
                ops[at] = ("access", Access(_MEM_WRITE, window[1] + op[1], 4))
            except InvariantViolation as exc:
                raise ConfigSemanticError(str(exc), op[2])


def read_script(workload: Workload) -> str:
    """The text of a script workload's file; empty for any other workload."""
    if workload.kind is not WorkloadKind.SCRIPT:
        return ""
    with open(workload.script_path, "rb") as handle:
        return decode_utf8(handle.read(), "script file")


# --- hypervisor -------------------------------------------------------------

class Hypervisor:
    """Single-owner mutable hypervisor state.

    Construct disabled, then call enable() with a root config; or use the
    module-level enable() which does both. All mutating operations append
    Management events so hypercall traffic can be audited. Cell and
    channel ids are not reused, even across disable and enable or a
    snapshot, so an id in the event log or the exit counters names one
    cell, and a doorbell event's channel id one channel. The trap path logs
    plain tuples, (time_ns, cell, code, form, a, b) per exit in _events and
    (t, ch, a_to_b, vector, len, latency_us) per doorbell in _trace; events
    and channel_trace build a fresh list of TrapEvents and dicts at each read.
    """

    def __init__(self, platform: MachinePlatform, seed: int = 0):
        if not isinstance(seed, int):
            raise InvariantViolation("seed must be an int, not %r" % (seed,))
        if not 0 <= seed <= U64_MAX:
            raise InvariantViolation("seed %d outside [0, 2^64)" % seed)
        self.platform = platform
        self.cells: dict[CellId, Cell] = {}
        self.ledger: Optional[OwnershipLedger] = None  # None while disabled
        self._events: list[tuple] = []
        # Per-cell exit counters, like Jailhouse's per-CPU
        # JAILHOUSE_CPU_STAT_VMEXITS_* statistics: cell id -> one count per
        # TrapKind, in EXIT_SLOT order. Kept for every cell that ever
        # exited, as the event log is.
        self.exits: dict[CellId, list[int]] = {}
        self.clock: int = 0
        self.seed = seed
        self.channels: dict = {}
        self._trace: list[tuple] = []
        self._next_cell_id: CellId = 1
        self._next_channel_id: int = 0
        # Per-cell access maps, each built at the cell's first trap and
        # dropped whenever ownership or channels change.
        self._access_maps: dict[CellId, AccessMap] = {}
        # Doorbell latencies (irq.DoorbellLatencies), made by the first ring.
        # Assigned here, not by a cached_property: a new instance attribute
        # after __init__ makes every attribute read on this object slower.
        self._doorbell_streams = None

    # -- plumbing

    @property
    def events(self) -> list[TrapEvent]:
        return list(map(TrapEvent._make, self._events))

    @property
    def channel_trace(self) -> list[dict]:
        return [{"t": t, "ch": ch, "dir": "a->b" if a_to_b else "b->a", "vector": vector,
                 "len": n, "latency_us": latency}
                for t, ch, a_to_b, vector, n, latency in self._trace]

    @property
    def enabled(self) -> bool:
        return self.ledger is not None

    def _require_enabled(self) -> None:
        if not self.enabled:
            raise NotEnabled("hypervisor is disabled")

    def _log(self, code: int, cell: CellId, form: int, a=0, b=0,
             time_ns: Optional[int] = None) -> None:
        """Log an exit of the trap kind whose EXIT_SLOT is code, in a form of
        EVENT_FORMS with the values its text takes, and count it."""
        self._events.append((self.clock if time_ns is None else time_ns, cell, code, form, a, b))
        counters = self.exits.get(cell) or self.exits.setdefault(cell, [0] * len(EXIT_SLOT))
        counters[code] += 1

    def _count(self, code: int, cell: CellId, n: int = 1) -> None:
        """Add n exits of the trap kind whose EXIT_SLOT is code to a cell's counters."""
        self.exits.setdefault(cell, [0] * len(EXIT_SLOT))[code] += n

    def _cell(self, cell_id: CellId) -> Cell:
        if not isinstance(cell_id, int):  # 1.0 would find cell 1, and be logged as 1.0
            raise InvariantViolation("cell id must be an int, not %r" % (cell_id,))
        cell = self.cells.get(cell_id)
        if cell is None:
            self._require_enabled()  # a disabled hypervisor has no cells
            raise NoSuchCell("no cell with id %d" % cell_id)
        return cell

    def _running(self, cell_id: CellId) -> Cell:
        cell = self._cell(cell_id)
        if cell.state is not _RUNNING:
            raise BadState("cell %d is %s, not running" % (cell_id, cell.state.value))
        return cell

    def _cell_for(self, op: str, cell_id: CellId) -> Cell:
        """The cell, if the lifecycle table lets op act on it; else its refusal."""
        cell = self._cell(cell_id)
        states, root_word, text = _LIFECYCLE[op]
        if root_word and cell_id == ROOT_CELL:
            raise RootCellImmortal("the root cell cannot be %s" % root_word)
        if cell.state not in states:
            raise BadState(text % {"id": cell_id, "state": cell.state.value, "op": op,
                                   "needs": " or ".join(state.value for state in states)})
        return cell

    def find_cell(self, name: str) -> Cell:
        for cell in self.cells.values():
            if cell.config.name == name:
                return cell
        raise NoSuchCell("no cell named %r" % name)

    def export_events(self) -> str:
        """Event log as JSON lines, one object per trap."""
        return "".join(event.to_json() + "\n" for event in map(TrapEvent._make, self._events))

    # -- lifecycle operations

    def enable(self, root_cfg: CellConfig) -> "Hypervisor":
        if self.enabled:
            raise AlreadyEnabled("hypervisor already enabled")
        try:
            self._claim(ROOT_CELL, root_cfg)
        except ValidationFailed as exc:
            raise ConfigMismatch("root config does not fit the platform: %s" % exc)
        self.ledger = OwnershipLedger(self.platform)
        root = Cell(ROOT_CELL, root_cfg, _RUNNING)
        self.cells = {ROOT_CELL: root}
        self._log(_MANAGE, ROOT_CELL, _FORM["enable"])
        return self

    def create_cell(self, cfg: CellConfig) -> CellId:
        self._require_enabled()
        for cell in self.cells.values():
            if cell.config.name == cfg.name:
                raise NameCollision("cell named %r already exists" % cfg.name)
        # The script is read once, before anything is claimed, as `jailhouse
        # cell load` copies an image in: later edits of the file change nothing.
        cell = Cell(self._next_cell_id, cfg, script=read_script(cfg.workload))
        check_script(cell.script_ops, self.platform)
        self._claim(cell.id, cfg)
        self._next_cell_id += 1
        self.cells[cell.id] = cell
        self._log(_MANAGE, cell.id, _FORM["create"], cfg.name)
        return cell.id

    def _claim(self, cell_id: CellId, cfg: CellConfig) -> None:
        """Move cfg's resources from root to cell_id; on any violation, move
        none. Root's config need only fit the platform. A channel window
        carved from root's share stays root's while its channel lives."""
        hosts = []  # each region's platform RAM row, found once for the checks and the moves
        violations = validate_against(
            cfg, self.platform, None if cell_id == ROOT_CELL else self.ledger, hosts)
        if self.channels:
            violations += [
                Violation(ViolationKind.NOT_OWNED_BY_ROOT, MemRegion(*row),
                          "holds the window of channel %d" % ch.id)
                for row in cfg.regions for ch in self.channels.values() if ch.cell_a == ROOT_CELL
                and row[0] < ch.region.end and ch.region.base < row[0] + row[1]]
        if violations:
            raise ValidationFailed(violations)
        self._access_maps.clear()
        if cell_id == ROOT_CELL:
            return  # root keeps what it has, so its own config need only fit
        self.ledger.transfer_units(cell_id, cfg.masks(self.platform))  # the masks just validated
        for row, host in zip(cfg.regions, hosts):
            self.ledger.transfer_range(row, ROOT_CELL, cell_id, host)

    def load_image(self, cell_id: CellId, addr: int, data: bytes) -> None:
        cell = self._cell_for("load", cell_id)
        if not isinstance(addr, int):
            raise InvariantViolation("image address must be an int, not %r" % (addr,))
        if not isinstance(data, (bytes, bytearray)):
            raise InvariantViolation("image data must be bytes, not %s" % type(data).__name__)
        end = addr + len(data)
        if not any(base <= addr and end <= base + size for base, size, _ in cell.config.regions):
            raise OutOfRegion("[0x%x, 0x%x) not within one region owned by cell %d"
                              % (addr, end, cell_id))
        cell.write_image(addr, data)
        self._log(_MANAGE, cell.id, _FORM["load"], cell.name)

    def start_cell(self, cell_id: CellId) -> None:
        cell = self._cell_for("start", cell_id)
        cell.script_pos = 0
        cell.state = _RUNNING
        self._log(_MANAGE, cell.id, _FORM["start"], cell.name)

    def stop_cell(self, cell_id: CellId) -> None:
        cell = self._cell_for("stop", cell_id)
        cell.state = _STOPPED
        self._log(_MANAGE, cell.id, _FORM["stop"], cell.name)

    def destroy_cell(self, cell_id: CellId) -> None:
        cell = self._cell_for("destroy", cell_id)
        self.channels = {ch_id: ch for ch_id, ch in self.channels.items()
                         if cell_id not in ch.endpoints()}
        self.ledger.release_all(cell_id)
        self._access_maps.clear()
        del self.cells[cell_id]
        self._log(_MANAGE, cell.id, _FORM["destroy"], cell.name)

    def relaunch_cell(self, cell_id: CellId) -> None:
        cell = self.cells.get(cell_id)
        if cell is None or cell_id == ROOT_CELL or cell.state is _CREATED:  # as _LIFECYCLE says
            self._cell_for("relaunch", cell_id)  # raises
        cell.memory_image = {}
        cell.script_pos = 0
        cell.state = _RUNNING
        self._log(_MANAGE, cell.id, _RELAUNCH, cell.config.name)

    def disable(self) -> None:
        self._require_enabled()
        others = [c for c in self.cells if c != ROOT_CELL]
        if others:
            raise CellsStillExist("cells still exist: %s" % sorted(others))
        self._log(_MANAGE, ROOT_CELL, _FORM["disable"])
        self.cells = {}
        self.ledger = None
        self.channels = {}
        self._access_maps.clear()

    def check_root(self) -> None:
        """Raise unless there is a root cell, running or failed."""
        root = self.cells.get(ROOT_CELL)
        if root is None or root.state not in ROOT_STATES:
            raise InvariantViolation("root cell is %s, not running or failed"
                                     % (root.state.value if root else "missing"))

    def audit(self) -> None:
        """Check the root cell, id order, conservation, exclusivity and owner liveness, that
        the ledger's claims are the non-root cells' configured regions, that
        each channel window lies in its cell_a's memory and overlaps no
        other, and that every cached access map is what the ledger now gives."""
        self._require_enabled()
        self.check_root()
        self.ledger.audit()
        if list(self.cells) != sorted(self.cells):
            raise InvariantViolation("cells %s are not in id order" % list(self.cells))
        live = set(self.cells)
        stray = self.ledger.owners() - live
        if stray:
            raise InvariantViolation("resources owned by dead cells %s" % sorted(stray))
        configured, ledger, platform = set(), self.ledger, self.platform
        for cell_id, cell in self.cells.items():
            if cell_id == ROOT_CELL:
                continue
            # exactly its config's units, asked of masks computed anew, not of cfg.masks;
            # a bit for each id, none missing; units are built only to name a failure
            cfg, held = cell.config, ledger.masks_of(cell_id)
            rows = cfg.mmio + cfg.pci + cfg.ports
            if (list(platform.masks(cfg.cpus, rows, cfg.irqs)) != held or sum(map(
                    int.bit_count, held)) != len(cfg.cpus) + len(rows) + len(cfg.irqs)):
                units = cfg.units()
                lost = [unit for unit in units if ledger.owner_of_unit(unit) != cell_id]
                extra = [unit for unit in ledger.units_of(cell_id) if unit not in units]
                what = "lost" if lost else "holds unconfigured"
                raise InvariantViolation(
                    "cell %d %s %s" % (cell_id, what, _describe((lost or extra)[0])))
            bases, sizes, flags = zip(*cfg.regions)  # its claims, (lo, hi, owner, flags)
            configured.update(zip(bases, map(add, bases, sizes), repeat(cell_id), flags))
        claims = set(ledger._claims)
        if claims != configured:
            lost = configured - claims
            lo, hi, cell_id, flags = min(lost or claims - configured)
            raise InvariantViolation("cell %d %s mem [0x%x, 0x%x) %r" % (
                cell_id, "lost" if lost else "holds unconfigured", lo, hi, PermFlags(flags)))
        windows = sorted(self.channels.values(), key=lambda ch: ch.region.base)
        for prev, ch in zip([None] + windows, windows):
            if (self.ledger.range_owner(ch.region.base, ch.region.end) != ch.cell_a
                    or prev is not None and ch.region.base < prev.region.end):
                raise InvariantViolation("channel %d window %r is not cell %d's memory,"
                                         " or overlaps another" % (ch.id, ch.region, ch.cell_a))
        for cell_id, access_map in self._access_maps.items():
            if not (all(lo < hi <= next_lo for table, _ in access_map
                        for (lo, hi, _), (next_lo, _, _) in zip(table, table[1:]))
                    and cell_id in self.cells and access_map == self._build_access_map(cell_id)):
                raise InvariantViolation("cell %d access map is not sorted and disjoint, or"
                                         " not what the ledger, channels and platform give"
                                         % cell_id)

    # -- trap engine

    def handle_access(self, cell_id: CellId, access: Access) -> AccessOutcome:
        cell = self.cells.get(cell_id)
        if cell is None or cell.state is not _RUNNING:
            self._running(cell_id)  # raises
        space = access.space
        if space is None:  # a sensitive instruction
            form = _INSTR_FORM.get(access.instr)
            if form is not None:
                self._log(_EMULATE_INSTR, cell.id, form)
                return _EMULATED
            return _DIRECT

        access_map = self._access_maps.get(cell_id)
        if access_map is None:
            access_map = self._access_maps[cell.id] = self._build_access_map(cell.id)
        table, bases = access_map[space]
        lo = access.addr_or_port
        index = bisect_right(bases, lo)
        if index:
            e_lo, e_hi, rights = table[index - 1]
            if access.end <= e_hi:
                if rights & access.need:
                    return _DIRECT
                if rights & _EMULATE:
                    self._log(_EMULATE_DIST, cell.id, _OFFSET, lo - e_lo)
                    return _EMULATED
        return self._violate(cell, access)

    def _build_access_map(self, cell_id: CellId) -> AccessMap:
        """The trap rule: the distributor window is emulated; the cell's own
        RAM has its claim's flags (root: its share of RAM, with the region's);
        the window of a channel whose peer it is, an I/O port range or an
        MMIO device other than the distributor it owns is read-write. The
        entries are disjoint: RAM claims are exclusive, each channel window
        is carved from its cell_a's RAM, and the platform refuses overlapping
        RAM and MMIO devices and overlapping port ranges."""
        ledger, platform = self.ledger, self.platform
        window = platform.window
        mem = [] if window is None else [(window[1], window[1] + window[2], _EMULATE)]
        mem += [(base, base + size, flags & _RW) for base, size, flags in ledger.ram_of(cell_id)]
        mem += [(ch.region.base, ch.region.end, _RW)
                for ch in self.channels.values() if ch.cell_b == cell_id]
        owned, io = ledger.masks_of(cell_id)[DEVICE], []
        first_port = len(platform.mmio) + len(platform.pci)
        for bit, row in enumerate(platform.devices):  # the MMIO, PCI and port range rows
            if owned >> bit & 1 and row is not window:
                if bit < len(platform.mmio):
                    mem.append((row[1], row[1] + row[2], _RW))
                elif bit >= first_port:
                    io.append((row[0], row[0] + row[1], _RW))
        tables = sorted(mem, key=_LO), sorted(io, key=_LO)
        return AccessMap(*[(table, list(map(_LO, table))) for table in tables])

    def _violate(self, cell: Cell, access: Access) -> AccessOutcome:
        # handle_access violates only memory and I/O accesses, whose forms their kinds' values
        # key; _value_ skips Enum's Python getter
        self._log(_VIOLATE, cell.id, _FORM[access.kind._value_], access.addr_or_port,
                  access.width)
        cell.state = _FAILED
        return _VIOLATION

    # -- turn-based guest stepping

    def step(self, n: int = 1) -> int:
        """Run every running non-root cell's workload for n turns of STEP_NS.

        Returns the number of accesses issued. Only a script cell's accesses
        go through handle_access. Any other guest touches its own RAM once
        a turn, which the MMU answers without an exit, so step counts it.
        """
        if self.ledger is None:
            self._require_enabled()  # raises
        if not isinstance(n, int):
            raise InvariantViolation("step count must be an int, not %r" % (n,))
        n = max(index(n), 0)
        if self.clock + n * STEP_NS > CLOCK_MAX:
            raise InvariantViolation("step(%d) would carry the clock past 2^63 - 1 ns" % n)
        touches, scripts = 0, []
        for cell in self.cells.values():  # one pass, in id order
            if cell.state is _RUNNING and cell.id != ROOT_CELL:
                touches += cell.config.touches  # 0 for a script cell
                if cell.script_ops:  # only a script cell has ops
                    scripts.append(cell)
        # DIRECT without asking handle_access: audit checks that each
        # non-root cell's claims equal its configured regions with their flags.
        issued = n * touches
        if not scripts:
            self.clock += n * STEP_NS
            return issued
        for _ in range(n):
            self.clock += STEP_NS
            for cell in scripts:  # its next op; a violation stops it from the next turn
                ops, pos = cell.script_ops, cell.script_pos
                if cell.state is not _RUNNING or pos >= len(ops):
                    continue
                op = ops[pos]
                cell.script_pos = pos + 1
                if op[0] == "repeat":
                    op = ops[0]
                    cell.script_pos = 1 if op[0] != "repeat" else 0
                if op[0] == "access":  # not idle, nor a script of repeat alone
                    issued += 1
                    self.handle_access(cell.id, op[1])  # check_script resolved each distwrite
        return issued


def enable(platform: MachinePlatform, root_cfg: CellConfig,
           seed: int = 0) -> Hypervisor:
    """Activate a hypervisor under an already-running root configuration."""
    return Hypervisor(platform, seed=seed).enable(root_cfg)
