"""Hypervisor state machine.

Models deferred activation over a running root OS: enabling hands every
platform resource to the root cell (id 0), and creating a cell subtracts
resources from the root. Ownership is tracked in an exclusive ledger
whose conservation and exclusivity are global invariants. Guest activity
funnels through handle_access, which implements the trap taxonomy:
direct (no event), emulated (distributor, sensitive instructions), or
violation (fatal to the offending cell).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from ._dsl import iter_directives, parse_dec, parse_hex
from .cellconfig import CellConfig, WorkloadKind, validate_against
from .errors import (
    AlreadyEnabled,
    BadState,
    CellsStillExist,
    ConfigMismatch,
    ConfigSyntaxError,
    InvariantViolation,
    NameCollision,
    NoSuchCell,
    NoSuchResource,
    NotEnabled,
    OutOfRegion,
    RootCellImmortal,
    ValidationFailed,
)
from .machine import (
    Cpu,
    IoPortRange,
    IrqLine,
    MachinePlatform,
    MemRegion,
    MmioDevice,
    PciDevice,
    PermFlags,
)
from .rng import make_rng

CellId = int
ROOT_CELL: CellId = 0

DEFAULT_SENSITIVE_INSTRUCTIONS = frozenset({"cpuid"})


class HvState(Enum):
    DISABLED = "disabled"
    ENABLED = "enabled"


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


@dataclass(frozen=True)
class TrapEvent:
    time_ns: int
    cell: CellId
    kind: TrapKind
    detail: str

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


_MEM_KINDS = (AccessKind.MEM_READ, AccessKind.MEM_WRITE)
_IO_KINDS = (AccessKind.IO_READ, AccessKind.IO_WRITE)


@dataclass(frozen=True)
class Access:
    kind: AccessKind
    addr_or_port: int = 0
    width: int = 4
    instr: Optional[str] = None

    def __post_init__(self):
        if self.width not in (1, 2, 4, 8):
            raise InvariantViolation("access width must be 1, 2, 4 or 8")
        if self.addr_or_port < 0:
            raise InvariantViolation("address must be non-negative")
        if self.kind in _MEM_KINDS and self.addr_or_port % self.width:
            raise InvariantViolation(
                "memory access at 0x%x not aligned to width %d"
                % (self.addr_or_port, self.width))
        if self.kind is AccessKind.SENSITIVE_INSTR and not self.instr:
            raise InvariantViolation("sensitive-instruction access needs a name")

    def describe(self) -> str:
        if self.kind is AccessKind.SENSITIVE_INSTR:
            return "instr %s" % self.instr
        return "%s 0x%x width %d" % (self.kind.value, self.addr_or_port, self.width)


class AccessOutcome(Enum):
    DIRECT = "direct"
    EMULATED = "emulated"
    VIOLATION = "violation"


# --- ownership ledger -------------------------------------------------------

class OwnershipLedger:
    """Exclusive owner map over one platform's resources.

    Unit resources (CPUs, devices, IRQ lines) map directly to an owner.
    Memory is kept as per-region interval segments so that configs may
    claim sub-ranges of a platform RAM region; segments split on assign
    and coalesce when neighbours share an owner again.
    """

    def __init__(self, platform: MachinePlatform, root: CellId = ROOT_CELL):
        self._platform = platform
        self._units: dict = {}
        self._mem: dict[int, tuple[MemRegion, list[list[int]]]] = {}
        for resource in platform.resources:
            if isinstance(resource, MemRegion):
                self._mem[resource.base] = (
                    resource, [[resource.base, resource.end, root]])
            else:
                self._units[resource] = root

    def owner_of_unit(self, resource) -> Optional[CellId]:
        return self._units.get(resource)

    def _find_region(self, lo: int, hi: int):
        region = self._platform.host_region(lo, hi)
        return None if region is None else self._mem[region.base]

    def range_owner(self, lo: int, hi: int) -> Optional[CellId]:
        """Owner of [lo, hi) if it lies in one region under one owner."""
        if lo >= hi:
            raise InvariantViolation("empty range [0x%x, 0x%x)" % (lo, hi))
        found = self._find_region(lo, hi)
        if found is None:
            return None
        _, segments = found
        owners = {owner for s_lo, s_hi, owner in segments
                  if s_lo < hi and lo < s_hi}
        return owners.pop() if len(owners) == 1 else None

    def transfer_unit(self, resource, frm: CellId, to: CellId) -> None:
        owner = self._units.get(resource)
        if owner is None:
            raise NoSuchResource("%r is not a platform resource" % (resource,))
        if owner != frm:
            raise InvariantViolation(
                "%r owned by cell %d, not %d" % (resource, owner, frm))
        self._units[resource] = to

    def transfer_range(self, lo: int, hi: int, frm: CellId, to: CellId) -> None:
        found = self._find_region(lo, hi)
        if found is None:
            raise NoSuchResource(
                "[0x%x, 0x%x) not within one platform memory region" % (lo, hi))
        _, segments = found
        self._split_at(segments, lo)
        self._split_at(segments, hi)
        for segment in segments:
            if segment[0] >= lo and segment[1] <= hi:
                if segment[2] != frm:
                    raise InvariantViolation(
                        "[0x%x, 0x%x) owned by cell %d, not %d"
                        % (segment[0], segment[1], segment[2], frm))
                segment[2] = to
        self._coalesce(segments)

    @staticmethod
    def _split_at(segments: list[list[int]], point: int) -> None:
        for index, (s_lo, s_hi, owner) in enumerate(segments):
            if s_lo < point < s_hi:
                segments[index] = [s_lo, point, owner]
                segments.insert(index + 1, [point, s_hi, owner])
                return

    @staticmethod
    def _coalesce(segments: list[list[int]]) -> None:
        index = 1
        while index < len(segments):
            prev, cur = segments[index - 1], segments[index]
            if prev[2] == cur[2] and prev[1] == cur[0]:
                prev[1] = cur[1]
                del segments[index]
            else:
                index += 1

    def release_all(self, cell: CellId, to: CellId = ROOT_CELL) -> None:
        for resource, owner in self._units.items():
            if owner == cell:
                self._units[resource] = to
        for _, segments in self._mem.values():
            for segment in segments:
                if segment[2] == cell:
                    segment[2] = to
            self._coalesce(segments)

    def owners(self) -> set:
        result = set(self._units.values())
        for _, segments in self._mem.values():
            result.update(owner for _, _, owner in segments)
        return result

    def keys_multiset(self) -> Counter:
        """Ledger keys as a multiset; whole-region segments compare equal
        to the platform's own MemRegion entries."""
        keys = Counter(self._units.keys())
        for region, segments in self._mem.values():
            for s_lo, s_hi, _ in segments:
                keys[MemRegion(s_lo, s_hi - s_lo, region.flags)] += 1
        return keys

    def audit(self, platform: MachinePlatform) -> None:
        """Raise unless conservation, exclusivity and canonical form hold."""
        unit_resources = {r for r in platform.resources
                          if not isinstance(r, MemRegion)}
        if set(self._units) != unit_resources:
            raise InvariantViolation("unit ledger keys diverge from platform")
        mem_regions = {r.base: r for r in platform.resources
                       if isinstance(r, MemRegion)}
        if set(self._mem) != set(mem_regions):
            raise InvariantViolation("memory ledger regions diverge from platform")
        for base, (region, segments) in self._mem.items():
            if not segments or segments[0][0] != region.base \
                    or segments[-1][1] != region.end:
                raise InvariantViolation("segments do not cover %r" % (region,))
            for (a_lo, a_hi, a_owner), (b_lo, b_hi, b_owner) in \
                    zip(segments, segments[1:]):
                if a_hi != b_lo:
                    raise InvariantViolation("segment gap in %r" % (region,))
                if a_owner == b_owner:
                    raise InvariantViolation("uncoalesced segments in %r" % (region,))
            for s_lo, s_hi, _ in segments:
                if s_lo >= s_hi:
                    raise InvariantViolation("empty segment in %r" % (region,))


# --- cells ------------------------------------------------------------------

@dataclass
class Cell:
    id: CellId
    config: CellConfig
    state: CellState = CellState.CREATED
    memory_image: dict[int, bytes] = field(default_factory=dict)
    dist_emulations: int = 0
    tick: int = 0
    script_ops: list = field(default_factory=list)
    script_pos: int = 0

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def loads_bus(self) -> bool:
        """Running with a stress workload, which contends for the shared bus."""
        return (self.state is CellState.RUNNING
                and self.config.workload.kind is WorkloadKind.STRESS)

    def write_image(self, addr: int, data: bytes) -> None:
        if not data:
            return
        lo, hi = addr, addr + len(data)
        merged_lo, merged_hi = lo, hi
        pieces = []
        for start in sorted(self.memory_image):
            chunk = self.memory_image[start]
            end = start + len(chunk)
            if end < lo or start > hi:
                continue
            pieces.append((start, chunk))
            merged_lo = min(merged_lo, start)
            merged_hi = max(merged_hi, end)
        buf = bytearray(merged_hi - merged_lo)
        for start, chunk in pieces:
            buf[start - merged_lo:start - merged_lo + len(chunk)] = chunk
            del self.memory_image[start]
        buf[lo - merged_lo:hi - merged_lo] = data
        self.memory_image[merged_lo] = bytes(buf)

    def read_image(self, addr: int, length: int) -> bytes:
        buf = bytearray(length)
        for start in sorted(self.memory_image):
            chunk = self.memory_image[start]
            end = start + len(chunk)
            if end <= addr or start >= addr + length:
                continue
            src_lo = max(start, addr)
            src_hi = min(end, addr + length)
            buf[src_lo - addr:src_hi - addr] = chunk[src_lo - start:src_hi - start]
        return bytes(buf)


# --- workload scripts -------------------------------------------------------

_SCRIPT_MEM_OPS = {"read": AccessKind.MEM_READ, "write": AccessKind.MEM_WRITE}
_SCRIPT_IO_OPS = {"ioread": AccessKind.IO_READ, "iowrite": AccessKind.IO_WRITE}


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
        if keyword in _SCRIPT_MEM_OPS or keyword in _SCRIPT_IO_OPS:
            if len(tokens) != 3:
                raise ConfigSyntaxError(lineno, col, "%s needs addr and width" % keyword)
            addr = parse_hex(tokens[1], lineno, "address")
            width = parse_dec(tokens[2], lineno, "width")
            kind = _SCRIPT_MEM_OPS.get(keyword) or _SCRIPT_IO_OPS[keyword]
            ops.append(("access", Access(kind, addr, width)))
        elif keyword == "instr":
            if len(tokens) != 2:
                raise ConfigSyntaxError(lineno, col, "instr needs a name")
            ops.append(("access", Access(AccessKind.SENSITIVE_INSTR,
                                         instr=tokens[1][0])))
        elif keyword == "distwrite":
            if len(tokens) != 2:
                raise ConfigSyntaxError(lineno, col, "distwrite needs an offset")
            ops.append(("distwrite", parse_hex(tokens[1], lineno, "offset")))
        elif keyword == "idle":
            ops.append(("idle",))
        elif keyword == "repeat":
            ops.append(("repeat",))
        else:
            raise ConfigSyntaxError(lineno, col, "unknown script op %r" % keyword)
    return ops


# --- hypervisor -------------------------------------------------------------

class Hypervisor:
    """Single-owner mutable hypervisor state.

    Construct disabled, then call enable() with a root config; or use the
    module-level enable() which does both. All mutating operations append
    Management events so hypercall traffic can be audited.
    """

    def __init__(self, platform: MachinePlatform, seed: int = 0,
                 sensitive_instructions: frozenset = DEFAULT_SENSITIVE_INSTRUCTIONS):
        self.platform = platform
        self.state = HvState.DISABLED
        self.cells: dict[CellId, Cell] = {}
        self.ledger: Optional[OwnershipLedger] = None
        self.events: list[TrapEvent] = []
        self.clock: int = 0
        self.seed = seed
        self.sensitive_instructions = frozenset(sensitive_instructions)
        self.channels: dict = {}
        self.grants: dict[CellId, set[tuple[int, int]]] = {}
        self.pci: dict[CellId, dict] = {}
        self.channel_trace: list[dict] = []
        self._next_cell_id: CellId = 1
        self._next_channel_id: int = 0
        self._next_bdf: dict[CellId, int] = {}
        self._carve_ptr: dict[tuple[CellId, int], int] = {}
        self._doorbell_rng = make_rng(seed, "hv-doorbell")

    # -- plumbing

    @property
    def enabled(self) -> bool:
        return self.state is HvState.ENABLED

    def _require_enabled(self) -> None:
        if not self.enabled:
            raise NotEnabled("hypervisor is disabled")

    def _log(self, kind: TrapKind, cell: CellId, detail: str,
             time_ns: Optional[int] = None) -> TrapEvent:
        when = self.clock if time_ns is None else time_ns
        if self.events and when < self.events[-1].time_ns:
            when = self.events[-1].time_ns  # keep the log time-ordered
        event = TrapEvent(when, cell, kind, detail)
        self.events.append(event)
        return event

    def _cell(self, cell_id: CellId) -> Cell:
        cell = self.cells.get(cell_id)
        if cell is None:
            raise NoSuchCell("no cell with id %d" % cell_id)
        return cell

    def find_cell(self, name: str) -> Cell:
        for cell in self.cells.values():
            if cell.config.name == name:
                return cell
        raise NoSuchCell("no cell named %r" % name)

    def export_events(self) -> str:
        """Event log as JSON lines, one object per trap."""
        return "\n".join(e.to_json() for e in self.events) + ("\n" if self.events else "")

    # -- lifecycle operations

    def enable(self, root_cfg: CellConfig) -> "Hypervisor":
        if self.enabled:
            raise AlreadyEnabled("hypervisor already enabled")
        mismatches = self._existence_mismatches(root_cfg)
        if mismatches:
            raise ConfigMismatch("root config does not fit the platform: "
                                 + "; ".join(mismatches))
        self.ledger = OwnershipLedger(self.platform)
        root = Cell(ROOT_CELL, root_cfg, CellState.RUNNING)
        self.cells = {ROOT_CELL: root}
        self._next_cell_id = 1
        self.state = HvState.ENABLED
        self._log(TrapKind.MANAGEMENT, ROOT_CELL, "enable")
        return self

    def _existence_mismatches(self, cfg: CellConfig) -> list[str]:
        problems = []
        plat = self.platform
        cpu_indices = {c.index for c in plat.cpus}
        for index in sorted(cfg.cpus):
            if index not in cpu_indices:
                problems.append("cpu %d" % index)
        for region in cfg.mem:
            host = plat.host_region(region.base, region.end)
            if host is None:
                problems.append("mem [0x%x, 0x%x)" % (region.base, region.end))
            elif region.flags & ~host.flags:
                problems.append("mem [0x%x, 0x%x) permissions" % (region.base, region.end))
        unit_set = set(plat.resources)
        for dev in cfg.devices:
            if dev not in unit_set:
                problems.append(repr(dev))
        irq_numbers = plat.irq_numbers
        for number in sorted(cfg.irqs):
            if number not in irq_numbers:
                problems.append("irq %d" % number)
        return problems

    def create_cell(self, cfg: CellConfig) -> CellId:
        self._require_enabled()
        for cell in self.cells.values():
            if cell.config.name == cfg.name:
                raise NameCollision("cell named %r already exists" % cfg.name)
        violations = validate_against(cfg, self.platform, self.ledger)
        if violations:
            raise ValidationFailed(violations)
        for index in sorted(cfg.cpus):
            self.ledger.transfer_unit(Cpu(index), ROOT_CELL, self._next_cell_id)
        for region in cfg.mem:
            self.ledger.transfer_range(region.base, region.end,
                                       ROOT_CELL, self._next_cell_id)
        for dev in cfg.devices:
            self.ledger.transfer_unit(dev, ROOT_CELL, self._next_cell_id)
        for number in sorted(cfg.irqs):
            self.ledger.transfer_unit(IrqLine(number), ROOT_CELL, self._next_cell_id)
        cell_id = self._next_cell_id
        self._next_cell_id += 1
        self.cells[cell_id] = Cell(cell_id, cfg)
        self._log(TrapKind.MANAGEMENT, cell_id, "create %s" % cfg.name)
        return cell_id

    def load_image(self, cell_id: CellId, addr: int, data: bytes) -> None:
        self._require_enabled()
        cell = self._cell(cell_id)
        if cell.state not in (CellState.CREATED, CellState.STOPPED):
            raise BadState("cell %d is %s; load needs created or stopped"
                           % (cell_id, cell.state.value))
        end = addr + len(data)
        host = next((r for r in cell.config.mem
                     if r.base <= addr and end <= r.end), None)
        if host is None:
            raise OutOfRegion(
                "[0x%x, 0x%x) not within one region owned by cell %d"
                % (addr, end, cell_id))
        cell.write_image(addr, data)
        self._log(TrapKind.MANAGEMENT, cell_id, "load %s" % cell.name)

    def start_cell(self, cell_id: CellId) -> None:
        self._require_enabled()
        cell = self._cell(cell_id)
        if cell.state not in (CellState.CREATED, CellState.STOPPED):
            raise BadState("cell %d is %s; start needs created or stopped"
                           % (cell_id, cell.state.value))
        self._prepare_workload(cell)
        cell.state = CellState.RUNNING
        self._log(TrapKind.MANAGEMENT, cell_id, "start %s" % cell.name)

    def stop_cell(self, cell_id: CellId) -> None:
        self._require_enabled()
        if cell_id == ROOT_CELL:
            raise RootCellImmortal("the root cell cannot be stopped")
        cell = self._cell(cell_id)
        if cell.state not in (CellState.RUNNING, CellState.FAILED):
            raise BadState("cell %d is %s; stop needs running or failed"
                           % (cell_id, cell.state.value))
        cell.state = CellState.STOPPED
        self._log(TrapKind.MANAGEMENT, cell_id, "stop %s" % cell.name)

    def destroy_cell(self, cell_id: CellId) -> None:
        self._require_enabled()
        if cell_id == ROOT_CELL:
            raise RootCellImmortal("the root cell cannot be destroyed")
        cell = self._cell(cell_id)
        self._drop_channels_of(cell_id)
        self.ledger.release_all(cell_id, ROOT_CELL)
        del self.cells[cell_id]
        self.grants.pop(cell_id, None)
        self.pci.pop(cell_id, None)
        self._next_bdf.pop(cell_id, None)
        self._log(TrapKind.MANAGEMENT, cell_id, "destroy %s" % cell.name)

    def relaunch_cell(self, cell_id: CellId) -> None:
        self._require_enabled()
        if cell_id == ROOT_CELL:
            raise RootCellImmortal("the root cell cannot be relaunched")
        cell = self._cell(cell_id)
        if cell.state is CellState.CREATED:
            raise BadState("cell %d was never started" % cell_id)
        cell.memory_image = {}
        self._prepare_workload(cell)
        cell.state = CellState.RUNNING
        self._log(TrapKind.MANAGEMENT, cell_id, "relaunch %s" % cell.name)

    def disable(self) -> None:
        self._require_enabled()
        others = [c for c in self.cells if c != ROOT_CELL]
        if others:
            raise CellsStillExist("cells still exist: %s" % sorted(others))
        self._log(TrapKind.MANAGEMENT, ROOT_CELL, "disable")
        self.cells = {}
        self.ledger = None
        self.grants = {}
        self.channels = {}
        self.pci = {}
        self._next_bdf = {}
        self._carve_ptr = {}
        self.state = HvState.DISABLED

    def owner_of(self, resource) -> CellId:
        self._require_enabled()
        if isinstance(resource, MemRegion):
            if self.platform.host_region(resource.base, resource.end) is None:
                raise NoSuchResource("%r not within platform memory" % (resource,))
            owner = self.ledger.range_owner(resource.base, resource.end)
            if owner is None:
                raise InvariantViolation("%r spans multiple owners" % (resource,))
            return owner
        owner = self.ledger.owner_of_unit(resource)
        if owner is None:
            raise NoSuchResource("%r is not a platform resource" % (resource,))
        return owner

    def audit(self) -> None:
        """Check conservation, exclusivity, and owner liveness."""
        self._require_enabled()
        self.ledger.audit(self.platform)
        live = set(self.cells)
        stray = self.ledger.owners() - live
        if stray:
            raise InvariantViolation("resources owned by dead cells %s" % sorted(stray))
        for cell_id, cell in self.cells.items():
            if cell_id == ROOT_CELL:
                continue
            cfg = cell.config
            for index in sorted(cfg.cpus):
                if self.ledger.owner_of_unit(Cpu(index)) != cell_id:
                    raise InvariantViolation("cell %d lost cpu %d" % (cell_id, index))
            for region in cfg.mem:
                if self.ledger.range_owner(region.base, region.end) != cell_id:
                    raise InvariantViolation(
                        "cell %d lost mem [0x%x, 0x%x)"
                        % (cell_id, region.base, region.end))

    # -- trap engine

    def handle_access(self, cell_id: CellId, access: Access) -> AccessOutcome:
        self._require_enabled()
        cell = self._cell(cell_id)
        if cell.state is not CellState.RUNNING:
            raise BadState("cell %d is %s, not running" % (cell_id, cell.state.value))

        if access.kind is AccessKind.SENSITIVE_INSTR:
            if access.instr in self.sensitive_instructions:
                self._log(TrapKind.INSTRUCTION_EMULATION, cell_id, access.instr)
                return AccessOutcome.EMULATED
            return AccessOutcome.DIRECT

        lo = access.addr_or_port
        hi = lo + access.width

        if access.kind in _MEM_KINDS:
            window = self.platform.gic_dist_window
            if window is not None and window.base <= lo and hi <= window.end:
                cell.dist_emulations += 1
                self._log(TrapKind.DISTRIBUTOR_EMULATION, cell_id,
                          "offset 0x%x" % (lo - window.base))
                return AccessOutcome.EMULATED
            write = access.kind is AccessKind.MEM_WRITE
            if self._mem_allowed(cell, lo, hi, write):
                return AccessOutcome.DIRECT
            return self._violate(cell, access)

        for port_range in self.platform.io_port_ranges:
            if port_range.base <= lo and hi <= port_range.end:
                if self.ledger.owner_of_unit(port_range) == cell_id:
                    return AccessOutcome.DIRECT
        return self._violate(cell, access)

    def _mem_allowed(self, cell: Cell, lo: int, hi: int, write: bool) -> bool:
        need = PermFlags.WRITE if write else PermFlags.READ
        if cell.id == ROOT_CELL:
            if self.ledger.range_owner(lo, hi) == ROOT_CELL:
                return bool(self.platform.host_region(lo, hi).flags & need)
        else:
            for region in cell.config.mem:
                if region.base <= lo and hi <= region.end:
                    return bool(region.flags & need)
        for g_lo, g_hi in self.grants.get(cell.id, ()):
            if g_lo <= lo and hi <= g_hi:
                return True
        for dev in self.platform.mmio_devices:
            if dev.base <= lo and hi <= dev.end:
                return self.ledger.owner_of_unit(dev) == cell.id
        return False

    def _violate(self, cell: Cell, access: Access) -> AccessOutcome:
        self._log(TrapKind.ACCESS_VIOLATION, cell.id, access.describe())
        cell.state = CellState.FAILED
        return AccessOutcome.VIOLATION

    def _drop_channels_of(self, cell_id: CellId) -> None:
        doomed = [ch_id for ch_id, ch in self.channels.items()
                  if cell_id in (ch.cell_a, ch.cell_b)]
        for ch_id in doomed:
            channel = self.channels.pop(ch_id)
            span = (channel.region.base, channel.region.end)
            for endpoint, bdf in ((channel.cell_a, channel.bdf_a),
                                  (channel.cell_b, channel.bdf_b)):
                self.grants.get(endpoint, set()).discard(span)
                self.pci.get(endpoint, {}).pop(bdf, None)

    # -- turn-based guest stepping

    def step(self, n: int = 1, step_ns: int = 1000) -> int:
        """Run every running non-root cell's workload for n turns.

        Returns the number of accesses issued. With workloads touching
        only owned resources this adds nothing to the event log.
        """
        self._require_enabled()
        issued = 0
        for _ in range(n):
            self.clock += step_ns
            for cell_id in sorted(self.cells):
                cell = self.cells[cell_id]
                if cell_id == ROOT_CELL or cell.state is not CellState.RUNNING:
                    continue
                issued += self._step_cell(cell)
        return issued

    def _prepare_workload(self, cell: Cell) -> None:
        cell.tick = 0
        cell.script_pos = 0
        cell.script_ops = []
        workload = cell.config.workload
        if workload.kind is WorkloadKind.SCRIPT:
            with open(workload.script_path, "r", encoding="utf-8") as handle:
                cell.script_ops = parse_script(handle.read())

    def _step_cell(self, cell: Cell) -> int:
        kind = cell.config.workload.kind
        if kind is WorkloadKind.SCRIPT:
            return self._step_script(cell)
        write = kind is WorkloadKind.STRESS
        access = self._touch_own_memory(cell, write)
        cell.tick += 1
        if access is None:
            return 0
        self.handle_access(cell.id, access)
        return 1

    def _touch_own_memory(self, cell: Cell, write: bool) -> Optional[Access]:
        need = PermFlags.WRITE if write else PermFlags.READ
        region = next((r for r in cell.config.mem if r.flags & need), None)
        if region is None:
            if not write:
                return None
            return self._touch_own_memory(cell, False)
        span = min(region.size, 4096)
        offset = (cell.tick * 8) % (span - span % 8 or 8)
        kind = AccessKind.MEM_WRITE if write else AccessKind.MEM_READ
        return Access(kind, region.base + offset, 8)

    def _step_script(self, cell: Cell) -> int:
        if cell.script_pos >= len(cell.script_ops):
            return 0
        op = cell.script_ops[cell.script_pos]
        cell.script_pos += 1
        if op[0] == "repeat":
            cell.script_pos = 0
            if not cell.script_ops or cell.script_ops[0][0] == "repeat":
                return 0
            op = cell.script_ops[0]
            cell.script_pos = 1
        if op[0] == "idle":
            return 0
        if op[0] == "distwrite":
            window = self.platform.gic_dist_window
            if window is None:
                raise NoSuchResource("platform has no gic-dist window")
            access = Access(AccessKind.MEM_WRITE, window.base + op[1], 4)
        else:
            access = op[1]
        self.handle_access(cell.id, access)
        return 1


def enable(platform: MachinePlatform, root_cfg: CellConfig,
           seed: int = 0) -> Hypervisor:
    """Activate a hypervisor under an already-running root configuration."""
    return Hypervisor(platform, seed=seed).enable(root_cfg)
