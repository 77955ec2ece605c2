"""A naive model of the hypervisor API, to check the real one against.

It is built only from a platform's resource list and the operations
applied to it, and states each rule one page, unit or channel at a time,
with no bisect, no bit mask and no cache:

- memory is a map from each page of platform RAM to its owner, the span
  it belongs to (a guest's claim, or for the root cell the platform
  region it lies in) and that span's flags; a range has an owner only if
  all its pages lie in one span;
- a CPU, device or IRQ line has one owner in a table;
- an access is emulated inside the distributor window, direct where the
  cell owns the range with the flag it needs, inside the window of a
  channel whose peer it is, or inside an MMIO device or port range it
  owns, and anything else is a violation that fails the cell;
- a channel window is the highest free page-aligned span of read-write
  RAM its creator owns, and each endpoint's bdf the lowest free one.

Each refusal is raised as `Refused` with the name of the CellSimError
subclass the hypervisor raises for it.
"""

from types import SimpleNamespace

from cellsim import (
    Access, AccessKind, AccessOutcome, CellState, Cpu, IoPortRange, IrqLine, MemRegion, MmioDevice,
    PermFlags, TrapKind, WorkloadKind)

ROOT, PAGE, STEP_NS = 0, 0x1000, 1000
R, W = PermFlags.READ, PermFlags.WRITE
CREATED, RUNNING, STOPPED, FAILED = CellState
TRAP_KINDS = list(TrapKind)  # the order of a cell's exit counters
# per operation, the states it acts on and whether the root cell is immortal to it
LIFECYCLE = {"start": ((CREATED, STOPPED), False), "stop": ((RUNNING, FAILED), True),
             "relaunch": ((RUNNING, STOPPED, FAILED), True), "destroy": (tuple(CellState), True)}


class Refused(Exception):
    """An operation the hypervisor refuses; args[0] names its error class."""


def logged(events):
    """Each TrapEvent as the model logs it: (time_ns, cell, kind, detail)."""
    return [(e.time_ns, e.cell, e.kind, e.detail) for e in events]


class Oracle:
    def __init__(self, resources, root_name):
        self.ram = {}     # page -> (ROOT, ("ram", region base), region flags)
        self.units = {}   # CPU, device or IRQ line -> owner
        for res in resources:
            if isinstance(res, MemRegion):
                self.ram.update(dict.fromkeys(range(res.base, res.end, PAGE),
                                              (ROOT, ("ram", res.base), res.flags)))
            else:
                self.units[res] = ROOT
        self.dist = next((u for u in self.units if isinstance(u, MmioDevice)
                          and u.name == "gic-dist"), None)
        self.claims = {}  # page -> (cell, ("claim", claim base), claim flags)
        self.cells = {ROOT: SimpleNamespace(name=root_name, state=RUNNING, kind=None,
                                            flags=(), ops=[], pos=0)}
        self.channels = {}  # id -> (a, b, window lo, window hi, bdf_a, bdf_b)
        self.next_cell, self.next_channel, self.clock = 1, 0, 0
        self.events, self.exits = [], {}  # exits: per cell that ever exited, a count per kind
        self.log(ROOT, TrapKind.MANAGEMENT, "enable")

    # -- what the model holds

    def log(self, cell_id, kind, detail):
        self.events.append((self.clock, cell_id, kind, detail))
        self.exits.setdefault(cell_id, [0] * len(TRAP_KINDS))[TRAP_KINDS.index(kind)] += 1

    def span(self, page):
        """(owner, span, flags) of a page, or None off platform RAM."""
        return self.claims.get(page) or self.ram.get(page)

    def one_span(self, lo, hi):
        """The span that holds all of [lo, hi), or None."""
        spans = {self.span(page) for page in range(lo - lo % PAGE, hi, PAGE)}
        return spans.pop() if len(spans) == 1 else None

    def range_owner(self, lo, hi):
        return (self.one_span(lo, hi) or (None,))[0]

    def cell(self, cell_id):
        if cell_id not in self.cells:
            raise Refused("NoSuchCell")
        return self.cells[cell_id]

    # -- management

    def create(self, cfg, ops=()):
        if any(cell.name == cfg.name for cell in self.cells.values()):
            raise Refused("NameCollision")
        units = [*map(Cpu, cfg.cpus), *cfg.devices, *map(IrqLine, cfg.irqs)]
        fits = all(self.units.get(unit) == ROOT for unit in units)
        root_windows = {page for a, _, lo, hi, _, _ in self.channels.values() if a == ROOT
                        for page in range(lo, hi, PAGE)}
        for region in cfg.mem:
            found = self.one_span(region.base, region.end)
            fits &= (found is not None and found[0] == ROOT and not region.flags & ~found[2]
                     and root_windows.isdisjoint(range(region.base, region.end, PAGE)))
        if not fits:
            raise Refused("ValidationFailed")
        cell_id, self.next_cell = self.next_cell, self.next_cell + 1
        self.units.update(dict.fromkeys(units, cell_id))
        for region in cfg.mem:
            self.claims.update(dict.fromkeys(range(region.base, region.end, PAGE),
                                             (cell_id, ("claim", region.base), region.flags)))
        self.cells[cell_id] = SimpleNamespace(
            name=cfg.name, state=CREATED, kind=cfg.workload.kind,
            flags=[region.flags for region in cfg.mem], ops=list(ops), pos=0)
        self.log(cell_id, TrapKind.MANAGEMENT, "create %s" % cfg.name)
        return cell_id

    def lifecycle(self, op, cell_id):
        cell = self.cell(cell_id)
        states, root_immortal = LIFECYCLE[op]
        if cell_id == ROOT and root_immortal:
            raise Refused("RootCellImmortal")
        if cell.state not in states:
            raise Refused("BadState")
        self.log(cell_id, TrapKind.MANAGEMENT, "%s %s" % (op, cell.name))
        if op == "destroy":
            del self.cells[cell_id]
            self.channels = {ch: w for ch, w in self.channels.items() if cell_id not in w[:2]}
            self.units = {unit: ROOT if owner == cell_id else owner
                          for unit, owner in self.units.items()}
            self.claims = {page: found for page, found in self.claims.items()
                           if found[0] != cell_id}
        else:
            cell.state = STOPPED if op == "stop" else RUNNING
            cell.pos = cell.pos if op == "stop" else 0

    def channel(self, a, b, size):
        if a == b:
            raise Refused("SelfChannel")
        names = self.cell(a).name, self.cell(b).name
        taken = {page for _, _, lo, hi, _, _ in self.channels.values()
                 for page in range(lo, hi, PAGE)}
        for lo in sorted(self.ram, reverse=True):
            pages = range(lo, lo + size, PAGE)
            found = self.one_span(lo, lo + size)
            if (found is not None and found[0] == a and found[2] & (R | W) == R | W
                    and taken.isdisjoint(pages)):
                break
        else:
            raise Refused("OutOfRegion")
        ch_id, self.next_channel = self.next_channel, self.next_channel + 1
        self.channels[ch_id] = (a, b, lo, lo + size, self.free_bdf(a), self.free_bdf(b))
        self.log(a, TrapKind.MANAGEMENT, "channel %s-%s" % names)
        return ch_id

    def free_bdf(self, cell_id):
        used = {bdf for a, b, _, _, bdf_a, bdf_b in self.channels.values()
                for end, bdf in ((a, bdf_a), (b, bdf_b)) if end == cell_id}
        return next(bdf for bdf in range(0, 0x10000, 8) if bdf not in used)

    # -- traps and stepping

    def access(self, cell_id, access):
        cell = self.cell(cell_id)
        if cell.state is not RUNNING:
            raise Refused("BadState")
        kind, lo = access.kind, access.addr_or_port
        hi = lo + access.width
        if kind is AccessKind.SENSITIVE_INSTR:
            if access.instr != "cpuid":
                return AccessOutcome.DIRECT
            self.log(cell_id, TrapKind.INSTRUCTION_EMULATION, access.instr)
            return AccessOutcome.EMULATED
        if kind in (AccessKind.IO_READ, AccessKind.IO_WRITE):
            allowed = self.in_unit(cell_id, IoPortRange, lo, hi)
        elif self.dist is not None and self.dist.base <= lo and hi <= self.dist.end:
            self.log(cell_id, TrapKind.DISTRIBUTOR_EMULATION, "offset 0x%x" % (lo - self.dist.base))
            return AccessOutcome.EMULATED
        else:
            found = self.one_span(lo, hi)
            if found is not None and found[0] == cell_id:
                allowed = bool(found[2] & (W if kind is AccessKind.MEM_WRITE else R))
            else:
                allowed = self.in_unit(cell_id, MmioDevice, lo, hi) or any(
                    b == cell_id and w_lo <= lo and hi <= w_hi
                    for _, b, w_lo, w_hi, _, _ in self.channels.values())
        if allowed:
            return AccessOutcome.DIRECT
        self.log(cell_id, TrapKind.ACCESS_VIOLATION,
                 "%s 0x%x width %d" % (kind.value, lo, access.width))
        cell.state = FAILED
        return AccessOutcome.VIOLATION

    def in_unit(self, cell_id, kind, lo, hi):
        """Whether [lo, hi) lies in one MMIO device other than the distributor,
        or one port range, of that kind that the cell owns."""
        return any(isinstance(unit, kind) and owner == cell_id and unit is not self.dist
                   and unit.base <= lo and hi <= unit.end for unit, owner in self.units.items())

    def step(self, n):
        """Turns of STEP_NS: in each, every running guest in id order runs its
        script's next op, or with no script touches its own RAM once if a
        region grants READ (a stress guest: READ or WRITE)."""
        issued = 0
        for _ in range(n):
            self.clock += STEP_NS
            for cell_id, cell in sorted(self.cells.items()):
                if cell_id == ROOT or cell.state is not RUNNING:
                    continue
                if cell.kind is WorkloadKind.SCRIPT:
                    issued += self.script_turn(cell_id, cell)
                else:
                    need = R | W if cell.kind is WorkloadKind.STRESS else R
                    issued += any(flags & need for flags in cell.flags)
        return issued

    def script_turn(self, cell_id, cell):
        """One op: repeat goes back to the first op; idle, or a script of
        repeat alone or run out, issues nothing."""
        if cell.pos < len(cell.ops) and cell.ops[cell.pos] == ("repeat",):
            cell.pos = 0
            if cell.ops[0] == ("repeat",):
                return 0
        if cell.pos >= len(cell.ops):
            return 0
        op, *args = cell.ops[cell.pos]
        cell.pos += 1
        if op == "idle":
            return 0
        self.access(cell_id, Access(AccessKind.SENSITIVE_INSTR, instr=args[0]) if op == "instr"
                    else Access(AccessKind.MEM_READ, *args) if op == "read"
                    else Access(AccessKind.MEM_WRITE, self.dist.base + args[0], 4))  # distwrite
        return 1

