"""The hypervisor against the naive model in `oracle.py`: one state machine
applies each operation to both, and after every rule they agree on each
result or refusal, the events, exit counters and clock, the cells, the
channels and the owner of every unit, page and range the run touched;
then the hypervisor audits itself.
"""

import os
import shutil
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from cellsim import (
    ROOT_CELL, Access, AccessKind, AccessOutcome, CellConfig, Cpu, IoPortRange,
    IrqLine, MemRegion, MmioDevice, PciDevice, PermFlags, PlatformSpec, Workload, WorkloadKind,
    build_platform, create_channel, enable, full_platform_config, load_session, save_session)
from cellsim.errors import CellSimError

from oracle import PAGE, RUNNING, Oracle, Refused, logged

R, W, X = PermFlags.READ, PermFlags.WRITE, PermFlags.EXECUTE
RAM, RAM2, RO_RAM = 0x1000_0000, 0x1002_0000, 0x2000_0000  # RAM2 starts where RAM ends
DIST = MmioDevice("gic-dist", 0x5004_1000, 0x1000)
# uart-b starts where uart-a ends, and port 0x400 where the 0x3f8 range ends
DEVICES = (DIST, MmioDevice("gpio", 0x6000_D000, 0x1000), MmioDevice("uart-a", 0x7000_6000, 0x1000),
           MmioDevice("uart-b", 0x7000_7000, 0x1000), PciDevice(0x10), IoPortRange(0x3F8, 0x8),
           IoPortRange(0x400, 0x8), IoPortRange(0x60, 0x10))
RESOURCES = [*map(Cpu, range(8)), MemRegion(RAM, 32 * PAGE, R | W | X),
             MemRegion(RAM2, 8 * PAGE, R | W), MemRegion(RO_RAM, 8 * PAGE, R),
             *DEVICES, IrqLine(32), IrqLine(33), IrqLine(34)]
PLATFORM = build_platform(PlatformSpec(name="oracle", resources=RESOURCES))
PORTS = [dev for dev in DEVICES if isinstance(dev, IoPortRange)]
PAGES = [page for region in PLATFORM.mem_regions for page in range(region.base, region.end, PAGE)]
# the first page of a guest region: at and next to each platform region's edges
STARTS = [RAM + page * PAGE for page in (0, 1, 2, 8, 16, 24, 30, 31)] + [
    RAM2 + page * PAGE for page in (0, 1, 5, 6, 7)] + [RO_RAM, RO_RAM + 7 * PAGE]
FLAGS = [R | W, R, R, W, PermFlags(0), R | W | X]
FATAL, DIST_READ = Access(AccessKind.MEM_READ, 0, 8), Access(AccessKind.MEM_READ, DIST.base, 4)
SCRIPT_TEXT = {"read": "read 0x%x %d", "distwrite": "distwrite 0x%x", "instr": "instr %s",
               "idle": "idle", "repeat": "repeat"}


class HypervisorMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        root = full_platform_config(PLATFORM)
        self.hv, self.model = enable(PLATFORM, root), Oracle(RESOURCES, root.name)
        self.scripts = tempfile.mkdtemp(prefix="oracle-scripts-")
        self.counter = 0
        # platform RAM and devices, then every region, window and pair of adjacent
        # regions ever drawn, so that a stale answer is probed where it went stale
        self.ranges = {(r.base, r.end) for r in PLATFORM.mem_regions + PLATFORM.mmio_devices}

    def teardown(self):
        shutil.rmtree(self.scripts)

    def both(self, hv_op, model_op):
        """Apply an operation to the hypervisor and the model: the same value,
        or a refusal by the same error class."""
        try:
            got = hv_op()
        except CellSimError as exc:
            got = type(exc).__name__
        try:
            want = model_op()
        except Refused as exc:
            want = exc.args[0]
        assert got == want
        return got

    def apply(self, op, cell_id):
        """start, stop, relaunch or destroy a cell in both."""
        return self.both(lambda: getattr(self.hv, op + "_cell")(cell_id),
                         lambda: self.model.lifecycle(op, cell_id))

    def check(self):
        """Two turns pass, as the guests run between two operations, and each
        running cell reads the distributor, which builds its access map before
        the next operation; then the two must agree on all they hold."""
        hv, model = self.hv, self.model
        self.both(lambda: hv.step(2), lambda: model.step(2))
        for cell_id in [cell_id for cell_id, cell in model.cells.items() if cell.state is RUNNING]:
            self.both(lambda: hv.handle_access(cell_id, DIST_READ),
                      lambda: model.access(cell_id, DIST_READ))
        assert (hv.clock, logged(hv.events), hv.exits) == (model.clock, model.events, model.exits)
        assert {cell_id: (cell.state, cell.script_pos) for cell_id, cell in hv.cells.items()} \
            == {cell_id: (cell.state, cell.pos) for cell_id, cell in model.cells.items()}
        assert {ch.id: (ch.cell_a, ch.cell_b, ch.region.base, ch.region.end, ch.bdf_a, ch.bdf_b)
                for ch in hv.channels.values()} == model.channels
        assert {unit: hv.ledger.owner_of_unit(unit) for unit in model.units} == model.units
        assert [hv.ledger.range_owner(page, page + PAGE) for page in PAGES] \
            == [model.span(page)[0] for page in PAGES]
        ranges = sorted(self.ranges)
        assert [hv.ledger.range_owner(lo, hi) for lo, hi in ranges] \
            == [model.range_owner(lo, hi) for lo, hi in ranges]
        hv.audit()

    @rule(data=st.data())
    def create(self, data):
        draw = data.draw
        windows = [lo for a, _, lo, *_ in self.model.channels.values() if a == ROOT_CELL]
        over_window = windows and draw(st.booleans())  # which _claim refuses
        mem = [MemRegion(draw(st.sampled_from(windows if over_window else STARTS)),
                         draw(st.integers(1, 3)) * PAGE,
                         draw(st.sampled_from(FLAGS)))]
        if draw(st.booleans()):  # a second region, next to the first or in read-only RAM
            base = draw(st.sampled_from([mem[0].end, mem[0].end, RO_RAM + 5 * PAGE]))
            mem.append(MemRegion(base, PAGE, draw(st.sampled_from(FLAGS))))
            if base == mem[0].end:
                self.ranges.add((mem[0].base, mem[1].end))
        # mostly root's CPUs; CPU 0 may be a guest's, and the platform lacks CPU 8
        cpus = [unit.index for unit, owner in self.model.units.items()
                if isinstance(unit, Cpu) and owner == ROOT_CELL] * 2 + [0, 8]
        self.counter += 1
        kind, ops = draw(st.sampled_from([*WorkloadKind, WorkloadKind.STRESS])), []
        path = os.path.join(self.scripts, "g%d.txt" % self.counter)
        if kind is WorkloadKind.SCRIPT:
            ops = draw(st.lists(st.sampled_from([
                ("read", mem[0].base, 8), ("read", mem[0].base + 8, 4), ("read", RAM2, 8),
                ("instr", "cpuid"), ("instr", "wfi"), ("distwrite", 0), ("distwrite", 0x400),
                ("idle",)]), max_size=6)) + [("repeat",)] * draw(st.integers(0, 1))
            with open(path, "w") as handle:
                handle.write("".join(SCRIPT_TEXT[op[0]] % op[1:] + "\n" for op in ops))
        cfg = CellConfig(
            name="g%d" % self.counter, mem=mem,
            cpus=draw(st.sets(st.sampled_from(cpus), min_size=1, max_size=2)),
            devices=draw(st.lists(st.sampled_from(DEVICES), max_size=2, unique=True)),
            irqs=draw(st.sets(st.sampled_from([32, 33, 34]), max_size=1)),
            workload=Workload(kind, path if kind is WorkloadKind.SCRIPT else None))
        self.ranges.update((region.base, region.end) for region in mem)
        cell_id = self.both(lambda: self.hv.create_cell(cfg), lambda: self.model.create(cfg, ops))
        fate = draw(st.sampled_from(["running"] * 3 + ["created", "stopped", "failed"]))
        if isinstance(cell_id, int) and fate != "created":
            for op in ("start", "stop")[:1 + (fate == "stopped")]:
                self.apply(op, cell_id)
            if fate == "failed":  # address 0 is no RAM
                self.both(lambda: self.hv.handle_access(cell_id, FATAL),
                          lambda: self.model.access(cell_id, FATAL))
        self.check()

    @initialize(data=st.data())
    def guests(self, data):
        for _ in range(3):
            self.create(data)
        self.channel(data, 1)  # so that the next creates may meet a live window
        for _ in range(3):
            self.create(data)

    @rule(data=st.data(), op=st.sampled_from(["start", "stop", "relaunch", "destroy"]))
    def lifecycle(self, data, op):
        """Any operation on any live cell, the root cell included, or on an id
        never made."""
        self.apply(op, data.draw(st.sampled_from([*self.model.cells, self.model.next_cell])))
        self.check()

    @rule(data=st.data(), pages=st.integers(1, 3))
    def channel(self, data, pages):
        a = data.draw(st.sampled_from(sorted(self.model.cells)))
        b = data.draw(st.sampled_from(sorted(set(self.model.cells) - {a}) or [a]))
        ch_id = self.both(lambda: create_channel(self.hv, a, b, pages * PAGE, 1),
                          lambda: self.model.channel(a, b, pages * PAGE))
        if isinstance(ch_id, int):
            self.ranges.add(tuple(self.model.channels[ch_id][2:4]))
        self.check()

    @rule(data=st.data())
    def access(self, data):
        """Accesses of every width at the edges of every range and port range,
        the distributor's included."""
        draw = data.draw
        for _ in range(draw(st.integers(1, 4))):
            cell_id = draw(st.sampled_from([cell_id for cell_id, cell in self.model.cells.items()
                                            if cell.state is RUNNING]))
            kind = draw(st.sampled_from(list(AccessKind)))
            width = draw(st.sampled_from([1, 2, 4, 8]))
            if kind is AccessKind.SENSITIVE_INSTR:
                access = Access(kind, instr=draw(st.sampled_from(["cpuid", "wfi"])))
            elif kind in (AccessKind.IO_READ, AccessKind.IO_WRITE):
                ports = draw(st.sampled_from(PORTS))
                access = Access(kind, ports.base + draw(st.integers(-2, ports.length)), width)
            else:
                lo, hi = draw(st.sampled_from(sorted(self.ranges)))
                addr = draw(st.sampled_from([lo - width, lo, lo + width, (lo + hi) // 2,
                                             hi - width, hi]))
                access = Access(kind, addr - addr % width, width)
            outcome = self.both(lambda: self.hv.handle_access(cell_id, access),
                                lambda: self.model.access(cell_id, access))
            if outcome is AccessOutcome.VIOLATION and cell_id == ROOT_CELL:
                # root cannot be relaunched: it is set running again in both, as a reboot would
                self.hv.cells[ROOT_CELL].state = self.model.cells[ROOT_CELL].state = RUNNING
            elif outcome is AccessOutcome.VIOLATION and draw(st.booleans()):
                self.apply("relaunch", cell_id)
        self.check()

    @rule(n=st.integers(-1, 6))
    def step(self, n):
        self.both(lambda: self.hv.step(n), lambda: self.model.step(n))
        self.check()

    @precondition(lambda self: not self.model.channels)  # a snapshot keeps no channel
    @rule()
    def save_and_load(self):
        saved = save_session(PLATFORM, self.hv)
        self.hv = load_session(saved)[1]
        assert save_session(PLATFORM, self.hv) == saved
        self.check()


HypervisorMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=50, deadline=None)
TestHypervisorMatchesTheOracle = HypervisorMachine.TestCase
