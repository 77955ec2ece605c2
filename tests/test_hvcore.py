import copy
import itertools
import json
import pickle
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from cellsim import (
    EXIT_SLOT,
    ROOT_CELL,
    Access,
    AccessKind,
    AccessOutcome,
    Cell,
    CellConfig,
    CellState,
    Cpu,
    Hypervisor,
    IoPortRange,
    IrqLine,
    MemRegion,
    MmioDevice,
    OwnershipLedger,
    PermFlags,
    PlatformSpec,
    TrapKind,
    Workload,
    WorkloadKind,
    build_platform,
    distributor_access,
    enable,
    full_platform_config,
    latency_streams,
    load_session,
    raise_irqs,
    save_session,
)
from cellsim.errors import (
    AlreadyEnabled,
    BadState,
    CellsStillExist,
    ConfigMismatch,
    ConfigSemanticError,
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
from cellsim.comm import create_channel, pci_cfg_read, poll, read_buffer, send
from cellsim.cellconfig import validate_against
from cellsim.machine import CPU, DEVICE, IRQ
from cellsim import hvcore
from cellsim.hvcore import STEP_NS, parse_script

from conftest import make_tiny_platform
from gen import config_from_units, random_config, random_platform

RAM = 0x1000_0000
RW = 3  # a (base, size, flags) row's flags: PermFlags.READ | PermFlags.WRITE


def tiny_hv(seed=0):
    platform = make_tiny_platform()
    return enable(platform, full_platform_config(platform), seed=seed)


def windowless_hv():
    """An enabled hypervisor on the tiny platform without its gic-dist window."""
    platform = build_platform(PlatformSpec("nogic", [
        r for r in make_tiny_platform().resources if getattr(r, "name", "") != "gic-dist"]))
    return enable(platform, full_platform_config(platform))


def session_facts(hv):
    """Copies of what a refused create must leave as it was."""
    return (hv._next_cell_id, list(hv.events), copy.deepcopy(hv.exits),
            list(hv.ledger._claims), list(map(dict, hv.ledger._masks)), list(hv.cells))


def small_cell(name="guest", cpu=1, base=RAM + 0x8_0000, size=0x2000,
               flags=PermFlags.READ | PermFlags.WRITE, **extra):
    return CellConfig(name=name, cpus=[cpu],
                      mem=[MemRegion(base, size, flags)], **extra)


class TestEnable:
    def test_enable_owns_everything(self, tiny):
        hv = tiny_hv()
        assert hv.enabled
        assert hv.cells[ROOT_CELL].state is CellState.RUNNING
        assert hv.ledger.owners() == {ROOT_CELL}
        hv.audit()

    def test_enable_logs_one_management_event(self):
        hv = tiny_hv()
        assert [e.kind for e in hv.events] == [TrapKind.MANAGEMENT]
        assert hv.events[0].detail == "enable"

    def test_double_enable_rejected(self):
        hv = tiny_hv()
        with pytest.raises(AlreadyEnabled):
            hv.enable(full_platform_config(hv.platform))

    def test_mismatched_root_config_rejected(self, tiny):
        cfg = CellConfig(name="root", cpus=[0, 9],
                         mem=[MemRegion(0xDEAD_0000, 0x1000)])
        with pytest.raises(ConfigMismatch):
            Hypervisor(tiny).enable(cfg)

    def test_rejected_root_config_leaves_hypervisor_untouched(self, tiny):
        hv = Hypervisor(tiny)
        cfg = CellConfig(name="root", cpus=[0, 9],
                         mem=[MemRegion(RAM, 0x1000, PermFlags.READ | PermFlags.EXECUTE),
                              MemRegion(0xDEAD_0000, 0x1000)],
                         irqs=[33, 99])
        with pytest.raises(ConfigMismatch) as excinfo:
            hv.enable(cfg)
        message = str(excinfo.value)
        for part in ("NoSuchResource(cpu 9)", "PermissionExceeded(mem [0x10000000, 0x10001000))",
                     "NoSuchResource(mem [0xdead0000, 0xdead1000))", "NoSuchResource(irq 99)"):
            assert part in message
        assert "irq 33" not in message
        assert not hv.enabled
        assert hv.ledger is None
        assert hv.events == []
        assert hv.cells == {}

    @pytest.mark.parametrize("seed", range(60))
    def test_fit_check_is_validate_against_on_a_fresh_ledger(self, seed):
        # enable, snapshot load and check-config check a config with no
        # ledger, which builds no Cpu or IrqLine per present id; on a fresh
        # ledger, where root owns everything, the verdict must not change
        rnd = random.Random(seed)
        platform = random_platform(rnd)
        other = random_config(rnd)

        def some(items, share):
            return [item for item in items if rnd.random() < share]

        cfg = CellConfig(
            name="root", cpus=rnd.sample(range(6), rnd.randint(1, 4)),
            mem=[MemRegion(r.base, r.size, PermFlags(rnd.randint(0, 15)))
                 for r in some(platform.mem_regions, 0.7)] + some(other.mem, 0.3)
            or platform.mem_regions,
            devices=some(platform.mmio_devices, 0.7) + some(other.devices, 0.5),
            irqs=some(sorted(platform.irq_numbers), 0.7) + some(sorted(other.irqs), 0.5))
        assert validate_against(cfg, platform) == validate_against(
            cfg, platform, OwnershipLedger(platform))

    def test_operations_need_enable(self, tiny):
        hv = Hypervisor(tiny)
        with pytest.raises(NotEnabled):
            hv.create_cell(small_cell())
        with pytest.raises(NotEnabled):
            hv.step()
        with pytest.raises(NotEnabled):
            hv.disable()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_u64_rejected(self, tiny, seed):
        # a snapshot stores the seed as a u64
        with pytest.raises(InvariantViolation, match="seed .* outside"):
            Hypervisor(tiny, seed=seed)
        assert Hypervisor(tiny, seed=2**64 - 1).seed == 2**64 - 1


class TestCreate:
    def test_ids_are_sequential(self):
        hv = tiny_hv()
        assert hv.create_cell(small_cell("a")) == 1
        assert hv.create_cell(small_cell("b", cpu=2, base=RAM + 0x9_0000)) == 2

    def test_created_cell_owns_its_resources(self):
        hv = tiny_hv()
        cfg = small_cell(irqs=[33])
        cell_id = hv.create_cell(cfg)
        assert hv.ledger.owner_of_unit(Cpu(1)) == cell_id
        assert hv.ledger.owner_of_unit(IrqLine(33)) == cell_id
        assert hv.ledger.range_owner(RAM + 0x8_0000, RAM + 0x8_2000) == cell_id
        assert hv.ledger.owner_of_unit(Cpu(0)) == ROOT_CELL
        hv.audit()

    def test_name_collision(self):
        hv = tiny_hv()
        hv.create_cell(small_cell("guest"))
        with pytest.raises(NameCollision):
            hv.create_cell(small_cell("guest", base=RAM + 0xA_0000))

    def test_name_collision_with_root(self):
        hv = tiny_hv()
        root_name = hv.cells[ROOT_CELL].name
        with pytest.raises(NameCollision):
            hv.create_cell(small_cell(root_name))

    def test_conflicting_create_fails_closed(self):
        hv = tiny_hv()
        hv.create_cell(small_cell("a"))
        with pytest.raises(ValidationFailed) as excinfo:
            hv.create_cell(small_cell("b"))
        assert excinfo.value.violations
        # the failed create must not have moved anything
        hv.audit()
        assert hv.ledger.range_owner(RAM + 0x9_0000, RAM + 0x9_1000) == ROOT_CELL

    def test_new_cell_starts_created(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell())
        assert hv.cells[cell_id].state is CellState.CREATED


class TestLifecycle:
    def test_start_stop_cycle(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell())
        hv.start_cell(cell_id)
        assert hv.cells[cell_id].state is CellState.RUNNING
        hv.stop_cell(cell_id)
        assert hv.cells[cell_id].state is CellState.STOPPED
        hv.start_cell(cell_id)
        assert hv.cells[cell_id].state is CellState.RUNNING

    def test_start_requires_created_or_stopped(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell())
        hv.start_cell(cell_id)
        with pytest.raises(BadState):
            hv.start_cell(cell_id)

    def test_stop_requires_running_or_failed(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell())
        with pytest.raises(BadState):
            hv.stop_cell(cell_id)
        hv.start_cell(cell_id)
        hv.stop_cell(cell_id)
        with pytest.raises(BadState):
            hv.stop_cell(cell_id)

    def test_stop_accepts_failed(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell())
        hv.start_cell(cell_id)
        hv.handle_access(cell_id, Access(AccessKind.MEM_READ, 0xE000_0000, 4))
        assert hv.cells[cell_id].state is CellState.FAILED
        hv.stop_cell(cell_id)
        assert hv.cells[cell_id].state is CellState.STOPPED

    def test_destroy_works_from_any_state(self):
        hv = tiny_hv()
        for state_prep in (
                lambda c: None,
                lambda c: hv.start_cell(c),
                lambda c: (hv.start_cell(c), hv.stop_cell(c))):
            cell_id = hv.create_cell(small_cell())
            state_prep(cell_id)
            hv.destroy_cell(cell_id)
            assert cell_id not in hv.cells
            hv.audit()
            assert hv.ledger.owners() == {ROOT_CELL}

    def test_destroy_unknown_cell(self):
        hv = tiny_hv()
        with pytest.raises(NoSuchCell):
            hv.destroy_cell(7)

    def test_relaunch_stops_clears_and_starts(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell())
        hv.load_image(cell_id, RAM + 0x8_0000, b"boot")
        hv.start_cell(cell_id)
        hv.relaunch_cell(cell_id)
        cell = hv.cells[cell_id]
        assert cell.state is CellState.RUNNING
        assert cell.memory_image == {}

    def test_relaunch_accepts_stopped_and_failed(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell())
        hv.start_cell(cell_id)
        hv.stop_cell(cell_id)
        hv.relaunch_cell(cell_id)
        hv.handle_access(cell_id, Access(AccessKind.MEM_READ, 0xE000_0000, 4))
        hv.relaunch_cell(cell_id)
        assert hv.cells[cell_id].state is CellState.RUNNING

    def test_relaunch_rejects_never_started(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell())
        with pytest.raises(BadState):
            hv.relaunch_cell(cell_id)

    def test_root_is_immortal(self):
        hv = tiny_hv()
        with pytest.raises(RootCellImmortal):
            hv.stop_cell(ROOT_CELL)
        with pytest.raises(RootCellImmortal):
            hv.destroy_cell(ROOT_CELL)
        with pytest.raises(RootCellImmortal):
            hv.relaunch_cell(ROOT_CELL)

    def test_each_op_logs_one_management_event(self):
        hv = tiny_hv()
        before = len(hv.events)
        cell_id = hv.create_cell(small_cell())
        hv.load_image(cell_id, RAM + 0x8_0000, b"x")
        hv.start_cell(cell_id)
        hv.stop_cell(cell_id)
        hv.relaunch_cell(cell_id)
        hv.stop_cell(cell_id)
        hv.destroy_cell(cell_id)
        tail = hv.events[before:]
        assert [e.kind for e in tail] == [TrapKind.MANAGEMENT] * 7
        assert [e.detail.split()[0] for e in tail] == [
            "create", "load", "start", "stop", "relaunch", "stop", "destroy"]


# The lifecycle each operation follows, written out case by case: for each
# state of the target, success or the exact refusal. Root is cell 0, the
# guest cell 1; states that no call gives root are set by hand.
_LIFECYCLE_OPS = ("load", "start", "stop", "destroy", "relaunch")
_NEEDS = {"load": "load needs created or stopped", "start": "start needs created or stopped",
          "stop": "stop needs running or failed"}
_ROOT_WORD = {"stop": "stopped", "destroy": "destroyed", "relaunch": "relaunched"}


def expected_outcome(op, state, cell_id):
    """(error class, exact text) for a refusal, or the state left by success
    (None once the cell is gone)."""
    if cell_id == ROOT_CELL and op in _ROOT_WORD:
        return RootCellImmortal, "the root cell cannot be %s" % _ROOT_WORD[op]
    created_or_stopped = state in (CellState.CREATED, CellState.STOPPED)
    if op in ("load", "start") and not created_or_stopped:
        return BadState, "cell %d is %s; %s" % (cell_id, state.value, _NEEDS[op])
    if op == "stop" and created_or_stopped:
        return BadState, "cell %d is %s; %s" % (cell_id, state.value, _NEEDS[op])
    if op == "relaunch" and state is CellState.CREATED:
        return BadState, "cell %d was never started" % cell_id
    return {"load": state, "start": CellState.RUNNING, "stop": CellState.STOPPED,
            "destroy": None, "relaunch": CellState.RUNNING}[op]


def run_lifecycle_op(hv, op, cell_id):
    if op == "load":
        hv.load_image(cell_id, hv.cells[cell_id].config.mem[0].base, b"xy")
    else:
        getattr(hv, "%s_cell" % op)(cell_id)


class TestLifecycleTable:
    @pytest.mark.parametrize("cell_id", [ROOT_CELL, 1], ids=["root", "guest"])
    @pytest.mark.parametrize("state", list(CellState), ids=lambda s: s.value)
    @pytest.mark.parametrize("op", _LIFECYCLE_OPS)
    def test_each_op_from_each_state(self, op, state, cell_id):
        hv = tiny_hv()
        hv.create_cell(small_cell())
        cell = hv.cells[cell_id]
        cell.state = state
        base = cell.config.mem[0].base
        cell.memory_image = {base + 0x100: b"old"}
        cell.script_pos = 3
        events, exits = list(hv.events), copy.deepcopy(hv.exits)
        expected = expected_outcome(op, state, cell_id)
        if isinstance(expected, tuple):
            error, text = expected
            with pytest.raises(error) as caught:
                run_lifecycle_op(hv, op, cell_id)
            assert type(caught.value) is error and str(caught.value) == text
            assert (hv.events, hv.exits, cell.state) == (events, exits, state)
            assert hv.cells[cell_id] is cell
            return
        run_lifecycle_op(hv, op, cell_id)
        assert hv.events[:-1] == events
        assert hv.events[-1] == hvcore.TrapEvent(
            hv.clock, cell_id, TrapKind.MANAGEMENT, "%s %s" % (op, cell.name))
        exits[cell_id][EXIT_SLOT[TrapKind.MANAGEMENT]] += 1
        assert hv.exits == exits
        if expected is None:
            assert cell_id not in hv.cells
            return
        assert hv.cells[cell_id].state is expected
        image = {base: b"xy", base + 0x100: b"old"} if op == "load" else {base + 0x100: b"old"}
        assert cell.memory_image == ({} if op == "relaunch" else image)
        assert cell.script_pos == (0 if op in ("start", "relaunch") else 3)

    @pytest.mark.parametrize("op", _LIFECYCLE_OPS)
    def test_unknown_cell(self, op):
        hv = tiny_hv()
        events = list(hv.events)
        with pytest.raises(NoSuchCell, match="^no cell with id 9$"):
            if op == "load":
                hv.load_image(9, RAM, b"x")
            else:
                getattr(hv, "%s_cell" % op)(9)
        assert hv.events == events


class TestDisabledRefusesFirst:
    """Every API that names a cell says NotEnabled on a disabled hypervisor,
    for any cell id, before any other check."""

    CALLS = {
        "load": lambda hv, c: hv.load_image(c, RAM, b"x"),
        "start": lambda hv, c: hv.start_cell(c),
        "stop": lambda hv, c: hv.stop_cell(c),
        "destroy": lambda hv, c: hv.destroy_cell(c),
        "relaunch": lambda hv, c: hv.relaunch_cell(c),
        "handle_access": lambda hv, c: hv.handle_access(c, Access(AccessKind.MEM_READ, RAM)),
        "pci_cfg_read": lambda hv, c: pci_cfg_read(hv, c, 0, 1),
        "create_channel": lambda hv, c: create_channel(hv, c, 1, 0x1000, 1),
        "create_channel_to_self": lambda hv, c: create_channel(hv, c, c, 0x1000, 1),
        "create_cell": lambda hv, c: hv.create_cell(small_cell()),
        "send": lambda hv, c: send(hv, 0, c, 0, b"x", 0),
        "poll": lambda hv, c: poll(hv, 0, c),
        "read_buffer": lambda hv, c: read_buffer(hv, 0, c, 0, 1),
        "distributor_access": lambda hv, c: distributor_access(hv, c, -4),
    }

    @pytest.fixture(params=["never-enabled", "disabled"])
    def hv(self, request):
        if request.param == "never-enabled":
            return Hypervisor(make_tiny_platform())
        hv = tiny_hv()
        hv.disable()
        return hv

    @pytest.mark.parametrize("cell_id", [ROOT_CELL, 1, 9])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_not_enabled_wins(self, hv, call, cell_id):
        with pytest.raises(NotEnabled) as caught:
            self.CALLS[call](hv, cell_id)
        assert type(caught.value) is NotEnabled and str(caught.value) == "hypervisor is disabled"


class TestDisable:
    def test_disable_requires_root_only(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell())
        with pytest.raises(CellsStillExist):
            hv.disable()
        hv.destroy_cell(cell_id)
        hv.disable()
        assert not hv.enabled
        assert hv.cells == {}
        assert hv.ledger is None

    def test_disable_keeps_the_event_log(self):
        hv = tiny_hv()
        hv.disable()
        assert [e.detail for e in hv.events] == ["enable", "disable"]

    def test_reenable_after_disable(self):
        hv = tiny_hv()
        hv.disable()
        hv.enable(full_platform_config(hv.platform))
        assert hv.enabled
        hv.audit()


class TestLoadImage:
    def test_load_and_read_back(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell())
        hv.load_image(cell_id, RAM + 0x8_0000, b"hello")
        assert hv.cells[cell_id].memory_image == {RAM + 0x8_0000: b"hello"}

    def test_load_needs_created_or_stopped(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell())
        hv.start_cell(cell_id)
        with pytest.raises(BadState):
            hv.load_image(cell_id, RAM + 0x8_0000, b"x")

    def test_load_must_fit_one_region(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(CellConfig(
            name="g", cpus=[1],
            mem=[MemRegion(RAM + 0x8_0000, 0x1000),
                 MemRegion(RAM + 0x8_1000, 0x1000)]))
        hv.load_image(cell_id, RAM + 0x8_0000, b"\xAA" * 0x1000)
        with pytest.raises(OutOfRegion):
            hv.load_image(cell_id, RAM + 0x8_0800, b"\xBB" * 0x1000)
        with pytest.raises(OutOfRegion):
            hv.load_image(cell_id, RAM, b"x")


class TestImageChunks:
    def test_overlapping_writes_merge(self):
        cell = Cell(1, small_cell())
        cell.write_image(0x1000, b"aaaa")
        cell.write_image(0x1002, b"bbbb")
        assert cell.memory_image == {0x1000: b"aabbbb"}

    def test_adjacent_writes_merge(self):
        cell = Cell(1, small_cell())
        cell.write_image(0x1000, b"aa")
        cell.write_image(0x1002, b"bb")
        assert cell.memory_image == {0x1000: b"aabb"}

    def test_disjoint_writes_stay_separate(self):
        cell = Cell(1, small_cell())
        cell.write_image(0x1000, b"aa")
        cell.write_image(0x2000, b"bb")
        assert sorted(cell.memory_image) == [0x1000, 0x2000]

    @given(st.lists(
        st.tuples(st.integers(0, 64), st.binary(min_size=1, max_size=16)),
        max_size=12))
    def test_matches_flat_byte_oracle(self, writes):
        cell = Cell(1, small_cell())
        oracle = bytearray(128)
        for addr, data in writes:
            cell.write_image(addr, data)
            oracle[addr:addr + len(data)] = data
        flat = bytearray(128)
        for start, chunk in cell.memory_image.items():
            flat[start:start + len(chunk)] = chunk
        assert flat == oracle
        # chunks must stay normalized: sorted, non-overlapping, non-adjacent
        starts = sorted(cell.memory_image)
        for a, b in zip(starts, starts[1:]):
            assert a + len(cell.memory_image[a]) < b


class TestHandleAccess:
    def test_sensitive_instruction_is_emulated(self):
        hv = tiny_hv()
        outcome = hv.handle_access(ROOT_CELL, Access(
            AccessKind.SENSITIVE_INSTR, instr="cpuid"))
        assert outcome is AccessOutcome.EMULATED
        assert hv.events[-1].kind is TrapKind.INSTRUCTION_EMULATION
        assert hv.events[-1].detail == "cpuid"

    def test_benign_instruction_runs_direct(self):
        hv = tiny_hv()
        before = len(hv.events)
        outcome = hv.handle_access(ROOT_CELL, Access(
            AccessKind.SENSITIVE_INSTR, instr="nop"))
        assert outcome is AccessOutcome.DIRECT
        assert len(hv.events) == before

    def test_distributor_window_is_emulated(self):
        hv = tiny_hv()
        window = hv.platform.gic_dist_window
        outcome = hv.handle_access(ROOT_CELL, Access(
            AccessKind.MEM_WRITE, window.base + 0x100, 4))
        assert outcome is AccessOutcome.EMULATED
        assert hv.exits[ROOT_CELL][EXIT_SLOT[TrapKind.DISTRIBUTOR_EMULATION]] == 1
        assert hv.events[-1].kind is TrapKind.DISTRIBUTOR_EMULATION

    def test_own_memory_runs_direct(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell())
        hv.start_cell(cell_id)
        before = len(hv.events)
        assert hv.handle_access(cell_id, Access(
            AccessKind.MEM_READ, RAM + 0x8_0000, 8)) is AccessOutcome.DIRECT
        assert hv.handle_access(cell_id, Access(
            AccessKind.MEM_WRITE, RAM + 0x8_0008, 8)) is AccessOutcome.DIRECT
        assert len(hv.events) == before

    def test_write_needs_write_permission(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell(flags=PermFlags.READ))
        hv.start_cell(cell_id)
        assert hv.handle_access(cell_id, Access(
            AccessKind.MEM_READ, RAM + 0x8_0000, 4)) is AccessOutcome.DIRECT
        assert hv.handle_access(cell_id, Access(
            AccessKind.MEM_WRITE, RAM + 0x8_0000, 4)) is AccessOutcome.VIOLATION

    def test_violation_is_fatal_and_logged_once(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell())
        hv.start_cell(cell_id)
        before = len(hv.events)
        outcome = hv.handle_access(cell_id, Access(
            AccessKind.MEM_READ, RAM, 4))  # root-owned page
        assert outcome is AccessOutcome.VIOLATION
        assert hv.cells[cell_id].state is CellState.FAILED
        violations = [e for e in hv.events[before:]
                      if e.kind is TrapKind.ACCESS_VIOLATION]
        assert len(violations) == 1
        assert violations[0].cell == cell_id
        with pytest.raises(BadState):
            hv.handle_access(cell_id, Access(AccessKind.MEM_READ, RAM + 0x8_0000, 4))

    def test_root_ram_runs_direct_under_the_platform_flags(self):
        # the root cell's RAM is checked against the ledger and the platform
        # region, not against its config
        read_only = MemRegion(RAM + 0x20_0000, 0x1000, PermFlags.READ)
        platform = build_platform(PlatformSpec(name="ro", resources=[
            Cpu(0), Cpu(1), MemRegion(RAM, 0x20_0000), read_only]))
        hv = enable(platform, full_platform_config(platform))
        guest = hv.create_cell(small_cell())
        events, exits = list(hv.events), copy.deepcopy(hv.exits)
        for addr in (RAM, RAM + 0x8_0000 - 8, RAM + 0x20_0000 - 8):
            for kind in (AccessKind.MEM_READ, AccessKind.MEM_WRITE):
                assert hv.handle_access(ROOT_CELL, Access(kind, addr, 8)) is AccessOutcome.DIRECT
        assert hv.handle_access(ROOT_CELL, Access(
            AccessKind.MEM_READ, read_only.base, 4)) is AccessOutcome.DIRECT
        assert (hv.events, hv.exits) == (events, exits)
        assert hv.handle_access(ROOT_CELL, Access(
            AccessKind.MEM_WRITE, read_only.base, 4)) is AccessOutcome.VIOLATION
        assert hv.cells[ROOT_CELL].state is CellState.FAILED
        assert hv.cells[guest].state is CellState.CREATED

    @pytest.mark.parametrize("offset", [0, 0x1FF8])
    def test_root_access_to_a_guest_range_is_a_violation(self, offset):
        # the first and the last eight bytes of the guest's range
        hv = tiny_hv()
        hv.create_cell(small_cell())
        assert hv.handle_access(ROOT_CELL, Access(
            AccessKind.MEM_WRITE, RAM + 0x8_0000 + offset, 8)) is AccessOutcome.VIOLATION
        assert hv.events[-1].kind is TrapKind.ACCESS_VIOLATION
        assert hv.cells[ROOT_CELL].state is CellState.FAILED

    def test_io_ports_of_adjacent_ranges_stay_exclusive(self):
        platform = build_platform(PlatformSpec(name="ports", resources=[
            Cpu(0), Cpu(1), MemRegion(RAM, 0x20_0000), IoPortRange(0x60, 8), IoPortRange(0x68, 8)]))
        hv = enable(platform, full_platform_config(platform))
        guest = hv.create_cell(small_cell(devices=[IoPortRange(0x68, 8)]))
        hv.start_cell(guest)
        assert hv.handle_access(guest, Access(
            AccessKind.IO_WRITE, 0x6A, 1)) is AccessOutcome.DIRECT
        assert hv.handle_access(ROOT_CELL, Access(
            AccessKind.IO_WRITE, 0x67, 1)) is AccessOutcome.DIRECT
        assert hv.handle_access(ROOT_CELL, Access(
            AccessKind.IO_WRITE, 0x6A, 1)) is AccessOutcome.VIOLATION
        hv.audit()

    def test_root_loses_direct_access_to_granted_away_memory(self):
        hv = tiny_hv()
        hv.create_cell(small_cell())
        assert hv.handle_access(ROOT_CELL, Access(
            AccessKind.MEM_READ, RAM + 0x8_0000, 4)) is AccessOutcome.VIOLATION

    def test_owned_mmio_runs_direct(self):
        hv = tiny_hv()
        uart = next(dev for dev in hv.platform.mmio_devices if dev.name == "uart")
        cfg = small_cell(devices=[uart])
        cell_id = hv.create_cell(cfg)
        hv.start_cell(cell_id)
        assert hv.handle_access(cell_id, Access(
            AccessKind.MEM_READ, uart.base, 4)) is AccessOutcome.DIRECT
        # root no longer owns the uart
        assert hv.handle_access(ROOT_CELL, Access(
            AccessKind.MEM_READ, uart.base, 4)) is AccessOutcome.VIOLATION

    def test_io_ports_follow_ownership(self):
        hv = tiny_hv()
        ports = hv.platform.io_port_ranges[0]
        assert hv.handle_access(ROOT_CELL, Access(
            AccessKind.IO_READ, ports.base, 1)) is AccessOutcome.DIRECT
        cell_id = hv.create_cell(small_cell(devices=[ports]))
        hv.start_cell(cell_id)
        assert hv.handle_access(cell_id, Access(
            AccessKind.IO_WRITE, ports.base + 1, 1)) is AccessOutcome.DIRECT
        assert hv.handle_access(ROOT_CELL, Access(
            AccessKind.IO_READ, ports.base, 1)) is AccessOutcome.VIOLATION

    def test_unknown_io_port_is_a_violation(self):
        hv = tiny_hv()
        assert hv.handle_access(ROOT_CELL, Access(
            AccessKind.IO_READ, 0x7000, 1)) is AccessOutcome.VIOLATION

    def test_unaligned_memory_access_rejected(self):
        with pytest.raises(InvariantViolation):
            Access(AccessKind.MEM_READ, 0x1001, 4)


class TestStep:
    def test_steady_state_is_silent(self):
        hv = tiny_hv()
        idle_id = hv.create_cell(small_cell("idle"))
        stress_id = hv.create_cell(CellConfig(
            name="stress", cpus=[2], mem=[MemRegion(RAM + 0x9_0000, 0x4000)],
            workload=Workload(WorkloadKind.STRESS)))
        hv.start_cell(idle_id)
        hv.start_cell(stress_id)
        before = len(hv.events)
        issued = hv.step(1000)
        assert issued == 2000
        assert hv.events[before:] == []
        assert hv.clock == 1000 * 1000

    def test_step_advances_clock_even_without_cells(self):
        hv = tiny_hv()
        hv.step(3)
        assert hv.clock == 3 * STEP_NS

    def test_stopped_cells_do_not_run(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell())
        hv.start_cell(cell_id)
        hv.stop_cell(cell_id)
        assert hv.step(10) == 0

    def test_without_a_script_cell_n_turns_are_one_addition(self):
        # 10^9 turns one at a time would take minutes; each guest's touches are n times its count
        hv = tiny_hv()
        assert (hv.step(10 ** 9), hv.clock) == (0, 10 ** 9 * STEP_NS)
        hv.start_cell(hv.create_cell(small_cell(workload=Workload(WorkloadKind.STRESS))))
        before = len(hv.events)
        assert (hv.step(10 ** 9), hv.clock) == (10 ** 9, 2 * 10 ** 9 * STEP_NS)
        assert len(hv.events) == before

    @pytest.mark.parametrize("scripted", [False, True])
    def test_the_clock_stops_at_the_int64_bound(self, scripted, tmp_path):
        # the bound raise_irqs and Scenario hold; save_session stores the clock in a u64
        hv = tiny_hv()
        if scripted:
            script = tmp_path / "ops.txt"
            script.write_text("instr cpuid\nrepeat\n")
            hv.start_cell(hv.create_cell(small_cell(
                workload=Workload(WorkloadKind.SCRIPT, str(script)))))
        hv.step(3)
        before = (hv.clock, list(hv.events), copy.deepcopy(hv.exits))
        most = (2 ** 63 - 1 - hv.clock) // STEP_NS  # the most turns the clock holds
        for n in (2 ** 62, most + 1):
            with pytest.raises(InvariantViolation, match=r"past 2\^63 - 1 ns"):
                hv.step(n)
            assert (hv.clock, hv.events, hv.exits) == before
        if not scripted:
            hv.step(most)
            assert 2 ** 63 - STEP_NS <= hv.clock < 2 ** 63
            assert load_session(save_session(hv.platform, hv))[1].clock == hv.clock


class TestScripts:
    def test_parse_script_ops(self):
        ops = parse_script(
            "# demo\nread 0x1000 4\nwrite 0x2000 8\nioread 0x3f8 1\n"
            "instr cpuid\ndistwrite 0x10\nidle\nrepeat\n")
        assert [op[0] for op in ops] == [
            "access", "access", "access", "access", "distwrite", "idle", "repeat"]
        assert ops[0][1] == Access(AccessKind.MEM_READ, 0x1000, 4)
        assert ops[4][1] == 0x10

    def test_script_workload_executes_and_repeats(self, tmp_path):
        script = tmp_path / "ops.txt"
        script.write_text("distwrite 0x0\nidle\nrepeat\n")
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell(
            workload=Workload(WorkloadKind.SCRIPT, str(script))))
        hv.start_cell(cell_id)
        hv.step(6)  # dist, idle, repeat->dist, idle, repeat->dist, idle
        assert hv.exits[cell_id][EXIT_SLOT[TrapKind.DISTRIBUTOR_EMULATION]] == 3
        kinds = [e.kind for e in hv.events if e.cell == cell_id
                 and e.kind is not TrapKind.MANAGEMENT]
        assert kinds == [TrapKind.DISTRIBUTOR_EMULATION] * 3

    def test_script_without_repeat_stops(self, tmp_path):
        script = tmp_path / "ops.txt"
        script.write_text("read 0x10080000 4\n")
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell(
            workload=Workload(WorkloadKind.SCRIPT, str(script))))
        hv.start_cell(cell_id)
        assert hv.step(5) == 1

    def test_script_is_read_once_at_create(self, tmp_path):
        # start and relaunch run the script as it was at create, like an
        # image loaded into the cell, whatever became of the file since
        script = tmp_path / "ops.txt"
        script.write_text("distwrite 0x0\nidle\nrepeat\n")
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell(
            workload=Workload(WorkloadKind.SCRIPT, str(script))))
        script.write_text("instr cpuid\nrepeat\n")
        hv.start_cell(cell_id)
        assert hv.step(6) == 3
        script.unlink()
        hv.relaunch_cell(cell_id)
        assert hv.step(6) == 3
        hv.stop_cell(cell_id)
        hv.start_cell(cell_id)
        assert hv.step(6) == 3
        counts = dict(zip(TrapKind, hv.exits[cell_id]))
        assert counts[TrapKind.DISTRIBUTOR_EMULATION] == 9
        assert counts[TrapKind.INSTRUCTION_EMULATION] == 0

    @pytest.mark.parametrize("content, error", [
        (None, FileNotFoundError),
        (b"idle \xff\n", InvariantViolation),
        (b"idle\njump 0x10\n", ConfigSyntaxError),
        (b"read 0x10080001 4\n", ConfigSemanticError),
        (b"distwrite 0x3\n", ConfigSemanticError),
    ])
    def test_refused_script_changes_nothing(self, tmp_path, content, error):
        script = tmp_path / "ops.txt"
        if content is not None:
            script.write_bytes(content)
        hv = tiny_hv()
        before = session_facts(hv)
        with pytest.raises(error):
            hv.create_cell(small_cell(workload=Workload(WorkloadKind.SCRIPT, str(script))))
        assert session_facts(hv) == before
        hv.audit()
        assert hv.create_cell(small_cell()) == 1

    def test_distwrite_without_a_window_is_refused_at_create(self, tmp_path):
        # step used to raise on it after the clock had moved, and the cell
        # stayed running
        script = tmp_path / "ops.txt"
        script.write_text("idle\ndistwrite 0x0\nrepeat\n")
        hv = windowless_hv()
        before = session_facts(hv)
        with pytest.raises(ConfigSemanticError,
                           match="^line 2: platform nogic has no gic-dist window$"):
            hv.create_cell(small_cell(workload=Workload(WorkloadKind.SCRIPT, str(script))))
        assert session_facts(hv) == before
        hv.audit()
        script.write_text("idle\nread 0x10080000 4\nrepeat\n")
        cell_id = hv.create_cell(small_cell(workload=Workload(WorkloadKind.SCRIPT, str(script))))
        hv.start_cell(cell_id)
        assert hv.step(4) == 2 and hv.clock == 4 * STEP_NS

    @pytest.mark.parametrize("line, text", [
        ("read 0x10", "read needs addr and width"),
        ("instr", "instr needs a name"),
        ("distwrite", "distwrite needs an offset"),
        ("jump 0x10", "unknown script op 'jump'"),
    ])
    def test_syntax_errors_carry_the_line(self, line, text):
        with pytest.raises(ConfigSyntaxError, match=text) as excinfo:
            parse_script("idle\n%s\nrepeat\n" % line)
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("line, text", [
        ("read 0x11 8", "line 2: memory access at 0x11 not aligned to width 8"),
        ("write 0x10 3", "line 2: access width must be 1, 2, 4 or 8"),
        ("iowrite 0x3f8 16", "line 2: access width must be 1, 2, 4 or 8"),
        ("distwrite 0x3", "line 2: distwrite offset 0x3 not aligned to 4"),
        ("read 0x%x 4" % 2**64, "line 2: address must fit in 64 bits"),
        ("ioread 0x%x 1" % 2**80, "line 2: address must fit in 64 bits"),
    ])
    def test_bad_access_names_its_line(self, line, text):
        with pytest.raises(ConfigSemanticError, match=text) as excinfo:
            parse_script("idle\n%s\nrepeat\n" % line)
        assert excinfo.value.line == 2

    def test_a_distwrite_past_64_bits_is_refused_at_create_with_its_line(self, tmp_path):
        script = tmp_path / "ops.txt"
        script.write_text("idle\ndistwrite 0x%x\nrepeat\n" % (2**64 - 4))
        hv = tiny_hv()
        before = session_facts(hv)
        with pytest.raises(ConfigSemanticError, match="^line 2: address must fit in 64 bits$"):
            hv.create_cell(small_cell(workload=Workload(WorkloadKind.SCRIPT, str(script))))
        assert session_facts(hv) == before


class TestAccessAddressBound:
    """An access names a 64-bit address or port: a larger one was logged in
    full, and a detail past 65535 bytes made save_session raise struct.error."""

    @pytest.mark.parametrize("kind", [AccessKind.MEM_READ, AccessKind.IO_WRITE])
    def test_an_address_past_64_bits_is_refused(self, kind):
        for addr in (2**64, 16**70000):
            with pytest.raises(InvariantViolation, match="^address must fit in 64 bits$"):
                Access(kind, addr, 4)
        with pytest.raises(InvariantViolation, match="^address must be non-negative$"):
            Access(kind, -4, 4)

    def test_the_last_address_traps_and_its_session_saves(self):
        hv = tiny_hv()
        guest = hv.create_cell(small_cell())
        hv.start_cell(guest)
        assert hv.handle_access(guest, Access(AccessKind.MEM_READ, 2**64 - 8, 8)) is (
            AccessOutcome.VIOLATION)
        assert hv.events[-1].detail == "MemRead 0x%x width 8" % (2**64 - 8)
        assert load_session(save_session(hv.platform, hv))[1].events == hv.events


class TestTouchOwnMemory:
    def test_stress_on_read_only_memory_reads(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell(
            flags=PermFlags.READ, workload=Workload(WorkloadKind.STRESS)))
        hv.start_cell(cell_id)
        events, exits = list(hv.events), copy.deepcopy(hv.exits)
        assert hv.step(3) == 3
        assert hv.cells[cell_id].state is CellState.RUNNING
        assert (hv.events, hv.exits) == (events, exits)

    @pytest.mark.parametrize("kind, flags", [
        (WorkloadKind.STRESS, PermFlags(0)),
        (WorkloadKind.LATENCY_RESPONDER, PermFlags.WRITE)])
    def test_no_readable_memory_issues_nothing(self, kind, flags):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell(flags=flags, workload=Workload(kind)))
        hv.start_cell(cell_id)
        before = len(hv.events)
        assert hv.step(4) == 0
        assert hv.clock == 4 * STEP_NS
        assert len(hv.events) == before


def reference_script_turn(hv, cell):
    """One turn of a script cell: its next op, where repeat goes back to the
    first op; an idle op or a script that ran out issues nothing."""
    ops = cell.script_ops
    if cell.script_pos >= len(ops):
        return 0
    if ops[cell.script_pos] == ("repeat",):
        cell.script_pos = 0
        if ops[0] == ("repeat",):
            return 0
    op = ops[cell.script_pos]
    cell.script_pos += 1
    if op == ("idle",):
        return 0
    window = hv.platform.gic_dist_window
    access = op[1] if op[0] == "access" else Access(AccessKind.MEM_WRITE, window.base + op[1], 4)
    hv.handle_access(cell.id, access)
    return 1


def reference_step(hv, n):
    """step as it was before it counted, turn by turn: each running guest,
    in id order, either runs its script's next op or, running no script,
    builds an Access to the first region of its config that grants the flag
    it needs (a stress guest writes, or else reads) and hands it to
    handle_access, which must answer DIRECT. A script guest that violates
    is no longer running, so it issues nothing from the next turn on."""
    issued = 0
    for turn in range(n):
        hv.clock += STEP_NS
        for cell_id, cell in sorted(hv.cells.items()):
            if cell_id == ROOT_CELL or cell.state is not CellState.RUNNING:
                continue
            if cell.config.workload.kind is WorkloadKind.SCRIPT:
                issued += reference_script_turn(hv, cell)
                continue
            tries = [(AccessKind.MEM_READ, PermFlags.READ)]
            if cell.config.workload.kind is WorkloadKind.STRESS:
                tries.insert(0, (AccessKind.MEM_WRITE, PermFlags.WRITE))
            for kind, need in tries:
                region = next((r for r in cell.config.mem if r.flags & need), None)
                if region is not None:
                    access = Access(kind, region.base + turn * 8 % 4096, 8)
                    assert hv.handle_access(cell_id, access) is AccessOutcome.DIRECT
                    issued += 1
                    break
    return issued


class TestStepCountsOwnedTouches:
    """step counts what the trap engine would have answered DIRECT, once
    per turn for each running guest that has a region to touch, and runs
    one op a turn of each running script guest, in id order."""

    FLAGS = (PermFlags.READ, PermFlags.WRITE, PermFlags.READ | PermFlags.WRITE, PermFlags(0))
    KINDS = (WorkloadKind.IDLE, WorkloadKind.STRESS, WorkloadKind.LATENCY_RESPONDER,
             WorkloadKind.SCRIPT, WorkloadKind.SCRIPT)
    FATES = ("created", "running", "running", "stopped", "failed", "relaunched")
    GIC = MmioDevice("gic-dist", 0x5004_1000, 0x1000)

    @staticmethod
    def script(rnd, base):
        """Random script ops over the guest's first page: emulated and direct
        ones, idles, and with some luck a read of root's RAM, which violates."""
        pool = ["read 0x%x 8" % (base + 8 * k) for k in range(4)] + [
            "instr cpuid", "instr wfi", "distwrite 0x%x" % (4 * rnd.randrange(64)), "idle",
            "read 0x%x 4" % (RAM + 0xF_F000)]
        weights = [3, 3, 3, 3, 4, 2, 4, 3, 1]
        ops = rnd.choices(pool, weights, k=rnd.randint(0, 8))
        return "\n".join(ops + ["repeat"] * rnd.randint(0, 1)) + "\n"

    @pytest.mark.parametrize("seed", range(40))
    def test_step_matches_the_trap_engine(self, seed, tmp_path):
        rnd = random.Random(seed)
        platform = build_platform(PlatformSpec(name="steps", resources=[
            Cpu(i) for i in range(13)] + [MemRegion(RAM, 0x10_0000), self.GIC]))
        hv = enable(platform, full_platform_config(platform))
        for index in range(rnd.randint(1, 12)):
            base = RAM + index * 0x4000
            kind, path = rnd.choice(self.KINDS), None
            if kind is WorkloadKind.SCRIPT:
                path = tmp_path / ("g%d.txt" % index)
                path.write_text(self.script(rnd, base))
            cell_id = hv.create_cell(CellConfig(
                name="g%d" % index, cpus=[index + 1],
                mem=[MemRegion(base + k * 0x2000, 0x1000, rnd.choice(self.FLAGS))
                     for k in range(rnd.randint(1, 2))],
                workload=Workload(kind, path and str(path))))
            fate = rnd.choice(self.FATES)
            if fate != "created":
                hv.start_cell(cell_id)
            if fate == "stopped":
                hv.stop_cell(cell_id)
            if fate in ("failed", "relaunched"):
                assert hv.handle_access(cell_id, Access(AccessKind.MEM_READ, 0, 8)) \
                    is AccessOutcome.VIOLATION
            if fate == "relaunched":
                hv.relaunch_cell(cell_id)
        twin = copy.deepcopy(hv)
        events, exits = list(hv.events), copy.deepcopy(hv.exits)
        scripted = any(c.script_ops for c in hv.cells.values())
        for n in (rnd.randint(2, 40), rnd.randint(0, 5)):
            assert hv.step(n) == reference_step(twin, n)
            assert hv.clock == twin.clock
            assert (hv.events, hv.exits) == (twin.events, twin.exits)
            assert [(c.id, c.state, c.script_pos) for c in hv.cells.values()] == \
                [(c.id, c.state, c.script_pos) for c in twin.cells.values()]
        if not scripted:  # only a script reaches the trap engine
            assert (hv.events, hv.exits) == (events, exits)
        hv.audit()

    def test_script_guests_step_in_id_order_and_stop_at_a_violation(self, tmp_path):
        """Two script guests trap in every turn, so the event log gives their
        order; the second violates on its third op and issues nothing after."""
        (tmp_path / "a.txt").write_text("instr cpuid\nrepeat\n")
        (tmp_path / "b.txt").write_text("distwrite 0x0\nidle\nread 0x%x 8\ninstr cpuid\n" % RAM)
        hv = tiny_hv()
        ids = [hv.create_cell(small_cell(
            name, cpu=cpu, base=RAM + 0x8_0000 + cpu * 0x2000,
            workload=Workload(WorkloadKind.SCRIPT, str(tmp_path / ("%s.txt" % name)))))
            for name, cpu in (("a", 1), ("b", 2))]
        for cell_id in reversed(ids):
            hv.start_cell(cell_id)
        before = len(hv.events)
        assert hv.step(5) == 5 + 2
        assert [(e.time_ns, e.cell, e.kind) for e in hv.events[before:]] == [
            (1000, 1, TrapKind.INSTRUCTION_EMULATION), (1000, 2, TrapKind.DISTRIBUTOR_EMULATION),
            (2000, 1, TrapKind.INSTRUCTION_EMULATION),
            (3000, 1, TrapKind.INSTRUCTION_EMULATION), (3000, 2, TrapKind.ACCESS_VIOLATION),
            (4000, 1, TrapKind.INSTRUCTION_EMULATION), (5000, 1, TrapKind.INSTRUCTION_EMULATION)]
        assert [hv.cells[i].script_pos for i in ids] == [1, 3]
        assert hv.cells[2].state is CellState.FAILED


class TestEnumMembers:
    """The enums' public behaviour, which the trap path's module constants
    and TrapKind's identity hash must leave as it was."""

    ENUMS = {
        CellState: ["created", "running", "stopped", "failed"],
        TrapKind: ["IrqReinjection", "DistributorEmulation", "InstructionEmulation",
                   "AccessViolation", "Management"],
        AccessKind: ["MemRead", "MemWrite", "IoRead", "IoWrite", "SensitiveInstr"],
        AccessOutcome: ["direct", "emulated", "violation"],
        WorkloadKind: ["idle", "stress", "latency-responder", "script"],
    }

    @pytest.mark.parametrize("enum", list(ENUMS), ids=lambda enum: enum.__name__)
    def test_lookup_iteration_and_copies(self, enum):
        assert [member.value for member in enum] == self.ENUMS[enum]
        assert list(enum.__members__) == [member.name for member in enum]
        for member in enum:
            assert enum(member.value) is member
            assert enum[member.name] is member
            assert getattr(enum, member.name) is member
            assert enum.__members__[member.name] is member
            assert copy.copy(member) is member
            assert copy.deepcopy(member) is member
            assert pickle.loads(pickle.dumps(member)) is member
            assert hash(member) == hash(copy.deepcopy(member))
        assert CellState("running") is CellState.RUNNING
        assert CellState["RUNNING"] is CellState.RUNNING

    def test_exit_slots_follow_trap_kind_order(self):
        assert list(EXIT_SLOT.items()) == [(kind, slot) for slot, kind in enumerate(TrapKind)]
        for kind in TrapKind:
            assert EXIT_SLOT[pickle.loads(pickle.dumps(kind))] == EXIT_SLOT[kind]
            assert {kind: 1}.get(TrapKind(kind.value)) == 1

    def test_trap_path_constants_are_the_members(self):
        assert (hvcore._RUNNING, hvcore._FAILED, hvcore._STRESS) == (
            CellState.RUNNING, CellState.FAILED, WorkloadKind.STRESS)
        assert (hvcore._MEM_WRITE, hvcore._SENSITIVE_INSTR) == (
            AccessKind.MEM_WRITE, AccessKind.SENSITIVE_INSTR)
        assert (hvcore._DIRECT, hvcore._EMULATED, hvcore._VIOLATION) == tuple(AccessOutcome)
        assert (hvcore._REINJECT, hvcore._EMULATE_DIST, hvcore._EMULATE_INSTR,
                hvcore._VIOLATE, hvcore._MANAGE) == tuple(TrapKind)


class TestEvents:
    def test_export_is_json_lines_in_order(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell())
        hv.start_cell(cell_id)
        hv.step(2)
        hv.handle_access(cell_id, Access(AccessKind.MEM_READ, RAM, 4))
        lines = hv.export_events().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert all(set(p) == {"t", "cell", "cause", "detail"} for p in parsed)
        assert [p["t"] for p in parsed] == sorted(p["t"] for p in parsed)
        assert parsed[-1]["cause"] == "AccessViolation"

    def test_owner_of_unknown_resource(self):
        hv = tiny_hv()
        assert hv.ledger.owner_of_unit(Cpu(9)) is None
        assert hv.ledger.range_owner(0xF000_0000, 0xF000_1000) is None
        nope = MmioDevice("nope", 0xF000_0000, 0x1000)
        assert hv.ledger.owner_of_unit(nope) is None
        assert hv.platform.locate(nope) == (DEVICE, 0)
        for units in (1 << 9, 0, 0), (0, 1 << 4, 0):  # the tiny platform has 4 CPUs, 4 devices
            with pytest.raises(InvariantViolation, match="not all on the platform"):
                hv.ledger.transfer_units(1, units)
        with pytest.raises(NoSuchResource):
            hv.ledger.transfer_range((0xF000_0000, 0x1000, RW), ROOT_CELL, 1)


class TestAudit:
    UART = MmioDevice("uart", 0x7000_6000, 0x1000)

    @pytest.mark.parametrize("unit, text", [
        (IrqLine(33), "irq 33"), (UART, "mmio uart@0x70006000"), (Cpu(1), "cpu 1")])
    def test_unit_handed_back_to_root_is_caught(self, unit, text):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell(irqs=[33], devices=[self.UART]))
        hv.audit()
        kind, bit = hv.platform.locate(unit)  # simulate corruption: hand the unit's bit to root
        masks = hv.ledger._masks[kind]
        masks[cell_id] &= ~bit
        masks[ROOT_CELL] |= bit
        ledger = hv.ledger
        assert ledger.owner_of_unit(unit) == ROOT_CELL
        with pytest.raises(InvariantViolation, match="cell %d lost %s" % (cell_id, text)):
            hv.audit()

    @pytest.mark.parametrize("unit, text", [
        (IrqLine(35), "irq 35"), (UART, "mmio uart@0x70006000"), (Cpu(2), "cpu 2")])
    def test_unit_taken_from_root_is_caught(self, unit, text):
        # the guest keeps all its own units and also holds one of root's, which
        # would, for the uart, map it read-write into the guest
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell(irqs=[33]))
        kind, bit = hv.platform.locate(unit)  # simulate corruption: hand root's unit's bit over
        masks = hv.ledger._masks[kind]
        masks[ROOT_CELL] &= ~bit
        masks[cell_id] |= bit
        ledger = hv.ledger
        assert ledger.owner_of_unit(unit) == cell_id
        with pytest.raises(InvariantViolation,
                           match="^cell %d holds unconfigured %s$" % (cell_id, text)):
            hv.audit()

    def test_a_unit_no_cell_holds_is_a_violation_not_a_type_error(self):
        # a ledger whose masks lost root's CPU 1 (audit refuses it): validation
        # formatted the missing owner with %d and raised a raw TypeError
        hv = tiny_hv()
        hv.ledger._masks[CPU][ROOT_CELL] &= ~0b10
        assert hv.ledger.owner_of_unit(Cpu(1)) is None
        (violation,) = validate_against(small_cell(cpu=1), hv.platform, hv.ledger)
        assert str(violation) == "NotOwnedByRoot(cpu 1): held by no cell"
        with pytest.raises(ValidationFailed, match="held by no cell"):
            hv.create_cell(small_cell(cpu=1))
        with pytest.raises(InvariantViolation, match="cpu masks"):
            hv.audit()

    def test_lost_unit_is_named_before_an_extra_one(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell(irqs=[33]))
        masks = hv.ledger._masks[IRQ]  # the guest's irq 33 swapped for root's irq 35
        swap = hv.platform.masks((), (), [33, 35])[IRQ]
        masks[cell_id] ^= swap
        masks[ROOT_CELL] ^= swap
        with pytest.raises(InvariantViolation, match="^cell %d lost irq 33$" % cell_id):
            hv.audit()

    @pytest.mark.parametrize("state", [CellState.CREATED, CellState.STOPPED])
    def test_root_neither_running_nor_failed_is_caught(self, state):
        hv = tiny_hv()
        hv.cells[ROOT_CELL].state = state
        with pytest.raises(InvariantViolation,
                           match="^root cell is %s, not running or failed$" % state.value):
            hv.audit()

    def test_missing_root_is_caught(self):
        hv = tiny_hv()
        del hv.cells[ROOT_CELL]
        with pytest.raises(InvariantViolation, match="^root cell is missing, not running"):
            hv.audit()

    def test_failed_root_passes(self):
        hv = tiny_hv()
        hv.handle_access(ROOT_CELL, Access(AccessKind.MEM_READ, 0xDEAD_0000))
        assert hv.cells[ROOT_CELL].state is CellState.FAILED
        hv.audit()

    @pytest.fixture()
    def two_guests(self):
        hv = tiny_hv()
        hv.create_cell(small_cell("a", cpu=1, base=RAM + 0x8_0000))
        hv.create_cell(small_cell("b", cpu=2, base=RAM + 0xA_0000, flags=PermFlags.READ))
        hv.audit()
        return hv

    @pytest.mark.parametrize("corrupt, text", [
        (lambda a, b: [a[:3] + (PermFlags.READ,), b], r"cell 1 lost mem \[0x10080000"),
        (lambda a, b: [a[:1] + (b[0] + 0x1000,) + a[2:], b], "overlaps the one before"),
        (lambda a, b: [a, (0x2000_0000, 0x2000_2000) + b[2:]],
         "not within one platform region"),
        (lambda a, b: [a, b[:3] + (PermFlags.READ | PermFlags.WRITE,)],
         r"cell 2 lost mem \[0x100a0000, 0x100a2000\) <PermFlags.READ: 1>"),
        (lambda a, b: [a, b[:2] + (9,) + b[3:]], r"dead cells \[9\]"),
        (lambda a, b: [b], "cell 1 lost mem"),
        (lambda a, b: [a, b[:2] + (ROOT_CELL,) + b[3:]], "cell 2 lost mem"),
        (lambda a, b: [a, b, (b[1], b[1] + 0x1000, 2, b[3])],
         r"cell 2 holds unconfigured mem \[0x100a2000"),
    ], ids=["flags", "overlap", "outside", "wider-flags", "dead-owner", "missing",
            "root-claim", "extra"])
    def test_each_claim_corruption_is_caught(self, two_guests, corrupt, text):
        two_guests.ledger._claims = corrupt(*two_guests.ledger._claims)
        with pytest.raises(InvariantViolation, match=text):
            two_guests.audit()


def old_mem_allowed(hv, cell_id, lo, hi, write):
    """_mem_allowed as it was before the claim list: the root cell asked a
    coalescing segment ledger, a guest scanned its own config."""
    need = PermFlags.WRITE if write else PermFlags.READ
    if cell_id == ROOT_CELL:
        host = hv.platform.host_region(lo, hi)
        claimed = any(region.base < hi and lo < region.end
                      for guest_id, guest in hv.cells.items() if guest_id != ROOT_CELL
                      for region in guest.config.mem)
        if host is not None and not claimed:
            return bool(host[2] & need)  # the row's flags
    else:
        for region in hv.cells[cell_id].config.mem:
            if region.base <= lo and hi <= region.end:
                return bool(region.flags & need)
    for channel in hv.channels.values():
        window = channel.region
        if channel.cell_b == cell_id and window.base <= lo and hi <= window.end:
            return True
    for dev in hv.platform.mmio_devices:
        if dev.base <= lo and hi <= dev.end:
            return hv.ledger.owner_of_unit(dev) == cell_id
    return False


def map_outcome(hv, cell_id, lo, hi, write):
    """What the cell's access map answers for [lo, hi): the rights of the
    one memory entry that holds it, as handle_access reads them."""
    table = hv._build_access_map(cell_id).mem
    index = bisect_right([entry[0] for entry in table], lo)
    if index and hi <= table[index - 1][1]:
        rights = table[index - 1][2]
        if rights & (2 if write else 1):
            return AccessOutcome.DIRECT
        if rights & 4:
            return AccessOutcome.EMULATED
    return AccessOutcome.VIOLATION


class TestAccessRuleMatchesTheConfigScan:
    """Criterion 5's partitions plus a channel: the access map allows
    exactly what the root segment ledger and the guest config scan did."""

    RW = PermFlags.READ | PermFlags.WRITE

    @settings(max_examples=40, deadline=None)
    @given(a_page=st.integers(4, 200),
           a_sizes=st.lists(st.integers(1, 4), min_size=1, max_size=2),
           a_flags=st.lists(st.sampled_from([RW, PermFlags.READ, PermFlags.WRITE]),
                            min_size=2, max_size=2),
           gap=st.integers(0, 2), b_pages=st.integers(2, 6))
    def test_outcomes_match(self, a_page, a_sizes, a_flags, gap, b_pages):
        page = 0x1000
        hv = tiny_hv()
        bases = [a_page, a_page + a_sizes[0]][:len(a_sizes)]
        attacker = hv.create_cell(CellConfig(
            name="attacker", cpus=[1],
            mem=[MemRegion(RAM + base * page, size * page, flags)
                 for base, size, flags in zip(bases, a_sizes, a_flags)]))
        b_base = RAM + (a_page + sum(a_sizes) + gap) * page
        victim = hv.create_cell(CellConfig(
            name="victim", cpus=[3], mem=[MemRegion(b_base, b_pages * page, self.RW)],
            devices=[MmioDevice("uart", 0x7000_6000, 0x1000), IoPortRange(0x3F8, 0x8)]))
        window = hv.channels[create_channel(hv, victim, attacker, page, 1)].region
        for cell_id in (attacker, victim):
            hv.start_cell(cell_id)

        a_lo, a_hi = RAM + a_page * page, RAM + (a_page + sum(a_sizes)) * page
        edges = {RAM, RAM + 0x20_0000, a_lo, a_hi, RAM + bases[-1] * page, b_base,
                 b_base + b_pages * page, window.base, 0x7000_6000, 0x5004_1000}
        spans = [(a_lo, a_hi), (b_base, b_base + b_pages * page), (RAM, a_lo)]
        for edge in edges:
            spans += [(edge - 8, edge), (edge - 8, edge + 8), (edge, edge + 8),
                      (edge - page, edge + page)]
        for cell_id in (ROOT_CELL, attacker, victim):
            cell = hv.cells[cell_id]
            for (lo, hi), write in itertools.product(spans, (False, True)):
                emulated = 0x5004_1000 <= lo and hi <= 0x5004_2000
                want = (AccessOutcome.EMULATED if emulated else AccessOutcome.DIRECT
                        if old_mem_allowed(hv, cell_id, lo, hi, write)
                        else AccessOutcome.VIOLATION)
                assert map_outcome(hv, cell_id, lo, hi, write) is want, (cell_id, lo, hi, write)
                if hi - lo != 8:
                    continue
                kind = AccessKind.MEM_WRITE if write else AccessKind.MEM_READ
                assert hv.handle_access(cell_id, Access(kind, lo, 8)) is want
                cell.state = CellState.RUNNING
        if len(a_sizes) == 2:  # one span over both of the attacker's regions
            assert hv.ledger.range_owner(a_lo, a_hi) is None
            assert map_outcome(hv, attacker, a_lo, a_hi, False) is AccessOutcome.VIOLATION


class TestLedger:
    def test_transfer_and_return_coalesces(self, tiny):
        ledger = OwnershipLedger(tiny)
        baseline = ledger.keys_multiset()
        ledger.transfer_range((RAM + 0x1000, 0x2000, RW), 0, 5)
        assert ledger.range_owner(RAM + 0x1000, RAM + 0x3000) == 5
        assert ledger.range_owner(RAM, RAM + 0x2000) is None
        ledger.transfer_range((RAM + 0x1000, 0x2000, RW), 5, 0)
        assert ledger.keys_multiset() == baseline
        ledger.audit()

    def test_transfer_verifies_current_owner(self, tiny):
        ledger = OwnershipLedger(tiny)
        with pytest.raises(InvariantViolation):
            ledger.transfer_range((RAM, 0x1000, RW), 3, 4)
        ledger.transfer_units(2, (0b1, 0b1, 0b1))
        for units in (0b1, 0, 0), (0, 0b1, 0), (0, 0, 0b1):  # each kind's bit 0 is cell 2's now
            with pytest.raises(InvariantViolation, match="not all root's"):
                ledger.transfer_units(3, tuple(mask | 0b10 for mask in units))
        assert ledger.owners() == {0, 2}  # all or none: cell 3 got none of the other bits

    def test_transfer_range_needs_single_region(self, tiny):
        ledger = OwnershipLedger(tiny)
        with pytest.raises(NoSuchResource):
            ledger.transfer_range((0x1000, 0x1000, RW), 0, 1)

    def test_release_all(self, tiny):
        ledger = OwnershipLedger(tiny)
        ledger.transfer_units(4, (0b10, tiny.full_masks[DEVICE], tiny.masks((), (), [33, 39])[IRQ]))
        ledger.transfer_range((RAM, 0x4000, RW), 0, 4)
        assert ledger.owners() == {0, 4}
        assert ledger.masks_of(4) == [0b10, 0b1111, 0b1000_0010]
        ledger.release_all(4)
        assert ledger.owners() == {0}
        assert ledger._masks == tuple({0: full} for full in tiny.full_masks)
        assert {ledger.owner_of_unit(unit) for unit in tiny.resources
                if not isinstance(unit, MemRegion)} == {0}
        ledger.audit()

    def test_masks_index_units_not_irq_numbers(self):
        # bit i of an IRQ mask is the platform's i-th IRQ number: a line
        # 2^32 - 1 takes bit 1 here, not a 512 MiB int
        platform = build_platform(PlatformSpec(name="huge", resources=[
            Cpu(0), Cpu(1), MemRegion(RAM, 0x20_0000), IrqLine(0), IrqLine(0xFFFF_FFFF)]))
        hv = enable(platform, full_platform_config(platform))
        cell_id = hv.create_cell(small_cell(irqs=[0xFFFF_FFFF]))
        hv.start_cell(cell_id)
        ledger = hv.ledger
        assert ledger._masks[IRQ] == {ROOT_CELL: 0b01, cell_id: 0b10}
        assert max(mask.bit_length() for mask in ledger._masks[IRQ].values()) <= 2
        assert (ledger.owner_of_unit(IrqLine(0xFFFF_FFFF)), ledger.owner_of_unit(IrqLine(0))) == (
            cell_id, ROOT_CELL)
        assert ledger.owner_of_unit(IrqLine(0xFFFF_FFFE)) is None
        hv.audit()
        assert raise_irqs(hv, 0xFFFF_FFFF, [0], latency_streams(1)).owner == cell_id
        _, restored = load_session(save_session(platform, hv))
        assert restored.ledger._masks == ledger._masks
        hv.destroy_cell(cell_id)
        assert ledger._masks[IRQ] == {ROOT_CELL: 0b11}

    def test_claims_move_whole(self, tiny):
        ledger = OwnershipLedger(tiny)
        ledger.transfer_range((RAM, 0x4000, RW), 0, 4)
        for frm, to, region in [
                (4, 0, (RAM, 0x1000, RW)),           # part of the claim
                (4, 0, (RAM, 0x8000, RW)),           # more than the claim
                (3, 0, (RAM, 0x4000, RW)),           # not the holder
                (4, 5, (RAM, 0x4000, RW)),           # cell to cell
                (0, 5, (RAM + 0x2000, 0x4000, RW)),  # overlaps a claim
                (0, 0, (RAM + 0x8000, 0x1000, RW))]:
            with pytest.raises(InvariantViolation):
                ledger.transfer_range(region, frm, to)
        assert ledger.range_owner(RAM, RAM + 0x4000) == 4

    def test_adjacent_claims_answer_one_at_a_time(self, tiny):
        ledger = OwnershipLedger(tiny)
        ledger.transfer_range((RAM, 0x1000, RW), 0, 4)
        ledger.transfer_range((RAM + 0x1000, 0x1000, PermFlags.READ.value), 0, 4)
        assert ledger.range_owner(RAM, RAM + 8) == 4
        assert ledger.range_owner(RAM + 0x1000, RAM + 0x1008) == 4
        assert ledger.range_owner(RAM + 0xFFC, RAM + 0x1004) is None
        assert ledger.range_owner(RAM + 0x2000, RAM + 0x3000) == ROOT_CELL
        assert ledger.range_owner(RAM + 0x1FFC, RAM + 0x2004) is None
        assert ledger.owners() == {0, 4}

    def test_owner_of_answers_per_claim(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(CellConfig(name="g", cpus=[1], mem=[
            MemRegion(RAM, 0x1000), MemRegion(RAM + 0x1000, 0x1000)]))
        assert hv.ledger.range_owner(RAM + 0x1000, RAM + 0x2000) == cell_id
        assert hv.ledger.range_owner(RAM, RAM + 0x2000) is None  # spans two claims

    def test_adjacent_claims_keep_their_own_flags(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(CellConfig(name="g", cpus=[1], mem=[
            MemRegion(RAM, 0x1000), MemRegion(RAM + 0x1000, 0x1000, PermFlags.READ)]))
        hv.start_cell(cell_id)
        for kind, addr, want in [
                (AccessKind.MEM_WRITE, RAM, AccessOutcome.DIRECT),
                (AccessKind.MEM_READ, RAM + 0x1000, AccessOutcome.DIRECT),
                (AccessKind.MEM_WRITE, RAM + 0x1000, AccessOutcome.VIOLATION)]:
            assert hv.handle_access(cell_id, Access(kind, addr, 8)) is want

    def test_root_owns_what_no_claim_covers(self, tiny):
        ledger = OwnershipLedger(tiny)
        ledger.transfer_range((RAM + 0x1000, 0x1000, RW), 0, 4)
        ledger.transfer_range((RAM + 0x3000, 0x1000, RW), 0, 5)
        base, size, _ = tiny.host_region(RAM, RAM + 1)
        end = base + size
        mem = sorted((key.base, key.end) for key in ledger.keys_multiset()
                     if isinstance(key, MemRegion))
        bounds = [RAM, RAM + 0x1000, RAM + 0x2000, RAM + 0x3000, RAM + 0x4000, end]
        assert mem == list(zip(bounds, bounds[1:]))
        assert [ledger.range_owner(lo, hi) for lo, hi in mem] == [0, 4, 0, 5, 0]


class LifecycleMachine(RuleBasedStateMachine):
    """Random walk over management operations; ownership must stay conserved."""

    def __init__(self):
        super().__init__()
        platform = make_tiny_platform()
        self.hv = enable(platform, full_platform_config(platform))
        self.baseline = self.hv.ledger.keys_multiset()
        self.counter = 0

    def _free_page(self):
        for page in range(0, 0x10_0000, 0x1000):
            base = RAM + page
            if self.hv.ledger.range_owner(base, base + 0x1000) == ROOT_CELL:
                return base
        return None

    @rule(cpu=st.sampled_from([1, 2, 3]))
    def create(self, cpu):
        base = self._free_page()
        if base is None or self.hv.ledger.owner_of_unit(Cpu(cpu)) != ROOT_CELL:
            return
        self.counter += 1
        self.hv.create_cell(CellConfig(
            name="g%d" % self.counter, cpus=[cpu],
            mem=[MemRegion(base, 0x1000)]))

    def _pick(self, wanted):
        for cell_id, cell in sorted(self.hv.cells.items()):
            if cell_id != ROOT_CELL and cell.state in wanted:
                return cell_id
        return None

    @rule()
    def start(self):
        cell_id = self._pick((CellState.CREATED, CellState.STOPPED))
        if cell_id is not None:
            self.hv.start_cell(cell_id)

    @rule()
    def stop(self):
        cell_id = self._pick((CellState.RUNNING, CellState.FAILED))
        if cell_id is not None:
            self.hv.stop_cell(cell_id)

    @rule()
    def relaunch(self):
        cell_id = self._pick(
            (CellState.RUNNING, CellState.STOPPED, CellState.FAILED))
        if cell_id is not None:
            self.hv.relaunch_cell(cell_id)

    @rule()
    def destroy(self):
        cell_id = self._pick(tuple(CellState))
        if cell_id is not None:
            self.hv.destroy_cell(cell_id)

    @invariant()
    def conserved(self):
        self.hv.audit()
        if len(self.hv.cells) == 1:
            # root's share is the whole platform RAM again once no claim is left
            assert self.hv.ledger.keys_multiset() == self.baseline

    def teardown(self):
        for cell_id in sorted(self.hv.cells):
            if cell_id != ROOT_CELL:
                self.hv.destroy_cell(cell_id)
        self.hv.audit()
        assert self.hv.ledger.keys_multiset() == self.baseline


LifecycleMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)
TestLifecycleWalk = LifecycleMachine.TestCase


def test_random_platform_create_destroy_conserves():
    rnd = random.Random(42)
    for _ in range(30):
        platform = random_platform(rnd)
        hv = enable(platform, full_platform_config(platform))
        baseline = hv.ledger.keys_multiset()
        cpus = list(platform.cpus[1:]) or []
        if cpus:
            cfg = config_from_units(
                rnd, "g", cpus[:1], platform.mem_regions[:1], (), ())
            cell_id = hv.create_cell(cfg)
            hv.audit()
            hv.destroy_cell(cell_id)
        hv.audit()
        assert hv.ledger.keys_multiset() == baseline
