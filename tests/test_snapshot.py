import hashlib
import random
import struct
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from cellsim import (
    EXIT_SLOT,
    ROOT_CELL,
    Access,
    AccessKind,
    BusModel,
    CellConfig,
    CellState,
    Cpu,
    GicVersion,
    Hypervisor,
    IoPortRange,
    IrqLine,
    MemRegion,
    MmioDevice,
    OwnershipLedger,
    PciDevice,
    PermFlags,
    PlatformSpec,
    TrapKind,
    Workload,
    WorkloadKind,
    build_platform,
    emit_binary,
    full_platform_config,
    jetson_tk1,
    latency_streams,
    load_binary,
    load_session,
    raise_irqs,
    save_session,
)
from cellsim.errors import (
    BadMagic,
    CellSimError,
    ConfigMismatch,
    InvariantViolation,
    TruncatedRecord,
    UnsupportedVersion,
)
from cellsim import cellconfig, snapshot
from cellsim.cli import main
from cellsim.machine import MMIO_NAME_BYTES, resource_layout
from cellsim.snapshot import MAGIC, VERSION

from conftest import config_with, make_tiny_platform, with_bus
from gen import random_config, random_platform
from test_hvcore import RAM, small_cell, tiny_hv, windowless_hv


def populated_hv():
    """Hypervisor with cells in several states, images, and counters."""
    hv = tiny_hv(seed=21)
    running = hv.create_cell(small_cell("running", cpu=1, irqs=[33]))
    hv.load_image(running, RAM + 0x8_0000, b"\x01\x02\x03\x04")
    hv.load_image(running, RAM + 0x8_1000, b"\xFF" * 32)
    hv.start_cell(running)
    stopped = hv.create_cell(small_cell("stopped", cpu=2, base=RAM + 0xA_0000))
    hv.start_cell(stopped)
    hv.stop_cell(stopped)
    hv.create_cell(small_cell("fresh", cpu=3, base=RAM + 0xC_0000))
    hv.step(5)
    return hv


def disabled_after_populating():
    """populated_hv with its cells destroyed and the hypervisor disabled."""
    hv = populated_hv()
    hv.stop_cell(1)
    for cell_id in (1, 2, 3):
        hv.destroy_cell(cell_id)
    hv.disable()
    return hv


class TestPlatformOnly:
    def test_round_trip(self, tiny):
        platform, hv = load_session(save_session(tiny, None))
        assert hv is None
        assert platform == tiny

    def test_round_trip_keeps_bus_overrides(self, tiny):
        bus = tiny.bus
        custom = with_bus(tiny, BusModel(0.5, bus.hv_overhead, bus.contention,
                                         bus.contention_prob, quantize_enabled=False))
        platform, _ = load_session(save_session(custom, None))
        assert platform.bus.base_latency_us == 0.5
        assert platform.bus.quantize_enabled is False
        assert platform.bus.phase_jitter_enabled is True

    def test_jetson_round_trip(self, jetson):
        platform, _ = load_session(save_session(jetson, None))
        assert platform == jetson


class TestDisabledSession:
    def test_never_enabled(self, tiny):
        hv = Hypervisor(tiny, seed=5)
        platform, restored = load_session(save_session(tiny, hv))
        assert restored is not None
        assert not restored.enabled and restored.ledger is None
        assert restored.seed == 5
        assert restored.events == []

    def test_enabled_then_disabled_keeps_events(self):
        hv = tiny_hv()
        hv.disable()
        _, restored = load_session(save_session(hv.platform, hv))
        assert not restored.enabled and restored.ledger is None
        assert [e.detail for e in restored.events] == ["enable", "disable"]


class TestEnabledSession:
    def test_full_round_trip(self):
        hv = populated_hv()
        _, restored = load_session(save_session(hv.platform, hv))

        assert restored.enabled
        assert restored.clock == hv.clock
        assert restored.seed == hv.seed
        assert restored.events == hv.events
        assert set(restored.cells) == set(hv.cells)
        for cell_id, cell in hv.cells.items():
            twin = restored.cells[cell_id]
            assert twin.config == cell.config
            assert twin.state is cell.state
            assert twin.memory_image == cell.memory_image
            assert restored.exits[cell_id] == hv.exits[cell_id]
        restored.audit()
        assert restored.step(7) == hv.step(7)
        assert (restored.clock, restored.events) == (hv.clock, hv.events)

    def test_ledger_segments_survive(self):
        hv = populated_hv()
        _, restored = load_session(save_session(hv.platform, hv))
        for resource in hv.platform.resources:
            if isinstance(resource, MemRegion):
                continue
            assert (restored.ledger.owner_of_unit(resource)
                    == hv.ledger.owner_of_unit(resource))
        assert restored.ledger.range_owner(RAM + 0x8_0000, RAM + 0x8_2000) == 1
        assert restored.ledger.range_owner(RAM + 0x1_0000, RAM + 0x1_1000) == 0
        assert restored.ledger.keys_multiset() == hv.ledger.keys_multiset()

    def test_cell_id_sequence_continues(self):
        hv = populated_hv()
        expected_next = hv._next_cell_id
        _, restored = load_session(save_session(hv.platform, hv))
        new_id = restored.create_cell(small_cell("later", cpu=0, base=RAM + 0xE_0000))
        assert new_id == expected_next

    def test_restored_session_keeps_working(self):
        hv = populated_hv()
        _, restored = load_session(save_session(hv.platform, hv))
        restored.stop_cell(1)
        restored.destroy_cell(1)
        restored.audit()
        assert restored.cells[2].state is CellState.STOPPED


class TestRejection:
    def test_bad_magic(self, tiny):
        blob = bytearray(save_session(tiny, None))
        blob[0] ^= 0x55
        with pytest.raises(BadMagic):
            load_session(bytes(blob))

    def test_unsupported_version(self, tiny):
        blob = bytearray(save_session(tiny, None))
        struct.pack_into("<H", blob, 4, VERSION + 1)
        with pytest.raises(UnsupportedVersion):
            load_session(bytes(blob))

    def test_truncation(self):
        hv = populated_hv()
        blob = save_session(hv.platform, hv)
        for cut in (0, 3, 6, len(blob) // 2, len(blob) - 1):
            with pytest.raises(TruncatedRecord):
                load_session(blob[:cut])

    def test_trailing_bytes(self, tiny):
        blob = save_session(tiny, None)
        with pytest.raises(InvariantViolation):
            load_session(blob + b"\0")

    def test_header_magic_value(self, tiny):
        blob = save_session(tiny, None)
        assert struct.unpack_from("<IH", blob) == (MAGIC, VERSION)

    def test_ownership_by_dead_cell_rejected(self):
        hv = populated_hv()
        hv.ledger._cpus[99] = hv.ledger._cpus.pop(1)  # simulate corruption
        with pytest.raises(InvariantViolation, match="dead cells"):
            hv.audit()
        # the ledger is not stored, so the corruption cannot be saved
        _, restored = load_session(save_session(hv.platform, hv))
        assert restored.ledger.owner_of_unit(Cpu(1)) == 1

    def test_unit_set_divergence_rejected(self):
        hv = populated_hv()
        del hv.ledger._devices[hv.platform.mmio_devices[0]]
        with pytest.raises(InvariantViolation, match="diverge"):
            hv.audit()

    def test_extra_unit_key_rejected(self):
        hv = populated_hv()
        hv.ledger._devices[PciDevice(0x99)] = 0  # one key more than the platform has
        with pytest.raises(InvariantViolation, match="diverge"):
            hv.audit()
        del hv.ledger._devices[hv.platform.mmio_devices[0]]  # as many keys, one foreign
        with pytest.raises(InvariantViolation, match="diverge"):
            hv.audit()

    @pytest.mark.parametrize("what, masks", [("cpu", "_cpus"), ("irq", "_irqs")])
    def test_overlapping_masks_rejected(self, what, masks):
        hv = populated_hv()  # cell 1 owns cpu 1 and irq 33, cell 2 cpu 2
        held = getattr(hv.ledger, masks)
        held[2] = held.get(2, 0) | held[1]
        with pytest.raises(InvariantViolation, match=r"^%s masks \(cell 0: .*, cell 2: 0x[0-9a-f]+,"
                           r" .*\) overlap, or their union is not the platform's" % what):
            hv.audit()

    @pytest.mark.parametrize("what, masks, full", [("cpu", "_cpus", 0xF), ("irq", "_irqs", 0xFF)])
    @pytest.mark.parametrize("change", ["beyond", "dropped"])
    def test_masks_whose_union_is_not_the_platform_mask_rejected(self, what, masks, full, change):
        hv = populated_hv()  # the tiny platform: 4 CPUs, 8 IRQ lines
        held = getattr(hv.ledger, masks)
        if change == "beyond":
            held[1] |= full + 1  # a unit the platform lacks
        else:
            held[ROOT_CELL] &= ~1  # root's cpu 0 or irq 32, which no mask holds now
        with pytest.raises(InvariantViolation, match=r"^%s masks \(.*\) overlap, or their union"
                           r" is not the platform's 0x%x$" % (what, full)):
            hv.audit()

    @pytest.mark.parametrize("fault, held", [
        ("grab", "cell 0: 0x1, cell 1: 0x2, cell 2: 0x6, cell 3: 0xa"),  # overlap
        ("drop", "cell 0: 0x1, cell 1: 0x0, cell 2: 0x0, cell 3: 0x0")],  # union short
        ids=["grab", "drop"])
    def test_load_refuses_masks_a_faulty_claim_leaves(self, monkeypatch, fault, held):
        hv = populated_hv()  # cells 1-3 hold cpus 1-3
        blob = save_session(hv.platform, hv)

        def faulty(ledger, cell, cpus, irqs, devices):
            # grab takes cpu 1 too, whoever holds it; drop takes the cpus from root only
            ledger._cpus[ROOT_CELL] &= ~cpus
            ledger._cpus[cell] = cpus | 0b10 if fault == "grab" else 0

        monkeypatch.setattr(OwnershipLedger, "transfer_units", faulty)
        with pytest.raises(InvariantViolation, match=r"^cpu masks \(%s\) overlap, or their union"
                           r" is not the platform's 0xf$" % held):
            load_session(blob)

    @pytest.mark.parametrize("field, ids, unit", [
        ("cpus", {1}, "cpu 1"), ("irqs", {33}, "irq 33")])
    def test_colliding_cell_configs_rejected(self, field, ids, unit):
        hv = populated_hv()  # cell 1 owns cpu 1 and irq 33
        cell = hv.cells[2]
        cell.config = config_with(cell.config, **{field: frozenset(ids)})
        with pytest.raises(InvariantViolation, match="cell 2 lost %s" % unit):
            hv.audit()
        blob = save_session(hv.platform, hv)
        with pytest.raises(InvariantViolation, match=r"cell 2 \(stopped\) does not fit: "
                           r"NotOwnedByRoot\(%s\): owned by cell 1" % unit):
            load_session(blob)

    def test_config_naming_absent_resource_rejected(self):
        hv = populated_hv()
        cell = hv.cells[3]
        cell.config = config_with(cell.config, irqs=frozenset({99}))
        blob = save_session(hv.platform, hv)
        with pytest.raises(InvariantViolation,
                           match=r"cell 3 \(fresh\) does not fit: NoSuchResource\(irq 99\)"):
            load_session(blob)

    def test_root_config_naming_absent_resources_rejected(self, jetson):
        # enable refuses this root config, and audit checks no root claims
        hv = Hypervisor(jetson).enable(full_platform_config(jetson))
        root = hv.cells[ROOT_CELL]
        root.config = config_with(root.config, cpus=root.config.cpus | {9},
                                  irqs=root.config.irqs | {999})
        hv.audit()
        misfits = r"NoSuchResource\(cpu 9\); NoSuchResource\(irq 999\)$"
        with pytest.raises(ConfigMismatch, match="^root config does not fit the platform: "
                           + misfits):
            Hypervisor(jetson).enable(root.config)
        with pytest.raises(InvariantViolation,
                           match=r"^snapshot cell 0 \(root\) does not fit: " + misfits):
            load_session(save_session(jetson, hv))

    def test_root_config_exceeding_platform_flags_rejected(self, tiny):
        hv = Hypervisor(tiny).enable(full_platform_config(tiny))
        root = hv.cells[ROOT_CELL]
        root.config = config_with(root.config, mem=(
            MemRegion(RAM, 0x20_0000, PermFlags.READ | PermFlags.EXECUTE),))
        with pytest.raises(InvariantViolation, match=r"snapshot cell 0 \(root\) does not fit: "
                           r"PermissionExceeded\(mem \[0x10000000, 0x10200000\)\)"):
            load_session(save_session(tiny, hv))

    def test_unknown_trap_code_rejected(self):
        hv = populated_hv()
        blob = bytearray(save_session(hv.platform, hv))
        # the first event's kind byte follows its u64 time and u32 cell
        blob[len(save_session(hv.platform, None)) + 8 + 8 + 4 + 8 + 4] = 0xEE
        with pytest.raises(InvariantViolation, match="unknown trap code 238"):
            load_session(bytes(blob))

    def test_unknown_gic_code_rejected(self, jetson):
        blob = bytearray(save_session(jetson, None))
        # the gic byte follows the u32 magic, the u16 version and the u16-counted name
        offset = 4 + 2 + 2 + len(jetson.name.encode())
        assert blob[offset] == 2
        blob[offset] = 4
        with pytest.raises(InvariantViolation, match="^unknown gic code 4$"):
            load_session(bytes(blob))

    @pytest.mark.parametrize("name", [b"jetson tk1", b"jetson\0tk1", b"jetson/tk1"])
    def test_platform_name_outside_the_name_rule_rejected(self, jetson, name):
        blob = save_session(jetson, None)
        assert blob.count(b"jetson-tk1") == 1
        with pytest.raises(InvariantViolation, match="platform name .* must match"):
            load_session(blob.replace(b"jetson-tk1", name))


def _with_cell_id(blob, cell, new_id):
    """The snapshot with `cell`'s id field replaced by new_id."""
    # a cell record starts: id u32, state u8, config length u32
    offset = blob.index(emit_binary(cell.config)) - (4 + 1 + 4)
    assert struct.unpack_from("<I", blob, offset) == (cell.id,)
    return blob[:offset] + struct.pack("<I", new_id) + blob[offset + 4:]


class TestCellTable:
    def test_duplicate_cell_id_rejected(self):
        hv = populated_hv()
        blob = _with_cell_id(save_session(hv.platform, hv), hv.cells[2], 1)
        with pytest.raises(InvariantViolation, match="cell 1 appears twice"):
            load_session(blob)

    def test_missing_root_cell_rejected(self):
        hv = populated_hv()
        hv._next_cell_id = 10
        blob = _with_cell_id(save_session(hv.platform, hv), hv.cells[0], 7)
        with pytest.raises(InvariantViolation,
                           match="^root cell is missing, not running or failed$"):
            load_session(blob)

    def test_repeated_cell_name_rejected(self):
        # find_cell would resolve the name to the lower id and never
        # reach cell 3
        hv = populated_hv()
        cell = hv.cells[3]
        cell.config = config_with(cell.config, name="running")  # cell 1's name
        with pytest.raises(InvariantViolation,
                           match="cells 1 and 3 are both named 'running'"):
            load_session(save_session(hv.platform, hv))

    def test_unknown_cell_state_rejected(self):
        hv = populated_hv()
        blob = bytearray(save_session(hv.platform, hv))
        # exit records, next cell id, enabled flag, cell count, first cell id
        offset = _exit_section(hv) + 4 + len(hv.exits) * snapshot._EXITS.size
        blob[offset + 4 + 1 + 4 + 4] = 0xEE
        with pytest.raises(InvariantViolation, match="unknown cell state 238"):
            load_session(bytes(blob))

    @pytest.mark.parametrize("next_id", [0, 1, 3])
    def test_next_cell_id_must_exceed_every_cell(self, next_id):
        hv = populated_hv()  # cells 0-3
        hv._next_cell_id = next_id
        with pytest.raises(InvariantViolation, match="next cell id %d" % next_id):
            load_session(save_session(hv.platform, hv))


class TestStatesNoCallMakes:
    """Snapshots of states that no sequence of API calls produces."""

    @pytest.mark.parametrize("state", [CellState.CREATED, CellState.STOPPED])
    def test_root_cell_neither_running_nor_failed_rejected(self, state):
        # `cell start 0` then "started" root
        hv = populated_hv()
        hv.cells[ROOT_CELL].state = state
        with pytest.raises(InvariantViolation, match="^root cell is %s, not running"
                           " or failed$" % state.value):
            load_session(save_session(hv.platform, hv))

    def test_failed_root_cell_loads(self):
        hv = populated_hv()
        hv.handle_access(ROOT_CELL, Access(AccessKind.MEM_READ, 0xDEAD_0000))
        assert hv.cells[ROOT_CELL].state is CellState.FAILED
        assert load_session(save_session(hv.platform, hv))[1].cells[ROOT_CELL].state \
            is CellState.FAILED

    def test_cli_refuses_the_session_with_one_line(self, tmp_path, capsys):
        hv = populated_hv()
        hv.cells[ROOT_CELL].state = CellState.STOPPED
        state = tmp_path / "cellsim.state"
        state.write_bytes(save_session(hv.platform, hv))
        for argv in (["cell", "list"], ["cell", "start", "0"]):
            assert main(["--state", str(state), *argv]) == 1
            assert capsys.readouterr() == (
                "", "error: root cell is stopped, not running or failed\n")

    # cell 1 of populated_hv owns [RAM + 0x8_0000, RAM + 0x8_2000)
    @pytest.mark.parametrize("image", [
        {RAM + 0x8_0000: b""},
        {RAM + 0x8_0000: b"\1" * 8, RAM + 0x8_0004: b"\2" * 8},
        {RAM + 0x8_0000: b"\1" * 4, RAM + 0x8_0004: b"\2" * 4},
        {RAM + 0x7_FFFC: b"\1" * 8},
        {RAM + 0x8_1FFC: b"\1" * 8},
        {RAM + 0x9_0000: b"\1"},
    ], ids=["empty", "overlapping", "adjacent", "below", "past the end", "root's ram"])
    def test_image_write_image_never_makes_rejected(self, image):
        hv = populated_hv()
        hv.cells[1].memory_image = image
        with pytest.raises(InvariantViolation, match="^snapshot cell 1 image chunk "):
            load_session(save_session(hv.platform, hv))

    def test_repeated_image_chunk_address_rejected(self):
        # the second chunk used to replace the first without a word
        hv = populated_hv()
        blob = save_session(hv.platform, hv)
        second = struct.pack("<Q", RAM + 0x8_1000)
        assert sorted(hv.cells[1].memory_image) == [RAM + 0x8_0000, RAM + 0x8_1000]
        assert blob.count(second) == 1
        with pytest.raises(InvariantViolation, match="snapshot cell 1 image chunk"):
            load_session(blob.replace(second, struct.pack("<Q", RAM + 0x8_0000)))

    def test_merged_chunk_may_span_adjacent_regions_only(self):
        hv = tiny_hv()
        two = hv.create_cell(CellConfig(name="two", cpus=[1], mem=[
            MemRegion(RAM + 0x8_0000, 0x1000), MemRegion(RAM + 0x8_1000, 0x1000)]))
        hv.load_image(two, RAM + 0x8_0FFC, b"\1" * 4)
        hv.load_image(two, RAM + 0x8_1000, b"\2" * 4)
        assert hv.cells[two].memory_image == {RAM + 0x8_0FFC: b"\1" * 4 + b"\2" * 4}
        restored = load_session(save_session(hv.platform, hv))[1]
        assert restored.cells[two].memory_image == hv.cells[two].memory_image
        gap = hv.create_cell(CellConfig(name="gap", cpus=[2], mem=[
            MemRegion(RAM + 0x9_0000, 0x1000), MemRegion(RAM + 0x9_2000, 0x1000)]))
        hv.cells[gap].memory_image = {RAM + 0x9_0FFC: b"\1" * 0x1008}
        with pytest.raises(InvariantViolation, match="snapshot cell %d image chunk" % gap):
            load_session(save_session(hv.platform, hv))


def _exit_section(hv):
    """Offset of the exit-counter section in hv's snapshot."""
    offset = len(save_session(hv.platform, None)) + 8 + 8 + 4  # clock, seed, event count
    return offset + sum(snapshot._EVENT.size + len(event.detail.encode())
                        for event in hv.events)


def _with_exit_cell(blob, hv, index, new_id):
    """The snapshot with exit record `index`'s cell id replaced by new_id."""
    offset = _exit_section(hv) + 4 + index * snapshot._EXITS.size
    return blob[:offset] + struct.pack("<I", new_id) + blob[offset + 4:]


class TestExitCounters:
    def test_round_trip_after_raise_irqs(self):
        hv = populated_hv()  # cell 1 runs and owns irq 33
        raise_irqs(hv, 33, range(0, 5_000_000, 1000), latency_streams(4))
        assert hv.exits[1][EXIT_SLOT[TrapKind.IRQ_REINJECTION]] == 5000
        _, restored = load_session(save_session(hv.platform, hv))
        assert restored.exits == hv.exits
        assert restored.clock == hv.clock
        assert save_session(restored.platform, restored) == save_session(hv.platform, hv)

    def test_disabled_session_keeps_counters_and_next_id(self):
        hv = disabled_after_populating()
        _, restored = load_session(save_session(hv.platform, hv))
        assert not restored.enabled and restored.ledger is None
        assert restored.exits == hv.exits and set(hv.exits) == {0, 1, 2, 3}
        assert restored._next_cell_id == 4

    def test_truncated_counter_section_rejected(self):
        hv = populated_hv()
        blob = save_session(hv.platform, hv)
        start = _exit_section(hv)
        records = len(hv.exits) * snapshot._EXITS.size
        for cut in (start + 2, start + 4 + 10, start + 4 + records - 1):
            with pytest.raises(CellSimError):
                load_session(blob[:cut])
        # a count that claims one record more than the section holds
        (count,) = struct.unpack_from("<I", blob, start)
        grown = blob[:start] + struct.pack("<I", count + 1) + blob[start + 4:]
        with pytest.raises(CellSimError):
            load_session(grown)

    def test_repeated_cell_rejected(self):
        hv = populated_hv()
        blob = _with_exit_cell(save_session(hv.platform, hv), hv, 1, 0)
        with pytest.raises(InvariantViolation,
                           match="exit counters of cell 0 appear twice"):
            load_session(blob)

    @pytest.mark.parametrize("disabled", [False, True])
    def test_cell_at_or_above_next_id_rejected(self, disabled):
        hv = disabled_after_populating() if disabled else populated_hv()  # next id 4
        for bad_id in (4, 9):
            blob = _with_exit_cell(save_session(hv.platform, hv), hv, 3, bad_id)
            with pytest.raises(InvariantViolation,
                               match="next cell id 4 is not above exit counters of cell %d"
                               % bad_id):
                load_session(blob)

    @pytest.mark.parametrize("old", [2, 3, 4, 5, 6, 7])
    def test_older_version_blob_rejected(self, old):
        # v6 embeds v2 configs, which still carried comm declarations, and
        # v7 stores no script record
        hv = populated_hv()
        blob = bytearray(save_session(hv.platform, hv))
        struct.pack_into("<H", blob, 4, old)
        with pytest.raises(UnsupportedVersion, match="version %d, expected 8" % old):
            load_session(bytes(blob))


SCRIPT_BASE = RAM + 0xD_0000  # above populated_hv's cells
# Six ops: two direct accesses to the cell's own RAM, a distributor write and
# a cpuid that trap, an idle turn and the jump back to the first op.
SCRIPT = ("read 0x%x 4\nwrite 0x%x 8\ndistwrite 0x104\ninstr cpuid\nidle\nrepeat\n"
          % (SCRIPT_BASE + 0x10, SCRIPT_BASE + 0x100))


def script_hv(path, text=SCRIPT, steps=3):
    """populated_hv plus cell 4, running the script `text` from `path`, after
    `steps` turns."""
    path.write_text(text)
    hv = populated_hv()
    cell_id = hv.create_cell(small_cell(
        "scripted", cpu=0, base=SCRIPT_BASE,
        workload=Workload(WorkloadKind.SCRIPT, str(path))))
    hv.start_cell(cell_id)
    hv.step(steps)
    return hv


def _script_record(blob, hv):
    """Offset of the last cell's script record, which ends the snapshot."""
    cell = hv.cells[max(hv.cells)]
    offset = len(blob) - 8 - len(cell.script.encode())
    assert struct.unpack_from("<II", blob, offset) == (cell.script_pos, len(cell.script.encode()))
    return offset


def assert_steps_alike(hv, restored, turns=14):
    for _ in range(turns):
        assert restored.step(1) == hv.step(1)
    assert (restored.clock, restored.events, restored.exits) == (hv.clock, hv.events, hv.exits)
    assert restored.cells[4].state is hv.cells[4].state is CellState.RUNNING


@pytest.fixture(scope="module")
def script_blob(tmp_path_factory):
    hv = script_hv(tmp_path_factory.mktemp("script") / "ops.txt")
    return save_session(hv.platform, hv)


class TestScriptCells:
    """A script cell's script travels in the snapshot as the text read at
    cell create, with its position; load never opens the script file."""

    @pytest.mark.parametrize("text, steps", [(SCRIPT, steps) for steps in range(8)] + [
        ("idle\nread 0x%x 4\n" % SCRIPT_BASE, 3)],  # script_pos == len(ops)
        ids=["after-%d-turns" % steps for steps in range(8)] + ["ran-off-the-end"])
    def test_running_script_cell_resumes_where_it_was(self, tmp_path, text, steps):
        hv = script_hv(tmp_path / "ops.txt", text, steps)
        assert hv.cells[4].state is CellState.RUNNING
        (tmp_path / "ops.txt").unlink()
        _, restored = load_session(save_session(hv.platform, hv))
        twin = restored.cells[4]
        assert (twin.script, twin.script_pos) == (text, hv.cells[4].script_pos)
        assert_steps_alike(hv, restored)

    def test_stopped_script_cell_starts_from_its_stored_script(self, tmp_path):
        hv = script_hv(tmp_path / "ops.txt", steps=4)
        hv.stop_cell(4)
        blob = save_session(hv.platform, hv)
        (tmp_path / "ops.txt").unlink()
        _, restored = load_session(blob)
        for session in (hv, restored):
            session.start_cell(4)
        assert_steps_alike(hv, restored)
        for session in (hv, restored):
            session.relaunch_cell(4)
        assert_steps_alike(hv, restored)

    def test_only_script_cells_carry_a_record(self, tmp_path):
        hv = script_hv(tmp_path / "ops.txt")
        cell = hv.cells.pop(4)
        without = len(save_session(hv.platform, hv))
        hv.cells[4] = cell
        blob = save_session(hv.platform, hv)
        record = 4 + 1 + 4 + len(emit_binary(cell.config)) + 4 + 4 + 4 + len(SCRIPT)
        assert len(blob) - without == record

    @pytest.mark.parametrize("pos, raw, message", [
        (7, SCRIPT.encode(), "script position 7 is past its 6 ops"),
        (0, b"idle\njump 0x10\n", "cell 4 script, line 2, col 1: unknown script op 'jump'"),
        (0, b"read 0x11 8\n", "cell 4 script, line 1: memory access at 0x11 not aligned"),
        (0, b"idle \xff\n", "snapshot script is not valid UTF-8"),
    ], ids=["position-past-the-ops", "unknown-op", "unaligned-access", "not-utf8"])
    def test_malformed_script_record_rejected(self, tmp_path, capsys, pos, raw, message):
        hv = script_hv(tmp_path / "ops.txt")
        blob = save_session(hv.platform, hv)
        offset = _script_record(blob, hv)
        blob = blob[:offset] + struct.pack("<II", pos, len(raw)) + raw
        with pytest.raises(InvariantViolation, match=message):
            load_session(blob)
        assert _cli_refuses(tmp_path, blob, capsys)

    def test_distwrite_on_a_windowless_platform_rejected(self, tmp_path, capsys):
        # create_cell refuses this script, so only a crafted snapshot holds it
        (tmp_path / "ops.txt").write_text("idle\nrepeat\n")
        hv = windowless_hv()
        cell_id = hv.create_cell(small_cell(
            workload=Workload(WorkloadKind.SCRIPT, str(tmp_path / "ops.txt"))))
        hv.cells[cell_id].script = "idle\ndistwrite 0x0\n"
        blob = save_session(hv.platform, hv)
        with pytest.raises(InvariantViolation,
                           match="cell 1 script, line 2: platform nogic has no gic-dist window"):
            load_session(blob)
        assert _cli_refuses(tmp_path, blob, capsys)

    def test_truncated_script_record_rejected(self, tmp_path, capsys):
        hv = script_hv(tmp_path / "ops.txt")
        blob = save_session(hv.platform, hv)
        for cut in range(_script_record(blob, hv), len(blob)):
            with pytest.raises(TruncatedRecord):
                load_session(blob[:cut])
        assert _cli_refuses(tmp_path, blob[:-1], capsys)

    def test_v7_blob_with_a_script_cell_rejected(self, tmp_path, capsys):
        hv = script_hv(tmp_path / "ops.txt")
        blob = bytearray(save_session(hv.platform, hv))
        struct.pack_into("<H", blob, 4, 7)
        with pytest.raises(UnsupportedVersion):
            load_session(bytes(blob))
        assert _cli_refuses(tmp_path, bytes(blob), capsys)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_corrupt_script_session_is_refused_or_loads_sound(self, script_blob, data):
        blob = _mutated(data, script_blob)
        try:
            _, restored = load_session(blob)
        except CellSimError:
            return
        if restored is not None and restored.enabled:
            restored.audit()
            restored.step(8)


def _cli_refuses(tmp_path, blob, capsys):
    """`cell list` on a state file holding blob exits 1 with one error line."""
    state = tmp_path / "bad.state"
    state.write_bytes(blob)
    capsys.readouterr()
    status = main(["--state", str(state), "cell", "list"])
    out, err = capsys.readouterr()
    return status == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def _record(resources) -> bytes:
    """The run of consecutive resources of one kind: kind byte, count, bodies."""
    out = bytearray()
    cellconfig.put_runs(out, resource_layout(resources))
    assert struct.unpack_from("<I", out) == (1,)
    return bytes(out[4:])


def _record_span(platform, index):
    """A platform-only snapshot, and the offset and length of the run that
    holds its resource `index`."""
    blob = save_session(platform, None)
    runs = [list(group) for _, group in groupby(platform.resources, type)]
    records = [_record(run) for run in runs]
    offset = blob.index(b"".join(records))
    for run, record in zip(runs, records):
        if index < len(run):
            return blob, offset, len(record)
        index -= len(run)
        offset += len(record)
    raise IndexError(index)


def _round_trip(platform):
    blob = save_session(platform, None)
    restored, _ = load_session(blob)
    assert restored == platform
    assert save_session(restored, None) == blob


EXTREMES = [
    Cpu(0), Cpu(1),
    MemRegion(0x3000, 1 << 63, PermFlags(0)),
    # the highest page that MemRegion accepts
    MemRegion((1 << 64) - 0x2000, 0x1000, PermFlags(0xF)),
    MmioDevice("a" * MMIO_NAME_BYTES, 0x1000, 0x1000),
    MmioDevice("Zz09_-", 0x2000, 0x1000),  # every character a name may hold
    PciDevice(0), PciDevice(0xFFFF),
    IoPortRange(0, 0x10000),
    IrqLine(0), IrqLine(0xFFFFFFFF),
]
# overlaps the full port range above, so it round-trips on a platform of its own
LAST_PORT = IoPortRange(0xFFFF, 1)


class TestRecordStrictness:
    # make_tiny_platform: cpus 0-3, RAM, gic-dist, uart, ioport, pci, irqs 32-39.
    CPU, MEM, MMIO, IOPORT, PCI, IRQ = 0, 4, 5, 7, 8, 9

    def test_extreme_values_round_trip(self):
        _round_trip(build_platform(PlatformSpec(name="edges", resources=EXTREMES)))
        _round_trip(build_platform(PlatformSpec(name="last-port", resources=[Cpu(0), LAST_PORT])))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_generated_platforms_round_trip(self, data):
        base = random_platform(random.Random(data.draw(st.integers(0, 2**32 - 1))))
        bdfs = data.draw(st.sets(st.integers(0, 0xFFFF), max_size=3))
        port = data.draw(st.integers(0, 0xFFFF))
        length = data.draw(st.integers(1, 0x10000 - port))
        resources = (list(base.resources) + [PciDevice(bdf) for bdf in sorted(bdfs)]
                     + [IoPortRange(port, length)])
        # in any order, so kinds interleave and one kind spans several runs
        resources = data.draw(st.permutations(resources))
        _round_trip(build_platform(PlatformSpec(
            name=base.name, resources=resources, gic_version=GicVersion.V3)))

    def test_enabled_jetson_session_is_small(self, jetson):
        # v3 wrote 4,637 bytes, with 27 bytes per resource record of any kind
        hv = Hypervisor(jetson).enable(full_platform_config(jetson))
        assert len(save_session(jetson, hv)) <= 1700

    def test_no_record_carries_an_unused_slot(self):
        # a run is a kind byte, a u32 count and one fixed-size body per resource
        body = {Cpu: 4, MemRegion: 17, MmioDevice: 32, PciDevice: 2, IoPortRange: 6, IrqLine: 4}
        for resource in EXTREMES + [LAST_PORT]:
            for count in (1, 3):
                assert len(_record([resource] * count)) == 5 + count * body[type(resource)]

    def test_unknown_permission_bits_rejected(self, tiny):
        blob, offset, length = _record_span(tiny, self.MEM)
        record = blob[offset:offset + length]
        assert record == _record([MemRegion(RAM, 0x20_0000)]) and record[-1] == 3
        with pytest.raises(InvariantViolation, match="unknown permission bits 0xf0"):
            load_session(blob[:offset + length - 1] + b"\xf0" + blob[offset + length:])

    @pytest.mark.parametrize("index", [CPU, MEM, MMIO, IOPORT, PCI, IRQ])
    def test_unknown_kind_rejected(self, tiny, index):
        blob, offset, _ = _record_span(tiny, index)
        unknown = len(cellconfig._KINDS)
        with pytest.raises(CellSimError, match="unknown resource kind %d" % unknown):
            load_session(blob[:offset] + bytes([unknown]) + blob[offset + 1:])

    @pytest.mark.parametrize("index", [CPU, MEM, MMIO, IOPORT, PCI, IRQ])
    def test_truncated_body_rejected(self, tiny, index):
        blob, offset, length = _record_span(tiny, index)
        for cut in range(offset + 1, offset + length):
            with pytest.raises(CellSimError):
                load_session(blob[:cut])

    def test_non_utf8_string_rejected(self, tiny):
        blob = bytearray(save_session(tiny, None))
        start = snapshot._HEADER.size + 2
        assert blob[start:start + 4] == b"tiny"
        blob[start] = 0xFF
        with pytest.raises(InvariantViolation, match="not valid UTF-8"):
            load_session(bytes(blob))


def _mutated(data, blob):
    """blob after one to four drawn byte flips, truncations and insertions."""
    blob = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(["flip", "truncate", "insert"]))
        at = data.draw(st.integers(0, max(len(blob) - 1, 0)))
        if op == "flip" and blob:
            blob[at] ^= data.draw(st.integers(1, 255))
        elif op == "truncate":
            del blob[at:]
        else:
            blob[at:at] = data.draw(st.binary(min_size=1, max_size=8))
    return bytes(blob)


class TestCorruption:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_corrupt_snapshot_is_refused_or_loads_sound(self, data):
        hv = populated_hv()  # with a running guest
        blob = _mutated(data, save_session(hv.platform, hv))
        try:
            _, restored = load_session(blob)
        except CellSimError:
            return
        if restored is not None and restored.enabled:
            restored.audit()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_corrupt_config_is_refused_or_loads_sound(self, data):
        cfg = random_config(random.Random(data.draw(st.integers(0, 2**32 - 1))))
        blob = _mutated(data, emit_binary(cfg))
        try:
            loaded = load_binary(blob)
        except CellSimError:
            return
        assert load_binary(emit_binary(loaded)) == loaded


# --- bytes pinned on a jetson session -----------------------------------------

def pinned_jetson_hv():
    """A jetson-tk1 session built through the API: two guests with images,
    a script cell, a stopped cell and a destroyed one. The script file is
    ops.txt in the working directory, so its path, and the bytes, are fixed."""
    jetson = jetson_tk1()
    hv = Hypervisor(jetson, seed=23).enable(full_platform_config(jetson))
    rw = PermFlags.READ | PermFlags.WRITE

    def guest(name, cpu, base, irqs, kind=WorkloadKind.IDLE, path=None, devices=()):
        return hv.create_cell(CellConfig(
            name=name, cpus=frozenset({cpu}), mem=(MemRegion(base, 0x10_0000, rw),),
            devices=devices, irqs=frozenset(irqs), workload=Workload(kind, path)))

    rtos = guest("rtos", 3, 0xFFF0_0000, {33, 160}, WorkloadKind.LATENCY_RESPONDER,
                 devices=(MmioDevice("uart-a", 0x7000_6000, 0x1000),))
    hv.load_image(rtos, 0xFFF0_0000, b"\x7fELF" + bytes(60))
    hv.start_cell(rtos)
    stress = guest("stress", 2, 0xFFE0_0000, {40}, WorkloadKind.STRESS)
    hv.load_image(stress, 0xFFE0_1000, b"\xAA" * 300)
    hv.start_cell(stress)
    gone = guest("gone", 1, 0xFFB0_0000, {50, 51})
    hv.start_cell(gone)
    hv.stop_cell(gone)
    hv.destroy_cell(gone)
    with open("ops.txt", "w") as handle:
        handle.write("read 0xffd00010 4\ndistwrite 0x104\ninstr cpuid\nidle\nrepeat\n")
    scripted = guest("scripted", 1, 0xFFD0_0000, {32}, WorkloadKind.SCRIPT, "ops.txt")
    hv.start_cell(scripted)
    hv.step(6)
    hv.stop_cell(scripted)
    guest("parked", 0, 0xFFC0_0000, {34, 35, 36})
    hv.step(2)
    return hv


class TestPinnedJetsonSession:
    """The bytes of a jetson session's snapshot and of its configs, as the
    object-per-IRQ-line ledger wrote them: keeping CPU and IRQ ownership
    as masks changed no byte of either format."""

    SNAPSHOT = "8e25f39b21fb078c8ca0840322b28e55942f8eb54688e212219d34b9720c31d9"
    ROOT_CONFIG = "07357837766ad91049872f2ef24342297d07e155687b600cef22b2c0bf85853f"
    RTOS_CONFIG = "2fe864d3f2e8244638e585fa611ca2c79c4035c80e8d450eea820f52816e3a36"

    @pytest.fixture()
    def hv(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        return pinned_jetson_hv()

    def test_snapshot_bytes(self, hv):
        blob = save_session(hv.platform, hv)
        assert hashlib.sha256(blob).hexdigest() == self.SNAPSHOT

    def test_every_strict_prefix_is_refused_as_truncated(self, hv):
        blob = save_session(hv.platform, hv)
        for cut in range(len(blob)):
            with pytest.raises(TruncatedRecord):
                load_session(blob[:cut])

    def test_save_load_save_is_a_fixed_point(self, hv):
        blob = save_session(hv.platform, hv)
        platform, restored = load_session(blob)
        assert save_session(platform, restored) == blob

    def test_load_and_save_build_no_object_per_platform_irq_line(self, hv, monkeypatch):
        blob = save_session(hv.platform, hv)
        built = []
        check = IrqLine.__init__
        monkeypatch.setattr(IrqLine, "__init__",
                            lambda line, number: (built.append(number), check(line, number))[1])
        platform, restored = load_session(blob)
        assert save_session(platform, restored) == blob
        # only the guests' own lines, when a claim and the audit ask the ledger
        guest_lines = {n for cell_id, cell in restored.cells.items() if cell_id
                       for n in cell.config.irqs}
        assert set(built) == guest_lines and len(built) <= 2 * len(guest_lines) < 20

    def test_config_bytes(self, hv):
        assert hashlib.sha256(emit_binary(hv.cells[ROOT_CELL].config)).hexdigest() \
            == self.ROOT_CONFIG
        assert hashlib.sha256(emit_binary(hv.find_cell("rtos").config)).hexdigest() \
            == self.RTOS_CONFIG
