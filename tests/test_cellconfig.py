import random
import struct

import pytest
from hypothesis import given, strategies as st

from cellsim import (
    CellConfig,
    Cpu,
    Hypervisor,
    IoPortRange,
    IrqLine,
    MemRegion,
    MmioDevice,
    PciDevice,
    PermFlags,
    PlatformSpec,
    ViolationKind,
    Workload,
    WorkloadKind,
    build_platform,
    emit_binary,
    full_platform_config,
    load_binary,
    parse_config,
    validate_against,
)
from cellsim.cellconfig import MAGIC
from cellsim.errors import (
    BadMagic,
    CellSimError,
    ConfigSemanticError,
    ConfigSyntaxError,
    InvariantViolation,
    OverlapError,
    TruncatedRecord,
    UnsupportedVersion,
)

from gen import random_config
from test_refusal_table import config as config_blob


FULL_TEXT = """
# non-root cell owning a little of everything
cell "rtos"
cpu 1,2
mem 0x10020000 0x10000 rwx
mem 0x10010000 0x10000 rw
mmio uart 0x70006000 0x1000
pci 0x0010
ioport 0x3f8 0x8
irq 33,40-41
run latency-responder
"""


class TestDsl:
    def test_full_config(self):
        cfg = parse_config(FULL_TEXT)
        assert cfg.name == "rtos"
        assert cfg.cpus == frozenset({1, 2})
        assert [r.base for r in cfg.mem] == [0x1001_0000, 0x1002_0000]
        assert cfg.mem[1].flags == (PermFlags.READ | PermFlags.WRITE | PermFlags.EXECUTE)
        assert [type(d).__name__ for d in cfg.devices] == [
            "MmioDevice", "PciDevice", "IoPortRange"]
        assert cfg.irqs == frozenset({33, 40, 41})
        assert cfg.workload.kind is WorkloadKind.LATENCY_RESPONDER

    def test_script_workload_keeps_path(self):
        cfg = parse_config(
            'cell "s"\ncpu 0\nmem 0x10000000 0x1000 rw\nrun script ops.txt\n')
        assert cfg.workload == Workload(WorkloadKind.SCRIPT, "ops.txt")

    def test_default_workload_is_idle(self):
        cfg = parse_config('cell "s"\ncpu 0\nmem 0x10000000 0x1000 rw\n')
        assert cfg.workload.kind is WorkloadKind.IDLE

    def test_missing_name(self):
        with pytest.raises(ConfigSemanticError):
            parse_config("cpu 0\nmem 0x10000000 0x1000 rw\n")

    def test_missing_cpus(self):
        with pytest.raises(ConfigSemanticError):
            parse_config('cell "s"\nmem 0x10000000 0x1000 rw\n')

    def test_missing_mem(self):
        with pytest.raises(ConfigSemanticError):
            parse_config('cell "s"\ncpu 0\n')

    def test_bad_perm_letter_reports_position(self):
        with pytest.raises(ConfigSyntaxError) as excinfo:
            parse_config('cell "s"\ncpu 0\nmem 0x10000000 0x1000 rq\n')
        assert excinfo.value.line == 3
        assert excinfo.value.col > 1

    def test_unknown_directive_reports_line(self):
        with pytest.raises(ConfigSyntaxError) as excinfo:
            parse_config('cell "s"\nwhatever 3\n')
        assert excinfo.value.line == 2

    def test_duplicate_cpu_rejected(self):
        with pytest.raises(ConfigSemanticError):
            parse_config('cell "s"\ncpu 0,0\nmem 0x10000000 0x1000 rw\n')

    def test_duplicate_run_rejected(self):
        with pytest.raises(ConfigSemanticError):
            parse_config('cell "s"\ncpu 0\nmem 0x10000000 0x1000 rw\n'
                         "run idle\nrun stress\n")

    def test_comm_line_is_an_unknown_directive(self):
        # channels are opened by comm.create_channel; a config declares none
        with pytest.raises(ConfigSyntaxError,
                           match="^line 4, col 1: unknown directive 'comm'$"):
            parse_config('cell "s"\ncpu 0\nmem 0x10000000 0x1000 rw\n'
                         "comm peer=x size=0x1000 vectors=4\n")

    def test_a_pci_device_listed_twice_is_refused_on_its_line(self):
        # as a repeated cpu or irq is; the config's own check named no line
        with pytest.raises(ConfigSemanticError) as refused:
            parse_config('cell "s"\ncpu 0\nmem 0x10000000 0x1000 rw\npci 0x10\npci 0x10\n')
        assert type(refused.value) is ConfigSemanticError
        assert str(refused.value) == "line 5: pci 0x10 listed twice" and refused.value.line == 5

    def test_run_with_no_workload_is_refused(self):
        with pytest.raises(ConfigSyntaxError) as refused:
            parse_config('cell "s"\ncpu 0\nmem 0x10000000 0x1000 rw\nrun\n')
        assert type(refused.value) is ConfigSyntaxError
        assert str(refused.value) == "line 4, col 1: run needs a workload name"

    def test_unknown_workload(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config('cell "s"\ncpu 0\nmem 0x10000000 0x1000 rw\nrun spin\n')

    def test_script_needs_path(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config('cell "s"\ncpu 0\nmem 0x10000000 0x1000 rw\nrun script\n')

    def test_unquoted_name_rejected(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("cell s\ncpu 0\nmem 0x10000000 0x1000 rw\n")

    def test_overlong_name_rejected(self):
        with pytest.raises(ConfigSemanticError):
            parse_config('cell "%s"\ncpu 0\nmem 0x10000000 0x1000 rw\n' % ("x" * 32))

    def test_overlong_script_path_refused_on_its_run_line(self):
        # the binary codec stores the path length in a u16
        text = 'cell "s"\ncpu 0\nmem 0x10000000 0x1000 rw\nrun script %s\n'
        assert parse_config(text % ("p" * 0xFFFF)).workload.script_path == "p" * 0xFFFF
        with pytest.raises(ConfigSemanticError,
                           match="^line 4: script path longer than 65535 bytes$"):
            parse_config(text % ("p" * 0x10000))
        with pytest.raises(ConfigSemanticError, match="^line 4: "):
            parse_config(text % ("\u00e9" * 0x8000))  # 0x10000 UTF-8 bytes

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config(
            "\n# leading comment\n\ncell \"s\"  # trailing\ncpu 0\n"
            "mem 0x10000000 0x1000 rw\n\n")
        assert cfg.name == "s"


class TestCellConfigInvariants:
    def test_field_order_is_canonical(self):
        shuffled = CellConfig(
            name="c", cpus=[3, 1], irqs=[40, 33],
            mem=[MemRegion(0x2000, 0x1000), MemRegion(0x1000, 0x1000)],
            devices=[IoPortRange(0x60, 4), PciDevice(8), MmioDevice("u", 0x9000, 0x1000)])
        assert [r.base for r in shuffled.mem] == [0x1000, 0x2000]
        assert [type(d) for d in shuffled.devices] == [MmioDevice, PciDevice, IoPortRange]

    def test_equality_ignores_input_order(self):
        a = CellConfig(name="c", cpus=[0, 1],
                       mem=[MemRegion(0x1000, 0x1000), MemRegion(0x3000, 0x1000)])
        b = CellConfig(name="c", cpus=[1, 0],
                       mem=[MemRegion(0x3000, 0x1000), MemRegion(0x1000, 0x1000)])
        assert a == b

    def test_internal_overlap_rejected(self):
        with pytest.raises(InvariantViolation):
            CellConfig(name="c", cpus=[0],
                       mem=[MemRegion(0x1000, 0x2000), MemRegion(0x2000, 0x2000)])

    def test_mem_mmio_overlap_rejected(self):
        with pytest.raises(InvariantViolation):
            CellConfig(name="c", cpus=[0], mem=[MemRegion(0x1000, 0x2000)],
                       devices=[MmioDevice("u", 0x2000, 0x1000)])

    def test_overlapping_io_port_ranges_rejected_from_text_binary_and_code(self):
        # a platform refused them, but a config let them through all three ways
        mem = [MemRegion(0x1000, 0x1000)]
        message = r"IoPortRange\(base=1016, length=8\) overlaps IoPortRange\(base=1020, length=8\)"
        with pytest.raises(OverlapError, match=message):
            CellConfig(name="c", cpus=[0], mem=mem,
                       devices=[IoPortRange(0x3F8, 0x8), IoPortRange(0x3FC, 0x8)])
        with pytest.raises(ConfigSemanticError,
                           match="^line 5: ioport 0x3fc 0x8 overlaps ioport 0x3f8 0x8 on line 4$"):
            parse_config('cell "c"\ncpu 0\nmem 0x1000 0x1000 rw\n'
                         'ioport 0x3f8 0x8\nioport 0x3fc 0x8\n')
        touching = CellConfig(name="c", cpus=[0], mem=mem,
                              devices=[IoPortRange(0x3F8, 0x8), IoPortRange(0x400, 0x8)])
        blob = emit_binary(touching)
        assert load_binary(blob) == touching
        with pytest.raises(OverlapError, match=message):
            load_binary(blob.replace(struct.pack("<HI", 0x400, 8), struct.pack("<HI", 0x3FC, 8)))

    def test_address_overlap_is_refused_on_its_line_in_hex(self):
        # RAM and MMIO share one address space; an overlap printed decimal
        # reprs after the whole file was read
        with pytest.raises(ConfigSemanticError, match="^line 5: mmio uart 0x2000 0x1000 overlaps"
                           " mem 0x1000 0x2000 rw on line 3$"):
            parse_config('cell "c"\ncpu 0\nmem 0x1000 0x2000 rw\nmem 0x8000 0x1000 r\n'
                         'mmio uart 0x2000 0x1000\n')

    @pytest.mark.parametrize("device", [PciDevice(0x10), IoPortRange(0x3F8, 0x8)])
    def test_duplicate_device_rejected(self, device):
        # a second copy would pass validation, then fail halfway through a create
        with pytest.raises(InvariantViolation, match="listed twice"):
            CellConfig(name="c", cpus=[0], mem=[MemRegion(0x1000, 0x1000)],
                       devices=[device, device])

    @pytest.mark.parametrize("devices", [[Cpu(1)], [IrqLine(33), PciDevice(0x10)]])
    def test_unsupported_device_type_rejected(self, devices):
        # the canonical sort met the type first and raised a KeyError
        with pytest.raises(InvariantViolation, match="^unsupported device type '(Cpu|IrqLine)'$"):
            CellConfig(name="x", cpus={0}, mem=[MemRegion(0x1000, 0x1000)], devices=devices)

    def test_bad_name_rejected(self):
        with pytest.raises(InvariantViolation):
            CellConfig(name="has space", cpus=[0], mem=[MemRegion(0x1000, 0x1000)])

    @pytest.mark.parametrize("build, text", [
        (lambda: CellConfig("n" * 32, {0}, [MemRegion(0x1000, 0x1000)]),
         "cell name longer than 31 bytes"),
        (lambda: CellConfig("c", {0}, [Cpu(0)]), "mem entries must be memory regions"),
    ], ids=["name-of-32-bytes", "mem-of-a-cpu"])
    def test_a_bad_name_or_mem_entry_is_refused_with_its_text(self, build, text):
        with pytest.raises(InvariantViolation) as refused:
            build()
        assert type(refused.value) is InvariantViolation and str(refused.value) == text

    def test_needs_cpu_and_mem(self):
        with pytest.raises(InvariantViolation):
            CellConfig(name="c", cpus=[], mem=[MemRegion(0x1000, 0x1000)])
        with pytest.raises(InvariantViolation):
            CellConfig(name="c", cpus=[0], mem=[])

    def test_workload_path_rules(self):
        with pytest.raises(InvariantViolation):
            Workload(WorkloadKind.SCRIPT)
        with pytest.raises(InvariantViolation):
            Workload(WorkloadKind.IDLE, script_path="x")

    def test_script_path_holds_at_most_65535_utf8_bytes(self):
        longest = "\u00e9" * 0x7FFF + "p"  # 65,535 bytes
        cfg = CellConfig(name="a", cpus=[0], mem=[MemRegion(0x1000, 0x1000)],
                         workload=Workload(WorkloadKind.SCRIPT, longest))
        assert load_binary(emit_binary(cfg)) == cfg
        for path in ("p" * 0x10000, "\u00e9" * 0x8000):
            with pytest.raises(InvariantViolation, match="script path longer than 65535 bytes"):
                Workload(WorkloadKind.SCRIPT, path)


def _enabled_tiny_hv(tiny):
    return Hypervisor(tiny, seed=1).enable(full_platform_config(tiny))


class TestValidateAgainst:
    def test_clean_config_has_no_violations(self, tiny):
        hv = _enabled_tiny_hv(tiny)
        cfg = CellConfig(name="c", cpus=[1],
                         mem=[MemRegion(0x1008_0000, 0x1000)], irqs=[33])
        assert validate_against(cfg, tiny, hv.ledger) == []

    def test_unknown_resources(self, tiny):
        hv = _enabled_tiny_hv(tiny)
        cfg = CellConfig(
            name="c", cpus=[7], mem=[MemRegion(0xDEAD_0000, 0x1000)],
            devices=[MmioDevice("nope", 0x9000_0000, 0x1000), PciDevice(0x99),
                     IoPortRange(0x1000, 0x10)],
            irqs=[999])
        violations = validate_against(cfg, tiny, hv.ledger)
        kinds = {v.kind for v in violations}
        assert kinds == {ViolationKind.NO_SUCH_RESOURCE}
        assert len(violations) == 6

    def test_permission_exceeded(self, tiny):
        # the tiny platform RAM band allows rw only
        hv = _enabled_tiny_hv(tiny)
        cfg = CellConfig(name="c", cpus=[1],
                         mem=[MemRegion(0x1008_0000, 0x1000,
                                        PermFlags.READ | PermFlags.EXECUTE)])
        violations = validate_against(cfg, tiny, hv.ledger)
        assert [v.kind for v in violations] == [ViolationKind.PERMISSION_EXCEEDED]

    def test_not_owned_by_root(self, tiny):
        hv = _enabled_tiny_hv(tiny)
        taken = CellConfig(name="first", cpus=[1],
                           mem=[MemRegion(0x1008_0000, 0x2000)], irqs=[33])
        first = hv.create_cell(taken)
        wanting = CellConfig(name="second", cpus=[1],
                             mem=[MemRegion(0x1008_1000, 0x1000)], irqs=[33])
        violations = validate_against(wanting, tiny, hv.ledger)
        assert {v.kind for v in violations} == {ViolationKind.NOT_OWNED_BY_ROOT}
        assert len(violations) == 3
        assert any("cell %d" % first in str(v) for v in violations)

    def test_partially_owned_range_flagged(self, tiny):
        hv = _enabled_tiny_hv(tiny)
        hv.create_cell(CellConfig(name="first", cpus=[1],
                                  mem=[MemRegion(0x1008_0000, 0x1000)]))
        straddling = CellConfig(name="second", cpus=[0],
                                mem=[MemRegion(0x1007_F000, 0x2000)])
        violations = validate_against(straddling, tiny, hv.ledger)
        assert [v.kind for v in violations] == [ViolationKind.NOT_OWNED_BY_ROOT]

    def test_devices_root_lacks_are_named_in_config_order(self):
        # device bits follow the platform's layout, here zz before aa; a refusal
        # names the devices in the order the config lists them
        zz, aa = MmioDevice("zz", 0x2000_0000, 0x1000), MmioDevice("aa", 0x3000_0000, 0x1000)
        platform = build_platform(PlatformSpec("p", [
            Cpu(0), Cpu(1), Cpu(2), MemRegion(0x1000_0000, 0x10_0000), zz, aa]))
        hv = Hypervisor(platform).enable(full_platform_config(platform))
        for cpu, dev in ((1, zz), (2, aa)):
            hv.create_cell(CellConfig(name=dev.name, cpus=[cpu], devices=[dev],
                                      mem=[MemRegion(0x1000_0000 + cpu * 0x1000, 0x1000)]))
        wanting = CellConfig(name="c", cpus=[0], mem=[MemRegion(0x1000_0000, 0x1000)],
                             devices=[zz, aa])
        assert list(map(str, validate_against(wanting, platform, hv.ledger))) == [
            "NotOwnedByRoot(mmio aa@0x30000000): owned by cell 2",
            "NotOwnedByRoot(mmio zz@0x20000000): owned by cell 1"]

    def test_violation_str_is_descriptive(self, tiny):
        hv = _enabled_tiny_hv(tiny)
        cfg = CellConfig(name="c", cpus=[9], mem=[MemRegion(0x1008_0000, 0x1000)])
        (violation,) = validate_against(cfg, tiny, hv.ledger)
        assert str(violation) == "NoSuchResource(cpu 9)"


MINIMAL = CellConfig(name="a", cpus=[0], mem=[MemRegion(0x1000, 0x1000)])


def _minimal_bytes():
    # independent byte-level oracle for the frozen v3 layout
    out = struct.pack("<IH32s", MAGIC, 3, b"a")
    out += struct.pack("<I", 2)  # resource runs
    out += struct.pack("<BII", 0, 1, 0)  # cpu run: cpu 0
    out += struct.pack("<BIQQB", 1, 1, 0x1000, 0x1000, int(PermFlags.READ | PermFlags.WRITE))
    out += struct.pack("<BH", 0, 0)
    return out


HEADER_SIZE = struct.calcsize("<IH32s")
RUN_SIZE = struct.calcsize("<BI")


class TestCodec:
    def test_minimal_layout_is_frozen(self):
        assert emit_binary(MINIMAL) == _minimal_bytes()

    def test_minimal_layout_loads(self):
        assert load_binary(_minimal_bytes()) == MINIMAL

    def test_round_trip_full(self):
        cfg = parse_config(FULL_TEXT)
        blob = emit_binary(cfg)
        assert load_binary(blob) == cfg
        assert emit_binary(load_binary(blob)) == blob

    def test_bad_magic(self):
        blob = bytearray(_minimal_bytes())
        blob[0] ^= 0xFF
        with pytest.raises(BadMagic):
            load_binary(bytes(blob))

    def test_unsupported_version(self):
        # a version-1 or -2 blob is refused: re-emit it from its text config
        for version in (1, 2, 4):
            blob = bytearray(_minimal_bytes())
            struct.pack_into("<H", blob, 4, version)
            with pytest.raises(UnsupportedVersion, match="version %d, expected 3" % version):
                load_binary(bytes(blob))

    def test_truncation_detected_everywhere(self):
        blob = emit_binary(parse_config(FULL_TEXT))
        for cut in range(len(blob)):
            with pytest.raises(TruncatedRecord):
                load_binary(blob[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(InvariantViolation):
            load_binary(_minimal_bytes() + b"\0")

    def test_nonzero_name_padding_rejected(self):
        blob = bytearray(_minimal_bytes())
        blob[HEADER_SIZE - 1] = 0x41  # last byte of the name field
        with pytest.raises(InvariantViolation):
            load_binary(bytes(blob))

    def test_unknown_permission_bits_rejected(self):
        blob = bytearray(_minimal_bytes())
        # after the run count, the cpu run, the mem run's header, base and size
        flags_off = HEADER_SIZE + 4 + RUN_SIZE + 4 + RUN_SIZE + 16
        assert blob[flags_off] == PermFlags.READ | PermFlags.WRITE
        blob[flags_off] = 0x10
        with pytest.raises(InvariantViolation, match="unknown permission bits 0x10"):
            load_binary(bytes(blob))

    def test_non_utf8_script_path_rejected(self):
        cfg = CellConfig(name="a", cpus=[0], mem=[MemRegion(0x1000, 0x1000)],
                         workload=Workload(WorkloadKind.SCRIPT, "s.txt"))
        blob = emit_binary(cfg)
        with pytest.raises(InvariantViolation, match="not valid UTF-8"):
            load_binary(blob[:-5] + b"\xff\xfe.tx")

    @pytest.mark.parametrize("code, path, message", [
        (0, b"s.txt", "only script workloads carry a path"),
        (3, b"", "script workload needs a path")])
    def test_workload_path_rules_hold_on_load(self, code, path, message):
        blob = _minimal_bytes()[:-3] + struct.pack("<BH", code, len(path)) + path
        with pytest.raises(InvariantViolation, match=message):
            load_binary(blob)

    def test_unknown_device_kind_rejected(self):
        cfg = CellConfig(name="a", cpus=[0], mem=[MemRegion(0x1000, 0x1000)],
                         devices=[PciDevice(8)])
        blob = bytearray(emit_binary(cfg))
        # the kind byte of the pci run, after the cpu and mem runs
        dev_off = HEADER_SIZE + 4 + RUN_SIZE + 4 + RUN_SIZE + 17
        assert struct.unpack_from("<BIH", blob, dev_off) == (3, 1, 8)
        blob[dev_off] = 9
        with pytest.raises(InvariantViolation, match="unknown resource kind 9"):
            load_binary(bytes(blob))

    @pytest.mark.parametrize("raw", [b"", b"a b!", b"\xc3\xa9"])
    def test_mmio_name_outside_the_text_formats_rejected(self, raw):
        # a name both text formats refuse is refused in a binary config too
        cfg = CellConfig(name="a", cpus=[0], mem=[MemRegion(0x1000, 0x1000)],
                         devices=[MmioDevice("uart", 0x9000, 0x1000)])
        blob = emit_binary(cfg)
        field = b"uart".ljust(16, b"\0")
        assert blob.count(field) == 1
        with pytest.raises(InvariantViolation, match="must match"):
            load_binary(blob.replace(field, raw.ljust(16, b"\0")))

    def test_unknown_workload_code_rejected(self):
        blob = bytearray(_minimal_bytes())
        blob[-3] = 9
        with pytest.raises(InvariantViolation, match="^unknown workload code 9$"):
            load_binary(bytes(blob))

    def test_duplicate_cpu_in_stream_rejected(self):
        cfg = CellConfig(name="a", cpus=[0, 1], mem=[MemRegion(0x1000, 0x1000)])
        blob = bytearray(emit_binary(cfg))
        ids = HEADER_SIZE + 4 + RUN_SIZE  # the cpu run's two ids
        assert struct.unpack_from("<II", blob, ids) == (0, 1)
        blob[ids:ids + 4] = blob[ids + 4:ids + 8]
        with pytest.raises(InvariantViolation, match="duplicate cpu ids"):
            load_binary(bytes(blob))

    def test_seeded_round_trips(self):
        rnd = random.Random(0xC0FFEE)
        for _ in range(300):
            cfg = random_config(rnd)
            blob = emit_binary(cfg)
            again = load_binary(blob)
            assert again == cfg
            assert emit_binary(again) == blob

    @given(st.data())
    def test_property_round_trip(self, data):
        name = data.draw(st.from_regex(r"[A-Za-z0-9_-]{1,31}", fullmatch=True))
        cpus = data.draw(st.sets(st.integers(0, 0xFFFFFFFF), min_size=1, max_size=4))
        starts = data.draw(st.sets(st.integers(0, 500), min_size=1, max_size=4))
        mem = [MemRegion(s * 0x10000, 0x1000, PermFlags(data.draw(st.integers(1, 15))))
               for s in sorted(starts)]
        irqs = data.draw(st.sets(st.integers(0, 0xFFFFFFFF), max_size=4))
        cfg = CellConfig(name=name, cpus=cpus, mem=mem, irqs=irqs)
        assert load_binary(emit_binary(cfg)) == cfg


class TestMemRegionFlags:
    """A region's flags are its row's bits: a value the codec cannot write, or
    writes and then refuses to read, is refused when the region is built."""

    @pytest.mark.parametrize("bits", [0x11, 0x10, 256, -1])
    def test_unknown_bits_are_refused_as_the_codec_refuses_them(self, bits):
        with pytest.raises(InvariantViolation) as built:
            MemRegion(0x9000_0000, 0x1000, bits)
        assert str(built.value) == "unknown permission bits 0x%x" % bits

    def test_bad_flags_are_named_before_a_bad_size_as_the_binary_path_names_them(self):
        with pytest.raises(InvariantViolation) as built:
            MemRegion(0x9000_0000, 0, 0x11)
        with pytest.raises(InvariantViolation) as loaded:
            load_binary(config_blob(mem=[(0x9000_0000, 0, 0x11)]))
        assert str(built.value) == str(loaded.value) == "unknown permission bits 0x11"

    @pytest.mark.parametrize("bits", range(16))
    def test_known_bits_build_the_region_of_their_flags(self, bits):
        region = MemRegion(0x9000_0000, 0x1000, bits)
        assert region == MemRegion(0x9000_0000, 0x1000, PermFlags(bits))
        assert type(region.flags) is PermFlags
        cfg = CellConfig("g", {1}, [region])
        assert load_binary(emit_binary(cfg)) == cfg and cfg.mem == (region,)


# Each int field of a resource is drawn from the edges of the codec's u8, u16, u32 and u64
# fields and of the page grid, one past each, and -1; flags also from every small value.
EDGES = (-1, 0, 1, 4096, 2**16 - 1, 2**16, 2**31, 2**32 - 1, 2**32, 2**63, 2**64 - 8192,
         2**64 - 1, 2**64)
FLAGS = (*EDGES, *range(17), 255, 256)
RESOURCE_FIELDS = {Cpu: (EDGES,), IrqLine: (EDGES,), MemRegion: (EDGES, EDGES, FLAGS),
                   MmioDevice: (("uart",), EDGES, EDGES), PciDevice: (EDGES,),
                   IoPortRange: (EDGES, EDGES)}
RAM = MemRegion(0x1000_0000, 0x1000)


@pytest.mark.parametrize("kind", RESOURCE_FIELDS, ids=lambda kind: kind.__name__)
@given(data=st.data())
def test_a_resource_at_the_field_edges_is_refused_or_round_trips(kind, data):
    fields = data.draw(st.tuples(*map(st.sampled_from, RESOURCE_FIELDS[kind])))
    try:
        value = kind(*fields)
        if kind in (Cpu, IrqLine):
            cfg = CellConfig("g", {fields[0]} if kind is Cpu else {0}, [RAM],
                             irqs={fields[0]} if kind is IrqLine else ())
        elif kind is MemRegion:
            cfg = CellConfig("g", {0}, [value])
        else:
            cfg = CellConfig("g", {0}, [RAM], [value])
    except CellSimError:
        return
    loaded = load_binary(emit_binary(cfg))
    assert loaded == cfg
    assert value in loaded.mem + loaded.units()  # as rebuilt from the decoded rows
