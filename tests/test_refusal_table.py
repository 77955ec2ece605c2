"""Every malformed resource field a binary config or a snapshot's platform
layout can hold, with the exact refusal it gets.

The blobs are built here byte by byte, after the layouts in
`cellsim.cellconfig` and `cellsim.snapshot`, from one valid resource list
with one field changed. Each entry names the exception type and its whole
message, so a decoder that checks the fields another way must refuse them
with the same texts, in the same order.
"""

import struct

import pytest

from cellsim import load_binary, load_session, save_session
from cellsim.errors import DuplicateIrq, InvariantViolation, OverlapError

from conftest import make_tiny_platform

# kind codes of a resource run: a kind byte and a u32 count, then the bodies
CPU, MEM, MMIO, PCI, PORT, IRQ = range(6)
BODY = {CPU: "<I", MEM: "<QQB", MMIO: "<16sQQ", PCI: "<H", PORT: "<HI", IRQ: "<I"}
RW = 3
RAM = (0x1000_0000, 0x20_0000, RW)


def runs(*spec) -> bytes:
    """A resource list: (kind, bodies) runs, each body the fields of its struct."""
    out = struct.pack("<I", len(spec))
    for kind, bodies in spec:
        out += struct.pack("<BI", kind, len(bodies))
        out += b"".join(struct.pack(BODY[kind], *body) for body in bodies)
    return out


def mmio(name: bytes, base: int, size: int = 0x1000) -> tuple:
    return name.ljust(16, b"\0"), base, size


def config(cpus=(0,), mem=(RAM,), mmios=(), pcis=(), ports=(), irqs=(33,),
           name=b"guest") -> bytes:
    """A config v3 blob of an idle cell with these resources, runs left out when empty."""
    spec = [(CPU, [(cpu,) for cpu in cpus]), (MEM, list(mem)), (MMIO, list(mmios)),
            (PCI, [(bdf,) for bdf in pcis]), (PORT, list(ports)),
            (IRQ, [(irq,) for irq in irqs])]
    return (struct.pack("<IH32s", 0x4A484346, 3, name)
            + runs(*[run for run in spec if run[1]]) + struct.pack("<BH", 0, 0))


def snapshot(cpus=(0, 1), mem=(RAM,), mmios=(mmio(b"uart", 0x7000_6000),), pcis=(),
             ports=(), irqs=(32, 33)) -> bytes:
    """A platform-only snapshot v8 of the tiny platform's name and bus, with this layout."""
    spec = [(CPU, [(cpu,) for cpu in cpus]), (MEM, list(mem)), (MMIO, list(mmios)),
            (PCI, [(bdf,) for bdf in pcis]), (PORT, list(ports)),
            (IRQ, [(irq,) for irq in irqs])]
    valid = save_session(make_tiny_platform(), None)
    head = 6 + 2 + len(b"tiny") + struct.calcsize("<B8d2B")  # up to the resource list
    return valid[:head] + runs(*[run for run in spec if run[1]]) + b"\0"


REGION = "MemRegion(base=%d, size=%d, flags=<PermFlags.READ|WRITE: 3>)"
UART = "MmioDevice(name='uart', base=%d, size=4096)" % 0x7000_6000

# (id, the blob, exception type, message); every blob differs from a valid one in one field
CONFIG_REFUSALS = [
    ("zero-size", config(mem=[(0x1000_0000, 0, RW)]),
     InvariantViolation, "memory region: size must be positive"),
    ("base-off-page", config(mem=[(0x1000_0800, 0x1000, RW)]),
     InvariantViolation, "memory region: base and size must be multiples of 4096"),
    ("past-2^64", config(mem=[(2 ** 64 - 0x1000, 0x2000, RW)]),
     InvariantViolation, "memory region: range overflows 64 bits"),
    ("unknown-perm-bits", config(mem=[(0x1000_0000, 0x1000, 0x13)]),
     InvariantViolation, "unknown permission bits 0x13"),
    ("mmio-zero-size", config(mmios=[mmio(b"uart", 0x7000_6000, 0)]),
     InvariantViolation, "mmio device 'uart': size must be positive"),
    ("mmio-off-page", config(mmios=[mmio(b"uart", 0x7000_6010)]),
     InvariantViolation, "mmio device 'uart': base and size must be multiples of 4096"),
    ("mmio-name-rule", config(mmios=[mmio(b"ua rt", 0x7000_6000)]),
     InvariantViolation, "mmio device name 'ua rt' must match [A-Za-z0-9_-]+"),
    ("mmio-name-empty", config(mmios=[mmio(b"", 0x7000_6000)]),
     InvariantViolation, "mmio device name '' must match [A-Za-z0-9_-]+"),
    ("mmio-name-16-bytes", config(mmios=[mmio(b"u" * 16, 0x7000_6000)]),
     InvariantViolation, "mmio device name 'uuuuuuuuuuuuuuuu' longer than 15 bytes"),
    ("mmio-name-padding", config(mmios=[mmio(b"uart\0x", 0x7000_6000)]),
     InvariantViolation, "device name padding must be zero"),
    ("mmio-name-utf8", config(mmios=[mmio(b"\xff", 0x7000_6000)]),
     InvariantViolation, "device name is not valid UTF-8"),
    ("cell-name-padding", config(name=b"guest\0x"),
     InvariantViolation, "cell name padding must be zero"),
    ("cell-name-no-nul", config(name=b"n" * 32),
     InvariantViolation, "cell name longer than 31 bytes"),
    ("empty-port-range", config(ports=[(0x60, 0)]),
     InvariantViolation, "io port range must not be empty"),
    ("port-range-past-0x10000", config(ports=[(0xFFF8, 0x10)]),
     InvariantViolation, "io port range [0xfff8, 0x10008) exceeds the 16-bit port space"),
    ("overlapping-regions", config(mem=[RAM, (0x1010_0000, 0x20_0000, RW)]),
     OverlapError, "%s overlaps %s" % (REGION % RAM[:2], REGION % (0x1010_0000, 0x20_0000))),
    ("region-overlaps-mmio", config(mem=[RAM], mmios=[mmio(b"uart", 0x1000_1000)]),
     OverlapError, "%s overlaps MmioDevice(name='uart', base=%d, size=4096)"
     % (REGION % RAM[:2], 0x1000_1000)),
    ("mmio-twice", config(mmios=[mmio(b"uart", 0x7000_6000)] * 2),
     InvariantViolation, "a device is listed twice"),
    ("pci-twice", config(pcis=[8, 8]), InvariantViolation, "a device is listed twice"),
    ("port-range-twice", config(ports=[(0x60, 4)] * 2),
     InvariantViolation, "a device is listed twice"),
    ("overlapping-port-ranges", config(ports=[(0x60, 8), (0x64, 8)]),
     OverlapError, "IoPortRange(base=96, length=8) overlaps IoPortRange(base=100, length=8)"),
    ("cpu-twice", config(cpus=[1, 1]), InvariantViolation, "duplicate cpu ids in stream"),
    ("irq-twice", config(irqs=[33, 40, 33]), InvariantViolation, "duplicate irq numbers in stream"),
    # two faults: the first field in the stream is refused first
    ("perm-bits-before-region", config(mem=[(0x1000_0800, 0, 0x10)]),
     InvariantViolation, "unknown permission bits 0x10"),
    ("region-before-mmio", config(mem=[(0x1000_0000, 0, RW)], mmios=[mmio(b"a b", 0x1000)]),
     InvariantViolation, "memory region: size must be positive"),
    ("row-before-overlap", config(mem=[RAM, RAM], ports=[(0x60, 0)]),
     InvariantViolation, "io port range must not be empty"),
    ("cpu-twice-before-overlap", config(cpus=[1, 1], mem=[RAM, RAM]),
     InvariantViolation, "duplicate cpu ids in stream"),
    ("device-twice-before-overlap", config(mem=[RAM, RAM], pcis=[8, 8]),
     InvariantViolation, "a device is listed twice"),
]

PLATFORM_REFUSALS = [
    ("zero-size", snapshot(mem=[(0x1000_0000, 0, RW)]),
     InvariantViolation, "memory region: size must be positive"),
    ("base-off-page", snapshot(mem=[(0x1000_0800, 0x1000, RW)]),
     InvariantViolation, "memory region: base and size must be multiples of 4096"),
    ("past-2^64", snapshot(mem=[(2 ** 64 - 0x1000, 0x2000, RW)]),
     InvariantViolation, "memory region: range overflows 64 bits"),
    ("unknown-perm-bits", snapshot(mem=[(0x1000_0000, 0x1000, 0x20)]),
     InvariantViolation, "unknown permission bits 0x20"),
    ("mmio-name-rule", snapshot(mmios=[mmio(b"gic dist", 0x5004_1000)]),
     InvariantViolation, "mmio device name 'gic dist' must match [A-Za-z0-9_-]+"),
    ("mmio-name-16-bytes", snapshot(mmios=[mmio(b"g" * 16, 0x5004_1000)]),
     InvariantViolation, "mmio device name 'gggggggggggggggg' longer than 15 bytes"),
    ("mmio-name-padding", snapshot(mmios=[mmio(b"uart\0\0\0\x01", 0x7000_6000)]),
     InvariantViolation, "device name padding must be zero"),
    ("empty-port-range", snapshot(ports=[(0x3F8, 0)]),
     InvariantViolation, "io port range must not be empty"),
    ("port-range-past-0x10000", snapshot(ports=[(0xFFFF, 2)]),
     InvariantViolation, "io port range [0xffff, 0x10001) exceeds the 16-bit port space"),
    ("overlapping-regions", snapshot(mem=[RAM, (0x1010_0000, 0x20_0000, RW)]),
     OverlapError, "%s overlaps %s" % (REGION % RAM[:2], REGION % (0x1010_0000, 0x20_0000))),
    ("mmio-overlaps-ram", snapshot(mmios=[mmio(b"uart", 0x1000_1000)]),
     OverlapError, "%s overlaps MmioDevice(name='uart', base=%d, size=4096)"
     % (REGION % RAM[:2], 0x1000_1000)),
    ("mmio-twice", snapshot(mmios=[mmio(b"uart", 0x7000_6000)] * 2),
     OverlapError, "%s overlaps %s" % (UART, UART)),
    ("mmio-name-twice", snapshot(mmios=[mmio(b"uart", 0x7000_6000), mmio(b"uart", 0x7000_7000)]),
     InvariantViolation, "mmio device names must be unique"),
    ("pci-twice", snapshot(pcis=[8, 8]), InvariantViolation, "pci bdfs must be unique"),
    ("port-range-twice", snapshot(ports=[(0x60, 4)] * 2),
     OverlapError, "IoPortRange(base=96, length=4) overlaps IoPortRange(base=96, length=4)"),
    ("cpu-twice", snapshot(cpus=[0, 1, 1]),
     InvariantViolation, "cpu indices must be unique and contiguous from 0, got [0, 1, 1]"),
    ("irq-twice", snapshot(irqs=[32, 33, 32]), DuplicateIrq, "irq lines listed twice: [32]"),
    # two faults: the rows are refused as they are read, before the layout's rules
    ("row-before-overlap", snapshot(mem=[RAM, RAM], ports=[(0x60, 0)]),
     InvariantViolation, "io port range must not be empty"),
    ("cpus-before-irqs", snapshot(cpus=[1], irqs=[32, 32]),
     InvariantViolation, "cpu indices must be unique and contiguous from 0, got [1]"),
]


def _cases(table):
    return pytest.mark.parametrize("blob, error, message", [case[1:] for case in table],
                                   ids=[case[0] for case in table])


def test_the_valid_blobs_load():
    assert load_binary(config(mmios=[mmio(b"uart", 0x7000_6000)], pcis=[8], ports=[(0x60, 8)]))
    platform, hv = load_session(snapshot(pcis=[8], ports=[(0x60, 8)]))
    assert hv is None and platform.name == "tiny"


@_cases(CONFIG_REFUSALS)
def test_a_binary_config_field_is_refused_with_its_text(blob, error, message):
    with pytest.raises(error) as refused:
        load_binary(blob)
    assert type(refused.value) is error and str(refused.value) == message


@_cases(PLATFORM_REFUSALS)
def test_a_snapshot_platform_field_is_refused_with_its_text(blob, error, message):
    with pytest.raises(error) as refused:
        load_session(blob)
    assert type(refused.value) is error and str(refused.value) == message
