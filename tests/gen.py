"""Seeded random generators shared by property and acceptance tests."""

import random
import string

from cellsim import (
    CellConfig,
    Cpu,
    IoPortRange,
    IrqLine,
    MemRegion,
    MmioDevice,
    PciDevice,
    PermFlags,
    PlatformSpec,
    Workload,
    WorkloadKind,
    build_platform,
)

PAGE = 4096
NAME_CHARS = string.ascii_letters + string.digits + "_-"


def random_name(rnd: random.Random, max_len: int = 31) -> str:
    return "".join(rnd.choice(NAME_CHARS) for _ in range(rnd.randint(1, max_len)))


def random_regions(rnd: random.Random, count: int, base: int, step: int):
    """Non-overlapping page-aligned regions spaced out from base."""
    regions = []
    cursor = base
    for _ in range(count):
        cursor += rnd.randint(0, 4) * PAGE
        size = rnd.randint(1, 8) * PAGE
        regions.append((cursor, size))
        cursor += size + step
    return regions


def random_config(rnd: random.Random) -> CellConfig:
    mem = tuple(
        MemRegion(base, size, PermFlags(rnd.randint(0, 15)))
        for base, size in random_regions(rnd, rnd.randint(1, 4), 0x1000_0000, PAGE))
    devices = []
    for base, size in random_regions(rnd, rnd.randint(0, 2), 0x9000_0000, PAGE):
        devices.append(MmioDevice(random_name(rnd, 15), base, size))
    if rnd.random() < 0.5:
        devices.append(PciDevice(rnd.randint(0, 0xFFFF)))
    if rnd.random() < 0.5:
        devices.append(IoPortRange(rnd.randint(0, 0xF000), rnd.randint(1, 0x100)))
    kind = rnd.choice(list(WorkloadKind))
    workload = Workload(kind, "scripts/%s.txt" % random_name(rnd, 8)
                        if kind is WorkloadKind.SCRIPT else None)
    return CellConfig(
        name=random_name(rnd),
        cpus=frozenset(rnd.sample(range(0, 64), rnd.randint(1, 5))),
        mem=mem,
        devices=tuple(devices),
        irqs=frozenset(rnd.sample(range(32, 256), rnd.randint(0, 5))),
        workload=workload)


def random_platform(rnd: random.Random):
    """Small platform of whole units for ledger conservation runs."""
    n_cpus = rnd.randint(1, 4)
    resources = [Cpu(i) for i in range(n_cpus)]
    for base, size in random_regions(rnd, rnd.randint(1, 3), 0x4000_0000, PAGE):
        resources.append(MemRegion(base, size))
    for base, size in random_regions(rnd, rnd.randint(0, 2), 0xA000_0000, PAGE):
        resources.append(MmioDevice(random_name(rnd, 12), base, size))
    for number in rnd.sample(range(32, 128), rnd.randint(1, 4)):
        resources.append(IrqLine(number))
    return build_platform(PlatformSpec(name="rand", resources=resources))


def config_from_units(rnd: random.Random, name: str, cpus, mem_regions,
                      devices, irqs) -> CellConfig:
    """Config claiming the given whole platform units."""
    return CellConfig(
        name=name,
        cpus=frozenset(c.index for c in cpus),
        mem=tuple(mem_regions),
        devices=tuple(devices),
        irqs=frozenset(line.number for line in irqs))
