import time

import pytest

from cellsim import (
    CellConfig,
    Cpu,
    IoPortRange,
    IrqLine,
    MachinePlatform,
    MemRegion,
    MmioDevice,
    PciDevice,
    PlatformSpec,
    build_platform,
    canonical_scenarios,
    jetson_tk1,
    run_scenario,
)


@pytest.fixture(scope="session")
def jetson():
    return jetson_tk1()


def make_tiny_platform(name="tiny"):
    """Small platform for fast lifecycle/comm tests."""
    resources = [
        Cpu(0), Cpu(1), Cpu(2), Cpu(3),
        MemRegion(0x1000_0000, 0x20_0000),
        MmioDevice("gic-dist", 0x5004_1000, 0x1000),
        MmioDevice("uart", 0x7000_6000, 0x1000),
        IoPortRange(0x3F8, 0x8),
        PciDevice(0x0010),
    ] + [IrqLine(n) for n in range(32, 40)]
    return build_platform(PlatformSpec(name=name, resources=resources))


def with_bus(platform, bus):
    """The platform with the given bus model, built anew from its fields."""
    return MachinePlatform(platform.name, platform.layout, platform.gic_version, bus)


def config_with(cfg, **changes):
    """The cell config with the named fields changed, built anew by keyword."""
    return CellConfig(**dict(dict(name=cfg.name, cpus=cfg.cpus, mem=cfg.mem, devices=cfg.devices,
                                  irqs=cfg.irqs, workload=cfg.workload), **changes))


@pytest.fixture()
def tiny():
    return make_tiny_platform()


@pytest.fixture(scope="session")
def canonical_results(jetson):
    """The six canonical scenarios at seed 7, n=1e5, with total wall time."""
    started = time.monotonic()
    rows = {}
    for sc in canonical_scenarios(n_samples=10**5, seed=7):
        stats, _ = run_scenario(jetson, sc)
        rows[(sc.vmm_on, sc.freq_hz, sc.stress)] = stats
    return rows, time.monotonic() - started
