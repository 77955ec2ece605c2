"""Deterministic simulator of a static-partitioning hypervisor.

Hardware is split into cells that exclusively own their CPUs, memory,
devices and interrupt lines; there is no scheduler and no overcommit.
The package models the hypervisor's activation, cell lifecycle and trap
behaviour, and ships a seeded microbenchmark that reproduces the shape
of the interrupt-latency measurements the design is known for.
"""

import importlib

from .cellconfig import (
    CellConfig,
    Violation,
    ViolationKind,
    Workload,
    WorkloadKind,
    emit_binary,
    load_binary,
    parse_config,
    validate_against,
)
from .errors import CellSimError
from .hvcore import (
    EXIT_SLOT,
    ROOT_CELL,
    Access,
    AccessKind,
    AccessOutcome,
    Cell,
    CellState,
    Hypervisor,
    OwnershipLedger,
    TrapEvent,
    TrapKind,
    enable,
)
from .machine import (
    BusModel,
    Cpu,
    DistParams,
    GicVersion,
    IoPortRange,
    IrqLine,
    MachinePlatform,
    MemRegion,
    MmioDevice,
    PciDevice,
    PermFlags,
    PlatformSpec,
    build_platform,
    jetson_tk1,
    load_platform,
    parse_platform,
)
from .snapshot import load_session, save_session

__version__ = "0.1.0"

# Names whose modules import numpy, loaded on first access (PEP 562) so
# that `import cellsim` and the lifecycle commands load no numpy.
_LAZY = {name: module for module, names in (
    ("bench", "BenchReport canonical_scenarios export_csv full_platform_config"
              " render_table run_report run_scenario summarize"),
    ("comm", "create_channel pci_cfg_read poll read_buffer send"),
    ("irq", "IrqDeliveries LatencyStats Scenario distributor_access latency_streams"
            " quantize_62_5ns raise_irq raise_irqs sample_latency"),
    ("rng", "GENERATOR_NAME make_rng"),
) for name in names.split()}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _LAZY[name], __name__), name)
    globals()[name] = value  # later lookups no longer reach this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
