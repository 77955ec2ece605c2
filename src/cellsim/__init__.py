"""Deterministic simulator of a static-partitioning hypervisor.

Hardware is split into cells that exclusively own their CPUs, memory,
devices and interrupt lines; there is no scheduler and no overcommit.
The package models the hypervisor's activation, cell lifecycle and trap
behaviour, and ships a seeded microbenchmark that reproduces the shape
of the interrupt-latency measurements the design is known for.
"""

from .bench import (
    BenchReport,
    canonical_scenarios,
    export_csv,
    full_platform_config,
    render_table,
    run_report,
    run_scenario,
    summarize,
)
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
from .comm import create_channel, pci_cfg_read, poll, read_buffer, send
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
    HvState,
    OwnershipLedger,
    TrapEvent,
    TrapKind,
    enable,
)
from .irq import (
    IrqDeliveries,
    LatencyStats,
    Scenario,
    distributor_access,
    latency_streams,
    quantize_62_5ns,
    raise_irq,
    raise_irqs,
    sample_latency,
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
from .rng import GENERATOR_NAME, make_rng, make_streams
from .snapshot import load_session, save_session

__version__ = "0.1.0"
