"""The value-type contract every cellsim record keeps.

Each case builds one instance of a record type through a class argument,
so that a subclass with the same fields can be built the same way. The
repr literals are the texts the types have always printed.
"""

import copy
import pickle

import numpy as np
import pytest

from cellsim import (
    Access,
    AccessKind,
    BusModel,
    Cell,
    CellConfig,
    CellState,
    Cpu,
    DistParams,
    GicVersion,
    IoPortRange,
    IrqLine,
    MachinePlatform,
    MemRegion,
    MmioDevice,
    PciDevice,
    PlatformSpec,
    Violation,
    ViolationKind,
    Workload,
    WorkloadKind,
)
from cellsim.bench import BenchReport
from cellsim.comm import Channel
from cellsim.irq import IrqDeliveries, LatencyStats, Scenario
from cellsim.machine import resource_layout

BUS = BusModel(0.45, DistParams(0.7, -2.3, 0.6), DistParams(0.0, -0.1, 0.38), 0.1)
CONFIG = CellConfig(name="g", cpus={1}, mem=(MemRegion(0x1000, 0x1000),), irqs={33})
CONFIG_REPR = ("CellConfig(name='g', cpus=frozenset({1}), mem=(MemRegion(base=4096, size=4096,"
               " flags=<PermFlags.READ|WRITE: 3>),), devices=(), irqs=frozenset({33}),"
               " workload=Workload(kind=<WorkloadKind.IDLE: 'idle'>, script_path=None))")
BUS_REPR = ("BusModel(base_latency_us=0.45, hv_overhead=DistParams(shift_us=0.7, log_mu=-2.3,"
            " log_sigma=0.6), contention=DistParams(shift_us=0.0, log_mu=-0.1, log_sigma=0.38),"
            " contention_prob=0.1, quantize_enabled=True, phase_jitter_enabled=True)")

# (type, builder of an instance of a given subclass of it, first field, repr)
CASES = [
    (Cpu, lambda cls: cls(1), "index", "Cpu(index=1)"),
    (MemRegion, lambda cls: cls(0x1000, 0x2000), "base",
     "MemRegion(base=4096, size=8192, flags=<PermFlags.READ|WRITE: 3>)"),
    (MmioDevice, lambda cls: cls("uart", 0x3000, 0x1000), "name",
     "MmioDevice(name='uart', base=12288, size=4096)"),
    (PciDevice, lambda cls: cls(0x10), "bdf", "PciDevice(bdf=16)"),
    (IoPortRange, lambda cls: cls(0x60, 4), "base", "IoPortRange(base=96, length=4)"),
    (IrqLine, lambda cls: cls(33), "number", "IrqLine(number=33)"),
    (DistParams, lambda cls: cls(0.5, -2.0, 0.25), "shift_us",
     "DistParams(shift_us=0.5, log_mu=-2.0, log_sigma=0.25)"),
    (BusModel, lambda cls: cls(0.45, DistParams(0.7, -2.3, 0.6), DistParams(0.0, -0.1, 0.38), 0.1),
     "base_latency_us", BUS_REPR),
    (PlatformSpec, lambda cls: cls("p", [Cpu(0)], GicVersion.V3), "name",
     "PlatformSpec(name='p', resources=[Cpu(index=0)], gic_version=<GicVersion.V3: 'v3'>,"
     " bus=None)"),
    (MachinePlatform, lambda cls: cls("p", resource_layout(
        [Cpu(0), Cpu(1), MemRegion(0x1000, 0x1000), IrqLine(32)]), GicVersion.V2, BUS), "name",
     "MachinePlatform(name='p', layout=((<class 'cellsim.machine.Cpu'>, (0, 1)),"
     " (<class 'cellsim.machine.MemRegion'>, (MemRegion(base=4096, size=4096,"
     " flags=<PermFlags.READ|WRITE: 3>),)), (<class 'cellsim.machine.IrqLine'>, (32,))),"
     " gic_version=<GicVersion.V2: 'v2'>, bus=%s)" % BUS_REPR),
    (Workload, lambda cls: cls(WorkloadKind.SCRIPT, "s.txt"), "kind",
     "Workload(kind=<WorkloadKind.SCRIPT: 'script'>, script_path='s.txt')"),
    (CellConfig, lambda cls: cls(name="g", cpus={1}, mem=(MemRegion(0x1000, 0x1000),), irqs={33}),
     "name", CONFIG_REPR),
    (Violation, lambda cls: cls(ViolationKind.NO_SUCH_RESOURCE, Cpu(9), "why"), "kind",
     "Violation(kind=<ViolationKind.NO_SUCH_RESOURCE: 'NoSuchResource'>, resource=Cpu(index=9),"
     " message='why')"),
    (Access, lambda cls: cls(AccessKind.MEM_READ, 0x1000, 8), "kind",
     "Access(kind=<AccessKind.MEM_READ: 'MemRead'>, addr_or_port=4096, width=8, instr=None)"),
    (Cell, lambda cls: cls(1, CONFIG, CellState.RUNNING, {0x1000: b"ab"}, "idle\n", 0), "id",
     "Cell(id=1, config=%s, state=<CellState.RUNNING: 'running'>, memory_image={4096: b'ab'},"
     " script='idle\\n', script_pos=0)" % CONFIG_REPR),
    (Scenario, lambda cls: cls(True, 10.0, False, 5, 7), "vmm_on",
     "Scenario(vmm_on=True, freq_hz=10.0, stress=False, n_samples=5, seed=7)"),
    (LatencyStats, lambda cls: cls(1.0, 0.1, 2.0, 3), "mean_us",
     "LatencyStats(mean_us=1.0, sigma_us=0.1, max_us=2.0, n=3)"),
    (IrqDeliveries, lambda cls: cls(33, 0, "reinjected", np.array([1000]), np.array([1.0])),
     "line", "IrqDeliveries(line=33, owner=0, path='reinjected', raised_at=array([1000]),"
     " latency_us=array([1.]))"),
    (BenchReport, lambda cls: cls((1, 2), "p"), "rows", "BenchReport(rows=(1, 2), platform_name='p')"),
    (Channel, lambda cls: cls(3, 1, 2, MemRegion(0x2000, 0x1000), 2, 8, 16, bytearray(b"ab")), "id",
     "Channel(id=3, cell_a=1, cell_b=2, region=MemRegion(base=8192, size=4096,"
     " flags=<PermFlags.READ|WRITE: 3>), vectors=2, bdf_a=8, bdf_b=16,"
     " buffer=bytearray(b'ab'), pending={1: deque([]), 2: deque([])})"),
]
MUTABLE = {Cell, Channel, PlatformSpec}  # unhashable, and their fields can be assigned
BY_IDENTITY = {IrqDeliveries}  # numpy arrays have no single truth value


@pytest.mark.parametrize("kind, build, field, text", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_type_contract(kind, build, field, text):
    value, twin = build(kind), build(kind)
    assert repr(value) == text
    subclass = type("Sub" + kind.__name__, (kind,), {})
    assert value != build(subclass) and build(subclass) != value  # equality includes the type
    for other in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is kind and repr(other) == text
        assert (other == value) is (kind not in BY_IDENTITY)
    if kind in BY_IDENTITY:
        assert value == value and value != twin and hash(value) == hash(value)
    else:
        assert value == twin and not value != twin
    if kind in MUTABLE:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)
        setattr(value, field, getattr(twin, field))  # assignment still works
        assert value == twin
        return
    if kind not in BY_IDENTITY:
        assert hash(value) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(twin, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text


def test_unit_types_compare_by_type():
    assert Cpu(1) != IrqLine(1) and IrqLine(1) != Cpu(1)
    assert PciDevice(1) != Cpu(1)
    assert len({Cpu(1), IrqLine(1), PciDevice(1)}) == 3
