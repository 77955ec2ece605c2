"""Python-level calls of a snapshot load and of a latency row's set-up.

Each CLI command loads its session once, and each latency row builds a
hypervisor, enables it and creates and starts its guests. Both are
counted as `tests/test_trap_budgets.py` counts the trap path: every
Python function entered, the standard library's included. Each budget
is the count the code makes since configs and platforms hold the binary
codec's int rows, the same on Python 3.10 to 3.13: a load decodes each
resource run with one unpack and checks its rows with no call per run or
row, and it builds no value object for a resource.
"""

from cellsim import (
    CellConfig, Cpu, Hypervisor, IoPortRange, IrqLine, MemRegion, MmioDevice, PciDevice,
    PermFlags, Workload, WorkloadKind, emit_binary, enable, jetson_tk1, load_binary,
    load_session, save_session)
from cellsim._value import Value
from cellsim.bench import _row_setup, full_platform_config

from conftest import _python_calls

RW = PermFlags.READ | PermFlags.WRITE

# While configs and platforms held value objects a load made 356 calls, 23 of them
# Value._freeze, and a row's set-up 89; the budgets were 397 and 104.
LOAD_BUDGET = 114
ROW_BUDGET = 61


def jetson_session() -> bytes:
    """A jetson-tk1 session of root and two running guests, each holding an MMIO device."""
    platform = jetson_tk1()
    hv = enable(platform, full_platform_config(platform), seed=5)
    rtos = hv.create_cell(CellConfig(
        "rtos", {1}, [MemRegion(0x9000_0000, 0x10_0000, RW)],
        [MmioDevice("gpio", 0x6000_D000, 0x1000)], {33, 40, 41},
        Workload(WorkloadKind.LATENCY_RESPONDER)))
    linux = hv.create_cell(CellConfig(
        "linux", {2, 3}, [MemRegion(0xA000_0000, 0x20_0000, RW),
                          MemRegion(0xB000_0000, 0x10_0000, PermFlags.READ)],
        [MmioDevice("uart-a", 0x7000_6000, 0x1000)], set(range(50, 56)),
        Workload(WorkloadKind.STRESS)))
    hv.start_cell(rtos)
    hv.start_cell(linux)
    return save_session(platform, hv)


def test_a_snapshot_load_stays_in_its_budget_and_compares_no_value():
    blob = jetson_session()
    load_session(blob)  # the warm-up
    calls = _python_calls(load_session, blob)
    assert sum(calls.values()) <= LOAD_BUDGET, sum(calls.values())
    assert calls[Value.__eq__.__code__] == 0
    assert calls[Value.__hash__.__code__] == 0


def test_a_stressed_rows_set_up_stays_in_its_budget():
    platform = jetson_tk1()
    _, configs = _row_setup(platform, True, True)

    def set_up():
        hv = Hypervisor(platform, seed=7)
        hv.enable(configs[0])
        for cfg in configs[1:]:
            hv.start_cell(hv.create_cell(cfg))

    set_up()  # the warm-up, as every row after a table's first
    calls = _python_calls(set_up)
    assert sum(calls.values()) <= ROW_BUDGET, sum(calls.values())


def test_a_config_decodes_with_as_many_calls_for_one_region_as_for_many():
    # each run is read with one unpack and each row tested inline: a row costs no call
    one = CellConfig("one", {1}, [MemRegion(0x9000_0000, 0x1000, RW)])
    many = CellConfig(
        "many", {1, 2, 3}, [MemRegion(0x9000_0000 + i * 0x10_0000, 0x1000, RW) for i in range(8)],
        [MmioDevice("gpio", 0x6000_D000, 0x1000), MmioDevice("uart-a", 0x7000_6000, 0x1000),
         PciDevice(0x10), IoPortRange(0x3F8, 8)], set(range(40, 52)),
        Workload(WorkloadKind.STRESS))
    counts = []
    for cfg in (one, many):
        blob = emit_binary(cfg)
        assert load_binary(blob) == cfg
        counts.append(sum(_python_calls(load_binary, blob).values()))
    assert counts[0] == counts[1], counts


def test_a_snapshot_load_builds_no_resource_value_object():
    blob = jetson_session()
    load_session(blob)
    calls = _python_calls(load_session, blob)
    built = {kind.__name__: calls[kind.__init__.__code__]
             for kind in (Cpu, IrqLine, MemRegion, MmioDevice, PciDevice, IoPortRange)}
    assert built == dict.fromkeys(built, 0), built
