"""Python-level calls of a snapshot load and of a latency row.

Each CLI command loads its session once, and each latency row builds a
hypervisor, enables it and creates and starts its guests. Both are
counted as `tests/test_trap_budgets.py` counts the trap path: every
Python function entered, the standard library's included. Each budget
is the count the code makes since configs and platforms hold the binary
codec's int rows, the same on Python 3.10 to 3.13: a load decodes each
resource run with one unpack and checks its rows with no call per run or
row, it builds no value object for a resource, and it looks each claimed
region's host RAM row up once. A whole row is held to numpy's reductions,
as it reduces its raise times and its latencies once each, and to the calls
it makes into cellsim's own code, as numpy's Python wrappers differ between
its versions.
"""

import os

try:
    from numpy._core import _methods  # the Python wrappers of ndarray.max, .min and .sum
except ImportError:  # numpy 1.x
    from numpy.core import _methods

import cellsim
from cellsim import (
    CellConfig, Cpu, Hypervisor, IoPortRange, IrqLine, MachinePlatform, MemRegion, MmioDevice,
    PciDevice, PermFlags, Scenario, Workload, WorkloadKind, emit_binary, enable, jetson_tk1,
    load_binary, load_session, run_scenario, save_session)
from cellsim._value import Value
from cellsim.bench import _row_setup, full_platform_config

from conftest import _python_calls

RW = PermFlags.READ | PermFlags.WRITE

# While configs and platforms held value objects a load made 356 calls, 23 of them
# Value._freeze, and a row's set-up 89; the budgets were 397 and 104. Looking each
# region's host RAM row up again in range_owner and transfer_range cost 114 and 61.
LOAD_BUDGET = 108
ROW_BUDGET = 57
# host_region calls: once per claimed region (a load's 3 are audit's), where the checks
# and the moves each looked it up again (13 and 7).
LOAD_HOST_LOOKUPS = 7
ROW_HOST_LOOKUPS = 3
# A stressed 5,000-sample run_scenario: the raise times' min, the record's raise-time and
# latency max and latency min, and the stats' two sums. Checking and summarizing a row
# apart took 4 maxima, 3 minima and 99 calls of cellsim's functions (135 with numpy 2.4's).
SCENARIO_BUDGET = 90
PACKAGE = os.path.dirname(cellsim.__file__) + os.sep
REDUCTIONS = {"_amax": 2, "_amin": 2, "_sum": 2}  # the most of each


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
    assert calls[MachinePlatform.host_region.__code__] == LOAD_HOST_LOOKUPS


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
    assert calls[MachinePlatform.host_region.__code__] == ROW_HOST_LOOKUPS


def test_a_stressed_row_reduces_each_array_once():
    platform, sc = jetson_tk1(), Scenario(True, 10.0, True, 5000, seed=11)
    _row_setup.cache_clear()  # else an equal platform cached first is compared, 4 calls
    run_scenario(platform, sc)  # the warm-up: the row's set-up is cached for this platform
    calls = _python_calls(run_scenario, platform, sc)
    reductions = {name: calls[getattr(_methods, name).__code__] for name in REDUCTIONS}
    assert all(reductions[name] <= most for name, most in REDUCTIONS.items()), reductions
    own = sum(n for code, n in calls.items() if code.co_filename.startswith(PACKAGE))
    assert own <= SCENARIO_BUDGET, own


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
