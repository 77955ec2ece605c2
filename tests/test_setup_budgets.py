"""Python-level calls of a snapshot load and of a latency row's set-up.

Each CLI command loads its session once, and each latency row builds a
hypervisor, enables it and creates and starts its guests. Both are
counted as `tests/test_trap_budgets.py` counts the trap path: every
Python function entered, the standard library's included. Each budget
is the count the code made before the ledger held devices as masks, on
Python 3.11; Python 3.12 makes fewer, as it inlines comprehensions.
"""

from cellsim import (
    CellConfig, Hypervisor, MemRegion, MmioDevice, PermFlags, Workload, WorkloadKind, enable,
    jetson_tk1, load_session, save_session)
from cellsim._value import Value
from cellsim.bench import _row_setup, full_platform_config

from conftest import _python_calls

RW = PermFlags.READ | PermFlags.WRITE

# A device lookup in a Python dict keyed by value objects ran Value.__hash__ and, where a
# config's device is another object than the platform's, Value.__eq__: 21 and 13 of them.
LOAD_BUDGET = 397
ROW_BUDGET = 104


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
