"""Python-level calls per trap-path operation.

A seeded 1,000-item stream of accesses, step turns, doorbells, polls,
distributor writes and violations runs on a fixed four-cell partition of
the tiny platform: root, a latency responder, a stress guest and a
script guest, with one channel from the responder to the script guest.
After one warm-up pass, which builds the access maps and the doorbell
streams, a second pass counts every Python function each item enters,
the standard library's included, and holds each kind of item to a budget.
"""

import random

from cellsim import (
    Access, AccessKind, AccessOutcome, CellState, IoPortRange, MmioDevice, Workload,
    WorkloadKind, comm, irq)

from conftest import _python_calls
from test_hvcore import RAM, small_cell, tiny_hv

SLICE = 0x4000
RESPONDER, STRESS, SCRIPT = 1, 2, 3
GUEST_BASE = {RESPONDER: RAM + 0x8_0000, STRESS: RAM + 0xC_0000, SCRIPT: RAM + 0x10_0000}
UART, PORTS = 0x7000_6000, 0x3F8
WINDOW = 0x1000  # the channel's, carved from the top of the responder's RAM

# The most Python functions one item of each kind may enter; a doorbell's
# figure is a mean over the stream, as its streams refill a block at a time.
BUDGETS = {"direct": 1, "wfi": 1, "cpuid": 2, "poll": 1, "dist": 2, "send": 6, "violate": 5,
           "step": 4}
MEAN_ONLY = {"send"}


def partition(tmp_path):
    """The enabled hypervisor, with its guests running, and the channel's id."""
    script = tmp_path / "guest.txt"
    script.write_text("read 0x%x 8\nwrite 0x%x 4\ndistwrite 0x104\ninstr cpuid\n"
                      "iowrite 0x%x 1\nread 0x%x 4\nidle\nrepeat\n"
                      % (GUEST_BASE[SCRIPT] + 0x10, GUEST_BASE[SCRIPT] + 0x100, PORTS, UART))
    hv = tiny_hv(seed=28)
    configs = (
        small_cell("responder", cpu=1, base=GUEST_BASE[RESPONDER], size=SLICE,
                   workload=Workload(WorkloadKind.LATENCY_RESPONDER)),
        small_cell("stress", cpu=2, base=GUEST_BASE[STRESS], size=SLICE,
                   workload=Workload(WorkloadKind.STRESS)),
        small_cell("script", cpu=3, base=GUEST_BASE[SCRIPT], size=SLICE,
                   devices=[MmioDevice("uart", UART, 0x1000), IoPortRange(PORTS, 8)],
                   workload=Workload(WorkloadKind.SCRIPT, str(script))))
    for cfg in configs:
        hv.start_cell(hv.create_cell(cfg))
    return hv, comm.create_channel(hv, RESPONDER, SCRIPT, WINDOW, 4)


def stream(rnd, hv, channel):
    """1,000 items, each (kind, its calls): (fn, args, the outcome due or None)."""
    mem = AccessKind.MEM_READ, AccessKind.MEM_WRITE
    direct, emulated = AccessOutcome.DIRECT, AccessOutcome.EMULATED
    kinds = ["direct"] * 40 + ["step"] * 20 + ["send", "poll", "dist", "cpuid", "wfi",
                                                "violate"] * 6
    items = []
    for kind in rnd.choices(kinds, k=1000):
        cell = rnd.randrange(4)
        if kind == "direct":
            if cell == SCRIPT and rnd.random() < 0.5:
                access = Access(rnd.choice((AccessKind.IO_READ, AccessKind.IO_WRITE)),
                                PORTS + rnd.randrange(8), 1)
            else:
                base = GUEST_BASE.get(cell, RAM)
                access = Access(rnd.choice(mem), base + rnd.randrange(SLICE // 8) * 8, 8)
            calls = [(hv.handle_access, (cell, access), direct)]
        elif kind in ("wfi", "cpuid"):
            calls = [(hv.handle_access, (cell, Access(AccessKind.SENSITIVE_INSTR, instr=kind)),
                      emulated if kind == "cpuid" else direct)]
        elif kind == "step":
            calls = [(hv.step, (1,), None)]
        elif kind == "dist":
            calls = [(irq.distributor_access, (hv, cell, rnd.randrange(0x400) * 4), emulated)]
        elif kind == "poll":
            calls = [(comm.poll, (hv, channel, rnd.choice((RESPONDER, SCRIPT))), None)]
        elif kind == "send":
            sender = rnd.choice((RESPONDER, SCRIPT))
            payload = rnd.randbytes(rnd.randrange(16, 65))
            offset = rnd.randrange(WINDOW - len(payload))
            calls = [(comm.send, (hv, channel, sender, offset, payload, rnd.randrange(4)), None),
                     (comm.read_buffer, (hv, channel, RESPONDER + SCRIPT - sender, offset,
                                         len(payload)), None)]
        else:  # a guest writes another guest's RAM below the window, and is relaunched
            guest = rnd.choice(tuple(GUEST_BASE))
            other = GUEST_BASE[rnd.choice([g for g in GUEST_BASE if g != guest])]
            access = Access(AccessKind.MEM_WRITE,
                            other + rnd.randrange((SLICE - WINDOW) // 4) * 4, 4)
            calls = [(hv.handle_access, (guest, access), AccessOutcome.VIOLATION),
                     (hv.relaunch_cell, (guest,), None)]
        items.append((kind, calls))
    return items


def test_each_trap_path_makes_only_the_calls_its_work_needs(tmp_path):
    hv, channel = partition(tmp_path)
    items = stream(random.Random(28), hv, channel)
    for kind, calls in items:  # the warm-up pass
        for fn, args, outcome in calls:
            result = fn(*args)
            assert outcome is None or result is outcome, (kind, args, result)
    made = {}
    for kind, calls in items:
        made.setdefault(kind, []).append(sum(sum(_python_calls(fn, *args).values())
                                             for fn, args, _ in calls))
    assert set(made) == set(BUDGETS)
    over = {kind: (max(counts), sum(counts) / len(counts)) for kind, counts in made.items()
            if (sum(counts) / len(counts) if kind in MEAN_ONLY else max(counts)) > BUDGETS[kind]}
    assert not over, over
    assert all(cell.state is CellState.RUNNING for cell in hv.cells.values())
    hv.audit()
