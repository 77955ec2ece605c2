import copy
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from cellsim import (
    ROOT_CELL,
    Access,
    AccessKind,
    AccessOutcome,
    CellConfig,
    CellState,
    MemRegion,
    PermFlags,
    TrapKind,
    Workload,
    WorkloadKind,
    create_channel,
    pci_cfg_read,
    poll,
    read_buffer,
    send,
)
from cellsim.comm import ABSENT, VENDOR_ID
from cellsim.errors import (
    BadAlignment,
    BadSize,
    BadState,
    BadVector,
    InvariantViolation,
    NoSuchCell,
    NoSuchResource,
    NotEndpoint,
    OutOfRegion,
    SelfChannel,
    ValidationFailed,
)
from cellsim.irq import DoorbellLatencies, latency_streams, sample_latency

from test_hvcore import RAM, small_cell, tiny_hv

PAGE = 0x1000
RAM_END = RAM + 0x20_0000  # the tiny platform's one RAM region
RW = PermFlags.READ | PermFlags.WRITE


def channel_pair(size=PAGE, vectors=4):
    """Enabled hypervisor with two running cells joined by a channel."""
    hv = tiny_hv()
    a = hv.create_cell(small_cell("alpha", cpu=1, base=RAM + 0x8_0000, size=0x4000))
    b = hv.create_cell(small_cell("beta", cpu=2, base=RAM + 0xC_0000, size=0x4000))
    hv.start_cell(a)
    hv.start_cell(b)
    ch = create_channel(hv, a, b, size, vectors)
    return hv, a, b, ch


class TestCreateChannel:
    def test_window_comes_from_creators_memory(self):
        hv, a, b, ch = channel_pair()
        channel = hv.channels[ch]
        top = RAM + 0x8_0000 + 0x4000
        assert channel.region.base == top - PAGE
        assert channel.region.end == top
        # carving moves no ownership
        assert hv.ledger.range_owner(channel.region.base, channel.region.end) == a
        hv.audit()

    def test_peer_gets_an_access_grant(self):
        hv, a, b, ch = channel_pair()
        region = hv.channels[ch].region
        assert hv.handle_access(b, Access(
            AccessKind.MEM_READ, region.base, 4)) is AccessOutcome.DIRECT
        assert hv.handle_access(b, Access(
            AccessKind.MEM_WRITE, region.base + 8, 4)) is AccessOutcome.DIRECT

    def test_third_cell_still_faults_on_the_window(self):
        hv, a, b, ch = channel_pair()
        region = hv.channels[ch].region
        c = hv.create_cell(small_cell("gamma", cpu=3, base=RAM + 0xE_0000))
        hv.start_cell(c)
        assert hv.handle_access(c, Access(
            AccessKind.MEM_READ, region.base, 4)) is AccessOutcome.VIOLATION
        assert hv.cells[c].state is CellState.FAILED

    def test_both_endpoints_see_virtual_pci_devices(self):
        hv, a, b, ch = channel_pair(vectors=4)
        channel = hv.channels[ch]
        assert pci_cfg_read(hv, a, channel.bdf_a, 0x40) == 4
        assert pci_cfg_read(hv, b, channel.bdf_b, 0x40) == 4

    def test_bdfs_increment_per_cell(self):
        hv, a, b, _ = channel_pair()
        ch2 = create_channel(hv, a, b, PAGE, 1)
        channel = hv.channels[ch2]
        assert channel.bdf_a == 1 << 3
        assert channel.bdf_b == 1 << 3

    def test_creation_logs_one_management_event(self):
        hv, a, b, ch = channel_pair()
        events = [e for e in hv.events if e.kind is TrapKind.MANAGEMENT
                  and e.detail.startswith("channel")]
        assert [e.detail for e in events] == ["channel alpha-beta"]

    def test_self_channel_rejected(self):
        hv = tiny_hv()
        a = hv.create_cell(small_cell("alpha"))
        with pytest.raises(SelfChannel):
            create_channel(hv, a, a, PAGE, 1)

    def test_unknown_cell_rejected(self):
        hv = tiny_hv()
        a = hv.create_cell(small_cell("alpha"))
        with pytest.raises(NoSuchCell):
            create_channel(hv, a, 9, PAGE, 1)

    def test_bad_size_rejected(self):
        hv, a, b = _pair_without_channel()
        with pytest.raises(BadSize):
            create_channel(hv, a, b, PAGE // 2, 1)
        with pytest.raises(BadSize):
            create_channel(hv, a, b, 0, 1)

    def test_bad_vector_count_rejected(self):
        hv, a, b = _pair_without_channel()
        with pytest.raises(BadVector):
            create_channel(hv, a, b, PAGE, 0)

    def test_carve_exhaustion(self):
        hv, a, b = _pair_without_channel()
        with pytest.raises(OutOfRegion):
            create_channel(hv, a, b, 0x10_0000, 1)


class TestCarve:
    def test_root_window_is_carved_below_a_guest_at_the_top(self):
        # root still owns every page below the guest's
        hv = tiny_hv()
        g = hv.create_cell(small_cell("top", base=RAM_END - PAGE, size=PAGE))
        ch = create_channel(hv, ROOT_CELL, g, PAGE, 1)
        assert hv.channels[ch].region == MemRegion(RAM_END - 2 * PAGE, PAGE, RW)
        hv.audit()

    def test_guest_window_skips_regions_that_are_not_read_write(self):
        hv = tiny_hv()
        g = hv.create_cell(CellConfig(name="g", cpus=[1], mem=[
            MemRegion(RAM + 0x8_0000, 2 * PAGE),
            MemRegion(RAM + 0x9_0000, PAGE, PermFlags.READ)]))
        b = hv.create_cell(small_cell("b", cpu=2, base=RAM + 0xC_0000))
        ch = create_channel(hv, g, b, PAGE, 1)
        assert hv.channels[ch].region.base == RAM + 0x8_1000
        ch2 = create_channel(hv, g, b, PAGE, 1)
        assert hv.channels[ch2].region.base == RAM + 0x8_0000
        with pytest.raises(OutOfRegion):
            create_channel(hv, g, b, PAGE, 1)

    def test_closed_channels_free_their_window_and_bdfs(self):
        hv = tiny_hv()
        a = hv.create_cell(small_cell("alpha", cpu=1, base=RAM + 0x8_0000, size=0x4000))
        b = hv.create_cell(small_cell("beta", cpu=2, base=RAM + 0xC_0000))
        c = hv.create_cell(small_cell("gamma", cpu=3, base=RAM + 0xE_0000))
        ab = hv.channels[create_channel(hv, a, b, PAGE, 1)]
        ac = hv.channels[create_channel(hv, a, c, PAGE, 1)]
        assert (ac.region.base, ac.bdf_a, ac.bdf_b) == (ab.region.base - PAGE, 8, 0)
        hv.destroy_cell(b)  # closes a-b
        again = hv.channels[create_channel(hv, a, c, PAGE, 1)]
        assert (again.region, again.bdf_a, again.bdf_b) == (ab.region, 0, 8)
        hv.audit()

    def test_cell_cannot_claim_a_root_window(self):
        # a window stays in root's share, and its peer may write to it, so
        # no cell may claim it while the channel lives
        hv = tiny_hv()
        x = hv.create_cell(small_cell("x", cpu=1, base=RAM + 0x8_0000))
        hv.start_cell(x)
        ch = create_channel(hv, ROOT_CELL, x, PAGE, 1)
        window = hv.channels[ch].region
        with pytest.raises(ValidationFailed) as excinfo:
            hv.create_cell(small_cell("c", cpu=2, base=window.base - PAGE, size=2 * PAGE))
        (violation,) = excinfo.value.violations
        assert str(violation) == (
            "NotOwnedByRoot(mem [0x%x, 0x%x)): holds the window of channel %d"
            % (window.base - PAGE, window.end, ch))
        assert sorted(hv.cells) == [ROOT_CELL, x]
        assert hv.ledger.range_owner(window.base, window.end) == ROOT_CELL
        assert hv.handle_access(x, Access(
            AccessKind.MEM_WRITE, window.base, 4)) is AccessOutcome.DIRECT
        hv.audit()

    def test_audit_refuses_a_window_outside_its_creators_memory(self):
        hv, a, b, ch = channel_pair()
        hv.channels[ch].region = MemRegion(RAM + 0xC_0000, PAGE, RW)  # beta's
        with pytest.raises(InvariantViolation, match="is not cell %d's memory" % a):
            hv.audit()

    def test_audit_refuses_overlapping_windows(self):
        hv, a, b, ch = channel_pair()
        other = hv.channels[create_channel(hv, a, b, PAGE, 1)]
        other.region = hv.channels[ch].region
        with pytest.raises(InvariantViolation, match="overlaps another"):
            hv.audit()


def _pair_without_channel():
    hv = tiny_hv()
    a = hv.create_cell(small_cell("alpha", cpu=1, base=RAM + 0x8_0000, size=0x4000))
    b = hv.create_cell(small_cell("beta", cpu=2, base=RAM + 0xC_0000, size=0x4000))
    return hv, a, b


class TestSendPoll:
    def test_payload_lands_in_shared_buffer(self):
        hv, a, b, ch = channel_pair()
        send(hv, ch, a, 0x10, b"ping", 0)
        assert read_buffer(hv, ch, b, 0x10, 4) == b"ping"
        assert read_buffer(hv, ch, a, 0x10, 4) == b"ping"

    def test_vectors_poll_in_fifo_order(self):
        hv, a, b, ch = channel_pair(vectors=4)
        send(hv, ch, a, 0, b"x", 1)
        send(hv, ch, a, 0, b"y", 0)
        send(hv, ch, a, 0, b"z", 3)
        assert poll(hv, ch, b) == [1, 0, 3]
        assert poll(hv, ch, b) == []

    def test_directions_have_separate_queues(self):
        hv, a, b, ch = channel_pair(vectors=2)
        send(hv, ch, a, 0, b"x", 1)
        send(hv, ch, b, 0, b"y", 0)
        assert poll(hv, ch, a) == [0]
        assert poll(hv, ch, b) == [1]

    def test_running_peer_gets_a_doorbell_irq(self):
        hv, a, b, ch = channel_pair()
        before = len(hv.events)
        send(hv, ch, a, 0, b"x", 0)
        (event,) = hv.events[before:]
        assert event.kind is TrapKind.IRQ_REINJECTION
        assert event.cell == b
        assert event.detail == "doorbell ch=%d vector=0" % ch

    def test_doorbell_streams_are_made_on_the_first_ring(self):
        hv, a, b, ch = channel_pair()
        assert hv._doorbell_streams is None
        send(hv, ch, a, 0, b"x", 0)
        doorbells = hv._doorbell_streams
        send(hv, ch, a, 0, b"y", 1)
        assert isinstance(doorbells, DoorbellLatencies)
        assert hv._doorbell_streams is doorbells

    def test_stopped_peer_queues_without_doorbell(self):
        hv, a, b, ch = channel_pair()
        hv.stop_cell(b)
        before = len(hv.events)
        send(hv, ch, a, 0, b"x", 0)
        assert hv.events[before:] == []
        assert hv.channel_trace[-1]["latency_us"] is None
        assert poll(hv, ch, b) == [0]

    def test_send_rejects_bad_vector(self):
        hv, a, b, ch = channel_pair(vectors=2)
        with pytest.raises(BadVector):
            send(hv, ch, a, 0, b"x", 2)
        with pytest.raises(BadVector):
            send(hv, ch, a, 0, b"x", -1)

    def test_send_rejects_overflowing_payload(self):
        hv, a, b, ch = channel_pair(size=PAGE)
        with pytest.raises(OutOfRegion):
            send(hv, ch, a, PAGE - 2, b"xyz", 0)
        with pytest.raises(OutOfRegion):
            send(hv, ch, a, -1, b"x", 0)

    def test_third_party_cannot_send_or_poll(self):
        hv, a, b, ch = channel_pair()
        c = hv.create_cell(small_cell("gamma", cpu=3, base=RAM + 0xE_0000))
        with pytest.raises(NotEndpoint):
            send(hv, ch, c, 0, b"x", 0)
        with pytest.raises(NotEndpoint):
            poll(hv, ch, c)

    def test_unknown_channel(self):
        hv = tiny_hv()
        with pytest.raises(NoSuchResource):
            poll(hv, 99, 0)

    def test_exactly_once_under_random_interleaving(self):
        hv, a, b, ch = channel_pair(vectors=16)
        rnd = random.Random(1234)
        sent: list[int] = []
        received: list[int] = []
        for _ in range(2000):
            if rnd.random() < 0.6:
                vector = rnd.randrange(16)
                send(hv, ch, a, 0, b"", vector)
                sent.append(vector)
            else:
                received.extend(poll(hv, ch, b))
        received.extend(poll(hv, ch, b))
        assert received == sent

    def test_overlapping_writes_last_wins(self):
        hv, a, b, ch = channel_pair()
        send(hv, ch, a, 0, b"aaaa", 0)
        send(hv, ch, b, 2, b"bb", 0)
        assert read_buffer(hv, ch, a, 0, 4) == b"aabb"


class TestPciConfig:
    def test_identity_register(self):
        hv, a, b, ch = channel_pair()
        channel = hv.channels[ch]
        word = pci_cfg_read(hv, a, channel.bdf_a, 0)
        assert word & 0xFFFF == VENDOR_ID
        assert word >> 16 == 0x0001

    def test_class_and_vector_registers(self):
        hv, a, b, ch = channel_pair(vectors=8)
        channel = hv.channels[ch]
        assert pci_cfg_read(hv, a, channel.bdf_a, 8) == 0xFF000000
        assert pci_cfg_read(hv, a, channel.bdf_a, 0x40) == 8
        assert pci_cfg_read(hv, a, channel.bdf_a, 0x44) == 0

    def test_absent_device_reads_all_ones(self):
        hv, a, b, ch = channel_pair()
        assert pci_cfg_read(hv, a, 0x7F << 3, 0) == ABSENT

    def test_unaligned_offset_rejected(self):
        hv, a, b, ch = channel_pair()
        with pytest.raises(BadAlignment):
            pci_cfg_read(hv, a, hv.channels[ch].bdf_a, 2)

    def test_each_read_is_an_emulation_trap(self):
        hv, a, b, ch = channel_pair()
        before = len(hv.events)
        pci_cfg_read(hv, a, hv.channels[ch].bdf_a, 0)
        pci_cfg_read(hv, a, 0x7F << 3, 0)  # absent devices trap too
        tail = hv.events[before:]
        assert [e.kind for e in tail] == [TrapKind.INSTRUCTION_EMULATION] * 2
        assert {e.detail for e in tail} == {"pci-cfg"}

    def test_stopped_cell_cannot_read(self):
        hv, a, b, ch = channel_pair()
        hv.stop_cell(a)
        with pytest.raises(BadState):
            pci_cfg_read(hv, a, hv.channels[ch].bdf_a, 0)


class TestTeardown:
    def test_destroy_drops_channels_grants_and_devices(self):
        hv, a, b, ch = channel_pair()
        region = hv.channels[ch].region
        bdf_b = hv.channels[ch].bdf_b
        hv.stop_cell(a)
        hv.destroy_cell(a)
        assert hv.channels == {}
        assert pci_cfg_read(hv, b, bdf_b, 0) == ABSENT
        # the grant dies with the channel
        assert hv.handle_access(b, Access(
            AccessKind.MEM_READ, region.base, 4)) is AccessOutcome.VIOLATION
        hv.audit()

    def test_surviving_peer_keeps_unrelated_channels(self):
        hv = tiny_hv()
        a = hv.create_cell(small_cell("alpha", cpu=1, base=RAM + 0x8_0000, size=0x4000))
        b = hv.create_cell(small_cell("beta", cpu=2, base=RAM + 0xC_0000, size=0x4000))
        c = hv.create_cell(small_cell("gamma", cpu=3, base=RAM + 0xE_0000, size=0x4000))
        hv.start_cell(a)
        hv.start_cell(b)
        hv.start_cell(c)
        ab = create_channel(hv, a, b, PAGE, 1)
        bc = create_channel(hv, b, c, PAGE, 1)
        hv.stop_cell(a)
        hv.destroy_cell(a)
        assert ab not in hv.channels
        assert bc in hv.channels
        send(hv, bc, b, 0, b"still alive", 0)
        assert poll(hv, bc, c) == [0]


class TestTrace:
    def test_trace_records_each_send(self):
        hv, a, b, ch = channel_pair(vectors=2)
        noisy = hv.create_cell(small_cell("noisy", cpu=3, base=RAM + 0xE_0000,
                                          workload=Workload(WorkloadKind.STRESS)))
        hv.start_cell(noisy)  # the doorbells below draw the stressed model
        send(hv, ch, a, 0, b"four", 1)
        send(hv, ch, b, 0, b"!", 0)
        drawn = sample_latency(True, True, hv.platform.bus,
                               latency_streams(hv.seed, "hv-doorbell"), 2).tolist()
        assert hv.channel_trace == [
            {"t": hv.clock, "ch": ch, "dir": "a->b", "vector": 1, "len": 4,
             "latency_us": drawn[0]},
            {"t": hv.clock, "ch": ch, "dir": "b->a", "vector": 0, "len": 1,
             "latency_us": drawn[1]},
        ]


class TestDoorbellLatencies:
    """Doorbells draw their streams in blocks and use them one ring at a
    time: each ring equals the batch kernel's sample for it."""

    def test_rings_equal_batches_of_their_runs(self):
        # a stress neighbour stopped and started at random interleaves calm
        # and stressed rings, and 5,000 rings cross many block boundaries;
        # a run of calm or stressed rings draws like one batch
        hv, a, b, ch = channel_pair(vectors=2)
        noisy = hv.create_cell(small_cell("noisy", cpu=3, base=RAM + 0xE_0000,
                                          workload=Workload(WorkloadKind.STRESS)))
        rnd = random.Random(21)
        stressed = []
        for _ in range(5000):
            if rnd.random() < 0.3:
                (hv.stop_cell if hv.cells[noisy].state is CellState.RUNNING
                 else hv.start_cell)(noisy)
            stressed.append(hv.cells[noisy].state is CellState.RUNNING)
            send(hv, ch, rnd.choice((a, b)), 0, b"ring", rnd.randrange(2))
        streams = latency_streams(hv.seed, "hv-doorbell")
        expected = [value for flag, run in itertools.groupby(stressed)
                    for value in sample_latency(True, flag, hv.platform.bus, streams,
                                                len(list(run))).tolist()]
        assert [record["latency_us"] for record in hv.channel_trace] == expected
        assert 1000 < sum(stressed) < 4000

    def test_a_deep_copy_rings_like_the_original(self):
        # 20 rings reach into the second block; each copy draws its own
        hv, a, b, ch = channel_pair()
        for _ in range(20):
            send(hv, ch, a, 0, b"x", 0)
        twin = copy.deepcopy(hv)
        for each in (hv, twin):
            for _ in range(40):
                send(each, ch, b, 0, b"y", 0)
        assert twin.channel_trace == hv.channel_trace

    TRAP_MIX_SHA256 = {
        1: "bae032d2f48f2a86591fae83dfe3e14c657994b217587ec0dc841fb0fc41ef62",
        31: "7d2fd002fcf12f30a6d3cff8d5de5857f726e00d46f3ec420ea7c2b581036e3b"}

    @pytest.mark.parametrize("seed", sorted(TRAP_MIX_SHA256))
    def test_trap_mix_doorbells_are_pinned(self, seed, tmp_path, monkeypatch):
        # the benchmark's trap-mix episode rings 900 doorbells; the sha256 of
        # their latencies as JSON was taken when each ring drew one sample
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from perfbench import workloads
        made = []
        build = workloads.TrapMix.build_state

        def build_state(*args):
            hv, channel = build(*args)
            made.append(hv)
            return hv, channel

        monkeypatch.setattr(workloads.TrapMix, "build_state", staticmethod(build_state))
        episode = workloads.TrapMix(seed, str(tmp_path)).episode()
        assert episode.failed == 0
        latencies = [record["latency_us"] for record in made[0].channel_trace]
        assert len(latencies) == 900
        assert (hashlib.sha256(json.dumps(latencies).encode()).hexdigest()
                == self.TRAP_MIX_SHA256[seed])


# --- window and bdf allocation against a page scan ---------------------------

class ChannelAllocMachine(RuleBasedStateMachine):
    """Creates, destroys and channels on the tiny platform, next to a model
    of which cell owns each page. Every window must be the highest free span
    a page-by-page scan finds, and every bdf the lowest free one."""

    def __init__(self):
        super().__init__()
        self.hv = tiny_hv()
        self.configs = {}  # guest id -> config
        self.windows = {}  # channel id -> (lo, hi, a, b, bdf_a, bdf_b)
        self.counter = 0

    def spans(self):
        """Page -> (owner, span) for the read-write RAM a cell owns: each guest
        region is one span, and root's pages outside every guest region are
        another; a guest page that is not read-write maps to None."""
        owners = {page: (ROOT_CELL, None) for page in range(RAM, RAM_END, PAGE)}
        for cell_id, cfg in self.configs.items():
            for region in cfg.mem:
                for page in range(region.base, region.end, PAGE):
                    owners[page] = (cell_id, region.base) if region.flags == RW else None
        return owners

    def scan(self, a, size):
        """The highest base of a free span of size bytes in a's read-write RAM."""
        owners = self.spans()
        taken = {page for lo, hi, *_ in self.windows.values() for page in range(lo, hi, PAGE)}
        for lo in range(RAM_END - size, RAM - 1, -PAGE):
            pages = range(lo, lo + size, PAGE)
            found = {owners[page] for page in pages}
            if (len(found) == 1 and None not in found and found.pop()[0] == a
                    and taken.isdisjoint(pages)):
                return lo
        return None

    def lowest_free_bdf(self, cell_id):
        used = {bdf for _, _, a, b, bdf_a, bdf_b in self.windows.values()
                for end, bdf in ((a, bdf_a), (b, bdf_b)) if end == cell_id}
        return next(bdf for bdf in range(0, 0x10000, 8) if bdf not in used)

    @rule(data=st.data())
    def create(self, data):
        # guests live in the top 32 pages, where root's windows start
        start = data.draw(st.integers(0, 31))
        pages = data.draw(st.integers(1, min(4, 32 - start)))
        region = MemRegion(RAM_END - (32 - start) * PAGE, pages * PAGE,
                           data.draw(st.sampled_from([RW, RW, PermFlags.READ])))
        self.counter += 1
        cfg = CellConfig(name="g%d" % self.counter, cpus=[data.draw(st.integers(0, 3))],
                         mem=[region])
        held = {page for other in self.configs.values() for r in other.mem
                for page in range(r.base, r.end, PAGE)}
        root_windows = {page for lo, hi, a, *_ in self.windows.values() if a == ROOT_CELL
                        for page in range(lo, hi, PAGE)}
        own = set(range(region.base, region.end, PAGE))
        fits = (all(cfg.cpus.isdisjoint(other.cpus) for other in self.configs.values())
                and own.isdisjoint(held) and own.isdisjoint(root_windows))
        if not fits:
            with pytest.raises(ValidationFailed):
                self.hv.create_cell(cfg)
            return
        self.configs[self.hv.create_cell(cfg)] = cfg

    @precondition(lambda self: self.configs)
    @rule(data=st.data())
    def destroy(self, data):
        cell_id = data.draw(st.sampled_from(sorted(self.configs)))
        self.hv.destroy_cell(cell_id)
        del self.configs[cell_id]
        self.windows = {ch: w for ch, w in self.windows.items() if cell_id not in w[2:4]}

    @precondition(lambda self: self.configs)
    @rule(data=st.data())
    def channel(self, data):
        cells = [ROOT_CELL] + sorted(self.configs)
        a = data.draw(st.sampled_from(cells))
        b = data.draw(st.sampled_from([cell_id for cell_id in cells if cell_id != a]))
        size = data.draw(st.integers(1, 8)) * PAGE
        lo = self.scan(a, size)
        if lo is None:
            with pytest.raises(OutOfRegion):
                create_channel(self.hv, a, b, size, 1)
            return
        bdfs = self.lowest_free_bdf(a), self.lowest_free_bdf(b)
        ch = self.hv.channels[create_channel(self.hv, a, b, size, 1)]
        assert (ch.region, (ch.bdf_a, ch.bdf_b)) == (MemRegion(lo, size, RW), bdfs)
        self.windows[ch.id] = (lo, lo + size, a, b) + bdfs

    @invariant()
    def windows_are_disjoint_and_audited(self):
        assert {ch.id: (ch.region.base, ch.region.end, ch.cell_a, ch.cell_b, ch.bdf_a, ch.bdf_b)
                for ch in self.hv.channels.values()} == self.windows
        spans = sorted(w[:2] for w in self.windows.values())
        assert all(hi <= next_lo for (_, hi), (next_lo, _) in zip(spans, spans[1:]))
        self.hv.audit()


ChannelAllocMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestChannelAllocMatchesThePageScan = ChannelAllocMachine.TestCase
