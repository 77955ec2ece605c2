import copy
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from cellsim import (
    ROOT_CELL,
    Access,
    AccessKind,
    AccessOutcome,
    CellConfig,
    CellState,
    Hypervisor,
    MemRegion,
    PermFlags,
    TrapKind,
    Workload,
    WorkloadKind,
    create_channel,
    load_session,
    pci_cfg_read,
    poll,
    read_buffer,
    save_session,
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

from conftest import make_tiny_platform
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

    @pytest.mark.parametrize("size, vectors, text", [
        (PAGE, 2.0, "4096 and 2.0"), (float(PAGE), 2, "4096.0 and 2")], ids=["vectors", "size"])
    def test_a_float_size_or_vector_count_is_refused(self, size, vectors, text):
        # 2.0 vectors were kept, and pci_cfg_read then answered 2.0
        hv, a, b = _pair_without_channel()
        before = list(hv.events)
        with pytest.raises(InvariantViolation, match="^channel size and vector count must be"
                                                     " ints, not %s$" % text):
            create_channel(hv, a, b, size, vectors)
        assert hv.channels == {} and hv.events == before

    def test_carve_exhaustion(self):
        hv, a, b = _pair_without_channel()
        with pytest.raises(OutOfRegion):
            create_channel(hv, a, b, 0x10_0000, 1)


class TestFloatCellIds:
    # 0.0 and 1.0 found cells 0 and 1 and were logged as 0.0 and 1.0, and
    # save_session then raised a raw struct.error
    def test_a_float_endpoint_is_refused(self):
        hv = tiny_hv()
        a = hv.create_cell(small_cell("a"))
        with pytest.raises(InvariantViolation) as refused:
            create_channel(hv, 0.0, a, 0x1000, 2)
        assert str(refused.value) == "cell id must be an int, not 0.0"
        assert hv.channels == {} and hv._next_channel_id == 0
        assert load_session(save_session(hv.platform, hv))[1].events == hv.events

    def test_a_float_reader_of_config_space_is_refused(self):
        hv, a, b, ch = channel_pair()
        before = list(hv.events)
        with pytest.raises(InvariantViolation) as refused:
            pci_cfg_read(hv, 1.0, 0, 0)
        assert str(refused.value) == "cell id must be an int, not 1.0"
        assert hv.events == before
        assert load_session(save_session(hv.platform, hv))[1].events == hv.events


class TestFloatChannelIds:
    # hv.channels.get(0.0) finds channel 0: send succeeded and traced the
    # channel as 0.0, poll drained its queue and read_buffer read its window
    CALLS = {
        "send": lambda hv, ch, a, b: send(hv, ch, a, 0, b"new", 1),
        "poll": lambda hv, ch, a, b: poll(hv, ch, b),
        "read_buffer": lambda hv, ch, a, b: read_buffer(hv, ch, b, 0, 3),
    }

    @pytest.mark.parametrize("call", list(CALLS.values()), ids=list(CALLS))
    @pytest.mark.parametrize("ch_id", [0.0, 0.5, "0", None])
    def test_a_channel_id_that_is_no_int_is_refused_before_anything_changes(self, call,
                                                                           ch_id):
        hv, a, b, ch = channel_pair()
        send(hv, ch, a, 0, b"old", 0)
        before = (list(hv.events), copy.deepcopy(hv.exits), list(hv.channel_trace),
                  bytes(hv.channels[ch].buffer), copy.deepcopy(hv.channels[ch].pending))
        with pytest.raises(InvariantViolation) as refused:
            call(hv, ch_id, a, b)
        assert type(refused.value) is InvariantViolation
        assert str(refused.value) == "channel id must be an int, not %r" % (ch_id,)
        assert (hv.events, hv.exits, hv.channel_trace, bytes(hv.channels[ch].buffer),
                hv.channels[ch].pending) == before

    @pytest.mark.parametrize("call", list(CALLS.values()), ids=list(CALLS))
    def test_the_type_test_comes_first(self, call):
        # as _cell's: before the channel lookup, so before NotEnabled and NoSuchResource
        with pytest.raises(InvariantViolation, match="^channel id must be an int, not 7.0$"):
            call(Hypervisor(make_tiny_platform()), 7.0, 1, 2)
        with pytest.raises(InvariantViolation, match="^channel id must be an int, not 7.0$"):
            call(channel_pair()[0], 7.0, 1, 2)

    def test_a_bool_passes(self):
        hv, a, b, ch = channel_pair()
        assert ch == 0
        send(hv, False, a, 0, b"abc", 1)
        assert read_buffer(hv, False, b, 0, 3) == b"abc"
        assert poll(hv, False, b) == [1]


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

    @pytest.mark.parametrize("offset, vector, text", [
        (0, 1.0, "0 and 1.0"), (0.0, 1, "0.0 and 1")], ids=["vector", "offset"])
    def test_a_float_offset_or_vector_is_refused_before_anything_is_sent(self, offset, vector,
                                                                          text):
        # a vector of 1.0 was queued, and poll then returned [1.0]; an offset of 0.0
        # raised a raw TypeError slicing the buffer
        hv, a, b, ch = channel_pair()
        before = (list(hv.events), list(hv.channel_trace))
        with pytest.raises(InvariantViolation, match="^offset and vector must be ints, not %s$"
                           % text):
            send(hv, ch, a, offset, b"x", vector)
        assert (list(hv.events), hv.channel_trace, poll(hv, ch, b)) == (*before, [])
        assert read_buffer(hv, ch, b, 0, 1) == b"\0"

    def test_a_bool_vector_and_offset_pass(self):
        hv, a, b, ch = channel_pair()
        send(hv, ch, a, True, b"x", True)
        assert poll(hv, ch, b) == [1] and read_buffer(hv, ch, b, 0, 2) == b"\0x"

    def test_read_buffer_refuses_a_read_past_the_window(self):
        hv, a, b, ch = channel_pair(size=PAGE)
        for offset, length in (PAGE - 1, 2), (-1, 1):
            with pytest.raises(OutOfRegion) as refused:
                read_buffer(hv, ch, b, offset, length)
            assert type(refused.value) is OutOfRegion
            assert str(refused.value) == "read past the channel window"

    def test_read_buffer_refuses_a_float_offset(self):
        # it raised a raw TypeError slicing the buffer
        hv, a, b, ch = channel_pair()
        with pytest.raises(InvariantViolation, match=r"^offset and length must be ints, not 0\.0"
                                                     " and 1$"):
            read_buffer(hv, ch, b, 0.0, 1)

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
        # the copy keeps the 20 vectors b has not polled yet
        assert twin.channels[ch].pending == hv.channels[ch].pending
        assert list(twin.channels[ch].pending[b]) == [0] * 20
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
