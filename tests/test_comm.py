import json
import random

import pytest

from cellsim import (
    Access,
    AccessKind,
    AccessOutcome,
    CellState,
    TrapKind,
    Workload,
    WorkloadKind,
    create_channel,
    pci_cfg_read,
    poll,
    read_buffer,
    send,
)
from cellsim.comm import ABSENT, VENDOR_ID, export_trace
from cellsim.errors import (
    BadAlignment,
    BadSize,
    BadState,
    BadVector,
    NoSuchCell,
    NoSuchResource,
    NotEndpoint,
    OutOfRegion,
    SelfChannel,
)
from cellsim.irq import latency_streams, sample_latency

from test_hvcore import RAM, small_cell, tiny_hv

PAGE = 0x1000


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
        assert hv.owner_of(channel.region) == a
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
        streams = hv._doorbell_streams
        send(hv, ch, a, 0, b"y", 1)
        assert hv._doorbell_streams is streams and len(streams) == 4

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
        twin = latency_streams(hv.seed, "hv-doorbell")
        drawn = [sample_latency(True, True, hv.platform.bus, twin) for _ in range(2)]
        lines = export_trace(hv).splitlines()
        records = [json.loads(line) for line in lines]
        assert records == [
            {"t": hv.clock, "ch": ch, "dir": "a->b", "vector": 1, "len": 4,
             "latency_us": drawn[0]},
            {"t": hv.clock, "ch": ch, "dir": "b->a", "vector": 0, "len": 1,
             "latency_us": drawn[1]},
        ]

    def test_empty_trace_is_empty_string(self):
        hv = tiny_hv()
        assert export_trace(hv) == ""
