"""The benchmark's workloads.

Each workload is a closed loop with one client in this process.  Its
inputs come from the workload seed alone and are generated before any
timing starts.  One *episode* is a fixed amount of work that starts from
fresh program state; the run repeats episodes until its time is up, and
every episode of a run must produce the same simulated digest.

``episode(capture_traps, pace)`` runs one episode.  ``pace``, when
given, is called before every timed operation, outside its timing; the
harness runs its host speed kernel there.  ``capture_traps`` asks for
trap counts that need a trace-only hook; only latency-table needs one.

All calls go through ``cellsim`` module attributes and class methods,
never through names copied out of a module, so the traced run's
wrappers see every call.

Host time is what the simulator takes on this machine; simulated time
is what the modelled board would take.  Digest values and ``model.*``
figures are simulated, in microseconds or nanoseconds of board time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from cellsim import bench, cellconfig, comm, errors, hvcore, irq, machine, snapshot

TRAP_KINDS = tuple(kind.value for kind in hvcore.TrapKind)
MANAGEMENT = hvcore.TrapKind.MANAGEMENT.value


@dataclass
class Episode:
    """What one episode did: per-operation host times plus its checks."""

    op_s: list = field(default_factory=list)      # host seconds per operation
    op_start: list = field(default_factory=list)  # perf_counter() at each start
    op_scale: list = field(default_factory=list)  # host-speed factors, set by the harness
    items: int = 0                                # work items done
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    digest: dict = field(default_factory=dict)

    def timed(self, start: float) -> None:
        """Record an operation that began at perf_counter() == start."""
        elapsed = perf_counter() - start
        self.op_start.append(start)
        self.op_s.append(elapsed)

    def check(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what if isinstance(what, str) else what())


def trap_counts(events) -> dict:
    counts = Counter(event.kind.value for event in events)
    return {kind: counts.get(kind, 0) for kind in TRAP_KINDS}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- latency-table ----------------------------------------------------------

class LatencyTable:
    """The six canonical rows through bench.run_report, one row per op.

    Work item: one simulated interrupt delivery.  Operation: one row of
    ROW_SAMPLES samples.  The checks are criteria 1-3 of the acceptance
    gate at this sample count; the stressed-max bound is stated for
    10^5 samples, so it is applied only at that scale.
    """

    name = "latency-table"
    ROW_SAMPLES = 5000
    MAX_BOUND_SAMPLES = 10 ** 5

    def __init__(self, seed: int, workdir: str):
        self.platform = self.build_state(seed, workdir)
        self.scenarios = bench.canonical_scenarios(n_samples=self.ROW_SAMPLES, seed=seed)

    @staticmethod
    def build_state(seed: int, workdir: str):
        return machine.jetson_tk1()

    def episode(self, capture_traps: bool = False, pace=None) -> Episode:
        ep = Episode()
        hypervisors = []
        restore = None
        if capture_traps:
            # Trace-only hook: keep each enabled hypervisor so its event
            # log can be counted after the rows are done.
            original = hvcore.Hypervisor.enable

            def enable(hv, root_cfg):
                hypervisors.append(hv)
                return original(hv, root_cfg)
            hvcore.Hypervisor.enable = enable
            restore = original
        rows = []
        try:
            for sc in self.scenarios:
                if pace:
                    pace()
                start = perf_counter()
                report = bench.run_report(self.platform, [sc])
                ep.timed(start)
                ep.items += sc.n_samples
                rows.append(report.rows[0])
        finally:
            if restore is not None:
                hvcore.Hypervisor.enable = restore
        self._check_rows(ep, rows)
        ep.digest = {"rows": [[sc.vmm_on, sc.freq_hz, sc.stress, st.mean_us,
                               st.sigma_us, st.max_us, st.n] for sc, st in rows]}
        if capture_traps:
            ep.digest["traps"] = trap_counts(
                event for hv in hypervisors for event in hv.events)
        return ep

    def _check_rows(self, ep: Episode, rows) -> None:
        by_key = {(sc.vmm_on, sc.freq_hz, sc.stress): st for sc, st in rows}
        for sc, st in rows:
            label = "row vmm=%d freq=%g stress=%d" % (sc.vmm_on, sc.freq_hz, sc.stress)
            problems = []
            if st.n != sc.n_samples:
                problems.append("n=%d" % st.n)
            if not sc.vmm_on and abs(st.mean_us - 0.45) > 0.01:
                problems.append("off mean %.5f not 0.45+/-0.01" % st.mean_us)
            if sc.vmm_on and not sc.stress:
                if not 1.20 <= st.mean_us <= 1.33:
                    problems.append("on mean %.5f not in [1.20, 1.33]" % st.mean_us)
                if not 0.05 <= st.sigma_us <= 0.10:
                    problems.append("on sigma %.5f not in [0.05, 0.10]" % st.sigma_us)
            if sc.stress:
                if not 0.29 <= st.sigma_us <= 0.40:
                    problems.append("stressed sigma %.5f not in [0.29, 0.40]" % st.sigma_us)
                if sc.n_samples >= self.MAX_BOUND_SAMPLES and not 4.5 <= st.max_us <= 6.5:
                    problems.append("stressed max %.4f not in [4.5, 6.5]" % st.max_us)
            # criterion 2: the hypervisor adds 0.75-0.87 us at each rate
            if sc.vmm_on and not sc.stress:
                delta = st.mean_us - by_key[(False, sc.freq_hz, False)].mean_us
                if not 0.75 <= delta <= 0.87:
                    problems.append("overhead %.5f not in [0.75, 0.87]" % delta)
            # criterion 3: 10 Hz and 50 Hz means differ by at most 2%
            other_freq = 50.0 if sc.freq_hz == 10.0 else 10.0
            other = by_key[(sc.vmm_on, other_freq, sc.stress)]
            rel = abs(st.mean_us - other.mean_us) / ((st.mean_us + other.mean_us) / 2)
            if rel > 0.02:
                problems.append("10/50 Hz means differ by %.3f%%" % (rel * 100))
            ep.check(not problems, lambda: "%s: %s" % (label, "; ".join(problems)))

    def model_split(self, rows_digest) -> dict:
        """Simulated-time split of the row means.

        floor: bare-metal latency; reinjection: what the hypervisor adds;
        contention: what a stressed neighbour adds; quantization: what
        the 62.5 ns measurement layer (jitter plus lattice) adds.  The
        raw figures come from the same rows on a bus without that layer.
        """
        plat = self.platform
        raw = machine.build_platform(machine.PlatformSpec(
            name=plat.name, resources=list(plat.resources),
            gic_version=plat.gic_version, bus=plat.bus.without_measurement()))
        raw_rows = bench.run_report(raw, self.scenarios).rows

        def mean_of(rows, vmm_on, stress):
            means = [st.mean_us for sc, st in rows
                     if sc.vmm_on == vmm_on and sc.stress == stress]
            return sum(means) / len(means)

        floor = mean_of(raw_rows, False, False)
        calm = mean_of(raw_rows, True, False)
        stressed = mean_of(raw_rows, True, True)
        measured = [row[3] for row in rows_digest]
        unmeasured = [st.mean_us for _, st in raw_rows]
        return {
            "model.floor_us": floor,
            "model.reinjection_us": calm - floor,
            "model.contention_us": stressed - calm,
            "model.quantization_us": (sum(measured) - sum(unmeasured)) / len(measured),
        }


# --- trap-mix ---------------------------------------------------------------

# A jetson-tk1 board plus three I/O port ranges, in the platform file format.
TRAP_PLATFORM = """\
platform "jetson-tk1-io"
gic v2
cpu 0-3
mem 0x80000000 0x80000000 rwxd
mmio gic-dist 0x50041000 0x1000
mmio gpio 0x6000d000 0x1000
mmio uart-a 0x70006000 0x1000
ioport 0x60 0x10
ioport 0x2f8 0x8
ioport 0x3f8 0x8
irq 32-160
"""

SLICE = 0x100000
RESPONDER_BASE, STRESS_BASE, SCRIPT_BASE = 0xFFF00000, 0xFFE00000, 0xFFD00000
ROOT_RAM = (0x80000000, SCRIPT_BASE)
GIC_DIST = 0x50041000
GPIO, UART = 0x6000D000, 0x70006000
CHANNEL_SIZE, CHANNEL_VECTORS = 0x2000, 4
WINDOW = RESPONDER_BASE + SLICE - CHANNEL_SIZE  # carved from the responder's top

# The script guest's program: (directive, accesses issued, trap logged).
SCRIPT_OPS = (
    ("read 0x%x 8" % (SCRIPT_BASE + 0x10), 1, None),
    ("write 0x%x 4" % (SCRIPT_BASE + 0x100), 1, None),
    ("distwrite 0x104", 1, "DistributorEmulation"),
    ("instr cpuid", 1, "InstructionEmulation"),
    ("iowrite 0x2f8 1", 1, None),
    ("ioread 0x2fc 2", 1, None),
    ("read 0x%x 4" % UART, 1, None),
    ("idle", 0, None),
)

# One burst: the item kinds and how many of each, shuffled per burst.
# 6 of 120 items (5%) are cross-cell violations, each followed by a
# relaunch; half of them are the script guest's, whose relaunch re-reads
# its script.  Every burst has the same mix whatever the seed.
BURST = (("step", 24), ("root_ram", 24), ("guest_mem", 24), ("root_mmio", 3),
         ("root_io", 3), ("guest_io", 3), ("send", 9), ("poll", 9), ("grant", 3),
         ("dist", 6), ("cpuid", 3), ("wfi", 3), ("violate", 3), ("violate_script", 3))
BURST_ITEMS = sum(count for _, count in BURST)
ROOT, RESPONDER, STRESS, SCRIPT = 0, 1, 2, 3
GUEST_BASE = {RESPONDER: RESPONDER_BASE, STRESS: STRESS_BASE, SCRIPT: SCRIPT_BASE}


class TrapMix:
    """A seeded access stream against a fixed four-cell partition.

    Root cell plus responder (reads), stress (writes) and script guests;
    one channel joins responder and script.  Work item: one stream item
    (a guest step turn, an access, a doorbell, a poll, or a violation
    with its relaunch).  Operation: one burst of BURST_ITEMS items.
    Every item's outcome is predicted when the stream is generated.
    """

    name = "trap-mix"
    BURSTS = 100

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.platform = machine.build_platform(machine.parse_platform(TRAP_PLATFORM))
        self.stream, self.expected_traps = self._generate(random.Random(seed))

    @staticmethod
    def script_path(workdir: str) -> str:
        path = os.path.join(workdir, "script-guest.txt")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(op for op, _, _ in SCRIPT_OPS) + "\nrepeat\n")
        return path

    @classmethod
    def build_state(cls, seed: int, workdir: str, platform=None):
        """Enable the hypervisor and set up the fixed partition."""
        if platform is None:
            platform = machine.build_platform(machine.parse_platform(TRAP_PLATFORM))
        rw = machine.PermFlags.READ | machine.PermFlags.WRITE
        kinds = cellconfig.WorkloadKind

        def guest(name, cpu, base, kind, devices=(), irqs=(), path=None):
            return cellconfig.CellConfig(
                name=name, cpus=frozenset({cpu}),
                mem=(machine.MemRegion(base, SLICE, rw),), devices=devices,
                irqs=frozenset(irqs), workload=cellconfig.Workload(kind, path))

        hv = hvcore.Hypervisor(platform, seed=seed)
        hv.enable(bench.full_platform_config(platform))
        configs = (
            guest("responder", 3, RESPONDER_BASE, kinds.LATENCY_RESPONDER, irqs={33}),
            guest("stress", 2, STRESS_BASE, kinds.STRESS),
            guest("script", 1, SCRIPT_BASE, kinds.SCRIPT,
                  devices=(machine.MmioDevice("uart-a", UART, 0x1000),
                           machine.IoPortRange(0x2F8, 8)),
                  path=cls.script_path(workdir)))
        for cfg in configs:
            hv.start_cell(hv.create_cell(cfg))
        channel = comm.create_channel(hv, RESPONDER, SCRIPT, CHANNEL_SIZE, CHANNEL_VECTORS)
        return hv, channel

    def _generate(self, rnd: random.Random):
        """Build the stream and predict every outcome and trap."""
        A, K, O = hvcore.Access, hvcore.AccessKind, hvcore.AccessOutcome
        direct, emulated = O.DIRECT, O.EMULATED
        traps = Counter()
        script_pos = 0
        pending = {RESPONDER: [], SCRIPT: []}

        def mem(kind_read, addr, width):
            return A(K.MEM_READ if kind_read else K.MEM_WRITE, addr, width)

        def aligned(lo, hi, width):
            return lo + rnd.randrange((hi - lo) // width) * width

        violations = (
            lambda: (STRESS, mem(True, aligned(RESPONDER_BASE, WINDOW, 8), 8)),
            lambda: (RESPONDER, mem(False, aligned(STRESS_BASE, STRESS_BASE + SLICE, 4), 4)),
            lambda: (STRESS, A(K.IO_READ, 0x3F8 + rnd.randrange(8), 1)),
            lambda: (STRESS, mem(True, aligned(WINDOW, WINDOW + CHANNEL_SIZE, 8), 8)),
            lambda: (RESPONDER, A(K.IO_WRITE, 0x60 + rnd.randrange(16), 1)),
        )
        script_violations = (
            lambda: (SCRIPT, mem(True, aligned(*ROOT_RAM, 8), 8)),
            lambda: (SCRIPT, mem(False, aligned(STRESS_BASE, STRESS_BASE + SLICE, 8), 8)),
        )
        stream = []
        for _ in range(self.BURSTS):
            kinds = [kind for kind, count in BURST for _ in range(count)]
            rnd.shuffle(kinds)
            for kind in kinds:
                if kind == "step":
                    _, issued, trap = SCRIPT_OPS[script_pos]
                    script_pos = (script_pos + 1) % len(SCRIPT_OPS)
                    if trap:
                        traps[trap] += 1
                    stream.append(("step", 2 + issued))
                elif kind == "root_ram":
                    stream.append(("access", ROOT, mem(rnd.random() < 0.5,
                                                      aligned(*ROOT_RAM, 8), 8), direct))
                elif kind == "guest_mem":
                    cell = rnd.choice((RESPONDER, STRESS, SCRIPT))
                    width = rnd.choice((1, 2, 4, 8))
                    base = GUEST_BASE[cell]
                    stream.append(("access", cell, mem(rnd.random() < 0.5,
                                                       aligned(base, base + SLICE, width),
                                                       width), direct))
                elif kind == "root_mmio":
                    stream.append(("access", ROOT, A(K.MEM_READ, aligned(GPIO, GPIO + 0x1000, 4),
                                                     4), direct))
                elif kind == "root_io":
                    port = rnd.choice((0x3F8, 0x60)) + rnd.randrange(8)
                    stream.append(("access", ROOT, A(K.IO_WRITE, port, 1), direct))
                elif kind == "guest_io":
                    width = rnd.choice((1, 2, 4))
                    port = 0x2F8 + rnd.randrange(8 // width) * width
                    stream.append(("access", SCRIPT, A(rnd.choice((K.IO_READ, K.IO_WRITE)),
                                                       port, width), direct))
                elif kind == "send":
                    sender = rnd.choice((RESPONDER, SCRIPT))
                    peer = SCRIPT if sender == RESPONDER else RESPONDER
                    payload = rnd.randbytes(rnd.randrange(16, 65))
                    offset = rnd.randrange(CHANNEL_SIZE - len(payload))
                    vector = rnd.randrange(CHANNEL_VECTORS)
                    pending[peer].append(vector)
                    traps["IrqReinjection"] += 1
                    stream.append(("send", sender, peer, offset, payload, vector))
                elif kind == "poll":
                    cell = rnd.choice((RESPONDER, SCRIPT))
                    stream.append(("poll", cell, pending[cell]))
                    pending[cell] = []
                elif kind == "grant":
                    stream.append(("access", SCRIPT, mem(
                        True, aligned(WINDOW, WINDOW + CHANNEL_SIZE, 8), 8), direct))
                elif kind == "dist":
                    traps["DistributorEmulation"] += 1
                    stream.append(("dist", rnd.randrange(4), rnd.randrange(0x400) * 4))
                elif kind == "cpuid":
                    traps["InstructionEmulation"] += 1
                    stream.append(("access", rnd.randrange(4),
                                   A(K.SENSITIVE_INSTR, instr="cpuid"), emulated))
                elif kind == "wfi":
                    stream.append(("access", rnd.randrange(4),
                                   A(K.SENSITIVE_INSTR, instr="wfi"), direct))
                else:
                    group = violations if kind == "violate" else script_violations
                    cell, access = rnd.choice(group)()
                    traps["AccessViolation"] += 1
                    traps[MANAGEMENT] += 1
                    if cell == SCRIPT:
                        script_pos = 0
                    stream.append(("violate", cell, access))
        return stream, {kind: traps.get(kind, 0) for kind in TRAP_KINDS}

    def episode(self, capture_traps: bool = False, pace=None) -> Episode:
        ep = Episode()
        hv, channel = self.build_state(self.seed, self.workdir, self.platform)
        first_event = len(hv.events)
        violation, running = hvcore.AccessOutcome.VIOLATION, hvcore.CellState.RUNNING
        stream = self.stream
        for burst in range(0, len(stream), BURST_ITEMS):
            outcomes = []
            if pace:
                pace()
            start = perf_counter()
            for item in stream[burst:burst + BURST_ITEMS]:
                kind = item[0]
                try:
                    if kind == "access":
                        outcomes.append(hv.handle_access(item[1], item[2]) is item[3])
                    elif kind == "step":
                        outcomes.append(hv.step(1) == item[1])
                    elif kind == "send":
                        _, sender, peer, offset, payload, vector = item
                        comm.send(hv, channel, sender, offset, payload, vector)
                        outcomes.append(comm.read_buffer(hv, channel, peer, offset,
                                                         len(payload)) == payload)
                    elif kind == "poll":
                        outcomes.append(comm.poll(hv, channel, item[1]) == item[2])
                    elif kind == "dist":
                        outcomes.append(irq.distributor_access(hv, item[1], item[2])
                                        is hvcore.AccessOutcome.EMULATED)
                    else:
                        ok = hv.handle_access(item[1], item[2]) is violation
                        hv.relaunch_cell(item[1])
                        outcomes.append(ok and hv.cells[item[1]].state is running)
                except errors.CellSimError as exc:
                    outcomes.append(exc)
            ep.timed(start)
            ep.items += len(outcomes)
            for index, ok in enumerate(outcomes):
                ep.check(ok is True, lambda: "item %d %s: %r" % (
                    burst + index, stream[burst + index][0], ok))
        try:
            hv.audit()
            audit = None
        except errors.CellSimError as exc:
            audit = exc
        ep.check(audit is None, lambda: "audit: %s" % audit)
        traps = trap_counts(hv.events[first_event:])
        ep.check(traps == self.expected_traps,
                 lambda: "traps %s, predicted %s" % (traps, self.expected_traps))
        ep.digest = {"traps": traps, "events": len(hv.events), "clock_ns": hv.clock,
                     "event_log_sha256": _sha(hv.export_events())}
        return ep


# --- cli-session ------------------------------------------------------------

REFUSALS = ("start-missing", "create-conflict", "destroy-root", "disable-busy",
            "create-malformed", "load-running")


class CliSession:
    """One user's CLI session against one state file, in process.

    enable, then create/load/start/list/stop/destroy of generated
    configs (half text, half binary), with one command in every seven
    that must be refused with exit code 1.  Work item and operation:
    one cellsim.cli.main call.
    """

    name = "cli-session"
    CYCLES = 18  # 3 of each refusal kind

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.state = os.path.join(workdir, "session.state")
        self.commands = self._generate(random.Random(seed))
        self.expected_traps = {kind: 0 for kind in TRAP_KINDS}
        self.expected_traps[MANAGEMENT] = 3 + 5 * self.CYCLES + 2

    def _write(self, name: str, data) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "wb") as handle:
            handle.write(data.encode("utf-8") if isinstance(data, str) else data)
        return path

    def _generate(self, rnd: random.Random):
        """Write configs and images; return (argv, exit code, output check)."""
        platform = machine.jetson_tk1()
        root = self._write("root.cfg", _config_text(bench.full_platform_config(platform)))
        anchor = cellconfig.CellConfig(
            name="anchor", cpus=frozenset({1}),
            mem=(machine.MemRegion(0x90000000, 0x200000),),
            devices=(machine.MmioDevice("gpio", GPIO, 0x1000),), irqs=frozenset({40}))
        anchor_path = self._write("anchor.cfg", _config_text(anchor))
        conflict = self._write("conflict.cfg", 'cell "conflict"\ncpu 1\n'
                               "mem 0x90000000 0x1000 rw\n")
        malformed = self._write("malformed.cfg", 'cell "broken"\ncpu 2\nmemory 0x0 0x1000\n')
        image0 = self._write("image-anchor.bin", rnd.randbytes(512))
        refusals = {
            "start-missing": ["cell", "start", "ghost"],
            "create-conflict": ["cell", "create", conflict],
            "destroy-root": ["cell", "destroy", "0"],
            "disable-busy": ["disable"],
            "create-malformed": ["cell", "create", malformed],
            "load-running": ["cell", "load", "anchor", image0],
        }
        kinds = list(REFUSALS) * (self.CYCLES // len(REFUSALS))
        rnd.shuffle(kinds)
        binary = [True, False] * (self.CYCLES // 2)
        rnd.shuffle(binary)

        commands = [(["enable", "--platform", "jetson-tk1", "--root", root], 0, None),
                    (["cell", "create", anchor_path], 0, None),
                    (["cell", "start", "anchor"], 0, None)]
        for cycle in range(self.CYCLES):
            cfg = _random_config(rnd, "guest%02d" % cycle)
            if binary[cycle]:
                path = self._write("%s.bin" % cfg.name, cellconfig.emit_binary(cfg))
            else:
                path = self._write("%s.cfg" % cfg.name, _config_text(cfg))
            image = self._write("%s.img" % cfg.name,
                                rnd.randbytes(rnd.randrange(256, 4097)))
            steps = [(["cell", "create", path], 0, None),
                     (["cell", "load", cfg.name, image], 0, None),
                     (["cell", "start", cfg.name], 0, None),
                     (["cell", "list"], 0, "%s running" % cfg.name),
                     (["cell", "stop", cfg.name], 0, None),
                     (["cell", "destroy", cfg.name], 0, None)]
            steps.insert(rnd.randrange(len(steps) + 1), (refusals[kinds[cycle]], 1, None))
            commands.extend(steps)
        commands += [(["cell", "list"], 0, "anchor running"),
                     (["cell", "stop", "anchor"], 0, None),
                     (["cell", "destroy", "anchor"], 0, None)]
        return [(["--state", self.state] + argv, code, text) for argv, code, text in commands]

    def episode(self, capture_traps: bool = False, pace=None) -> Episode:
        from cellsim import cli  # only this workload pays for the CLI import

        ep = Episode()
        for suffix in ("", ".lock", ".tmp"):
            if os.path.exists(self.state + suffix):
                os.remove(self.state + suffix)
        state_bytes = 0
        for argv, expected, text in self.commands:
            out, err = io.StringIO(), io.StringIO()
            if pace:
                pace()
            start = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            ep.timed(start)
            ep.items += 1
            state_bytes += os.path.getsize(self.state)
            ok = code == expected and (text is None or _listed(out.getvalue(), text))
            ep.check(ok, lambda: "%s: exit %s, want %d; %s%s" % (
                " ".join(argv[2:]), code, expected, out.getvalue().strip(),
                err.getvalue().strip()))
        with open(self.state, "rb") as handle:
            raw = handle.read()
        try:
            _, hv = snapshot.load_session(raw)
            hv.audit()
            audit, traps = None, trap_counts(hv.events)
        except errors.CellSimError as exc:
            audit, traps = exc, {}
        ep.check(audit is None, lambda: "final state audit: %s" % audit)
        ep.check(traps == self.expected_traps,
                 lambda: "traps %s, predicted %s" % (traps, self.expected_traps))
        ep.digest = {"traps": traps, "snapshot_sha256": hashlib.sha256(raw).hexdigest(),
                     "snapshot_bytes": len(raw),
                     "snapshot_bytes_per_op": state_bytes / len(self.commands)}
        return ep


def _listed(output: str, want: str) -> bool:
    name, state = want.split()
    return any(line.split()[1:3] == [name, state] for line in output.splitlines()
               if len(line.split()) >= 3)


def _random_config(rnd: random.Random, name: str):
    """A guest config the root cell can always grant while the anchor runs."""
    slots = sorted(rnd.sample(range(80), rnd.randint(1, 3)))
    perms = [machine.PermFlags.READ | machine.PermFlags.WRITE,
             machine.PermFlags.READ | machine.PermFlags.WRITE | machine.PermFlags.EXECUTE,
             machine.PermFlags.READ]
    mem = tuple(machine.MemRegion(0xA0000000 + slot * 0x1000000
                                  + rnd.randrange(0x800) * 0x1000,
                                  rnd.randint(1, 256) * 0x1000, rnd.choice(perms))
                for slot in slots)
    devices = (machine.MmioDevice("uart-a", UART, 0x1000),) if rnd.random() < 0.5 else ()
    kind = rnd.choice((cellconfig.WorkloadKind.IDLE, cellconfig.WorkloadKind.STRESS,
                       cellconfig.WorkloadKind.LATENCY_RESPONDER))
    return cellconfig.CellConfig(
        name=name, cpus=frozenset(rnd.sample((2, 3), rnd.randint(1, 2))), mem=mem,
        devices=devices, irqs=frozenset(rnd.sample(range(41, 161), rnd.randint(1, 6))),
        workload=cellconfig.Workload(kind))


def _config_text(cfg) -> str:
    """The cell-config file text for a CellConfig."""
    lines = ['cell "%s"' % cfg.name, "cpu %s" % ",".join(map(str, sorted(cfg.cpus)))]
    for region in cfg.mem:
        lines.append("mem 0x%x 0x%x %s" % (region.base, region.size,
                                           machine.perms_to_str(region.flags)))
    for dev in cfg.devices:
        lines.append("mmio %s 0x%x 0x%x" % (dev.name, dev.base, dev.size))
    if cfg.irqs:
        lines.append("irq %s" % ",".join(map(str, sorted(cfg.irqs))))
    lines.append("run %s" % cfg.workload.kind.value)
    return "\n".join(lines) + "\n"


WORKLOADS = {cls.name: cls for cls in (LatencyTable, TrapMix, CliSession)}


def digest_sha(digest: dict) -> str:
    return _sha(json.dumps(digest, sort_keys=True, separators=(",", ":")))
