"""Per-layer tracing from outside the package.

The traced run replaces selected functions, methods and properties of
the ``cellsim`` modules with timing wrappers, runs the workload, and
puts the originals back.  Nothing here is installed in an untraced run.

Each wrapped call is a span with a name, a start, an end and the span
that was open when it began.  A span's self time is its duration minus
the time its child spans took, so the self times of all spans plus the
harness's own span add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (metric prefix, module, class or None, attribute).  A class attribute
# that is a property is wrapped through its getter.
TRACED = (
    ("machine.irq_numbers", "cellsim.machine", "MachinePlatform", "irq_numbers"),
    ("machine.mem_regions", "cellsim.machine", "MachinePlatform", "mem_regions"),
    ("machine.mmio_devices", "cellsim.machine", "MachinePlatform", "mmio_devices"),
    ("machine.gic_dist_window", "cellsim.machine", "MachinePlatform", "gic_dist_window"),
    ("machine.bus_load", "cellsim.machine", None, "bus_load"),
    ("irq.raise_irq", "cellsim.irq", None, "raise_irq"),
    ("irq.sample_latency", "cellsim.irq", None, "sample_latency"),
    ("bench.run_scenario", "cellsim.bench", None, "run_scenario"),
    ("bench.summarize", "cellsim.bench", None, "summarize"),
    ("rng.make_rng", "cellsim.rng", None, "make_rng"),
    ("hvcore.handle_access", "cellsim.hvcore", "Hypervisor", "handle_access"),
    ("hvcore.step", "cellsim.hvcore", "Hypervisor", "step"),
    ("hvcore.range_owner", "cellsim.hvcore", "OwnershipLedger", "range_owner"),
    ("hvcore.create_cell", "cellsim.hvcore", "Hypervisor", "create_cell"),
    ("hvcore.destroy_cell", "cellsim.hvcore", "Hypervisor", "destroy_cell"),
    ("hvcore.transfer_range", "cellsim.hvcore", "OwnershipLedger", "transfer_range"),
    ("hvcore.release_all", "cellsim.hvcore", "OwnershipLedger", "release_all"),
    ("comm.send", "cellsim.comm", None, "send"),
    ("comm.poll", "cellsim.comm", None, "poll"),
    ("cellconfig.parse_config", "cellsim.cellconfig", None, "parse_config"),
    ("cellconfig.load_binary", "cellsim.cellconfig", None, "load_binary"),
    ("cellconfig.validate_against", "cellsim.cellconfig", None, "validate_against"),
    ("snapshot.save_session", "cellsim.snapshot", None, "save_session"),
    ("snapshot.load_session", "cellsim.snapshot", None, "load_session"),
    ("cli.build_parser", "cellsim.cli", None, "build_parser"),
)

HARNESS = "harness"
SPAN_CAP = 20_000  # spans kept for the trace file; counts cover every call


class Tracer:
    """Span recorder with per-name call counts and self time."""

    def __init__(self):
        self.calls = {name: 0 for name, *_ in TRACED}
        self.self_s = {name: 0.0 for name, *_ in TRACED}
        self.spans: list[tuple] = []
        self.span_count = 0
        self.wall_s: list[float] = []          # per run
        self.harness_self_s: list[float] = []  # per run
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- wrappers

    def _wrap(self, name, fn):
        calls, self_s, spans, stack = self.calls, self.self_s, self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            self.span_count += 1
            frame = [self.span_count, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                parent[1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], name, start, end, parent[0]))
        return traced

    def install(self) -> None:
        """Wrap every TRACED target in every loaded cellsim module."""
        for _, module_name, _, _ in TRACED:
            importlib.import_module(module_name)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cellsim" or key.startswith("cellsim."))]
        for name, module_name, class_name, attr in TRACED:
            module = sys.modules[module_name]
            if class_name is not None:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                if isinstance(original, property):
                    replacement = property(self._wrap(name, original.fget))
                else:
                    replacement = self._wrap(name, original)
                self._undo.append((cls, attr, original))
                setattr(cls, attr, replacement)
                continue
            # A function is also bound by name in every module that
            # imported it, so each binding gets the same wrapper.
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for holder in modules:
                if holder.__dict__.get(attr) is original:
                    self._undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    # -- the harness's own span

    def run(self, fn, *args):
        """Run fn(*args) as the root span with wrappers installed.

        Counts and self times add up over runs; metrics() reports them
        per run.
        """
        root = [0, 0.0]
        self._stack.append(root)
        self.install()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.uninstall()
            self._stack.pop()
            self.wall_s.append(end - start)
            self.harness_self_s.append(end - start - root[1])
            self.spans.append((0, HARNESS, start, end, None))

    def metrics(self, scale: float = 1.0) -> dict:
        """Calls and self time per traced name and run, times multiplied
        by scale."""
        runs = len(self.wall_s)
        out = {}
        for name, *_ in TRACED:
            calls, rest = divmod(self.calls[name], runs)
            out[name + ".calls"] = (calls if not rest else self.calls[name] / runs, "count")
            out[name + ".self_s"] = (self.self_s[name] / runs * scale, "s")
        return out

    def accounted_share(self) -> float:
        """(harness self time + every span's self time) / traced wall time."""
        accounted = sum(self.harness_self_s) + sum(self.self_s.values())
        return accounted / sum(self.wall_s)

    def write(self, path) -> None:
        """Write the kept spans as JSON lines: id, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "parent": parent}, separators=(",", ":")) + "\n")
