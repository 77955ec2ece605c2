"""Command-line front end.

Single-shot subcommands against a session persisted in a binary state
file, so multi-invocation workflows (enable, create, start, bench,
export) work without a daemon. Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import fcntl
import functools
import json
import os
import struct
import sys
from contextlib import contextmanager
from typing import Optional

from . import cellconfig, snapshot
from ._dsl import decode_utf8
from .errors import AlreadyEnabled, CellSimError, NotEnabled, ValidationFailed
from .hvcore import Hypervisor, TrapKind, check_script, parse_script, read_script
from .machine import MachinePlatform, load_platform

DEFAULT_STATE = "cellsim.state"


def _read_config(path: str) -> cellconfig.CellConfig:
    with open(path, "rb") as handle:
        raw = handle.read()
    if raw[:4] == struct.pack("<I", cellconfig.MAGIC):
        return cellconfig.load_binary(raw)
    return cellconfig.parse_config(decode_utf8(raw, "config file"))


@contextmanager
def _locked(path: str):
    """Hold an exclusive advisory lock for the span of one mutation."""
    lock_path = path + ".lock"
    with open(lock_path, "a+b") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


class Session:
    def __init__(self, path: str):
        self.path = path
        self.platform: Optional[MachinePlatform] = None
        self.hv: Optional[Hypervisor] = None
        if os.path.exists(path):
            with open(path, "rb") as handle:
                self.platform, self.hv = snapshot.load_session(handle.read())

    def save(self) -> None:
        data = snapshot.save_session(self.platform, self.hv)
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, self.path)

    def require_hv(self) -> Hypervisor:
        if self.hv is None or not self.hv.enabled:
            raise NotEnabled("hypervisor is not enabled; run `enable` first")
        return self.hv

    def resolve_cell(self, ref: str) -> int:
        hv = self.require_hv()
        if ref.isascii() and ref.isdigit():  # str.isdigit also takes "²"
            return hv._cell(int(ref)).id
        return hv.find_cell(ref).id


def _cmd_enable(args) -> int:
    with _locked(args.state):
        session = Session(args.state)
        platform = load_platform(args.platform)
        cfg = _read_config(args.root)
        if session.hv is not None and session.hv.enabled:
            raise AlreadyEnabled("hypervisor already enabled; disable first")
        hv = Hypervisor(platform, seed=args.seed)
        if session.hv is not None:  # the log and counters survive re-enabling
            old = session.hv
            hv.events, hv.exits, hv.clock = old.events, old.exits, old.clock
            hv._next_cell_id = old._next_cell_id  # ids in them stay unique
        hv.enable(cfg)
        session.platform, session.hv = platform, hv
        session.save()
    print("enabled: platform %s, root cell 0 running" % platform.name)
    return 0


def _cmd_disable(args) -> int:
    with _locked(args.state):
        session = Session(args.state)
        session.require_hv().disable()
        session.save()
    print("disabled")
    return 0


def _cmd_cell_create(args) -> int:
    with _locked(args.state):
        session = Session(args.state)
        hv = session.require_hv()
        cfg = _read_config(args.config)
        cell_id = hv.create_cell(cfg)
        session.save()
    print("cell %d (%s) created" % (cell_id, cfg.name))
    return 0


def _cmd_cell_load(args) -> int:
    with _locked(args.state):
        session = Session(args.state)
        hv = session.require_hv()
        cell_id = session.resolve_cell(args.cell)
        with open(args.image, "rb") as handle:
            data = handle.read()
        addr = hv.cells[cell_id].config.mem[0].base if args.addr is None else args.addr
        hv.load_image(cell_id, addr, data)
        session.save()
    print("loaded %d bytes into cell %d at 0x%x" % (len(data), cell_id, addr))
    return 0


def _make_lifecycle_cmd(op_name: str):
    def run(args) -> int:
        with _locked(args.state):
            session = Session(args.state)
            hv = session.require_hv()
            cell_id = session.resolve_cell(args.cell)
            name = hv.cells[cell_id].config.name
            getattr(hv, op_name)(cell_id)
            session.save()
        verb = op_name.split("_")[0]
        print("cell %d (%s): %s" % (cell_id, name, verb))
        return 0
    return run


def _cmd_cell_list(args) -> int:
    session = Session(args.state)
    if session.hv is None or not session.hv.enabled:
        print("hypervisor: disabled")
        return 0
    hv = session.hv
    print("%-4s %-16s %-8s %s" % ("ID", "NAME", "STATE", "CPUS"))
    for cell_id in sorted(hv.cells):
        cell = hv.cells[cell_id]
        cpus = ",".join(str(c) for c in sorted(cell.config.cpus))
        print("%-4d %-16s %-8s %s"
              % (cell_id, cell.config.name, cell.state.value, cpus))
    return 0


def _cmd_cell_stats(args) -> int:
    session = Session(args.state)
    hv = session.require_hv()
    cell_ids = [session.resolve_cell(args.cell)] if args.cell else sorted(hv.cells)
    if not args.json:
        print("%-4s %-16s" % ("ID", "NAME")
              + "".join(" %20s" % kind.value for kind in TrapKind))
    for cell_id in cell_ids:
        name = hv.cells[cell_id].config.name
        counts = hv.exits.get(cell_id, [0] * len(TrapKind))
        if args.json:
            record = {"cell": cell_id, "name": name}
            record.update(zip((kind.value for kind in TrapKind), counts))
            print(json.dumps(record, separators=(",", ":")))
        else:
            print("%-4d %-16s" % (cell_id, name) + "".join(" %20d" % n for n in counts))
    return 0


def _cmd_check_config(args) -> int:
    cfg = _read_config(args.config)
    ops = parse_script(read_script(cfg.workload))
    if args.platform:
        platform = load_platform(args.platform)
        check_script(ops, platform)
        violations = cellconfig.validate_against(cfg, platform)
        if violations:
            for violation in violations:
                print(str(violation))
            return 1
    print("ok: %s" % cfg.name)
    return 0


def _cmd_bench(args) -> int:
    from . import bench  # imports numpy, which no other command needs

    platform = load_platform(args.platform)
    report = bench.run_report(platform, bench.canonical_scenarios(
        n_samples=args.samples, seed=args.seed))
    if args.mode == "csv":
        payload = bench.export_csv(report)
        if args.out:
            with open(args.out, "wb") as handle:
                handle.write(payload)
        else:
            sys.stdout.buffer.write(payload)
        return 0
    if args.mode == "table":
        print(bench.render_table(report))
        return 0
    for sc, stats in report.rows:
        print("vmm=%s freq=%gHz stress=%s: mean=%.6f sigma=%.6f max=%.6f n=%d seed=%d"
              % ("on" if sc.vmm_on else "off", sc.freq_hz,
                 "yes" if sc.stress else "no", stats.mean_us, stats.sigma_us,
                 stats.max_us, stats.n, sc.seed))
    print("rng: %s" % bench.GENERATOR_NAME)
    return 0


def _cmd_events_export(args) -> int:
    session = Session(args.state)
    if session.hv is None:
        raise NotEnabled("no session; nothing to export")
    text = session.hv.export_events()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _hex_address(text: str) -> int:
    try:
        addr = int(text, 16)
    except ValueError:
        addr = -1
    if addr < 0:
        raise argparse.ArgumentTypeError("expected a hex address, got %r" % text)
    return addr


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="cellsim",
        description="Static-partitioning hypervisor simulator and latency benchmark.")
    parser.add_argument("--state", default=DEFAULT_STATE,
                        help="session state file (default: %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enable", help="activate the hypervisor under a root config")
    p.add_argument("--platform", required=True,
                   help="platform preset name or platform file")
    p.add_argument("--root", required=True, help="root cell config file")
    p.add_argument("--seed", type=int, default=0, help="hypervisor rng seed")
    p.set_defaults(func=_cmd_enable)

    p = sub.add_parser("disable", help="tear the hypervisor down")
    p.set_defaults(func=_cmd_disable)

    cell = sub.add_parser("cell", help="cell lifecycle commands")
    cell_sub = cell.add_subparsers(dest="cell_command", required=True)

    p = cell_sub.add_parser("create", help="create a cell from a config file")
    p.add_argument("config")
    p.set_defaults(func=_cmd_cell_create)

    p = cell_sub.add_parser("load", help="load a guest image into a cell")
    p.add_argument("cell")
    p.add_argument("image")
    p.add_argument("--addr", type=_hex_address,
                   help="hex load address (default: first region base)")
    p.set_defaults(func=_cmd_cell_load)

    for verb, op in (("start", "start_cell"), ("stop", "stop_cell"),
                     ("destroy", "destroy_cell"), ("relaunch", "relaunch_cell")):
        p = cell_sub.add_parser(verb, help="%s a cell" % verb)
        p.add_argument("cell")
        p.set_defaults(func=_make_lifecycle_cmd(op))

    p = cell_sub.add_parser("list", help="list cells and their states")
    p.set_defaults(func=_cmd_cell_list)

    p = cell_sub.add_parser("stats", help="exits per cause, for one cell or all cells")
    p.add_argument("cell", nargs="?", help="cell name or id (default: every cell)")
    p.add_argument("--json", action="store_true", help="print one JSON object per cell")
    p.set_defaults(func=_cmd_cell_stats)

    p = sub.add_parser("check-config", help="parse and validate a cell config")
    p.add_argument("config")
    p.add_argument("--platform", help="also validate resources against this platform")
    p.set_defaults(func=_cmd_check_config)

    p = sub.add_parser("bench", help="run the latency benchmark")
    p.add_argument("mode", choices=("run", "table", "csv"))
    p.add_argument("--samples", type=int, default=None,
                   help="samples per scenario (default: full four-hour scale)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--platform", default="jetson-tk1")
    p.add_argument("--out", help="write csv here instead of stdout")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("events", help="event log commands")
    events_sub = p.add_subparsers(dest="events_command", required=True)
    p = events_sub.add_parser("export", help="export the event log as JSON lines")
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=_cmd_events_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationFailed as exc:
        print("error: config rejected with %d violation(s)"
              % len(exc.violations), file=sys.stderr)
        for violation in exc.violations:
            print("  %s" % violation, file=sys.stderr)
        return 1
    except (CellSimError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
