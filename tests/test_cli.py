import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from cellsim import (
    TrapKind,
    canonical_scenarios,
    create_channel,
    distributor_access,
    emit_binary,
    export_csv,
    jetson_tk1,
    latency_streams,
    load_platform,
    load_session,
    parse_config,
    raise_irqs,
    run_report,
    run_scenario,
    save_session,
    send,
)
from cellsim import cli
from cellsim.cli import main

REPO = Path(__file__).resolve().parent.parent
ROOT_CFG = str(REPO / "configs" / "root-jetson.cfg")
RTOS_CFG = str(REPO / "configs" / "rtos-cell.cfg")

PLATFORM_TEXT = """
platform "testboard"
cpu 0-3
mem 0x10000000 0x200000 rwxd
mmio gic-dist 0x50041000 0x1000
mmio uart 0x70006000 0x1000
irq 32-39
"""

ROOT_TEXT = """
cell "root"
cpu 0-3
mem 0x10000000 0x200000 rwxd
mmio gic-dist 0x50041000 0x1000
mmio uart 0x70006000 0x1000
irq 32-39
"""

GUEST_TEXT = """
cell "guest"
cpu 2
mem 0x10100000 0x10000 rwx
irq 34
"""


@pytest.fixture()
def ws(tmp_path):
    """Workspace with a state path, a platform file, and config files."""
    (tmp_path / "board.platform").write_text(PLATFORM_TEXT)
    (tmp_path / "root.cfg").write_text(ROOT_TEXT)
    (tmp_path / "guest.cfg").write_text(GUEST_TEXT)
    return tmp_path


def run(ws, *argv):
    return main(["--state", str(ws / "cellsim.state"), *argv])


def enable_board(ws):
    return run(ws, "enable", "--platform", str(ws / "board.platform"),
               "--root", str(ws / "root.cfg"))


def refused_at_create(ws, capsys):
    """Enable, then have `cell create` refuse a guest running ops.txt;
    check that the state file is unchanged and return the error output."""
    (ws / "guest.cfg").write_text(GUEST_TEXT + "run script %s\n" % (ws / "ops.txt"))
    assert enable_board(ws) == 0
    state = (ws / "cellsim.state").read_bytes()
    capsys.readouterr()
    assert run(ws, "cell", "create", str(ws / "guest.cfg")) == 1
    assert (ws / "cellsim.state").read_bytes() == state
    out, err = capsys.readouterr()
    assert out == ""
    return err


class TestWalkthrough:
    def test_enable_create_start_list(self, ws, capsys):
        assert enable_board(ws) == 0
        assert "enabled" in capsys.readouterr().out

        assert run(ws, "cell", "create", str(ws / "guest.cfg")) == 0
        assert "cell 1 (guest) created" in capsys.readouterr().out

        image = ws / "guest.img"
        image.write_bytes(b"\x7fELF-ish")
        assert run(ws, "cell", "load", "guest", str(image)) == 0
        out = capsys.readouterr().out
        assert "loaded 8 bytes into cell 1 at 0x10100000" in out

        assert run(ws, "cell", "start", "guest") == 0
        capsys.readouterr()

        assert run(ws, "cell", "list") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["ID", "NAME", "STATE", "CPUS"]
        assert lines[1].split() == ["0", "root", "running", "0,1,2,3"]
        assert lines[2].split() == ["1", "guest", "running", "2"]

    def test_state_survives_between_invocations(self, ws, capsys):
        enable_board(ws)
        run(ws, "cell", "create", str(ws / "guest.cfg"))
        capsys.readouterr()
        # a brand-new invocation reads everything back from the state file
        assert run(ws, "cell", "start", "1") == 0
        assert run(ws, "cell", "stop", "guest") == 0
        assert run(ws, "cell", "relaunch", "1") == 0
        capsys.readouterr()
        assert run(ws, "cell", "list") == 0
        assert "running" in capsys.readouterr().out

    def test_destroy_then_disable(self, ws, capsys):
        enable_board(ws)
        run(ws, "cell", "create", str(ws / "guest.cfg"))
        assert run(ws, "disable") == 1  # guest still exists
        assert "error" in capsys.readouterr().err
        assert run(ws, "cell", "destroy", "guest") == 0
        assert run(ws, "disable") == 0
        capsys.readouterr()
        assert run(ws, "cell", "list") == 0
        assert "hypervisor: disabled" in capsys.readouterr().out

    def test_colliding_config_lists_every_violation(self, ws, capsys):
        assert enable_board(ws) == 0
        assert run(ws, "cell", "create", str(ws / "guest.cfg")) == 0
        before = (ws / "cellsim.state").read_bytes()
        capsys.readouterr()
        (ws / "twin.cfg").write_text(GUEST_TEXT.replace('"guest"', '"twin"'))
        assert run(ws, "cell", "create", str(ws / "twin.cfg")) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: config rejected with 3 violation(s)\n"
            "  NotOwnedByRoot(cpu 2): owned by cell 1\n"
            "  NotOwnedByRoot(irq 34): owned by cell 1\n"
            "  NotOwnedByRoot(mem [0x10100000, 0x10110000)): owned by cell 1\n")
        assert (ws / "cellsim.state").read_bytes() == before

    def test_double_enable_fails(self, ws, capsys):
        enable_board(ws)
        assert enable_board(ws) == 1
        assert "already enabled" in capsys.readouterr().err

    def test_reenable_keeps_the_event_log(self, ws, capsys):
        enable_board(ws)
        run(ws, "disable")
        enable_board(ws)
        out = ws / "events.jsonl"
        assert run(ws, "events", "export", "--out", str(out)) == 0
        details = [json.loads(line)["detail"]
                   for line in out.read_text().splitlines()]
        assert details == ["enable", "disable", "enable"]

    def test_reenable_keeps_the_next_channel_id(self, ws, capsys):
        # the log's doorbell names channel 0, and a load refuses a doorbell of a
        # channel id at or past the next one; channels are made through the API
        enable_board(ws)
        state = ws / "cellsim.state"
        platform, hv = load_session(state.read_bytes())
        a = hv.create_cell(parse_config(GUEST_TEXT))
        b = hv.create_cell(parse_config(GUEST_TEXT.replace('"guest"', '"peer"').replace(
            "cpu 2", "cpu 3").replace("0x10100000", "0x10110000").replace("irq 34", "irq 35")))
        for cell_id in (a, b):
            hv.start_cell(cell_id)
        send(hv, create_channel(hv, a, b, 0x1000, 1), a, 0, b"x", 0)
        for cell_id in (a, b):
            hv.destroy_cell(cell_id)
        state.write_bytes(save_session(platform, hv))
        assert run(ws, "disable") == 0 and enable_board(ws) == 0
        assert load_session(state.read_bytes())[1]._next_channel_id == 1

    def test_reenable_keeps_each_cells_stress_flag(self, ws, capsys):
        # bus_load asks CellConfig.stresses, which each config derives when it is built
        (ws / "stress.cfg").write_text(GUEST_TEXT.replace('"guest"', '"stress"').replace(
            "cpu 2", "cpu 3").replace("0x10100000", "0x10110000").replace("irq 34", "irq 35")
            + "run stress\n")
        flags = []
        for _ in range(2):  # the second pass runs on the carried-over log and ids
            assert enable_board(ws) == 0
            assert run(ws, "cell", "create", str(ws / "stress.cfg")) == 0
            assert run(ws, "cell", "create", str(ws / "guest.cfg")) == 0
            hv = load_session((ws / "cellsim.state").read_bytes())[1]
            flags.append({cell.name: cell.config.stresses for cell in hv.cells.values()})
            for name in ("stress", "guest"):
                assert run(ws, "cell", "destroy", name) == 0
            assert run(ws, "disable") == 0
        assert flags == [{"root": False, "stress": True, "guest": False}] * 2
        assert max(hv.cells) == 4  # the ids went on from the first pass's

    def test_separate_state_files_are_independent(self, ws, tmp_path, capsys):
        enable_board(ws)
        other_state = tmp_path / "other.state"
        assert main(["--state", str(other_state), "cell", "list"]) == 0
        assert "hypervisor: disabled" in capsys.readouterr().out


def guest_with_exits(ws):
    """Session: the guest runs and has taken 7 IRQs and 1 distributor write."""
    enable_board(ws)
    run(ws, "cell", "create", str(ws / "guest.cfg"))
    run(ws, "cell", "start", "guest")
    state = ws / "cellsim.state"
    platform, hv = load_session(state.read_bytes())
    raise_irqs(hv, 34, range(0, 7000, 1000), latency_streams(1))
    distributor_access(hv, 1, 0x10)
    state.write_bytes(save_session(platform, hv))


class TestCellStats:
    KINDS = [kind.value for kind in TrapKind]

    def test_table_counts_exits_per_cause(self, ws, capsys):
        guest_with_exits(ws)
        capsys.readouterr()
        assert run(ws, "cell", "stats") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["ID", "NAME"] + self.KINDS
        assert lines[1].split() == ["0", "root", "0", "0", "0", "0", "1"]
        assert lines[2].split() == ["1", "guest", "7", "1", "0", "0", "2"]
        assert len(lines) == 3

    def test_json_one_object_per_cell(self, ws, capsys):
        guest_with_exits(ws)
        capsys.readouterr()
        assert run(ws, "cell", "stats", "guest", "--json") == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line) == dict(
            cell=1, name="guest", **dict(zip(self.KINDS, [7, 1, 0, 0, 2])))
        assert run(ws, "cell", "stats", "--json") == 0
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [(r["cell"], r["name"], r["Management"]) for r in records] == [
            (0, "root", 1), (1, "guest", 2)]

    def test_unknown_cell_exits_one(self, ws, capsys):
        enable_board(ws)
        capsys.readouterr()
        assert run(ws, "cell", "stats", "ghost") == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "ghost" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_reenable_keeps_counters_and_cell_ids(self, ws, capsys):
        guest_with_exits(ws)
        run(ws, "cell", "stop", "guest")
        run(ws, "cell", "destroy", "guest")
        run(ws, "disable")
        enable_board(ws)
        capsys.readouterr()
        assert run(ws, "cell", "create", str(ws / "guest.cfg")) == 0
        assert "cell 2 (guest) created" in capsys.readouterr().out
        _, hv = load_session((ws / "cellsim.state").read_bytes())
        assert hv.exits == {0: [0, 0, 0, 0, 3], 1: [7, 1, 0, 0, 4], 2: [0, 0, 0, 0, 1]}


class TestManagementOneToOne:
    def test_each_mutation_logs_exactly_one_event(self, ws, capsys):
        mutations = [
            lambda: enable_board(ws),
            lambda: run(ws, "cell", "create", str(ws / "guest.cfg")),
            lambda: run(ws, "cell", "start", "guest"),
            lambda: run(ws, "cell", "stop", "guest"),
            lambda: run(ws, "cell", "relaunch", "guest"),
            lambda: run(ws, "cell", "stop", "guest"),
            lambda: run(ws, "cell", "destroy", "guest"),
            lambda: run(ws, "disable"),
        ]
        for count, mutate in enumerate(mutations, start=1):
            assert mutate() == 0
            capsys.readouterr()
            assert run(ws, "events", "export") == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == count
            assert all(json.loads(l)["cause"] == "Management" for l in lines)

    def test_read_only_commands_log_nothing(self, ws, capsys):
        enable_board(ws)
        run(ws, "cell", "list")
        run(ws, "check-config", str(ws / "guest.cfg"))
        capsys.readouterr()
        assert run(ws, "events", "export") == 0
        assert len(capsys.readouterr().out.splitlines()) == 1  # just the enable


class TestCheckConfig:
    def test_parse_only_ok(self, ws, capsys):
        assert run(ws, "check-config", str(ws / "guest.cfg")) == 0
        assert capsys.readouterr().out == "ok: guest\n"

    def test_with_platform_ok(self, ws, capsys):
        assert run(ws, "check-config", str(ws / "guest.cfg"),
                   "--platform", str(ws / "board.platform")) == 0
        assert "ok" in capsys.readouterr().out

    def test_with_platform_catches_unknown_resources(self, ws, capsys):
        bad = ws / "bad.cfg"
        bad.write_text('cell "bad"\ncpu 9\nmem 0xdead0000 0x1000 rw\nirq 99\n')
        assert run(ws, "check-config", str(bad),
                   "--platform", str(ws / "board.platform")) == 1
        out = capsys.readouterr().out
        assert "NoSuchResource(cpu 9)" in out
        assert "NoSuchResource(mem [0xdead0000, 0xdead1000))" in out
        assert "NoSuchResource(irq 99)" in out

    def test_syntax_error_exits_one(self, ws, capsys):
        broken = ws / "broken.cfg"
        broken.write_text('cell "x"\ncpu zzz\n')
        assert run(ws, "check-config", str(broken)) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_one(self, ws, capsys):
        assert run(ws, "check-config", str(ws / "nope.cfg")) == 1
        assert "error" in capsys.readouterr().err

    def test_binary_config_is_sniffed(self, ws, capsys):
        blob = emit_binary(parse_config(GUEST_TEXT))
        binary = ws / "guest.cellcfg"
        binary.write_bytes(blob)
        assert run(ws, "check-config", str(binary)) == 0
        assert capsys.readouterr().out == "ok: guest\n"

    def test_shipped_sample_configs_validate(self, capsys):
        assert main(["check-config", ROOT_CFG, "--platform", "jetson-tk1"]) == 0
        assert main(["check-config", RTOS_CFG, "--platform", "jetson-tk1"]) == 0
        capsys.readouterr()

    def test_non_utf8_config_exits_one(self, ws, capsys):
        bad = ws / "bad.cfg"
        bad.write_bytes(b'cell "\xff"\ncpu 0\n')
        assert run(ws, "check-config", str(bad)) == 1
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_validation_needs_no_hypervisor(self, ws, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("check-config built a Hypervisor")
        monkeypatch.setattr(cli, "Hypervisor", refuse)
        assert run(ws, "check-config", str(ws / "guest.cfg"),
                   "--platform", str(ws / "board.platform")) == 0


class TestNoTracebacks:
    def test_non_numeric_bus_value(self, ws, capsys):
        (ws / "board.platform").write_text(PLATFORM_TEXT + "bus base=abc\n")
        assert enable_board(ws) == 1
        # refused on its line, as a repeated bus key is
        assert capsys.readouterr().err == "error: line 8: bus base must be a number, got 'abc'\n"

    def test_non_utf8_platform_file(self, ws, capsys):
        (ws / "board.platform").write_bytes(b"\xfe" + PLATFORM_TEXT.encode())
        assert enable_board(ws) == 1
        assert "not valid UTF-8" in capsys.readouterr().err

    # A script is read and parsed at `cell create`, so a bad one is refused
    # there, before the cell takes an id, and the state file stays as it was.
    def test_non_utf8_script_file(self, ws, capsys):
        (ws / "ops.txt").write_bytes(b"idle \xff\n")
        assert refused_at_create(ws, capsys) == "error: script file is not valid UTF-8\n"

    @pytest.mark.parametrize("op, message", [
        ("read 0x10100011 8", "memory access at 0x10100011 not aligned to width 8"),
        ("read 0x10100010 3", "access width must be 1, 2, 4 or 8"),
        ("distwrite 0x3", "distwrite offset 0x3 not aligned to 4"),
    ])
    def test_bad_script_access_names_its_line(self, ws, capsys, op, message):
        (ws / "ops.txt").write_text("idle\n%s\nrepeat\n" % op)
        assert refused_at_create(ws, capsys) == "error: line 2: %s\n" % message

    def test_missing_script_file(self, ws, capsys):
        err = refused_at_create(ws, capsys)
        assert err.startswith("error: ") and "No such file or directory" in err

    @pytest.mark.parametrize("op, message", [
        ("read 0x10100011 8", "line 2: memory access at 0x10100011 not aligned to width 8"),
        ("jump 0x10", "line 2, col 1: unknown script op 'jump'"),
        ("distwrite 0x3", "line 2: distwrite offset 0x3 not aligned to 4"),
    ])
    def test_check_config_parses_the_script(self, ws, capsys, op, message):
        (ws / "ops.txt").write_text("idle\n%s\nrepeat\n" % op)
        (ws / "guest.cfg").write_text(GUEST_TEXT + "run script %s\n" % (ws / "ops.txt"))
        for platform in ([], ["--platform", str(ws / "board.platform")]):
            assert run(ws, "check-config", str(ws / "guest.cfg"), *platform) == 1
            assert capsys.readouterr() == ("", "error: %s\n" % message)
        (ws / "ops.txt").write_text("idle\nrepeat\n")
        assert run(ws, "check-config", str(ws / "guest.cfg")) == 0
        assert capsys.readouterr().out == "ok: guest\n"

    def test_distwrite_needs_the_platforms_window(self, ws, capsys):
        for name in ("board.platform", "root.cfg"):
            text = (ws / name).read_text()
            (ws / name).write_text(text.replace("mmio gic-dist 0x50041000 0x1000\n", ""))
        (ws / "ops.txt").write_text("idle\ndistwrite 0x0\nrepeat\n")
        (ws / "guest.cfg").write_text(GUEST_TEXT + "run script %s\n" % (ws / "ops.txt"))
        assert run(ws, "check-config", str(ws / "guest.cfg")) == 0
        assert capsys.readouterr().out == "ok: guest\n"
        message = "error: line 2: platform testboard has no gic-dist window\n"
        assert run(ws, "check-config", str(ws / "guest.cfg"),
                   "--platform", str(ws / "board.platform")) == 1
        assert capsys.readouterr() == ("", message)
        assert refused_at_create(ws, capsys) == message

    @pytest.mark.parametrize("length", [32, 70_000])
    def test_platform_name_longer_than_31_bytes(self, ws, capsys, length):
        # 70,000 bytes overflowed the snapshot's u16 string length
        (ws / "board.platform").write_text(
            PLATFORM_TEXT.replace('"testboard"', '"%s"' % ("p" * length)))
        assert enable_board(ws) == 1
        # refused on its line while the file is read, as a long cell name is
        assert capsys.readouterr().err == "error: line 2: platform name longer than 31 bytes\n"
        assert not (ws / "cellsim.state").exists()

    def test_overlapping_io_port_ranges(self, ws, capsys):
        (ws / "board.platform").write_text(PLATFORM_TEXT + "ioport 0x60 0x10\nioport 0x68 0x8\n")
        assert enable_board(ws) == 1
        line = PLATFORM_TEXT.count("\n") + 2
        assert capsys.readouterr().err == (
            "error: line %d: ioport 0x68 0x8 overlaps ioport 0x60 0x10 on line %d\n"
            % (line, line - 1))
        assert not (ws / "cellsim.state").exists()

    def test_overlapping_io_port_ranges_in_a_config(self, ws, capsys):
        (ws / "guest.cfg").write_text(GUEST_TEXT + "ioport 0x60 0x10\nioport 0x68 0x8\n")
        assert run(ws, "check-config", str(ws / "guest.cfg")) == 1
        line = GUEST_TEXT.count("\n") + 2
        assert capsys.readouterr().err == (
            "error: line %d: ioport 0x68 0x8 overlaps ioport 0x60 0x10 on line %d\n"
            % (line, line - 1))

    def test_script_path_longer_than_65535_bytes(self, ws, capsys):
        # it overflowed the binary config's u16 path length on save
        (ws / "guest.cfg").write_text(GUEST_TEXT + "run script %s\n" % ("p" * 70_000))
        message = "error: line 6: script path longer than 65535 bytes\n"
        assert run(ws, "check-config", str(ws / "guest.cfg")) == 1
        assert capsys.readouterr().err == message
        assert enable_board(ws) == 0
        capsys.readouterr()
        assert run(ws, "cell", "create", str(ws / "guest.cfg")) == 1
        assert capsys.readouterr().err == message
        assert sorted(load_session((ws / "cellsim.state").read_bytes())[1].cells) == [0]

    def test_config_path_is_a_directory(self, ws, capsys):
        assert run(ws, "check-config", str(ws)) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_platform_path_is_a_directory(self, ws, capsys):
        assert run(ws, "enable", "--platform", str(ws), "--root", str(ws / "root.cfg")) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (ws / "cellsim.state").exists()


def run_in_fresh_process(code, *argv):
    """Run code in a new interpreter that imports cellsim from src/; return stdout."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *argv], env=env,
                          capture_output=True, text=True, check=True, timeout=120).stdout


class TestParser:
    def test_built_once_and_reused(self, ws, capsys):
        assert cli.build_parser() is cli.build_parser()
        # options of one command do not leak into the next
        far = ws / "far.cfg"
        far.write_text('cell "far"\ncpu 9\nmem 0x10100000 0x1000 rw\n')
        assert run(ws, "check-config", str(far), "--platform", str(ws / "board.platform")) == 1
        assert run(ws, "check-config", str(far)) == 0
        assert capsys.readouterr().out == "NoSuchResource(cpu 9)\nok: far\n"

    def test_not_built_at_import(self):
        probe = ("import cellsim.cli as cli; "
                 "print(cli.build_parser.cache_info().currsize)")
        assert run_in_fresh_process(probe) == "0\n"


class TestColdStart:
    """Only the bench command imports numpy."""

    def test_lifecycle_commands_load_no_numpy(self, ws):
        image = ws / "guest.img"
        image.write_bytes(b"abc")
        probe = """
            import sys
            from cellsim.cli import main
            state, board, root, guest, image, events = sys.argv[1:]
            for argv in (["enable", "--platform", board, "--root", root],
                         ["cell", "create", guest], ["cell", "load", "guest", image],
                         ["cell", "start", "guest"], ["cell", "list"],
                         ["cell", "stats", "--json"],
                         ["check-config", guest, "--platform", board],
                         ["events", "export", "--out", events],
                         ["cell", "stop", "guest"], ["cell", "destroy", "guest"],
                         ["disable"]):
                assert main(["--state", state, *argv]) == 0, argv
            print("numpy loaded:", "numpy" in sys.modules)
            """
        out = run_in_fresh_process(
            probe, str(ws / "cellsim.state"), str(ws / "board.platform"),
            str(ws / "root.cfg"), str(ws / "guest.cfg"), str(image), str(ws / "events.jsonl"))
        assert out.splitlines()[-1] == "numpy loaded: False"
        assert (ws / "events.jsonl").read_text().count("\n") == 4  # enable, create, load, start

    def test_bench_loads_numpy(self):
        probe = """
            import sys
            from cellsim.cli import main
            assert main(["bench", "run", "--samples", "100"]) == 0
            print("numpy loaded:", "numpy" in sys.modules)
            """
        lines = run_in_fresh_process(probe).splitlines()
        assert lines[-2:] == ["rng: numpy-pcg64", "numpy loaded: True"]


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_bad_bench_mode(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "sideways"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_lifecycle_before_enable(self, ws, capsys):
        assert run(ws, "cell", "start", "guest") == 1
        assert "not enabled" in capsys.readouterr().err

    def test_events_export_with_no_state_file(self, ws, capsys):
        assert run(ws, "events", "export") == 1
        assert capsys.readouterr() == ("", "error: no session; nothing to export\n")
        assert not (ws / "cellsim.state").exists()


class TestBadArguments:
    """Malformed argument values end in one error line, never a traceback."""

    @pytest.fixture()
    def guest(self, ws, capsys):
        enable_board(ws)
        run(ws, "cell", "create", str(ws / "guest.cfg"))
        image = ws / "guest.img"
        image.write_bytes(b"abc")
        capsys.readouterr()
        return str(image)

    @pytest.mark.parametrize("addr", ["zz", "-10"])
    def test_load_address_must_be_non_negative_hex(self, ws, guest, capsys, addr):
        with pytest.raises(SystemExit) as excinfo:
            run(ws, "cell", "load", "guest", guest, "--addr", addr)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(
            "error: argument --addr: expected a hex address, got '%s'" % addr)

    def test_load_address_in_the_cells_memory(self, ws, guest, capsys):
        assert run(ws, "cell", "load", "guest", guest, "--addr", "1010fffd") == 0
        assert capsys.readouterr().out == "loaded 3 bytes into cell 1 at 0x1010fffd\n"
        cell = load_session((ws / "cellsim.state").read_bytes())[1].cells[1]
        assert cell.memory_image == {0x1010FFFD: b"abc"}
        # one byte further would end past the region
        assert run(ws, "cell", "load", "guest", guest, "--addr", "0x1010fffe") == 1
        assert capsys.readouterr().err.startswith("error: [0x1010fffe, 0x10110001) not within")

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_enable_seed_must_fit_64_bits(self, ws, capsys, seed):
        assert run(ws, "enable", "--platform", str(ws / "board.platform"),
                   "--root", str(ws / "root.cfg"), "--seed", seed) == 1
        assert capsys.readouterr().err == "error: seed %s outside [0, 2^64)\n" % seed
        assert not (ws / "cellsim.state").exists()

    def test_enable_takes_the_largest_seed(self, ws, capsys):
        assert run(ws, "enable", "--platform", str(ws / "board.platform"),
                   "--root", str(ws / "root.cfg"), "--seed", str(2**64 - 1)) == 0
        state = load_session((ws / "cellsim.state").read_bytes())[1]
        assert state.seed == 2**64 - 1

    def test_non_ascii_digit_is_a_name_not_an_id(self, ws, guest, capsys):
        assert run(ws, "cell", "start", "\u00b2") == 1
        assert capsys.readouterr().err == "error: no cell named '\u00b2'\n"


class TestBenchCommand:
    def test_csv_matches_the_library(self, ws, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert run(ws, "bench", "csv", "--samples", "60", "--out", str(out)) == 0
        capsys.readouterr()
        report = run_report(jetson_tk1(), canonical_scenarios(n_samples=60))
        assert out.read_bytes() == export_csv(report)

    def test_table_to_stdout(self, ws, capsys):
        assert run(ws, "bench", "table", "--samples", "40") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split()[:3] == ["VMM", "Freq", "Stress"]
        assert "population standard deviation" in out

    def test_latency_floor_below_the_jitter_without_quantize(self, ws, capsys):
        # a 0.01 us floor with up to half a tick of jitter either way used
        # to exit 1 with "delivery before raise"
        board = ws / "low.platform"
        board.write_text(PLATFORM_TEXT + "bus base=0.01 quantize=off\n")
        assert run(ws, "bench", "run", "--platform", str(board), "--samples", "1000") == 0
        out, err = capsys.readouterr()
        assert err == "" and len(out.splitlines()) == 7
        platform = load_platform(str(board))
        for sc in canonical_scenarios(n_samples=1000):
            _, deliveries = run_scenario(platform, sc)
            assert deliveries.latency_us.min() >= 0.0

    def test_a_one_cpu_board_is_refused_at_its_stressed_row(self, ws, capsys):
        # the stress cell took CPU -1: "error: cpu id out of range: -1"
        board = ws / "one.platform"
        board.write_text('platform "one"\ncpu 0\nmem 0x10000000 0x400000 rw\nirq 32\n')
        assert run(ws, "bench", "run", "--platform", str(board), "--samples", "10") == 1
        assert capsys.readouterr() == (
            "", "error: platform has too few CPUs for the benchmark cells\n")

    def test_samples_past_the_int64_clock_are_refused(self, ws, capsys):
        # numpy printed a traceback: it could not allocate 72.8 TiB
        assert run(ws, "bench", "run", "--samples", "10000000000000") == 1
        assert capsys.readouterr() == (
            "", "error: 10000000000000 samples at 10.0 Hz do not fit the int64 ns clock\n")

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 1.00 TiB for an array with shape (137438953472,)"
                     " and data type int64"),
         "error: Unable to allocate 1.00 TiB for an array with shape (137438953472,)"
         " and data type int64\n"),
        (MemoryError(), "error: MemoryError\n"),
    ])
    def test_out_of_memory_is_one_error_line(self, ws, capsys, monkeypatch, exc, line):
        from cellsim import bench

        def exhausted(*args):
            raise exc
        monkeypatch.setattr(bench, "run_report", exhausted)
        assert run(ws, "bench", "run", "--samples", "10") == 1
        assert capsys.readouterr() == ("", line)

    def test_run_mode_prints_row_lines(self, ws, capsys):
        assert run(ws, "bench", "run", "--samples", "25", "--seed", "3") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("vmm=off freq=10Hz stress=no:")
        assert all("seed=3" in line for line in lines[:6])
        assert lines[6].startswith("rng: ")
