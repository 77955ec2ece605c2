"""The six resource directives read the same in platform files and cell configs.

Both text formats are read by `machine.read_directives`, which hands
`cpu`, `mem`, `mmio`, `pci`, `ioport` and `irq` lines to
`machine.parse_resource`, so a line names the same resources, or fails
with the same error at the same line and column, in either format. The
head line and the rule that a CPU or IRQ is listed once are the same too.
"""

from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from cellsim import (
    Cpu,
    IrqLine,
    MmioDevice,
    PlatformSpec,
    build_platform,
    parse_config,
    parse_platform,
)
from cellsim._dsl import split_tokens
from cellsim.cli import main
from cellsim.errors import (
    CellSimError,
    ConfigSemanticError,
    ConfigSyntaxError,
    DuplicateIrq,
)
from cellsim.machine import RESOURCE_KINDS, layout_resources, parse_resource

# A cell config must name a CPU and memory; both formats get the same
# filler after the line under test so the line stays on line 2.
FILLER = "cpu 63\nmem 0xf0000000 0x1000 r\n"

VALID = [
    "cpu 1",
    "cpu 0-2,5",
    "mem 0x10000000 0x200000 rwxd",
    "mem 0x20000000 0x1000 r",
    "mmio uart 0x70006000 0x1000",
    "pci 0x0010",
    "ioport 0x3f8 0x8",
    "irq 32-34",
    "irq 40,7",
]

MALFORMED = {
    "arity": ["cpu", "cpu 1 2", "mem 0x1000 0x1000", "mmio a 0x1000", "pci",
              "ioport 0x10", "ioport 0x10 0x8 0x8", "irq"],
    "bad hex": ["mem zz 0x1000 r", "mem 0x1000 zz r", "mem -0x1000 0x1000 r",
                "mmio a 0xzz 0x1000", "pci zz", "ioport zz 0x8"],
    "bad id": ["cpu x", "cpu 1-x", "irq a,b"],
    "bad perms": ["mem 0x1000 0x1000 rq", "mem 0x1000 0x1000 rr"],
    "bad name": ["mmio a! 0x1000 0x1000", "mmio uart-controllers 0x1000 0x1000",
                 "mmio uart-controller-a 0x1000 0x1000"],
    "unaligned": ["mem 0x1001 0x1000 r", "mem 0x1000 0x1001 r", "mmio a 0x1000 0x10"],
    "out-of-range id": ["cpu -1", "cpu 4294967296", "irq 4294967296", "pci 0x10000",
                        "ioport 0xfff0 0x20", "mem 0xfffffffffffff000 0x2000 r"],
    "empty range": ["cpu 3-1", "irq 5-3", "mem 0x1000 0 r", "ioport 0x10 0"],
    "duplicate cpu": ["cpu 1,1", "cpu 0-2,2"],
    "duplicate irq": ["irq 33,33", "irq 32-34,33"],
    "unknown directive": ["flux 1"],
}
MALFORMED_CASES = [pytest.param(line, id="%s: %s" % (group, line))
                   for group, lines in MALFORMED.items() for line in lines]


def _parse_both(line, head='{head} "n"'):
    """(cell config or error, platform spec or error) for the head line,
    then line, then FILLER; {head} stands for the format's head keyword."""
    results = []
    for parse, keyword in ((parse_config, "cell"), (parse_platform, "platform")):
        try:
            results.append(parse(("%s\n%s\n%s" % (head, line, FILLER)).replace("{head}", keyword)))
        except CellSimError as exc:
            results.append(exc)
    return results


def _config_resources(cfg):
    return ({Cpu(i) for i in cfg.cpus} | set(cfg.mem) | set(cfg.devices)
            | {IrqLine(n) for n in cfg.irqs})


def _named(line, lineno=2):
    """The resources of the one (kind, items) run parse_resource gives for a line."""
    return list(layout_resources([parse_resource(split_tokens(line), lineno)]))


@pytest.mark.parametrize("line", VALID)
def test_valid_line_names_the_same_resources(line):
    cfg, spec = _parse_both(line)
    filler = {r for filler_line in FILLER.splitlines() for r in _named(filler_line, 3)}
    assert _config_resources(cfg) == set(spec.resources) == set(_named(line)) | filler


@pytest.mark.parametrize("line", VALID)
def test_a_line_is_one_run_with_cpu_and_irq_ids_as_ints(line):
    kind, items = parse_resource(split_tokens(line), 2)
    if kind in (Cpu, IrqLine):
        assert all(type(item) is int for item in items)
        assert [kind(item) for item in items] == _named(line)
    else:  # any other kind's one row is its value object's fields
        assert [kind(*item) for item in items] == _named(line)
        assert [type(item) for item in items] == [tuple]


def test_parsing_the_root_config_builds_no_cpu_or_irq_line(monkeypatch):
    # "listed twice" is checked on ints, so the 129 IRQ lines of the jetson
    # root config stay ints from the text to the config
    built = []
    for kind in (Cpu, IrqLine):
        check = kind.__init__
        monkeypatch.setattr(kind, "__init__", lambda unit, number, check=check: (
            built.append((type(unit), number)), check(unit, number))[1])
    cfg = parse_config((Path(__file__).parent.parent / "configs" / "root-jetson.cfg").read_text())
    assert built == [] and len(cfg.irqs) == 129


@pytest.mark.parametrize("line", MALFORMED_CASES)
def test_malformed_line_fails_the_same_way(line):
    from_config, from_platform = _parse_both(line)
    assert isinstance(from_config, (ConfigSyntaxError, ConfigSemanticError))
    assert type(from_config) is type(from_platform)
    assert from_config.line == from_platform.line == 2
    assert getattr(from_config, "col", None) == getattr(from_platform, "col", None)
    assert str(from_config) == str(from_platform)


@pytest.mark.parametrize("line, head, message", [
    ('{head} "m"', '{head} "n"', 'line 2: duplicate {head} directive'),
    ("cpu 1", "", 'missing {head} "<name>" directive'),
    ("", '{head} "%s"' % ("n" * 32), "line 1: {head} name longer than 31 bytes"),
    ("cpu 1\ncpu 0-1", '{head} "n"', "line 3: cpu 1 listed twice"),
    ("irq 33\nirq 32-33", '{head} "n"', "line 3: irq 33 listed twice"),
    ("pci 0x10\npci 0x10", '{head} "n"', "line 3: pci 0x10 listed twice"),
], ids=["repeated head", "missing head", "long name", "cpu twice", "irq twice", "pci twice"])
def test_head_and_unit_rules_are_the_same_in_both_formats(line, head, message):
    # a platform file refused neither a long name nor an irq listed twice
    # itself: build_platform did, without naming the line
    from_config, from_platform = _parse_both(line, head)
    for exc, keyword in ((from_config, "cell"), (from_platform, "platform")):
        assert isinstance(exc, ConfigSemanticError)
        assert str(exc) == message.replace("{head}", keyword)
    assert from_config.line == from_platform.line


def test_a_head_name_outside_the_name_rule_is_refused_at_its_column():
    from_config, from_platform = _parse_both("", '{head} "a.b"')
    assert str(from_config) == "line 1, col 6: cell name: name must match [A-Za-z0-9_-]+"
    assert str(from_platform) == "line 1, col 10: platform name: name must match [A-Za-z0-9_-]+"
    assert type(from_config) is type(from_platform) is ConfigSyntaxError


def test_name_of_31_bytes_is_read_in_both_formats():
    cfg, spec = _parse_both("", '{head} "%s"' % ("n" * 31))
    assert cfg.name == spec.name == "n" * 31


def test_build_platform_still_refuses_a_repeated_irq_built_in_code():
    with pytest.raises(DuplicateIrq, match=r"irq lines listed twice: \[33\]"):
        build_platform(PlatformSpec("p", [Cpu(0), IrqLine(33), IrqLine(32), IrqLine(33)]))


@pytest.mark.parametrize("line", MALFORMED_CASES)
def test_cli_rejects_malformed_config_line(line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text('cell "c"\n%s\n%s' % (line, FILLER))
    assert main(["--state", str(tmp_path / "s"), "check-config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: line 2")


@pytest.mark.parametrize("line", MALFORMED_CASES)
def test_cli_rejects_malformed_platform_line(line, tmp_path, capsys):
    board = tmp_path / "bad.platform"
    board.write_text('platform "p"\n%s\n%s' % (line, FILLER))
    root = tmp_path / "root.cfg"
    root.write_text('cell "root"\n' + FILLER)
    argv = ["--state", str(tmp_path / "s"), "enable",
            "--platform", str(board), "--root", str(root)]
    assert main(argv) == 1
    # the line under test, not the filler that build_platform refuses
    assert capsys.readouterr().err.startswith("error: line 2")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("line, message", [
    ("irq 0-4294967296", "irq list: range '0-4294967296' ends above 0xffffffff"),
    ("cpu 4294967295-18446744073709551616",
     "cpu list: range '4294967295-18446744073709551616' ends above 0xffffffff"),
    ("irq 0-4294967295", "irq list: more than 65536 ids in one list"),
    ("cpu 1,0-65535", "cpu list: more than 65536 ids in one list"),
])
def test_id_list_is_bounded_before_it_expands(line, message):
    with pytest.raises(ConfigSyntaxError, match=message):
        parse_resource(split_tokens(line), 2)
    for exc in _parse_both(line):
        assert isinstance(exc, ConfigSyntaxError)
        assert (exc.line, exc.col) == (2, 5)
        assert message in str(exc)


def test_id_list_limits_are_inclusive():
    kind, ids = parse_resource(split_tokens("irq 0-65535"), 1)
    assert kind is IrqLine and len(ids) == 0x10000
    assert parse_resource(split_tokens("cpu 4294967295"), 1) == (Cpu, [0xFFFFFFFF])


# (label, line, message): one malformed field of a resource directive, refused with the label
# RESOURCE_KINDS gives the field. A CPU or IRQ id list is read as `<keyword> list` and each id
# checked as the label says, with no column; a permission string is refused with no label.
FIELD_REFUSALS = [
    ("cpu index", "cpu x", "line 2, col 5: cpu list: bad id 'x'"),
    ("cpu index", "cpu 4294967296", "line 2: cpu index out of range: 4294967296"),
    ("mem base", "mem zz 0x1000 r", "line 2, col 5: mem base: expected hex number, got 'zz'"),
    ("mem size", "mem 0x1000 zz r", "line 2, col 12: mem size: expected hex number, got 'zz'"),
    ("mem perms", "mem 0x1000 0x1000 rq", "line 2, col 19: unknown permission letter 'q'"),
    ("mmio name", "mmio ua!rt 0x70006000 0x1000",
     "line 2, col 6: mmio name: name must match [A-Za-z0-9_-]+"),
    ("mmio base", "mmio uart zz 0x1000",
     "line 2, col 11: mmio base: expected hex number, got 'zz'"),
    ("mmio size", "mmio uart 0x70006000 zz",
     "line 2, col 22: mmio size: expected hex number, got 'zz'"),
    ("pci bdf", "pci zz", "line 2, col 5: pci bdf: expected hex number, got 'zz'"),
    ("ioport base", "ioport zz 0x8", "line 2, col 8: ioport base: expected hex number, got 'zz'"),
    ("ioport len", "ioport 0x3f8 zz",
     "line 2, col 14: ioport len: expected hex number, got 'zz'"),
    ("irq number", "irq a", "line 2, col 5: irq list: bad id 'a'"),
    ("irq number", "irq 4294967296", "line 2: irq number out of range: 4294967296"),
]


@pytest.mark.parametrize("label, line, message", FIELD_REFUSALS,
                         ids=[line for _, line, _ in FIELD_REFUSALS])
def test_a_malformed_field_is_refused_with_its_label_in_both_formats(label, line, message):
    for exc in _parse_both(line):
        assert type(exc) is (ConfigSyntaxError if ", col " in message else ConfigSemanticError)
        assert str(exc) == message


def test_every_field_of_every_resource_directive_has_a_refusal():
    labels = [label for _, fields, _ in RESOURCE_KINDS.values() for label, _ in fields]
    assert sorted(set(label for label, _, _ in FIELD_REFUSALS)) == sorted(labels)


# 17 bytes; the binary config's 16-byte name field holds 15 and a NUL
LONG_MMIO = "mmio uart-controller-a 0x70006000 0x1000"


def test_mmio_name_longer_than_15_bytes_is_refused_in_both_formats():
    message = "line 2: mmio device name 'uart-controller-a' longer than 15 bytes"
    with pytest.raises(ConfigSemanticError, match=message):
        parse_resource(split_tokens(LONG_MMIO), 2)
    for exc in _parse_both(LONG_MMIO):
        assert isinstance(exc, ConfigSemanticError)
        assert str(exc) == message
    kind, fits = parse_resource(split_tokens("mmio uart-controller 0x70006000 0x1000"), 2)
    assert kind is MmioDevice and fits == [("uart-controller", 0x70006000, 0x1000)]


def test_cli_refuses_long_mmio_name_before_enable(tmp_path, capsys):
    # both commands refuse the name while parsing, so check-config cannot
    # pass a root config that enable then fails to save
    text = "cpu 0\nmem 0x10000000 0x100000 rw\n%s\n" % LONG_MMIO
    board = tmp_path / "board.platform"
    board.write_text('platform "p"\n' + text)
    root = tmp_path / "root.cfg"
    root.write_text('cell "root"\n' + text)
    state = str(tmp_path / "s")
    assert main(["--state", state, "check-config", str(root), "--platform", str(board)]) == 1
    assert capsys.readouterr().err == (
        "error: line 4: mmio device name 'uart-controller-a' longer than 15 bytes\n")
    assert main(["--state", state, "enable", "--platform", str(board),
                 "--root", str(root)]) == 1
    assert capsys.readouterr().err == (
        "error: line 4: mmio device name 'uart-controller-a' longer than 15 bytes\n")
    assert not (tmp_path / "s").exists()


def loop_split_tokens(line):
    """split_tokens as a character loop, the form the regex replaced."""
    tokens = []
    i = 0
    n = len(line)
    while i < n:
        if line[i] == "#":
            break
        if line[i].isspace():
            i += 1
            continue
        start = i
        while i < n and not line[i].isspace() and line[i] != "#":
            i += 1
        tokens.append((line[start:i], start + 1))
    return tokens


# '#', quotes, ASCII and non-ASCII letters, and ASCII and Unicode whitespace
TOKEN_ALPHABET = st.sampled_from(list(
    "ab0x_-=,#\"'" "\u00e9\u00df\u03a9\u0416\u4e2d"
    " \t\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u202f\u3000"))


@given(line=st.text(TOKEN_ALPHABET, max_size=40) | st.text(max_size=40))
@example(line=' mem\x0b0x10 "a\xa0b"#c d')
@example(line="cpu\u30001 # \x85irq 2")
def test_split_tokens_matches_the_character_loop(line):
    assert split_tokens(line) == loop_split_tokens(line)
