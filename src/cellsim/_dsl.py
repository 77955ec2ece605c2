"""Lexical helpers shared by the line-oriented config formats.

Both the cell DSL and the platform DSL are line-based: one directive
per line, `#` starts a comment, blank lines are ignored.  Tokens are
whitespace-separated; the first token is the directive keyword.
"""

from __future__ import annotations

import re
from typing import Iterator

from .errors import ConfigSyntaxError, InvariantViolation

NAME_RE = re.compile(r"[A-Za-z0-9_-]+\Z")
_TOKEN_RE = re.compile(r"[^\s#]+")

Token = tuple[str, int]  # (text, 1-based column)


def decode_utf8(raw: bytes, what: str) -> str:
    """Decode text read from a file or a byte stream; bad bytes are a domain error."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise InvariantViolation("%s is not valid UTF-8" % what)


def split_tokens(line: str) -> list[Token]:
    return [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line.partition("#")[0])]


def iter_directives(text: str) -> Iterator[tuple[int, list[Token]]]:
    """Yield (1-based line number, tokens) for every non-empty line."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = split_tokens(line)
        if tokens:
            yield lineno, tokens


def parse_number(token: Token, lineno: int, what: str, base: int = 16) -> int:
    text, col = token
    try:
        value = int(text, base)
    except ValueError:
        raise ConfigSyntaxError(lineno, col, "%s: expected %s number, got %r"
                                % (what, "hex" if base == 16 else "decimal", text))
    if value < 0:
        raise ConfigSyntaxError(lineno, col, "%s must not be negative" % what)
    return value


MAX_ID = 0xFFFFFFFF
MAX_LIST_IDS = 0x10000


def parse_id_list(token: Token, lineno: int, what: str) -> list[int]:
    """Parse `2,3` or `32-160` or mixed `0-1,3` into a list of ints.

    A range may not end above MAX_ID, and a list may not name more than
    MAX_LIST_IDS ids; both are refused before the range is expanded.
    """
    text, col = token
    ids: list[int] = []
    for part in text.split(","):
        if "-" in part[1:]:  # allow plain negatives to fail below
            lo_s, _, hi_s = part.partition("-")
            try:
                lo, hi = int(lo_s, 10), int(hi_s, 10)
            except ValueError:
                raise ConfigSyntaxError(lineno, col, "%s: bad range %r" % (what, part))
            if hi < lo:
                raise ConfigSyntaxError(lineno, col, "%s: empty range %r" % (what, part))
            if hi > MAX_ID:
                raise ConfigSyntaxError(
                    lineno, col, "%s: range %r ends above 0x%x" % (what, part, MAX_ID))
            new_ids = range(lo, hi + 1)
        else:
            try:
                new_ids = (int(part, 10),)
            except ValueError:
                raise ConfigSyntaxError(lineno, col, "%s: bad id %r" % (what, part))
        if len(ids) + len(new_ids) > MAX_LIST_IDS:
            raise ConfigSyntaxError(
                lineno, col, "%s: more than %d ids in one list" % (what, MAX_LIST_IDS))
        ids.extend(new_ids)
    return ids


def parse_quoted_name(token: Token, lineno: int, what: str) -> str:
    text, col = token
    if len(text) < 2 or text[0] != '"' or text[-1] != '"':
        raise ConfigSyntaxError(lineno, col, '%s: expected quoted name, got %r' % (what, text))
    name = text[1:-1]
    if not NAME_RE.match(name):
        raise ConfigSyntaxError(lineno, col, "%s: name must match [A-Za-z0-9_-]+" % what)
    return name


def parse_plain_name(token: Token, lineno: int, what: str) -> str:
    text, col = token
    if not NAME_RE.match(text):
        raise ConfigSyntaxError(lineno, col, "%s: name must match [A-Za-z0-9_-]+" % what)
    return text


def require_args(tokens: list[Token], lineno: int, count: int) -> None:
    keyword, col = tokens[0]
    if len(tokens) - 1 != count:
        raise ConfigSyntaxError(
            lineno, col,
            "%s takes %d argument%s, got %d"
            % (keyword, count, "" if count == 1 else "s", len(tokens) - 1))
