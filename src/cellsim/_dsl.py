"""Lexical helpers shared by the line-oriented config formats.

Both the cell DSL and the platform DSL are line-based: one directive
per line, `#` starts a comment, blank lines are ignored.  Tokens are
whitespace-separated; the first token is the directive keyword.
"""

from __future__ import annotations

import re
from typing import Iterator

from .errors import ConfigSyntaxError

NAME_RE = re.compile(r"[A-Za-z0-9_-]+\Z")

Token = tuple[str, int]  # (text, 1-based column)


def split_tokens(line: str) -> list[Token]:
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


def iter_directives(text: str) -> Iterator[tuple[int, list[Token]]]:
    """Yield (1-based line number, tokens) for every non-empty line."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = split_tokens(line)
        if tokens:
            yield lineno, tokens


def parse_hex(token: Token, lineno: int, what: str) -> int:
    text, col = token
    try:
        value = int(text, 16)
    except ValueError:
        raise ConfigSyntaxError(lineno, col, "%s: expected hex number, got %r" % (what, text))
    if value < 0:
        raise ConfigSyntaxError(lineno, col, "%s must not be negative" % what)
    return value


def parse_dec(token: Token, lineno: int, what: str) -> int:
    text, col = token
    try:
        value = int(text, 10)
    except ValueError:
        raise ConfigSyntaxError(lineno, col, "%s: expected decimal number, got %r" % (what, text))
    if value < 0:
        raise ConfigSyntaxError(lineno, col, "%s must not be negative" % what)
    return value


def parse_id_list(token: Token, lineno: int, what: str) -> list[int]:
    """Parse `2,3` or `32-160` or mixed `0-1,3` into a list of ints."""
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
            ids.extend(range(lo, hi + 1))
        else:
            try:
                ids.append(int(part, 10))
            except ValueError:
                raise ConfigSyntaxError(lineno, col, "%s: bad id %r" % (what, part))
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
