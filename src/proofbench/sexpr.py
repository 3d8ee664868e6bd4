"""Small S-expression reader/writer shared by every file format in the workbench.

Values are nested Python lists whose atoms are ints, symbols (plain str) and
quoted strings (wrapped in Str so that `foo` and `"foo"` stay distinct).
"""

from __future__ import annotations

from dataclasses import dataclass


class SexprError(ValueError):
    """Raised on malformed input; carries line/column of the offending token."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Str:
    """A double-quoted string atom (as opposed to a bare symbol)."""

    value: str


_DELIMS = set(' \t\n\r()";')


def tokenize(text: str):
    line, col = 1, 0
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col + 1
        if c in "()":
            yield (c, None, start_line, start_col)
            i += 1
            col += 1
            continue
        if c == '"':
            i += 1
            col += 1
            buf = []
            while True:
                if i >= n:
                    raise SexprError("unterminated string", start_line, start_col)
                c = text[i]
                if c == "\\":
                    if i + 1 >= n:
                        raise SexprError("dangling escape", line, col + 1)
                    buf.append(text[i + 1])
                    i += 2
                    col += 2
                elif c == '"':
                    i += 1
                    col += 1
                    break
                elif c == "\n":
                    raise SexprError("newline in string", line, col + 1)
                else:
                    buf.append(c)
                    i += 1
                    col += 1
            yield ("str", "".join(buf), start_line, start_col)
            continue
        j = i
        while j < n and text[j] not in _DELIMS:
            j += 1
        word = text[i:j]
        col += j - i
        i = j
        yield ("atom", word, start_line, start_col)


def _atom(word: str):
    try:
        return int(word)
    except ValueError:
        return word


def parse(text: str):
    """Parse exactly one S-expression; trailing garbage is an error."""
    items = parse_many(text)
    if len(items) != 1:
        raise SexprError(f"expected one expression, found {len(items)}", 1, 1)
    return items[0]


def parse_many(text: str):
    stack: list[list] = []
    top: list = []
    last_line, last_col = 1, 1
    for kind, value, line, col in tokenize(text):
        last_line, last_col = line, col
        if kind == "(":
            stack.append(top)
            top = []
        elif kind == ")":
            if not stack:
                raise SexprError("unbalanced ')'", line, col)
            done = top
            top = stack.pop()
            top.append(done)
        elif kind == "str":
            top.append(Str(value))
        else:
            top.append(_atom(value))
    if stack:
        raise SexprError("unbalanced '('", last_line, last_col)
    return top


def describe(value) -> str:
    """Name a value's head and arity for an error message.

    A list is never printed whole: malformed input can nest far deeper than
    `repr` or `dump` can recurse.
    """
    if not isinstance(value, list):
        return repr(value)
    if not value:
        return "()"
    head = "a list" if isinstance(value[0], list) else repr(value[0])
    return f"({head} ...) with {len(value) - 1} argument(s)"


def dump(value) -> str:
    if isinstance(value, list):
        return "(" + " ".join(dump(v) for v in value) + ")"
    if isinstance(value, Str):
        escaped = value.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, bool):
        raise TypeError("booleans have no S-expression form")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        if not value or any(ch in _DELIMS for ch in value):
            raise TypeError(f"not a valid symbol: {value!r}")
        return value
    raise TypeError(f"cannot dump {type(value).__name__}")
