"""Small S-expression reader/writer shared by every file format in the workbench.

Values are nested Python lists whose atoms are ints, symbols (plain str) and
quoted strings (wrapped in Str so that `foo` and `"foo"` stay distinct).
Above them sit the term languages (codes, formulas, terms, ordering specs):
each is a `Sort` with a shape table, read by `read` and written by `write`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .ordinals import MAX_NESTING


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
        if not value or not _DELIMS.isdisjoint(value):
            raise TypeError(f"not a valid symbol: {value!r}")
        return value
    raise TypeError(f"cannot dump {type(value).__name__}")


# --- term languages ----------------------------------------------------------------
#
# Every term language is a Sort.  Its shape table gives each class its head
# and the role of each field; a class's fields, in declaration order, are the
# head's arguments.  An atom class (a numeral, a variable) has a type for a
# head: the S-expression atom it is written as, its one field.  Each layer
# keeps its own table; one reader and one writer serve them all.

REST = "rest"  # the field is the rest of the arguments, read into a frozenset
ENTRIES = "entries"  # the field is one list of (index node) entries, a tuple of pairs


class Role(NamedTuple):
    """How a field is written and read.

    A leaf role converts the field; `decode` returns None for an
    S-expression that does not fit.  A node role names the sort of the term
    it holds instead.  `many` (REST or ENTRIES) makes the field a collection
    of such leaves or nodes; REST collections are written in order, leaves
    by value and nodes by text.
    """

    encode: Callable | None = None
    decode: Callable | None = None
    sort: Sort | None = None
    many: str | None = None


class Sort:
    """A term language: its shapes, its name and error for messages, and
    whether its terms nest at most `MAX_NESTING` parentheses deep."""

    def __init__(self, name: str, error: type[ValueError], bounded: bool = True):
        self.name = name
        self.error = error
        self.bounded = bounded
        self.shapes: dict[type, tuple] = {}
        self.by_head: dict = {}

    def define(self, shapes: dict[type, tuple]):
        """Add classes with their (head, roles)."""
        for cls, (head, roles) in shapes.items():
            self.shapes[cls] = (head, roles)
            self.by_head[head] = (cls, roles, roles[-1].many is REST)


def _int(x):
    return x if type(x) is int else None


def _nat(x):
    return x if type(x) is int and x >= 0 else None


def _symbol(x):
    return x if type(x) is str else None


INT = Role(int, _int)
NATURAL = Role(int, _nat)
SYMBOL = Role(str, _symbol)


def write(sort: Sort, value):
    """The S-expression of a term of `sort`."""
    shape = sort.shapes.get(type(value))
    if shape is None:
        raise sort.error(f"not {sort.name}: a {type(value).__name__}")
    head, roles = shape
    # a sequent, a frozenset, is its own one field
    fields = (value,) if type(value) is frozenset else value.__dict__.values()
    if type(head) is type:
        return roles[0].encode(*fields)
    out = [head]
    i = 0  # a counter, as zip() and enumerate() made this loop slower
    for field in fields:
        role = roles[i]
        i += 1
        if role.many is None:
            out.append(role.encode(field) if role.sort is None else write(role.sort, field))
        elif role.many is ENTRIES:
            out.append([[j, write(role.sort, c)] for j, c in field])
        elif role.sort is None:
            out.extend(map(role.encode, sorted(field)))
        else:
            out.extend(sorted((write(role.sort, v) for v in field), key=dump))
    return out


def _read_atom(sort: Sort, x):
    shape = sort.by_head.get(type(x))
    value = None if shape is None else shape[1][0].decode(x)
    if value is None:
        raise sort.error(f"not {sort.name}: {describe(x)}")
    return shape[0](value)


def read(sort: Sort, x):
    """The term of `sort` that the S-expression x writes.

    Fields are read off an explicit stack rather than by recursion, so codes
    may nest as deep as memory allows; a term of a bounded sort, with the
    terms of other bounded sorts inside it, more than `MAX_NESTING`
    parentheses deep is rejected with its sort's error.  Each list pushes a
    build step (argument list, constructor, and the slot its value goes to)
    under its subterms, so it is built as soon as they are.
    """
    out = [None]
    todo = [(x, sort, out, 0, 0)]
    while todo:
        x, sort, dest, slot, depth = todo.pop()
        if depth is None:  # a build step: x holds the arguments, sort the constructor
            dest[slot] = sort(*x)
            continue
        if type(x) is not list:
            dest[slot] = _read_atom(sort, x)
            continue
        if sort.bounded:
            depth += 1
            if depth > MAX_NESTING:
                raise sort.error(f"{sort.name} nests deeper than {MAX_NESTING} levels")
        shape = sort.by_head.get(x[0]) if x and type(x[0]) is str else None
        # a REST field takes any number of arguments, none included
        if shape is None or len(x) - 1 != len(shape[1]) and not (shape[2] and len(x) >= len(shape[1])):
            raise sort.error(f"not {sort.name}: {describe(x)}")
        cls, roles, rest = shape
        args = x[1:]
        if rest:
            i = len(roles) - 1
            args[i:] = [args[i:]]
        todo.append((args, cls, dest, slot, None))
        i = 0
        for _, decode, sub, many in roles:
            arg = args[i]
            if many is None:
                if sub is None:
                    args[i] = decode(arg)
                    if args[i] is None:
                        raise sort.error(f"not {sort.name}: {describe(x)}, bad argument {describe(arg)}")
                elif type(arg) is list:
                    todo.append((arg, sub, args, i, depth))
                else:  # an atom needs no trip through the stack
                    args[i] = _read_atom(sub, arg)
            elif many is ENTRIES:
                if type(arg) is not list:
                    raise sort.error(f"not {sort.name}: {describe(x)}, bad entries {describe(arg)}")
                pairs = []
                # map() is lazy, so each pair is frozen after its node is built
                todo.append(([map(tuple, pairs)], tuple, args, i, None))
                for e in arg:
                    if not (type(e) is list and len(e) == 2 and type(e[0]) is int):
                        raise sort.error(f"not {sort.name}: {describe(x)}, bad entry {describe(e)}")
                    pairs.append([e[0], e[1]])
                    todo.append((e[1], sub, pairs[-1], 1, depth))
            elif sub is None:
                values = [decode(a) for a in arg]
                if None in values:
                    raise sort.error(f"not {sort.name}: {describe(x)}, bad argument {describe(arg[values.index(None)])}")
                args[i] = frozenset(values)
            else:
                todo.append(([arg], frozenset, args, i, None))
                j = 0
                for item in arg:
                    todo.append((item, sub, arg, j, depth))
                    j += 1
            i += 1
    return out[0]
