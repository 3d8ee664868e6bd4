"""Small S-expression reader/writer shared by every file format in the workbench.

`parse` reads text into nested Python lists whose atoms are ints, symbols
(plain str) and quoted strings (wrapped in Str so that `foo` and `"foo"` stay
distinct).  The lists are shared and read-only: equal atoms and equal lists
are one object, so a text that repeats a subterm reads as a DAG, and no
caller may change a list it is given.  Above them sit the term languages
(codes, formulas, terms, ordering specs): each is a `Sort` with a shape
table, read from those lists by `read` and written straight to text by
`write`.  `read` builds one term per list, sort and nesting depth, so equal
code subterms are one object; equal formulas met at two depths are equal
but distinct objects.  Their classes, and the verbs' records, are `term`s:
frozen value classes with slots and a hash computed at construction.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Callable, NamedTuple

from .ordinals import MAX_NESTING, frozen, stored_hash


class SexprError(ValueError):
    """Raised on malformed input; carries line/column of the offending token."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_ATOM_CHAR = r'[^ \t\n\r()";]'  # any character but a delimiter
_VALID_SYMBOL = re.compile(f"{_ATOM_CHAR}+")
_STRING_BODY = re.compile(r'(?:[^"\\\n]|\\[\s\S])*')
# One token per match, told apart by the group that matched.  A comment
# matches with no group, and blanks match nothing.
_OPEN, _CLOSE, _SYMBOL, _ATOM, _STRING, _BAD_QUOTE = range(1, 7)
_TOKEN = re.compile(
    r'(\()|(\))'
    rf'|([^ \t\n\r()";\d]+)(?!{_ATOM_CHAR})'  # an atom with no digit: a symbol, as int() cannot read it
    rf'|({_ATOM_CHAR}+)'
    rf'|"({_STRING_BODY.pattern})"'
    r'|(")'  # a quote that opens no well-formed string
    r'|;.*'
)
_ESCAPE = re.compile(r"\\([\s\S])")
_NUMERAL = re.compile(r"-?[0-9]+")  # an atom that int() refuses only for its length


def parse(text: str):
    """Parse exactly one S-expression; trailing garbage is an error."""
    items = parse_many(text)
    if len(items) != 1:
        raise SexprError(f"expected one expression, found {len(items)}", 1, 1)
    return items[0]


# A list closed at least _KEY characters long is filed under its first _KEY
# characters, to be found again at a `(` whose text starts the same way.
_KEY = 32
_SPAN = 4096  # the most characters copied to compare a repeated text


def parse_many(text: str):
    """The S-expressions of `text`, as shared, read-only lists.

    Equal atoms are one object, and so are equal lists: a list is shared as
    it is closed, keyed by the identities of its elements, which are shared
    already.  Text already read is not read again: at each `(`, a list
    closed earlier whose text starts the same way is looked up, and if the
    text here starts with that list's whole text, the list is taken and its
    text jumped over.  A list's text is balanced and ends in a delimiter,
    with its strings and comments wholly inside, so equal text reads as the
    same list, and a fault is found where a scan of every token finds it.

    Scanning stays linear in the text.  A repeat is looked for only while
    the characters spent comparing texts that did not repeat are no more
    than the offset reached, so that near-copies nested in one another (two
    deep chains that differ only at the bottom) are not compared again at
    every level.  Every table lives for the one call.
    """
    atoms: dict[str, object] = {}  # token text -> its atom
    lists: dict[tuple, list] = {}  # identities of the elements -> the one list of them
    closed: dict[str, tuple] = {}  # first _KEY characters -> (a list, where its text starts, its length)
    stack: list[tuple[list, int]] = []
    top: list = []
    pos = 0
    spent = 0  # characters compared with lists whose text did not repeat
    while True:
        for m in _TOKEN.finditer(text, pos):
            kind = m.lastindex
            if kind == _OPEN:
                at = m.start()
                seen = closed.get(text[at:at + _KEY]) if spent <= at else None
                if seen is not None:
                    done, start, length = seen
                    agreed = _agree(text, at, start, length)
                    if agreed == length:
                        top.append(done)
                        pos = at + length
                        break
                    spent += agreed
                stack.append((top, at))
                top = []
            elif kind == _CLOSE:
                if not stack:
                    raise _fault(text, m.start(), "unbalanced ')'")
                done = lists.setdefault(tuple(map(id, top)), top)
                top, start = stack.pop()
                top.append(done)
                length = m.end() - start
                if length >= _KEY:
                    closed[text[start:start + _KEY]] = (done, start, length)
            elif kind is not None:  # an atom; a comment matches no group
                word = m[0]
                atom = atoms.get(word)
                if atom is None:
                    atom = atoms[word] = _atom(text, m, kind)
                top.append(atom)
        else:
            break
    if stack:
        last = max(m.start() for m in _TOKEN.finditer(text) if m.lastindex)
        raise _fault(text, last, "unbalanced '('")
    return top


def _agree(text: str, at: int, start: int, length: int) -> int:
    """How many of the `length` characters at `at` are seen to repeat those
    at `start`: all of them, or those before the slice that differs.

    The first _KEY characters are the key, equal already.  The slices grow
    from _KEY to _SPAN characters, so a text that differs early costs little
    and none copies more than _SPAN characters.
    """
    done, span = _KEY, _KEY
    while done < length:
        end = min(done + span, length)
        if not text.startswith(text[start + done:start + end], at + done):
            return done
        done, span = end, min(2 * span, _SPAN)
    return length


def _atom(text: str, m: re.Match, kind: int):
    """The atom that the token `m` of kind `kind` writes."""
    if kind == _SYMBOL:
        return m[kind]
    if kind == _STRING:
        body = m[kind]
        return Str(_ESCAPE.sub(r"\1", body) if "\\" in body else body)
    if kind == _BAD_QUOTE:
        end = _STRING_BODY.match(text, m.end()).end()
        if end == len(text):
            raise _fault(text, m.start(), "unterminated string")
        raise _fault(text, end, "dangling escape" if text[end] == "\\" else "newline in string")
    word = m[kind]
    try:
        n = int(word)
    except ValueError:
        if _NUMERAL.fullmatch(word):
            digits = len(word.lstrip("-"))
            raise _fault(text, m.start(), f"a {digits}-digit numeral is too long to read") from None
        return word
    # int() also reads signs, underscores, other scripts' digits and blanks;
    # a numeral has the one spelling the writer gives it
    if repr(n) != word:
        raise _fault(text, m.start(), f"not a canonical numeral: {word!r}")
    return n


def _fault(text: str, at: int, message: str) -> SexprError:
    """The error at offset `at`; only here are line and column worked out."""
    return SexprError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


def describe(value) -> str:
    """Name a value's head and arity for an error message.

    A list is never printed whole: malformed input can nest far deeper than
    `repr` can recurse.
    """
    if type(value) is not list:
        return repr(value)
    if not value:
        return "()"
    head = "a list" if type(value[0]) is list else repr(value[0])
    return f"({head} ...) with {len(value) - 1} argument(s)"


def quote(s: str) -> str:
    """The text of a string atom."""
    escaped = s.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _symbol_text(s: str) -> str:
    if type(s) is not str or not _VALID_SYMBOL.fullmatch(s):
        raise TypeError(f"not a valid symbol: {s!r}")
    return s


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

    A leaf role converts the field: `encode` gives its text, and `decode`
    returns None for an S-expression that does not fit.  A node role names
    the sort of the term it holds instead.  `many` (REST or ENTRIES) makes
    the field a collection of such leaves or nodes; REST collections are
    written in order, leaves by value and nodes by text.
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
        """Add classes with their (head, roles).  Each class's shape also
        keeps a function that gives a value's fields as a tuple, in order."""
        for cls, (head, roles) in shapes.items():
            self.shapes[cls] = (head, roles, _field_getter(cls))
            self.by_head[head] = (cls, roles, roles[-1].many is REST)


def _field_getter(cls: type) -> Callable:
    if cls is frozenset:  # a sequent is its own one field
        return lambda value: (value,)
    get = attrgetter(*cls.__match_args__)
    return get if len(cls.__match_args__) > 1 else lambda value: (get(value),)


def term(cls: type) -> type:
    """A frozen value class with slots, built once from `cls`: its fields
    are the names `cls` annotates, in order, named by `__match_args__`, and
    a value the class body gives one is its default.  `==`, hash and repr
    are those of `dataclass(frozen=True)`; setting or deleting a field
    raises `dataclasses.FrozenInstanceError`.  The hash, of the tuple of
    the fields, is set at construction, before the term can be shared, so
    it needs no lock; term fields give their stored hashes, so a term of
    any size, a DAG included, hashes in constant time.  One `exec` compiles
    `__init__`, which sets the fields and the hash through their slots, and
    `__eq__`."""
    names = tuple(cls.__annotations__)
    body = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    scope = {f"_default_{name}": body.pop(name) for name in names if name in body}
    body.update(__slots__=(*names, "_hash"), __qualname__=cls.__qualname__, __match_args__=names,
                __hash__=stored_hash, __repr__=_term_repr, __setattr__=frozen, __delattr__=frozen)
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    scope.update((f"_set_{name}", cls.__dict__[name].__set__) for name in cls.__slots__)
    params = ", ".join(f"{name}=_default_{name}" if f"_default_{name}" in scope else name for name in names)
    values, mine, theirs = ("(" + "".join(f"{o}{name}, " for name in names) + ")" for o in ("", "self.", "other."))
    exec("\n".join([
        f"def __init__(self, {params}):",
        *(f"    _set_{name}(self, {name})" for name in names),
        f"    _set__hash(self, hash({values}))",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return {mine} == {theirs}",
        "    return NotImplemented",
    ]), scope)
    cls.__init__, cls.__eq__ = scope["__init__"], scope["__eq__"]
    return cls


def _term_repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def replace(value, /, **changes):
    """A copy of the term `value` with the fields named in `changes` set to
    their values there, as `dataclasses.replace` makes it."""
    return value.__class__(**{name: getattr(value, name) for name in value.__match_args__} | changes)


@term
class Str:
    """A double-quoted string atom (as opposed to a bare symbol)."""

    value: str


def _int(x):
    return x if type(x) is int else None


def _nat(x):
    return x if type(x) is int and x >= 0 else None


def _symbol(x):
    return x if type(x) is str else None


# int.__repr__ writes a bool as 1 or 0 and refuses any other non-int
INT = Role(int.__repr__, _int)
NATURAL = Role(int.__repr__, _nat)
SYMBOL = Role(_symbol_text, _symbol)


def write(sort: Sort, value) -> str:
    """The text of a term of `sort`, written in order into one list of
    pieces and joined once, off an explicit stack as `read` reads: codes of
    any depth write without recursion.  A term met again, equal in value and
    in the same sort, takes the text of its first occurrence, joined from
    its pieces at the first repeat, so only repeated terms keep a text of
    their own.  Each object is compared by value once, then found by
    identity.  REST members are written to pieces of their own and sorted.
    """
    memo: dict[tuple, list] = {}  # (term, sort) -> [its pieces, their slice], then its text once repeated
    seen: dict[tuple, list] = {}  # (id(term), sort) -> its memo entry
    todo = [(value, sort, out := [], "")]  # each step with the piece before it
    while todo:
        value, sort, dest, piece = todo.pop()
        dest.append(piece)
        if sort is None:  # a list's end: value holds its memo entry and where its pieces start
            entry, start = value
            entry += dest, slice(start, len(dest))
            continue
        if sort is REST:  # value holds the pieces of each member of a REST field
            dest.extend(sorted(map("".join, value)))
            continue
        shape = sort.shapes.get(type(value))
        if shape is None:
            raise sort.error(f"not {sort.name}: a {type(value).__name__}")
        head, roles, get = shape
        if type(head) is type:
            dest.append(roles[0].encode(*get(value)))
            continue
        entry = seen.get((id(value), sort))
        if entry is None:  # an object not met before: look for an equal term, once
            entry = seen[id(value), sort] = memo.setdefault((value, sort), [])
        if entry:  # written before
            if len(entry) == 2:
                entry.append("".join(entry[0][entry[1]]))
            dest.append(entry[2])
            continue
        steps, text = [], "(" + head  # steps in order; text is the piece not yet taken
        i = 0  # a counter, as zip() and enumerate() made this loop slower
        for field in get(value):
            role = roles[i]
            i += 1
            if role.many is None:
                if role.sort is None:
                    text += " " + role.encode(field)
                else:
                    steps.append((field, role.sort, dest, text + " "))
                    text = ""
            elif role.many is ENTRIES:
                text += " ("
                for index, node in field:
                    steps.append((node, role.sort, dest, f"{text}({int.__repr__(index)} "))
                    text = ") "
                text = (")" if field else text) + ")"
            elif role.sort is None:
                text += "".join(" " + t for t in map(role.encode, sorted(field)))
            else:  # REST, the last field; each member's pieces start with a space
                members = [[] for _ in field]
                steps += zip(field, [role.sort] * len(field), members, [" "] * len(field))
                steps.append((members, REST, dest, text))
                text = ""
        steps.append(((entry, len(dest)), None, dest, text + ")"))
        steps.reverse()
        todo += steps
    return "".join(out)


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
    build step (its parts, how to build them, and the slot its value goes
    to) under its subterms, so it is built as soon as they are.

    `parse` gives equal texts one list, and each list is read once per sort
    and depth: a table local to the call maps (id(list), sort, depth) to the
    term built from it.  So a certificate that repeats a sub-derivation reads
    as a DAG: codes are unbounded and always read at depth 0, so equal code
    subterms are one object.  The depth is in the key as the MAX_NESTING
    check depends on it, so equal formulas met at two depths are equal but
    distinct objects.  x keeps every list alive, so no identity in a key is
    reused.
    """
    done: dict[tuple, object] = {}
    out = [None]
    todo = [(x, sort, out, 0, 0)]
    while todo:
        x, sort, dest, slot, depth = todo.pop()
        if depth is None:  # a build step: x holds the parts, built already
            if sort is REST:  # the subterms of a REST field
                value = frozenset(x)
            elif sort is ENTRIES:  # the [index, subterm] pairs of an ENTRIES field
                value = tuple(map(tuple, x))
            else:  # a class, and the key of the list read
                cls, read_key = sort
                value = done[read_key] = cls(*x)
            dest[slot] = value
            continue
        if type(x) is not list:
            dest[slot] = _read_atom(sort, x)
            continue
        read_key = (id(x), sort, depth)
        value = done.get(read_key)
        if value is not None:
            dest[slot] = value
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
        todo.append((args, (cls, read_key), dest, slot, None))
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
                todo.append((pairs, ENTRIES, args, i, None))
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
                todo.append((arg, REST, args, i, None))
                j = 0
                for item in arg:
                    todo.append((item, sub, arg, j, depth))
                    j += 1
            i += 1
    return out[0]
