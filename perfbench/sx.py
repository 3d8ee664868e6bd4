"""The benchmark's own S-expression reader and writer.

Kept apart from `proofbench.sexpr` so that the inputs the benchmark writes
and the answers it checks do not depend on the program under test.  Atoms
are ints, symbols (str) and quoted strings (Q).  Parsing is iterative, so
deeply nested inputs such as the `rep` tower parse here even where the
program's own codecs recurse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Q:
    """A double-quoted string atom."""

    value: str


_TOKEN = re.compile(r'\s+|;[^\n]*|(\()|(\))|"((?:[^"\\\n]|\\.)*)"|([^\s()";]+)')


def parse(text: str):
    """Parse exactly one expression."""
    stack: list[list] = [[]]
    pos = 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            raise ValueError(f"bad character at offset {pos}")
        pos = m.end()
        opened, closed, quoted, word = m.groups()
        if opened:
            stack.append([])
        elif closed:
            if len(stack) == 1:
                raise ValueError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        elif quoted is not None:
            stack[-1].append(Q(re.sub(r"\\(.)", r"\1", quoted)))
        elif word is not None:
            stack[-1].append(int(word) if re.fullmatch(r"-?\d+", word) else word)
    if pos != len(text):
        raise ValueError(f"bad character at offset {pos}")
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError("expected exactly one expression")
    return stack[0][0]


def dump(x) -> str:
    if isinstance(x, list):
        return "(" + " ".join(dump(v) for v in x) + ")"
    if isinstance(x, Q):
        return '"' + x.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return str(x)
