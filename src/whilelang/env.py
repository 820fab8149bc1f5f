"""Leveled variable and procedure stores.

Both stores are non-empty stacks of frames; the first frame is the global
scope and the last is the deepest, most recently opened level. A frame is
the tuple of its `(name, value)` bindings in the order they were declared,
and only this module reads or builds one. Every operation returns fresh
values, inputs are never mutated.

Lookup and update bind to the deepest frame containing the name; a
declaration targets the deepest frame only and refuses a name already bound
there, so shadowing across levels is allowed while redeclaration within a
level is not. The procedure store binds bodies the same way, so
`declare_proc` and `lookup_proc` are the functions `declare_var` and
`lookup_var`. A failed operation raises an `EnvError`, which the semantics
turns into a stuck redex.
"""

from __future__ import annotations

from typing import Callable

from .parser import is_identifier
from .syntax import (
    FALSE, MAX_NUMERAL_DIGITS, TRUE, NatLit, Value, VoidV, pretty, record,
    value_text,
)


class EnvError(Exception):
    pass


class RedeclError(EnvError):
    """Name already bound in the deepest frame."""


class UnboundError(EnvError):
    """No frame binds the name."""


class ScopeError(EnvError):
    """Attempt to pop the global scope."""


@record
class Env:
    frames: tuple[tuple[tuple[str, object], ...], ...] = ((),)

    def depth(self) -> int:
        return len(self.frames)


def push_scope(store: Env, procs: Env) -> tuple[Env, Env]:
    """Open a new empty level on both stores."""
    return (Env(store.frames + ((),)), Env(procs.frames + ((),)))


def pop_scope(store: Env, procs: Env) -> tuple[Env, Env]:
    """Discard the deepest level of both stores; the global scope stays."""
    if store.depth() == 1 or procs.depth() == 1:
        raise ScopeError("cannot pop the global scope")
    return (Env(store.frames[:-1]), Env(procs.frames[:-1]))


def declare_var(store: Env, name: str, value) -> Env:
    """Bind `name` in the deepest frame, which must not bind it yet."""
    deepest = store.frames[-1]
    for key, _ in deepest:
        if key == name:
            raise RedeclError(name)
    return Env(store.frames[:-1] + (deepest + ((name, value),),))


def update_var(store: Env, name: str, value: Value) -> Env:
    """Rebind the deepest occurrence of `name`; never creates a binding."""
    frames = store.frames
    for i in range(len(frames) - 1, -1, -1):
        frame = frames[i]
        for j, (key, _) in enumerate(frame):
            if key == name:
                return Env(frames[:i]
                           + (frame[:j] + ((name, value),) + frame[j + 1:],)
                           + frames[i + 1:])
    raise UnboundError(name)


def lookup_var(store: Env, name: str):
    """The value of the deepest binding of `name`."""
    for frame in reversed(store.frames):
        for key, value in frame:
            if key == name:
                return value
    raise UnboundError(name)


declare_proc = declare_var
lookup_proc = lookup_var


# ---------------------------------------------------------------------------
# Canonical textual rendering, used by traces, graph labels, and store files:
# frames oldest to newest inside parentheses, entries in insertion order,
# e.g. "({a=3, b=5}, {a=4})".

def _render_frame(frame: tuple, show: Callable[[object], str]) -> str:
    return "{" + ", ".join(f"{k}={show(v)}" for k, v in frame) + "}"


def render_store(store: Env) -> str:
    return "(" + ", ".join(_render_frame(f, value_text)
                           for f in store.frames) + ")"


def render_procs(procs: Env) -> str:
    return "(" + ", ".join(_render_frame(f, pretty)
                           for f in procs.frames) + ")"


def parse_store(text: str) -> Env:
    """Read a variable store back from its canonical rendering."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"store must be wrapped in parentheses: {_excerpt(text)}")
    frames = []
    rest = body[1:-1].strip()
    while rest:
        if not rest.startswith("{"):
            raise ValueError(f"expected a frame at {_excerpt(rest)}")
        close = rest.find("}")
        if close < 0:
            raise ValueError(f"expected '}}' to close the frame at {_excerpt(rest)}")
        frames.append(_parse_frame(rest[1:close]))
        rest = rest[close + 1:].lstrip()
        if rest.startswith(","):
            rest = rest[1:].lstrip()
            if not rest:
                raise ValueError("expected a frame after the last ','")
        elif rest:
            raise ValueError(f"expected ',' between frames at {_excerpt(rest)}")
    if not frames:
        raise ValueError("a store has at least one frame")
    return Env(tuple(frames))


def _parse_frame(body: str) -> tuple:
    entries: dict[str, Value] = {}
    body = body.strip()
    if body:
        for part in body.split(","):
            name, _, raw = part.partition("=")
            name, raw = name.strip(), raw.strip()
            # Only a name a program can mention.
            if not raw or not is_identifier(name):
                raise ValueError(f"malformed binding {_excerpt(part)}")
            if name in entries:
                raise ValueError(f"duplicate binding {_excerpt(name)}")
            entries[name] = _parse_value(raw)
    return tuple(entries.items())


def _excerpt(text: str) -> str:
    """`text` quoted for a one-line error, cut to its first 32 characters."""
    cut = f"… ({len(text)} characters)" if len(text) > 32 else ""
    return repr(text[:32]) + cut


def _parse_value(raw: str) -> Value:
    if raw == "true":
        return TRUE
    if raw == "false":
        return FALSE
    if raw == "void":
        return VoidV()
    if raw.isascii() and raw.isdigit() and len(raw) <= MAX_NUMERAL_DIGITS:
        return NatLit(int(raw))
    raise ValueError(f"not a value: {_excerpt(raw)}")
