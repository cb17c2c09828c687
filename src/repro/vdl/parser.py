"""VDL text parser.

Implements the dialect of §3.2 with a hand-rolled scanner:

* ``TR name( in a, in b, out c ) { <opaque body> }``
* ``DV name->tr( a="scalar", b=@{in:"file"}, c=@{out:"file"} );``
* ``#`` and ``//`` line comments.

``parse_vdl`` returns (transformations, derivations) in document order.
"""

from __future__ import annotations

import re

from repro.core.errors import VDLSyntaxError
from repro.vdl.ast import ArgDirection, Derivation, FileBinding, TransformationDecl

_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*|//[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<arrow>->)
  | (?P<at>@\{)
  | (?P<punct>[(){},;:=])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*(?:-[A-Za-z0-9_.]+)*)
    """,
    re.VERBOSE,
)


class _Scanner:
    """Token stream with 1-based line/column error reporting."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, offset)
        while self.pos < len(text):
            m = _TOKEN.match(text, self.pos)
            if not m:
                raise VDLSyntaxError(f"unexpected character {text[self.pos]!r} at {self._loc(self.pos)}")
            self.pos = m.end()
            kind = m.lastgroup or ""
            if kind in ("ws", "comment"):
                continue
            self.tokens.append((kind, m.group(), m.start()))
        self.index = 0

    def _loc(self, offset: int) -> str:
        line = self.text.count("\n", 0, offset) + 1
        col = offset - (self.text.rfind("\n", 0, offset) + 1) + 1
        return f"line {line}, column {col}"

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise VDLSyntaxError("unexpected end of VDL input")
        self.index += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> str:
        tok_kind, tok_value, offset = self.next()
        if tok_kind != kind or (value is not None and tok_value != value):
            want = value if value is not None else kind
            raise VDLSyntaxError(f"expected {want!r}, got {tok_value!r} at {self._loc(offset)}")
        return tok_value


def _unquote(s: str) -> str:
    body = s[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _parse_tr(sc: _Scanner) -> TransformationDecl:
    name = sc.expect("ident")
    sc.expect("punct", "(")
    args: dict[str, ArgDirection] = {}
    while True:
        tok = sc.peek()
        if tok and tok[0] == "punct" and tok[1] == ")":
            sc.next()
            break
        direction_word = sc.expect("ident")
        try:
            direction = ArgDirection(direction_word)
        except ValueError:
            raise VDLSyntaxError(
                f"expected 'in' or 'out' before argument name, got {direction_word!r}"
            ) from None
        arg = sc.expect("ident")
        if arg in args:
            raise VDLSyntaxError(f"duplicate argument {arg!r} in transformation {name!r}")
        args[arg] = direction
        tok = sc.peek()
        if tok and tok[0] == "punct" and tok[1] == ",":
            sc.next()
        elif not (tok and tok[0] == "punct" and tok[1] == ")"):
            raise VDLSyntaxError(
                f"expected ',' or ')' after argument {arg!r} in transformation {name!r}"
            )
    # Opaque brace-balanced body.
    sc.expect("punct", "{")
    depth = 1
    body_parts: list[str] = []
    while depth > 0:
        kind, value, _ = sc.next()
        if kind == "punct" and value == "{":
            depth += 1
        elif kind == "punct" and value == "}":
            depth -= 1
            if depth == 0:
                break
        body_parts.append(value)
    return TransformationDecl(name=name, args=args, body=" ".join(body_parts))


def _parse_dv(sc: _Scanner) -> Derivation:
    name = sc.expect("ident")
    sc.expect("arrow")
    tr_name = sc.expect("ident")
    sc.expect("punct", "(")
    bindings: dict[str, str | FileBinding] = {}
    while True:
        tok = sc.peek()
        if tok and tok[0] == "punct" and tok[1] == ")":
            sc.next()
            break
        arg = sc.expect("ident")
        if arg in bindings:
            raise VDLSyntaxError(f"duplicate binding {arg!r} in derivation {name!r}")
        sc.expect("punct", "=")
        kind, value, offset = sc.next()
        if kind == "string":
            bindings[arg] = _unquote(value)
        elif kind == "at":
            direction_word = sc.expect("ident")
            try:
                direction = ArgDirection(direction_word)
            except ValueError:
                raise VDLSyntaxError(
                    f"expected 'in' or 'out' in file binding, got {direction_word!r}"
                ) from None
            sc.expect("punct", ":")
            lfns = [_unquote(sc.expect("string"))]
            while True:
                nxt = sc.peek()
                if nxt and nxt[0] == "punct" and nxt[1] == ",":
                    sc.next()
                    lfns.append(_unquote(sc.expect("string")))
                else:
                    break
            sc.expect("punct", "}")
            bindings[arg] = FileBinding(direction, tuple(lfns))
        else:
            raise VDLSyntaxError(f"expected a value for {arg!r}, got {value!r} at {sc._loc(offset)}")
        tok = sc.peek()
        if tok and tok[0] == "punct" and tok[1] == ",":
            sc.next()
        elif not (tok and tok[0] == "punct" and tok[1] == ")"):
            raise VDLSyntaxError(
                f"expected ',' or ')' after binding {arg!r} in derivation {name!r}"
            )
    sc.expect("punct", ";")
    return Derivation(name=name, transformation=tr_name, bindings=bindings)


def parse_vdl(text: str) -> tuple[list[TransformationDecl], list[Derivation]]:
    """Parse a VDL document; returns (transformations, derivations)."""
    sc = _Scanner(text)
    transformations: list[TransformationDecl] = []
    derivations: list[Derivation] = []
    while sc.peek() is not None:
        kind, value, offset = sc.next()
        if kind == "ident" and value == "TR":
            transformations.append(_parse_tr(sc))
        elif kind == "ident" and value == "DV":
            derivations.append(_parse_dv(sc))
        else:
            raise VDLSyntaxError(f"expected 'TR' or 'DV', got {value!r} at {sc._loc(offset)}")
    return transformations, derivations
