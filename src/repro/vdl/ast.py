"""VDL abstract syntax: transformation declarations and derivations."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from repro.core.errors import VDLSyntaxError

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")


def _check_ident(name: str, what: str) -> None:
    if not _IDENT.match(name):
        raise VDLSyntaxError(f"invalid {what} name: {name!r}")


class ArgDirection(str, enum.Enum):
    """Formal argument direction: the ``in``/``out`` prefixes of §3.2."""

    IN = "in"
    OUT = "out"


@dataclass(frozen=True)
class TransformationDecl:
    """``TR name( in a, out b ) { body }`` — a template for a program.

    ``args`` maps formal argument name -> direction, in declaration order
    (dicts preserve insertion order).  ``body`` is opaque text (the paper
    elides it with "...").
    """

    name: str
    args: dict[str, ArgDirection] = field(default_factory=dict)
    body: str = ""

    def __post_init__(self) -> None:
        _check_ident(self.name, "transformation")
        for arg in self.args:
            _check_ident(arg, "argument")
        if not any(d is ArgDirection.OUT for d in self.args.values()):
            raise VDLSyntaxError(f"transformation {self.name!r} declares no output argument")


@dataclass(frozen=True)
class FileBinding:
    """``@{in:"file.fits"}`` — logical file(s) bound to a formal argument.

    Chimera's VDL supports list-valued file parameters (needed by fan-in
    jobs such as the per-cluster result concatenation); we write them as
    ``@{in:"a.txt","b.txt"}``.  ``lfns`` always holds a non-empty tuple; a
    plain string passed to the constructor is normalised to a 1-tuple.
    """

    direction: ArgDirection
    lfns: tuple[str, ...]

    def __post_init__(self) -> None:
        if isinstance(self.lfns, str):
            object.__setattr__(self, "lfns", (self.lfns,))
        else:
            object.__setattr__(self, "lfns", tuple(self.lfns))
        if not self.lfns or any(not lfn for lfn in self.lfns):
            raise VDLSyntaxError("file binding requires non-empty logical file name(s)")


@dataclass(frozen=True)
class Derivation:
    """``DV name->tr( arg=value, file=@{in:"lfn"} );`` — an instantiation.

    ``bindings`` maps formal argument name -> either a scalar string or a
    :class:`FileBinding`.
    """

    name: str
    transformation: str
    bindings: dict[str, str | FileBinding] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_ident(self.name, "derivation")
        _check_ident(self.transformation, "transformation")

    def input_files(self) -> tuple[str, ...]:
        return tuple(
            lfn
            for b in self.bindings.values()
            if isinstance(b, FileBinding) and b.direction is ArgDirection.IN
            for lfn in b.lfns
        )

    def output_files(self) -> tuple[str, ...]:
        return tuple(
            lfn
            for b in self.bindings.values()
            if isinstance(b, FileBinding) and b.direction is ArgDirection.OUT
            for lfn in b.lfns
        )

    def scalar_parameters(self) -> dict[str, str]:
        return {k: v for k, v in self.bindings.items() if isinstance(v, str)}

    def validate_against(self, tr: TransformationDecl) -> None:
        """Check the derivation binds exactly the transformation's formals
        with matching directions (scalars must bind ``in`` formals)."""
        if self.transformation != tr.name:
            raise VDLSyntaxError(
                f"derivation {self.name!r} targets {self.transformation!r}, not {tr.name!r}"
            )
        missing = set(tr.args) - set(self.bindings)
        extra = set(self.bindings) - set(tr.args)
        if missing or extra:
            raise VDLSyntaxError(
                f"derivation {self.name!r} argument mismatch for {tr.name!r}: "
                f"missing={sorted(missing)}, unknown={sorted(extra)}"
            )
        for arg, value in self.bindings.items():
            formal_dir = tr.args[arg]
            if isinstance(value, FileBinding):
                if value.direction is not formal_dir:
                    raise VDLSyntaxError(
                        f"derivation {self.name!r}: argument {arg!r} is "
                        f"{formal_dir.value!r} in the TR but bound as {value.direction.value!r}"
                    )
            elif formal_dir is ArgDirection.OUT:
                raise VDLSyntaxError(
                    f"derivation {self.name!r}: output argument {arg!r} must bind a file, not a scalar"
                )
