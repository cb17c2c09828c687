"""Tests for the VDL parser, including the paper's own example."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import VDLSyntaxError
from repro.vdl.ast import ArgDirection, Derivation, FileBinding, TransformationDecl
from repro.vdl.parser import parse_vdl


def serialize_vdl(transformations, derivations) -> str:
    """Render declarations as VDL text: the round-trip tests' input generator."""

    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    chunks = []
    for tr in transformations:
        args = ", ".join(f"{d.value} {a}" for a, d in tr.args.items())
        body = f" {tr.body} " if tr.body else " "
        chunks.append(f"TR {tr.name}( {args} ) {{{body}}}")
    for dv in derivations:
        parts = []
        for arg, value in dv.bindings.items():
            if isinstance(value, FileBinding):
                quoted = ",".join(quote(lfn) for lfn in value.lfns)
                parts.append(f"{arg}=@{{{value.direction.value}:{quoted}}}")
            else:
                parts.append(f"{arg}={quote(value)}")
        chunks.append(f"DV {dv.name}->{dv.transformation}( " + ", ".join(parts) + " );")
    return "\n\n".join(chunks) + "\n"


#: The example from §3.2 of the paper, verbatim in structure.
PAPER_EXAMPLE = """
TR galMorph( in redshift, in pixScale, in zeroPoint, in Ho, in om,
             in flat, in image, out galMorph ) { }

DV d1->galMorph( redshift="0.027886",
                 image=@{in:"NGP9_F323-0927589.fit"},
                 pixScale="2.831933107035062E-4",
                 zeroPoint="0", Ho="100", om="0.3", flat="1",
                 galMorph=@{out:"NGP9_F323-0927589.txt"} );
"""


class TestPaperExample:
    def test_parses(self):
        trs, dvs = parse_vdl(PAPER_EXAMPLE)
        assert len(trs) == 1 and len(dvs) == 1
        tr = trs[0]
        assert tr.name == "galMorph"
        assert list(tr.args) == [
            "redshift", "pixScale", "zeroPoint", "Ho", "om", "flat", "image", "galMorph",
        ]
        assert tr.args["image"] is ArgDirection.IN
        assert tr.args["galMorph"] is ArgDirection.OUT

    def test_derivation_bindings(self):
        _, (dv,) = parse_vdl(PAPER_EXAMPLE)
        assert dv.name == "d1"
        assert dv.transformation == "galMorph"
        assert dv.scalar_parameters()["pixScale"] == "2.831933107035062E-4"
        assert dv.input_files() == ("NGP9_F323-0927589.fit",)
        assert dv.output_files() == ("NGP9_F323-0927589.txt",)


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "XX foo( in a, out b ) { }",  # unknown keyword
            "TR t( inout a, out b ) { }",  # bad direction
            "TR t( in a out b ) { }",  # missing comma is tolerated? no: 'out' treated as arg name
            'DV d->t( a=@{sideways:"f"} );',  # bad binding direction
            'DV d->t( a="x" ',  # truncated
            "TR t( in a, in a, out b ) { }",  # duplicate arg
            'DV d->t( a="1", a="2" );',  # duplicate binding
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(VDLSyntaxError):
            parse_vdl(text)

    def test_unexpected_character(self):
        with pytest.raises(VDLSyntaxError) as err:
            parse_vdl("TR t( in a, out b ) { } %%%")
        assert "line" in str(err.value)

    def test_tr_requires_output(self):
        with pytest.raises(VDLSyntaxError):
            parse_vdl("TR t( in a ) { }")


class TestComments:
    def test_hash_and_slash_comments(self):
        text = """
        # a hash comment
        TR t( in a, out b ) { } // trailing
        // full line
        DV d->t( a=@{in:"x"}, b=@{out:"y"} );
        """
        trs, dvs = parse_vdl(text)
        assert len(trs) == 1 and len(dvs) == 1


class TestListBindings:
    def test_multi_file_binding(self):
        text = 'TR c( in xs, out y ) { }\nDV d->c( xs=@{in:"a","b","c"}, y=@{out:"z"} );'
        _, (dv,) = parse_vdl(text)
        assert dv.input_files() == ("a", "b", "c")

    def test_string_normalised_to_tuple(self):
        assert FileBinding(ArgDirection.OUT, "f.txt").lfns == ("f.txt",)


names = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
lfns = st.from_regex(r"[A-Za-z0-9_.\-]{1,20}", fullmatch=True)


@st.composite
def documents(draw):
    n_args = draw(st.integers(1, 5))
    arg_names = draw(st.lists(names, min_size=n_args, max_size=n_args, unique=True))
    directions = [draw(st.sampled_from(list(ArgDirection))) for _ in arg_names]
    directions[-1] = ArgDirection.OUT  # ensure at least one output
    tr = TransformationDecl(
        name=draw(names), args=dict(zip(arg_names, directions)), body=""
    )
    bindings: dict[str, object] = {}
    for arg, direction in tr.args.items():
        if direction is ArgDirection.IN and draw(st.booleans()):
            bindings[arg] = draw(st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=15,
            ))
        else:
            n_files = draw(st.integers(1, 3))
            bindings[arg] = FileBinding(
                direction, tuple(draw(st.lists(lfns, min_size=n_files, max_size=n_files)))
            )
    dv = Derivation(name=draw(names), transformation=tr.name, bindings=bindings)
    return [tr], [dv]


class TestRoundTrip:
    @given(documents())
    def test_property_roundtrip(self, doc):
        trs, dvs = doc
        text = serialize_vdl(trs, dvs)
        trs2, dvs2 = parse_vdl(text)
        assert trs2 == trs
        assert dvs2 == dvs

    def test_paper_example_roundtrip(self):
        trs, dvs = parse_vdl(PAPER_EXAMPLE)
        trs2, dvs2 = parse_vdl(serialize_vdl(trs, dvs))
        assert (trs2, dvs2) == (trs, dvs)
