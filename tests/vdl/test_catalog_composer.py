"""Tests for the Virtual Data Catalog and abstract-workflow composition."""

from __future__ import annotations

import pytest

from repro.core.errors import VDLSyntaxError, WorkflowError
from repro.vdl.catalog import VirtualDataCatalog
from repro.vdl.composer import compose_workflow

CHAIN = """
TR t1( in x, out y ) { }
TR t2( in x, out y ) { }
DV d1->t1( x=@{in:"a"}, y=@{out:"b"} );
DV d2->t2( x=@{in:"b"}, y=@{out:"c"} );
"""

DIAMOND = """
TR make( in x, out y ) { }
TR join( in l, in r, out y ) { }
DV left->make( x=@{in:"src"}, y=@{out:"L"} );
DV right->make( x=@{in:"src"}, y=@{out:"R"} );
DV merge->join( l=@{in:"L"}, r=@{in:"R"}, y=@{out:"final"} );
"""


class TestCatalog:
    def test_define_counts(self):
        catalog = VirtualDataCatalog()
        assert catalog.define(CHAIN) == (2, 2)

    def test_producer_lookup(self):
        catalog = VirtualDataCatalog()
        catalog.define(CHAIN)
        assert catalog.producer_of("b").name == "d1"
        assert catalog.producer_of("a") is None

    def test_duplicate_transformation(self):
        catalog = VirtualDataCatalog()
        catalog.define(CHAIN)
        with pytest.raises(VDLSyntaxError):
            catalog.define("TR t1( in p, out q ) { }")

    def test_duplicate_derivation_name(self):
        catalog = VirtualDataCatalog()
        catalog.define(CHAIN)
        with pytest.raises(VDLSyntaxError):
            catalog.define('DV d1->t1( x=@{in:"p"}, y=@{out:"q"} );')

    def test_conflicting_producer(self):
        catalog = VirtualDataCatalog()
        catalog.define(CHAIN)
        with pytest.raises(VDLSyntaxError):
            catalog.define('DV d3->t1( x=@{in:"z"}, y=@{out:"b"} );')

    def test_unknown_transformation(self):
        catalog = VirtualDataCatalog()
        with pytest.raises(VDLSyntaxError):
            catalog.define('DV d->missing( x=@{in:"a"}, y=@{out:"b"} );')

    def test_derivation_validated_against_tr(self):
        catalog = VirtualDataCatalog()
        catalog.define("TR t( in a, out b ) { }")
        with pytest.raises(VDLSyntaxError):
            catalog.define('DV d->t( a=@{in:"x"} );')  # missing binding for b
        with pytest.raises(VDLSyntaxError):
            catalog.define('DV d->t( a=@{in:"x"}, b=@{out:"y"}, c="z" );')  # unknown
        with pytest.raises(VDLSyntaxError):
            catalog.define('DV d->t( a=@{out:"x"}, b=@{out:"y"} );')  # direction flip
        with pytest.raises(VDLSyntaxError):
            catalog.define('DV d->t( a=@{in:"x"}, b="scalar" );')  # scalar output

    def test_unknown_lookups_raise(self):
        catalog = VirtualDataCatalog()
        with pytest.raises(KeyError):
            catalog.transformation("nope")
        with pytest.raises(KeyError):
            catalog.derivation("nope")


class TestComposer:
    def test_figure1_chain(self):
        catalog = VirtualDataCatalog()
        catalog.define(CHAIN)
        workflow = compose_workflow(catalog, ["c"])
        assert {j.job_id for j in workflow.jobs()} == {"d1", "d2"}
        assert workflow.dag.edges() == [("d1", "d2")]
        assert workflow.required_inputs() == {"a"}
        assert workflow.final_products() == {"c"}

    def test_intermediate_request_stops_chain(self):
        catalog = VirtualDataCatalog()
        catalog.define(CHAIN)
        workflow = compose_workflow(catalog, ["b"])
        assert {j.job_id for j in workflow.jobs()} == {"d1"}

    def test_diamond(self):
        catalog = VirtualDataCatalog()
        catalog.define(DIAMOND)
        workflow = compose_workflow(catalog, ["final"])
        assert len(workflow) == 3
        assert set(workflow.dag.parents("merge")) == {"left", "right"}
        assert workflow.required_inputs() == {"src"}

    def test_multiple_requests_merge(self):
        catalog = VirtualDataCatalog()
        catalog.define(DIAMOND)
        workflow = compose_workflow(catalog, ["L", "R"])
        assert {j.job_id for j in workflow.jobs()} == {"left", "right"}

    def test_unknown_request_rejected(self):
        catalog = VirtualDataCatalog()
        catalog.define(CHAIN)
        with pytest.raises(WorkflowError):
            compose_workflow(catalog, ["nope"])

    def test_raw_input_request_rejected(self):
        catalog = VirtualDataCatalog()
        catalog.define(CHAIN)
        with pytest.raises(WorkflowError):
            compose_workflow(catalog, ["a"])  # raw data, not derivable

    def test_empty_request_rejected(self):
        with pytest.raises(WorkflowError):
            compose_workflow(VirtualDataCatalog(), [])

    def test_parameters_carried_to_jobs(self):
        catalog = VirtualDataCatalog()
        catalog.define(
            'TR t( in p, in x, out y ) { }\n'
            'DV d->t( p="0.5", x=@{in:"a"}, y=@{out:"b"} );'
        )
        workflow = compose_workflow(catalog, ["b"])
        assert workflow.job("d").parameters == {"p": "0.5"}

    def test_fan_in_list_binding(self):
        catalog = VirtualDataCatalog()
        catalog.define(
            "TR make( in x, out y ) { }\n"
            "TR cat( in xs, out y ) { }\n"
            'DV m1->make( x=@{in:"s1"}, y=@{out:"r1"} );\n'
            'DV m2->make( x=@{in:"s2"}, y=@{out:"r2"} );\n'
            'DV c->cat( xs=@{in:"r1","r2"}, y=@{out:"all"} );'
        )
        workflow = compose_workflow(catalog, ["all"])
        assert len(workflow) == 3
        assert set(workflow.dag.parents("c")) == {"m1", "m2"}
