"""Tests for the CLI, the batched-SIA portal path, and provenance explanation."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.provenance import InvocationRecord, ProvenanceStore
from repro.portal.demo import build_demo_environment
from repro.services.protocol import SIARequest


class TestCli:
    def test_clusters(self, capsys):
        assert main(["clusters"]) == 0
        out = capsys.readouterr().out
        assert "A1656" in out and "561" in out

    def test_registry(self, capsys):
        assert main(["registry"]) == 0
        out = capsys.readouterr().out
        assert "Chandra Data Archive" in out

    def test_analyze(self, capsys):
        assert main(["analyze", "A3526", "--table"]) == 0
        out = capsys.readouterr().out
        assert "37 galaxies" in out
        assert "A3526-0000" in out

    def test_explain(self, capsys):
        assert main(["explain", "A3526", "A3526-morphology.vot"]) == 0
        out = capsys.readouterr().out
        assert "concatVOTable" in out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestBatchedCutouts:
    def test_batched_resolution_matches_per_galaxy(self, tiny_cluster):
        env_a = build_demo_environment(clusters=[tiny_cluster], seed_virtual_data_reuse=False)
        session_a = env_a.portal.select_cluster(tiny_cluster.name)
        env_a.portal.build_catalog(session_a)
        per_galaxy = env_a.portal.resolve_cutouts(session_a, batched=False)

        env_b = build_demo_environment(clusters=[tiny_cluster], seed_virtual_data_reuse=False)
        session_b = env_b.portal.select_cluster(tiny_cluster.name)
        env_b.portal.build_catalog(session_b)
        batched = env_b.portal.resolve_cutouts(session_b, batched=True)

        assert per_galaxy == batched
        # but the metered cost differs wildly
        assert env_a.meter.count("sia-query") >= tiny_cluster.n_galaxies
        assert env_b.meter.count("sia-batch-query") == 1
        assert env_b.meter.total("sia-batch-query") < env_a.meter.total("sia-query") / 3

    def test_query_batch_validates(self, tiny_cluster):
        env = build_demo_environment(clusters=[tiny_cluster])
        from repro.core.errors import ServiceError

        with pytest.raises(ServiceError):
            env.cutout_service.query_batch([])

    def test_fetch_batch_single_charge(self, tiny_cluster):
        env = build_demo_environment(clusters=[tiny_cluster], seed_virtual_data_reuse=False)
        service = env.cutout_service
        urls = [
            service.url_for(tiny_cluster.name, f"{tiny_cluster.name}-000{i}") for i in range(3)
        ]
        payloads = service.fetch_batch(urls)
        assert len(payloads) == 3
        assert env.meter.count("sia-batch-download") == 1
        assert env.meter.count("sia-download") == 0


class TestProvenanceExport:
    def make_store(self) -> ProvenanceStore:
        store = ProvenanceStore()
        store.record(
            InvocationRecord("j1", "galMorph", "isi", 0.0, 1.5, ("a.fit",), ("a.txt",), {"z": "0.05"})
        )
        store.record(
            InvocationRecord("j2", "concatVOTable", "store", 2.0, 2.5, ("a.txt",), ("out.vot",))
        )
        return store

    def test_lineage_text(self):
        text = self.make_store().lineage_text("out.vot")
        assert "out.vot was derived by:" in text
        assert "concatVOTable @ store" in text
        assert "galMorph @ isi" in text

    def test_lineage_text_raw(self):
        assert "raw data" in self.make_store().lineage_text("a.fit")

    def test_vds_explain(self):
        from repro.core import VirtualDataSystem

        vds = VirtualDataSystem()
        assert "raw data" in vds.explain("nothing.fits")


class TestCliExtensions:
    def test_dynamics(self, capsys):
        assert main(["dynamics", "A3526", "--shuffles", "50"]) == 0
        out = capsys.readouterr().out
        assert "sigma_v" in out and "DS test" in out

    def test_overlay(self, capsys, tmp_path):
        assert main(["overlay", "A3526", "--outdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "galaxies.reg" in out
        assert (tmp_path / "A3526-galaxies.reg").exists()
        assert (tmp_path / "A3526-optical.fits").exists()

    def test_bands(self, capsys):
        assert main(["bands", "A3526"]) == 0
        out = capsys.readouterr().out
        assert "A(late)" in out
