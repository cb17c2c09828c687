"""The services' positional index answers exactly what a full scan does.

Each reference below is the per-call scan the services ran before they
indexed the sky: every member (or tile) of every served cluster is tested
with ``angular_separation_deg``.  The indexed services must return the
same records in the same order.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

import repro.catalog.coords as coords
from repro.catalog.coords import SkyPosition, angular_separation_deg
from repro.services.conesearch import SyntheticPhotometryCatalog
from repro.services.cutout import CutoutSIAService
from repro.services.protocol import ConeSearchRequest, SIARequest
from repro.services.sia import OpticalImageArchive
from repro.sky.cluster import ClusterModel

#: Cluster centres that stress the index: RA wrap, both poles, the equator.
CENTRES = [(359.9, 0.0), (0.05, -2.0), (120.0, 84.0), (300.0, -85.0), (45.0, 89.6), (200.0, 10.0)]


def cluster(i: int, ra: float, dec: float, n: int = 12) -> ClusterModel:
    return ClusterModel(
        name=f"IDX{i:02d}",
        center=SkyPosition(ra, dec),
        redshift=0.05,
        n_galaxies=n,
        core_radius_deg=0.05,
        tidal_radius_deg=0.6,
        seed=11 + i,
    )


def scan_members(clusters, ra, dec, radius):
    out = []
    for c in clusters:
        members = c.generate_members()
        sep = angular_separation_deg(ra, dec, [m.ra for m in members], [m.dec for m in members])
        out += [members[i].galaxy_id for i in np.nonzero(sep <= radius)[0]]
    return out


def scan_tiles(archive, ra, dec, size):
    out = []
    for c in archive.clusters.values():
        half = size / 2.0 + archive._tile_span(c)
        for k, (tra, tdec) in enumerate(archive._tile_centers(c)):
            if angular_separation_deg(ra, dec, tra, tdec) <= half:
                out.append(f"{archive.survey} {c.name} tile {k}")
    return out


served = st.lists(st.sampled_from(range(len(CENTRES))), min_size=1, max_size=4, unique=True)


@st.composite
def sky_query(draw):
    """Served clusters, a query centre and a radius from 0 to past 180 deg.

    Half the draws centre on a member and put another member exactly on
    the cone's edge (radius = the separation the scan computes).
    """
    clusters = [cluster(i, *CENTRES[i]) for i in draw(served)]
    members = [m for c in clusters for m in c.generate_members()]
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(members)), draw(st.sampled_from(members))
        ra, dec = a.ra, a.dec
        radius = float(angular_separation_deg(ra, dec, b.ra, b.dec))
    else:
        ra = draw(st.floats(0.0, 359.999))
        dec = draw(st.floats(-90.0, 90.0))
        radius = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(2.0, 200.0)))
    return clusters, ra, dec, radius


class TestIndexedEqualsScan:
    @given(sky_query())
    def test_cutout_query(self, q):
        clusters, ra, dec, radius = q
        assume(radius > 0)  # SIA SIZE must be positive
        table = CutoutSIAService(clusters).query(SIARequest(ra, dec, 2.0 * radius))
        assert [r["title"] for r in table] == scan_members(clusters, ra, dec, radius)

    @given(sky_query())
    def test_cone_search(self, q):
        clusters, ra, dec, radius = q
        table = SyntheticPhotometryCatalog(clusters).search(ConeSearchRequest(ra, dec, radius))
        assert [r["id"] for r in table] == scan_members(clusters, ra, dec, radius)

    @given(sky_query(), st.integers(1, 13))
    def test_sia_archive(self, q, tiles):
        clusters, ra, dec, radius = q
        assume(radius > 0)
        archive = OpticalImageArchive(clusters, tiles_per_cluster=tiles)
        size = 2.0 * radius
        table = archive.query(SIARequest(ra, dec, size))
        assert [r["title"] for r in table] == scan_tiles(archive, ra, dec, size)

    def test_repeat_queries_reuse_one_index(self):
        clusters = [cluster(i, *c) for i, c in enumerate(CENTRES)]
        service = CutoutSIAService(clusters)
        member = clusters[2].generate_members()[3]
        request = SIARequest(member.ra, member.dec, 0.005)
        first = service.query(request)
        index = service._index
        assert service.query(request) == first
        assert service._index is index


def test_tight_cutout_query_tests_few_members(monkeypatch):
    """The work bound: with 64 clusters served, a one-galaxy query tests
    under 10 % of all members (the scan tested every one)."""
    clusters = [cluster(i, (i * 5.6) % 360.0, -63.0 + 2.0 * i, n=20) for i in range(64)]
    total = sum(c.n_galaxies for c in clusters)
    service = CutoutSIAService(clusters)
    target = clusters[40].generate_members()[7]
    service.query(SIARequest(target.ra, target.dec, 0.005))  # build the index

    sizes: list[int] = []

    def spy(ra1, dec1, ra2, dec2):
        sizes.append(int(np.broadcast(ra1, dec1, ra2, dec2).size))
        return angular_separation_deg(ra1, dec1, ra2, dec2)

    monkeypatch.setattr("repro.services.cutout.angular_separation_deg", spy, raising=False)
    monkeypatch.setattr(coords, "angular_separation_deg", spy)
    other = clusters[12].generate_members()[3]
    table = service.query(SIARequest(other.ra, other.dec, 0.005))
    assert other.galaxy_id in [r["title"] for r in table]
    assert 0 < sum(sizes) < 0.1 * total


def test_concurrent_first_queries_agree():
    """Threads racing to build the lazy indexes all get the serial answer."""
    clusters = [cluster(i, *c, n=40) for i, c in enumerate(CENTRES)]
    probes = [m for c in clusters for m in c.generate_members()[:4]]
    reference = CutoutSIAService(clusters)
    expected = [[r["title"] for r in reference.query(SIARequest(m.ra, m.dec, 0.2))] for m in probes]
    cutouts = CutoutSIAService(clusters)
    cones = SyntheticPhotometryCatalog(clusters)
    archive = OpticalImageArchive(clusters, tiles_per_cluster=9)
    centre = clusters[0].center
    tiles = SIARequest(centre.ra, centre.dec, 1.3)
    results: dict[int, tuple] = {}

    def worker(k: int) -> None:
        got = [[r["title"] for r in cutouts.query(SIARequest(m.ra, m.dec, 0.2))] for m in probes]
        cone = len(cones.search(ConeSearchRequest(centre.ra, centre.dec, 1.0)))
        results[k] = (got, cone, len(archive.query(tiles)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert len({(repr(g), c, a) for g, c, a in results.values()}) == 1
    assert next(iter(results.values()))[0] == expected
