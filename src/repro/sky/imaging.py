"""FITS image products: galaxy cutouts and wide-field mosaics.

:class:`CutoutFactory` is the synthetic back-end of the SIA cutout service:
given a sky position it finds the matching cluster member and renders its
FITS cutout with a correct TAN WCS (so downstream code can do real
astrometry on it).  :func:`render_field_mosaic` builds the large-scale
optical context image the portal fetches first.
"""

from __future__ import annotations

import numpy as np

from repro.fits.hdu import ImageHDU
from repro.fits.header import Header
from repro.fits.wcs import TanWCS
from repro.sky.cluster import ClusterModel, GalaxyRecord
from repro.sky.galaxy import BAND, CUTOUT_SIZE, PIXEL_SCALE_ARCSEC, render_galaxy_image
from repro.sky.seeing import gaussian_blur
from repro.utils.rng import derive_rng


def cutout_wcs(galaxy: GalaxyRecord, size: int) -> TanWCS:
    """TAN WCS for a cutout centred on ``galaxy``."""
    scale_deg = PIXEL_SCALE_ARCSEC / 3600.0
    center_pix = (size + 1) / 2.0  # FITS 1-based centre of an odd/even grid
    return TanWCS(
        crval1=galaxy.ra,
        crval2=galaxy.dec,
        crpix1=center_pix,
        crpix2=center_pix,
        cdelt1=-scale_deg,
        cdelt2=scale_deg,
    )


class CutoutFactory:
    """Renders FITS cutouts for the members of one cluster.

    The factory owns the noise RNG streams so the same (seed, galaxy) pair
    always yields the identical image — campaign runs are reproducible and
    cached image files are byte-stable.
    """

    def __init__(
        self,
        cluster: ClusterModel,
        size: int = CUTOUT_SIZE,
        band: str = BAND,
    ) -> None:
        self.cluster = cluster
        self.size = size
        self.band = band
        self._members = {m.galaxy_id: m for m in cluster.generate_members()}

    def members(self) -> list[GalaxyRecord]:
        return list(self._members.values())

    def member(self, galaxy_id: str) -> GalaxyRecord:
        if galaxy_id not in self._members:
            raise KeyError(f"unknown galaxy {galaxy_id!r} in cluster {self.cluster.name}")
        return self._members[galaxy_id]

    def render_cutout(self, galaxy_id: str) -> ImageHDU:
        """Render the FITS cutout for one member, WCS and metadata included."""
        galaxy = self.member(galaxy_id)
        # Structure (knot layout) is band-independent; pixel noise is not.
        structure_rng = derive_rng(self.cluster.seed, "cutout", galaxy_id)
        noise_rng = derive_rng(self.cluster.seed, "cutout-noise", galaxy_id, self.band)
        data = render_galaxy_image(
            galaxy,
            size=self.size,
            rng=structure_rng,
            noise_rng=noise_rng,
            band=self.band,
        )
        header = Header()
        header.set("OBJECT", galaxy_id, "galaxy identifier")
        header.set("CLUSTER", self.cluster.name, "parent cluster")
        header.set("BAND", self.band, "synthetic filter")
        header.set("REDSHIFT", round(galaxy.redshift, 6), "galaxy redshift")
        header.set("MAG", round(galaxy.magnitude, 3), "apparent magnitude")
        header.set("BUNIT", "counts", "pixel units")
        cutout_wcs(galaxy, self.size).to_header(header)
        header.add_history("synthetic cutout rendered by repro.sky")
        return ImageHDU(data, header)


def render_field_mosaic(
    cluster: ClusterModel,
    size: int = 512,
) -> ImageHDU:
    """Render the wide-field optical context image of a cluster.

    Members are splatted as Gaussians of their half-light radius — at mosaic
    resolution the detailed profile is unresolved, so this is both faithful
    and fast (one vectorised pass per galaxy over a local stamp).
    """
    field = 2.2 * cluster.tidal_radius_deg
    scale_deg = field / size
    wcs = TanWCS(
        crval1=cluster.center.ra,
        crval2=cluster.center.dec,
        crpix1=(size + 1) / 2.0,
        crpix2=(size + 1) / 2.0,
        cdelt1=-scale_deg,
        cdelt2=scale_deg,
    )
    image = np.zeros((size, size), dtype=float)
    members = cluster.generate_members()
    ras = np.array([m.ra for m in members])
    decs = np.array([m.dec for m in members])
    xs, ys = wcs.sky_to_pixel(ras, decs)
    fluxes = 10.0 ** (-0.4 * (np.array([m.magnitude for m in members]) - 18.0)) * 1e4
    sigmas = np.maximum(np.array([m.r_e_arcsec for m in members]) / 3600.0 / scale_deg, 0.7)

    half = 8  # stamp half-width in units of sigma-capped pixels
    for x, y, flux, sigma in zip(xs, ys, fluxes, sigmas):
        # 0-based array coordinates
        cx, cy = float(x) - 1.0, float(y) - 1.0
        w = int(np.ceil(half * sigma))
        x_lo, x_hi = max(int(cx) - w, 0), min(int(cx) + w + 1, size)
        y_lo, y_hi = max(int(cy) - w, 0), min(int(cy) + w + 1, size)
        if x_lo >= x_hi or y_lo >= y_hi:
            continue  # member fell outside the mosaic
        yy, xx = np.mgrid[y_lo:y_hi, x_lo:x_hi]
        image[y_lo:y_hi, x_lo:x_hi] += (
            flux / (2 * np.pi * sigma**2) * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma**2))
        )

    image = gaussian_blur(image, 2.0 / 2.3548)  # 2-pixel seeing FWHM
    rng = derive_rng(cluster.seed, "mosaic", cluster.name)
    image += 5.0 + rng.normal(0.0, 1.0, image.shape)

    header = Header()
    header.set("OBJECT", cluster.name, "cluster field")
    header.set("SURVEY", "SYNTH-DSS", "synthetic optical survey")
    header.set("BUNIT", "counts")
    wcs.to_header(header)
    return ImageHDU(image.astype(np.float32), header)
