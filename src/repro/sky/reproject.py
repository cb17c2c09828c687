"""WCS reprojection: put images from different instruments on one grid.

Figure 7 overlays ROSAT/Chandra X-ray emission (coarse, its own pointing)
on DSS optical imagery (finer, different pixel grid).  Aladin does this by
resampling through the WCS of both images; this module implements the same
operation for TAN frames — evaluate the target grid's sky coordinates,
project them into the source frame, and interpolate.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.fits.hdu import ImageHDU
from repro.fits.header import Header
from repro.fits.wcs import TanWCS


def reproject_tan(
    source: ImageHDU,
    target_wcs: TanWCS,
    target_shape: tuple[int, int],
    order: int = 1,
    fill_value: float = 0.0,
) -> ImageHDU:
    """Resample ``source`` onto ``target_wcs``/``target_shape``.

    ``order`` is the spline interpolation order (1 = bilinear, 0 = nearest).
    Pixels mapping outside the source frame get ``fill_value``.  Returns a
    new HDU carrying the target WCS.
    """
    if source.data is None:
        raise ValueError("source HDU has no data to reproject")
    if order not in (0, 1, 2, 3):
        raise ValueError(f"unsupported interpolation order {order}")
    source_wcs = TanWCS.from_header(source.header)

    height, width = target_shape
    yy, xx = np.indices((height, width), dtype=float)
    # FITS pixels are 1-based
    ra, dec = target_wcs.pixel_to_sky(xx + 1.0, yy + 1.0)
    sx, sy = source_wcs.sky_to_pixel(ra, dec)
    # back to 0-based array coordinates for map_coordinates (row, col);
    # rounding kills the ~1e-12 projection fuzz that would otherwise blend
    # edge pixels with the fill value
    coords = np.round(np.stack([sy - 1.0, sx - 1.0]), 9)
    resampled = ndimage.map_coordinates(
        np.asarray(source.data, dtype=float),
        coords,
        order=order,
        mode="constant",
        cval=fill_value,
    )

    header = Header()
    for card in source.header:
        if card.is_commentary:
            continue
        if card.keyword in ("OBJECT", "TELESCOP", "SURVEY", "BUNIT", "BAND"):
            header.set(card.keyword, card.value, card.comment)
    target_wcs.to_header(header)
    header.add_history("reprojected by repro.sky.reproject")
    return ImageHDU(resampled.astype(np.float32), header)
