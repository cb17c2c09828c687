"""The run-based segmentation equals a ``scipy.ndimage`` labelling oracle."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.morphology.background import BackgroundEstimate
from repro.morphology.segmentation import MIN_PIXELS, _components, _row_runs, central_source_mask

#: Level 0, sigma 1: pixels above 1.5 are significant, so an image of
#: 0s and 10s is its own mask.
FLAT = BackgroundEstimate(level=0.0, sigma=1.0, n_pixels=1)


def scipy_mask(significant: np.ndarray) -> np.ndarray:
    """``central_source_mask`` as ``ndimage.label``/``center_of_mass`` give it."""
    labels, n_labels = ndimage.label(significant)
    if n_labels == 0:
        return np.zeros(significant.shape, dtype=bool)
    cy, cx = (significant.shape[0] - 1) / 2.0, (significant.shape[1] - 1) / 2.0
    center_label = int(labels[int(round(cy)), int(round(cx))])
    sizes = np.bincount(labels.ravel(), minlength=n_labels + 1)
    if center_label == 0 or sizes[center_label] < MIN_PIXELS:
        candidates = [lab for lab in range(1, n_labels + 1) if sizes[lab] >= MIN_PIXELS]
        if not candidates:
            return np.zeros(significant.shape, dtype=bool)
        centroids = ndimage.center_of_mass(significant, labels, candidates)
        dists = [np.hypot(y - cy, x - cx) for y, x in centroids]
        center_label = candidates[int(np.argmin(dists))]
    return labels == center_label


@st.composite
def masks(draw) -> np.ndarray:
    """Noise specks at one of several densities, optionally an off-centre
    source, and the centre pixel forced on, off or left alone."""
    h, w = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.03, 0.1, 0.3, 0.5, 0.65]))
    mask = rng.random((h, w)) < density
    if draw(st.booleans()):  # an off-centre source
        y, x = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        mask[y : y + draw(st.integers(1, 6)), x : x + draw(st.integers(1, 6))] = True
    cy, cx = int(round((h - 1) / 2.0)), int(round((w - 1) / 2.0))
    centre = draw(st.sampled_from(["as drawn", "off", "speck", "source"]))
    if centre == "off":
        mask[cy, cx] = False
    elif centre == "speck":  # a lone pixel on the centre, below MIN_PIXELS
        mask[max(cy - 1, 0) : cy + 2, max(cx - 1, 0) : cx + 2] = False
        mask[cy, cx] = True
    elif centre == "source":
        mask[max(cy - 2, 0) : cy + 3, max(cx - 2, 0) : cx + 3] = True
    return mask


@settings(max_examples=400, deadline=None)
@given(masks())
@example(np.zeros((64, 64), dtype=bool))
@example(np.eye(9, dtype=bool) | np.eye(9, dtype=bool)[::-1])  # diagonal: 8- but not 4-connected
def test_equals_scipy_oracle(significant):
    image = np.where(significant, 10.0, 0.0)
    got = central_source_mask(image, FLAT)
    assert got.dtype == bool and got.shape == significant.shape
    assert np.array_equal(got, scipy_mask(significant))


def test_equidistant_components_break_ties_in_raster_order():
    # two 2x3 blocks mirrored about the centre: equal centroid distances,
    # so the first labelled (upper-left) one wins, as with argmin over labels
    significant = np.zeros((21, 21), dtype=bool)
    significant[2:4, 2:5] = True
    significant[17:19, 16:19] = True
    got = central_source_mask(np.where(significant, 10.0, 0.0), FLAT)
    assert np.array_equal(got, scipy_mask(significant))
    assert got[2, 2] and not got[17, 16]


def test_components_are_scipys_labels_in_order():
    # label k of ``ndimage.label`` is the component whose root is the k-th
    # root in raster order, for dense and sparse specks alike
    rng = np.random.default_rng(11)
    for density in (0.05, 0.3, 0.55, 0.7):
        significant = rng.random((48, 37)) < density
        labels, n_labels = ndimage.label(significant)
        starts, ends, stride = _row_runs(significant)
        root = _components(starts, ends, stride)
        names = {int(r): k for k, r in enumerate(np.unique(root), start=1)}
        assert len(names) == n_labels
        rows = starts // stride
        for run, r in enumerate(root):
            columns = slice(starts[run] - rows[run] * stride, ends[run] - rows[run] * stride)
            assert (labels[rows[run], columns] == names[int(r)]).all()
