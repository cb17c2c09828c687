"""Parametric galaxy cluster model with Dressler-style morphology mixing.

A :class:`ClusterModel` generates a reproducible member catalog: positions
follow a King (1962) surface-density profile, and morphological type is
drawn from a radius-dependent mixture so that ellipticals dominate the core
and spirals the outskirts — the density-morphology relation of Dressler
(1980) that the paper's Figure 7 analysis "rediscovers".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.catalog.coords import SkyPosition
from repro.utils.rng import DEMO_SEED, derive_rng


class MorphType(str, enum.Enum):
    """Morphological classes with distinct imaging signatures."""

    ELLIPTICAL = "E"
    LENTICULAR = "S0"
    SPIRAL = "Sp"
    IRREGULAR = "Irr"


#: Rendering parameters per type: (sersic index, asymmetry amplitude range,
#: spiral-arm amplitude).  Ellipticals are smooth and concentrated; spirals
#: diffuse with strong non-axisymmetric structure.
MORPH_RENDER_PARAMS: dict[MorphType, dict[str, float | tuple[float, float]]] = {
    MorphType.ELLIPTICAL: {"n": 4.0, "asym": (0.00, 0.04), "arm": 0.0},
    MorphType.LENTICULAR: {"n": 2.5, "asym": (0.02, 0.08), "arm": 0.05},
    MorphType.SPIRAL: {"n": 1.0, "asym": (0.15, 0.40), "arm": 0.55},
    MorphType.IRREGULAR: {"n": 0.8, "asym": (0.35, 0.70), "arm": 0.0},
}


@dataclass(frozen=True)
class GalaxyRecord:
    """One synthesised cluster member — the ground truth behind its image."""

    galaxy_id: str
    ra: float
    dec: float
    redshift: float
    magnitude: float
    morph: MorphType
    r_e_arcsec: float
    ellipticity: float
    position_angle_deg: float
    asymmetry_true: float
    radius_deg: float  # cluster-centric angular radius


@dataclass(frozen=True)
class ClusterModel:
    """A named galaxy cluster and its member-generation parameters.

    Parameters
    ----------
    name:
        Cluster designation, e.g. ``"A1656"``; also seeds the RNG stream.
    center:
        Sky position of the cluster centre.
    redshift:
        Systemic redshift.
    n_galaxies:
        Number of catalogued members (paper range: 37-561).
    core_radius_deg:
        King-profile core radius.
    tidal_radius_deg:
        Outer truncation radius of the member distribution.
    velocity_dispersion_kms:
        1-D velocity dispersion for member redshift scatter.
    elliptical_core_fraction / elliptical_field_fraction:
        Probability a member is E/S0 at r=0 and at the tidal radius; the mix
        interpolates in between (Dressler relation strength).
    seed:
        Root seed; all member properties derive from (seed, name).
    """

    name: str
    center: SkyPosition
    redshift: float
    n_galaxies: int
    core_radius_deg: float = 0.05
    tidal_radius_deg: float = 0.5
    velocity_dispersion_kms: float = 900.0
    elliptical_core_fraction: float = 0.85
    elliptical_field_fraction: float = 0.25
    seed: int = DEMO_SEED
    context_image_count: int = 48
    #: Merging-cluster knobs (§2: "recent falling of matter into the
    #: cluster ... in the form of ... cluster mass groupings").  A fraction
    #: of members forms an infalling subclump, spatially offset and
    #: kinematically distinct — what the Dressler-Shectman test detects.
    subcluster_fraction: float = 0.0
    subcluster_offset_deg: float = 0.25
    subcluster_velocity_kms: float = 1500.0

    def __post_init__(self) -> None:
        if self.n_galaxies < 1:
            raise ValueError(f"cluster needs at least one galaxy: {self.n_galaxies}")
        if not 0 < self.core_radius_deg < self.tidal_radius_deg:
            raise ValueError("need 0 < core radius < tidal radius")
        if not 0.0 <= self.elliptical_field_fraction <= self.elliptical_core_fraction <= 1.0:
            raise ValueError("need 0 <= field fraction <= core fraction <= 1")
        if not 0.0 <= self.subcluster_fraction < 0.5:
            raise ValueError("subcluster fraction must be in [0, 0.5)")

    # -- member synthesis ----------------------------------------------------
    def _king_radii(self, rng: np.random.Generator) -> np.ndarray:
        """Draw cluster-centric radii from a King surface-density profile.

        Sigma(r) ~ (1 + (r/rc)^2)^-1 truncated at the tidal radius; inverse
        transform sampling of the enclosed-count profile
        N(<r) ~ ln(1 + (r/rc)^2).
        """
        rc, rt = self.core_radius_deg, self.tidal_radius_deg
        u = rng.random(self.n_galaxies)
        norm = np.log1p((rt / rc) ** 2)
        return rc * np.sqrt(np.expm1(u * norm))

    def elliptical_probability(self, radius_deg: np.ndarray) -> np.ndarray:
        """P(early type | cluster-centric radius): the Dressler mixing law.

        Linear in log-density for a King profile is well approximated by a
        smooth interpolation in r/rt; we use an exponential decline with the
        core fraction at r=0 and the field fraction at r=rt.
        """
        x = np.clip(np.asarray(radius_deg, dtype=float) / self.tidal_radius_deg, 0.0, 1.0)
        lo, hi = self.elliptical_field_fraction, self.elliptical_core_fraction
        # exp decline with scale 0.3 rt, renormalised to hit lo at x=1.
        shape = (np.exp(-x / 0.3) - np.exp(-1.0 / 0.3)) / (1.0 - np.exp(-1.0 / 0.3))
        return lo + (hi - lo) * shape

    def generate_members(self) -> list[GalaxyRecord]:
        """The reproducible member catalog for this cluster.

        Synthesised on the first call and kept on this (frozen) object, so
        every service serving the cluster shares one synthesis; each call
        returns a new list of the same immutable records.  A racing first
        call synthesises an identical copy.
        """
        members = self.__dict__.get("_members")
        if members is None:
            members = self._synthesise_members()
            object.__setattr__(self, "_members", members)
        return list(members)

    def _synthesise_members(self) -> list[GalaxyRecord]:
        rng = derive_rng(self.seed, "cluster", self.name)
        radii = self._king_radii(rng)
        theta = rng.uniform(0.0, 2.0 * np.pi, self.n_galaxies)

        p_early = self.elliptical_probability(radii)
        u_type = rng.random(self.n_galaxies)
        u_sub = rng.random(self.n_galaxies)

        # speed of light in km/s for redshift scatter
        dz = rng.normal(0.0, self.velocity_dispersion_kms / 299_792.458, self.n_galaxies)

        members: list[GalaxyRecord] = []
        for i in range(self.n_galaxies):
            if u_type[i] < p_early[i]:
                morph = MorphType.ELLIPTICAL if u_sub[i] < 0.7 else MorphType.LENTICULAR
            else:
                morph = MorphType.SPIRAL if u_sub[i] < 0.85 else MorphType.IRREGULAR
            asym_lo, asym_hi = MORPH_RENDER_PARAMS[morph]["asym"]  # type: ignore[misc]
            pos = self.center.offset(
                float(radii[i] * np.cos(theta[i])), float(radii[i] * np.sin(theta[i]))
            )
            # Schechter-ish magnitudes: brighter galaxies rarer; ellipticals
            # slightly brighter on average (they sit in the core).
            mag = 16.0 + rng.gamma(3.0, 1.0) - (0.5 if morph == MorphType.ELLIPTICAL else 0.0)
            members.append(
                GalaxyRecord(
                    galaxy_id=f"{self.name}-{i:04d}",
                    ra=pos.ra,
                    dec=pos.dec,
                    redshift=float(self.redshift + dz[i]),
                    magnitude=float(mag),
                    morph=morph,
                    r_e_arcsec=float(rng.uniform(2.0, 6.0)),
                    ellipticity=float(rng.uniform(0.0, 0.6 if morph != MorphType.ELLIPTICAL else 0.4)),
                    position_angle_deg=float(rng.uniform(0.0, 180.0)),
                    asymmetry_true=float(rng.uniform(asym_lo, asym_hi)),
                    radius_deg=float(radii[i]),
                )
            )
        if self.subcluster_fraction > 0.0:
            members = self._inject_subcluster(members)
        return members

    def _inject_subcluster(self, members: list[GalaxyRecord]) -> list[GalaxyRecord]:
        """Relocate a fraction of members into an infalling subclump.

        Uses a *separate* RNG stream so that a cluster with
        ``subcluster_fraction=0`` generates byte-identical members to one
        that never had the feature.
        """
        import dataclasses

        rng = derive_rng(self.seed, "subcluster", self.name)
        n_sub = int(round(self.subcluster_fraction * len(members)))
        if n_sub < 1:
            return members
        chosen = rng.choice(len(members), size=n_sub, replace=False)
        clump_pa = float(rng.uniform(0.0, 2.0 * np.pi))
        clump_center = self.center.offset(
            self.subcluster_offset_deg * np.cos(clump_pa),
            self.subcluster_offset_deg * np.sin(clump_pa),
        )
        clump_scatter = self.core_radius_deg
        dz_bulk = self.subcluster_velocity_kms / 299_792.458
        out = list(members)
        for index in chosen:
            member = members[int(index)]
            pos = clump_center.offset(
                float(rng.normal(0.0, clump_scatter)), float(rng.normal(0.0, clump_scatter))
            )
            out[int(index)] = dataclasses.replace(
                member,
                ra=pos.ra,
                dec=pos.dec,
                redshift=member.redshift + dz_bulk,
                radius_deg=self.center.separation_deg(pos),
            )
        return out
