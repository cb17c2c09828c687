"""The end-to-end system: portal, compute web service, science analysis.

§4 of the paper: a portal (hosted at STScI, §4.2) orchestrates the NVO
services and hands the assembled galaxy VOTable to the "Pegasus as a Web
service" at ISI (§4.3), polls the returned status URL, and merges the
computed morphology parameters back into the catalog.  This package is that
system.  It exports what a served job runs:

* :func:`build_demo_environment` — one call wiring every component of the
  demonstration (§5 campaign configuration) into a :class:`DemoEnvironment`;
* :class:`GalaxyMorphologyPortal` — the portal information flow (Figure 5),
  one :class:`PortalSession` per cluster;
* :class:`GalaxyMorphologyService` — the asynchronous compute web service
  (Figure 6's seven steps, including the RLS short-circuit and image cache),
  reporting a :class:`ServiceRequestStatus`.

The science analysis runs after a job, never inside one, so importing this
package does not load it.  Import those modules where they are used:

* :mod:`repro.portal.analysis` — the Dressler density-morphology statistics
  behind Figure 7, and :mod:`repro.portal.visualize` for the overlay plot;
* :mod:`repro.portal.dynamics` — velocity dispersion and the
  Dressler-Shectman substructure test;
* :mod:`repro.portal.overlay` — FITS layers and DS9 regions;
* :mod:`repro.portal.campaign` — runs the §5 campaign over every cluster.
"""

from repro.portal.demo import DemoEnvironment, build_demo_environment
from repro.portal.portal import GalaxyMorphologyPortal, PortalSession
from repro.portal.service import GalaxyMorphologyService, ServiceRequestStatus

__all__ = [
    "DemoEnvironment",
    "build_demo_environment",
    "GalaxyMorphologyPortal",
    "PortalSession",
    "GalaxyMorphologyService",
    "ServiceRequestStatus",
]
