"""repro — a complete reproduction of the SC'03 NVO Galaxy Morphology paper.

The package mirrors the system the paper describes, layer by layer:

* formats: :mod:`repro.fits` (FITS images, binary tables, TAN WCS) and
  :mod:`repro.votable` (TABLEDATA + BINARY serialisations, table ops);
* astronomy: :mod:`repro.catalog` (sky geometry, cosmology, cross-match,
  DS9 regions), :mod:`repro.sky` (synthetic clusters + imagery),
  :mod:`repro.morphology` (the Conselice parameters);
* NVO services: :mod:`repro.services` (Cone Search, SIA, cutouts,
  registries, transport model);
* Grid middleware: :mod:`repro.vdl` (Chimera), :mod:`repro.workflow`,
  :mod:`repro.rls`, :mod:`repro.tc`, :mod:`repro.pegasus`,
  :mod:`repro.condor` (DAGMan, simulator, real executor, MDS site
  selection);
* integration: :mod:`repro.core` (the Virtual Data System facade) and
  :mod:`repro.portal` (the end-to-end prototype: portal, compute web
  service, campaign driver, science analysis).

Quick start::

    from repro.portal import build_demo_environment
    from repro.portal.campaign import run_campaign

    env = build_demo_environment()
    report = run_campaign(env)
    print(report.totals_table())

or from a shell: ``python -m repro campaign``.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
