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

or from a shell: ``python -m repro campaign``.  ``repro.portal`` exports
only what a served job runs; the science analysis is imported from its own
modules::

    from repro.portal.analysis import analyze_morphology_catalog, local_density
    from repro.portal.dynamics import analyze_dynamics
"""

__version__ = "1.0.0"

#: How a deployment is sized unless told otherwise.  The one declared default
#: of each: the manager, the stack builders, the shard worker config and the
#: CLI flags that relay them all import these names (cheaply: no numpy here).
MAX_WORKERS = 4  # concurrent campaigns of one workload manager
SHARD_MAX_WORKERS = MAX_WORKERS // 2  # per fleet worker: one of several processes on the machine
SLOTS_PER_JOB = 4  # pool slots leased per job
SHARDS = 4  # worker processes of a fleet

__all__ = ["__version__", "MAX_WORKERS", "SHARD_MAX_WORKERS", "SLOTS_PER_JOB", "SHARDS"]
