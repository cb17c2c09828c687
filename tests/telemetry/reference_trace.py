"""Fixed input for the trace-report tests: a recorded demo ``analyze`` run."""

#: A trimmed, hand-checked trace of one portal analysis: the Figure 5 walk
#: (portal -> services -> compute service -> planner -> condor -> kernels)
#: with four sim-clock DAG-node spans carrying ``deps`` edges.
REFERENCE_TRACE_JSONL = """\
{"name": "portal.run_analysis", "trace": "t0-ref", "span": "s1", "parent": null, "start": 0.0, "end": 9.5, "dur": 9.5, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"cluster": "A3526", "galaxies": 4}}
{"name": "portal.select_cluster", "trace": "t0-ref", "span": "s2", "parent": "s1", "start": 0.0, "end": 0.4, "dur": 0.4, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"cluster": "A3526", "images": 10}}
{"name": "service.sia_query", "trace": "t0-ref", "span": "s3", "parent": "s2", "start": 0.1, "end": 0.3, "dur": 0.2, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"survey": "SYNTH-DSS", "records": 8}}
{"name": "portal.build_catalog", "trace": "t0-ref", "span": "s4", "parent": "s1", "start": 0.4, "end": 1.1, "dur": 0.7, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"matched": 4}}
{"name": "service.cone_search", "trace": "t0-ref", "span": "s5", "parent": "s4", "start": 0.5, "end": 0.8, "dur": 0.3, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"service": "SyntheticPhotometryCatalog", "records": 4}}
{"name": "portal.resolve_cutouts", "trace": "t0-ref", "span": "s6", "parent": "s1", "start": 1.1, "end": 1.9, "dur": 0.8, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"resolved": 4}}
{"name": "portal.submit_and_wait", "trace": "t0-ref", "span": "s7", "parent": "s1", "start": 1.9, "end": 9.0, "dur": 7.1, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"polls": 1}}
{"name": "service.request", "trace": "t0-ref", "span": "s8", "parent": "s7", "start": 2.0, "end": 8.8, "dur": 6.8, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"cluster": "A3526", "out": "A3526-morphology.vot"}}
{"name": "service.collect_images", "trace": "t0-ref", "span": "s9", "parent": "s8", "start": 2.1, "end": 3.0, "dur": 0.9, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"downloaded": 4, "cached": 0}}
{"name": "service.vdl_generate", "trace": "t0-ref", "span": "s10", "parent": "s8", "start": 3.0, "end": 3.2, "dur": 0.2, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"galaxies": 4}}
{"name": "vdl.compose", "trace": "t0-ref", "span": "s11", "parent": "s8", "start": 3.2, "end": 3.4, "dur": 0.2, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"requested": 1, "jobs": 5}}
{"name": "pegasus.plan", "trace": "t0-ref", "span": "s12", "parent": "s8", "start": 3.4, "end": 4.0, "dur": 0.6, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"jobs": 5, "concrete_nodes": 14}}
{"name": "pegasus.rls_resolution", "trace": "t0-ref", "span": "s13", "parent": "s12", "start": 3.4, "end": 3.5, "dur": 0.1, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"logical": 9, "physical": 4}}
{"name": "pegasus.reduction", "trace": "t0-ref", "span": "s14", "parent": "s12", "start": 3.5, "end": 3.6, "dur": 0.1, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"before": 5, "after": 5, "pruned": 0}}
{"name": "pegasus.concretize", "trace": "t0-ref", "span": "s15", "parent": "s12", "start": 3.6, "end": 3.9, "dur": 0.3, "status": "ok", "clock": "wall", "pid": 1, "attrs": {}}
{"name": "condor.execute", "trace": "t0-ref", "span": "s16", "parent": "s8", "start": 4.0, "end": 8.7, "dur": 4.7, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"mode": "simulate", "nodes": 14, "succeeded": true}}
{"name": "condor.node", "trace": "t0-ref", "span": "s17", "parent": "s16", "start": 0.0, "end": 2.1, "dur": 2.1, "status": "ok", "clock": "sim", "pid": 1, "attrs": {"node": "stage-in-g1.fit", "kind": "transfer", "site": "pool-a", "attempts": 1, "deps": []}}
{"name": "condor.node", "trace": "t0-ref", "span": "s18", "parent": "s16", "start": 2.1, "end": 14.3, "dur": 12.2, "status": "ok", "clock": "sim", "pid": 1, "attrs": {"node": "dv-g1", "kind": "compute", "site": "pool-a", "attempts": 1, "deps": ["stage-in-g1.fit"]}}
{"name": "condor.node", "trace": "t0-ref", "span": "s19", "parent": "s16", "start": 2.1, "end": 13.1, "dur": 11.0, "status": "ok", "clock": "sim", "pid": 1, "attrs": {"node": "dv-g2", "kind": "compute", "site": "pool-b", "attempts": 2, "deps": ["stage-in-g1.fit"]}}
{"name": "condor.node", "trace": "t0-ref", "span": "s20", "parent": "s16", "start": 14.3, "end": 19.4, "dur": 5.1, "status": "ok", "clock": "sim", "pid": 1, "attrs": {"node": "dv-concat", "kind": "compute", "site": "pool-a", "attempts": 1, "deps": ["dv-g1", "dv-g2"]}}
{"name": "galmorph.batch", "trace": "t0-ref", "span": "s21", "parent": "s16", "start": 5.0, "end": 8.0, "dur": 3.0, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"n": 4, "processes": 1}}
{"name": "galmorph.galaxy", "trace": "t0-ref", "span": "s22", "parent": "s21", "start": 5.1, "end": 5.6, "dur": 0.5, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"galaxy": "g1", "valid": true}}
{"name": "portal.merge_results", "trace": "t0-ref", "span": "s23", "parent": "s1", "start": 9.0, "end": 9.4, "dur": 0.4, "status": "ok", "clock": "wall", "pid": 1, "attrs": {"rows": 4}}
"""
