"""Drive one workload over HTTP against the server child and check it.

Everything timed here runs with tracing off: the server is the production
shape (observability plane wired but disabled) and this process only keeps
per-job samples.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from benchmarks.e2e import client, inputs, stats
from benchmarks.e2e.inputs import Job, Workload
from repro.portal.demo import build_demo_environment
from repro.scheduler.job import JobSpec
from repro.scheduler.journal import JobJournal
from repro.scheduler.runner import PortalJobRunner
from repro.votable.parser import parse_votable

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
HOST = "127.0.0.1"

#: Server job workers = cores of the reference machine (one server process,
#: one load-generator process, ``nproc`` = 2).
SERVER_MAX_WORKERS = 2


def confined_cpus() -> list[int]:
    """The cores every measured process runs on: the first half, for the
    server child and for this process (load generator, reference runs,
    traced walk) alike.  On the reference machine that is **one core** of two.

    Why the server is confined: left free, its GIL-bound threads bounce
    between the cores and the same inputs run in two modes minutes apart
    (``cold-serial`` 125 or 240 galaxies/s; two tenants 80-117 against 215
    confined), a spread no bound could cover.  The traced run measures the
    free-running shape too, ungated (``process.free_cores_*``).

    Why the load generator shares the server's core and does not get the
    other one: a request handed from core to core wakes a halted vCPU, which
    goes through the hypervisor, and on ``cache-hit`` (four hand-overs per
    3 ms job) that made the run-to-run spread 23-31 % against 5-13 % shared.
    Sharing puts the generator's own CPU time in series with the server's:
    about a fifth of a ``cache-hit`` job, under 2 % of any other.
    """
    cores = sorted(os.sched_getaffinity(0))
    return cores[: max(1, len(cores) // 2)]


#: Rates of the open-loop probe, requests per second.
PROBE_RATES = (100, 200)

#: Clusters per workload compared byte for byte with an in-process run
#: (never more than a quarter of them: the reference costs as much as the job).
REFERENCE_SAMPLES = 3


class ServerChild:
    """The serving stack in a child process, spoken to over stdin/stdout."""

    def __init__(self, workload: Workload, workdir: Path, tag: str, cpus: list[int]) -> None:
        self.journal = workdir / f"journal-{tag}.jsonl"
        self._spec = workdir / f"spec-{tag}.json"
        self._spec.write_text(
            json.dumps(
                {
                    "clusters": [inputs.cluster_to_dict(c) for c in workload.clusters],
                    "journal": str(self.journal),
                    "max_workers": SERVER_MAX_WORKERS,
                }
            )
        )
        self._cpus = cpus
        self.port = 0
        self.stages: dict[str, float] = {}
        self._proc: subprocess.Popen | None = None

    def start(self) -> float:
        """Spawn and wait for the first 200 from ``GET /health``."""
        mine = os.sched_getaffinity(0)
        spawned_wall, spawned = time.time(), time.perf_counter()
        os.sched_setaffinity(0, self._cpus)  # the child inherits its cores at fork
        try:
            self._proc = subprocess.Popen(
                [sys.executable, str(HERE / "server_main.py"), str(self._spec)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
        finally:
            os.sched_setaffinity(0, mine)
        ready = self._read()
        self.port = int(ready["port"])
        conn = http.client.HTTPConnection(HOST, self.port, timeout=30)
        try:
            conn.request("GET", "/health")
            response = conn.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"/health answered {response.status}")
        finally:
            conn.close()
        setup_s = time.perf_counter() - spawned
        self.stages = {
            "import_s": ready["t_imported"] - spawned_wall,
            "env_build_s": ready["t_built"] - ready["t_imported"],
            "listen_s": ready["t_listening"] - ready["t_built"],
        }
        return setup_s

    def _read(self) -> dict[str, Any]:
        assert self._proc is not None and self._proc.stdout is not None
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server child exited with code {self._proc.wait()}")
        return json.loads(line)

    def _say(self, command: str) -> dict[str, Any]:
        assert self._proc is not None and self._proc.stdin is not None
        self._proc.stdin.write(command + "\n")
        self._proc.stdin.flush()
        return self._read()

    def mark(self) -> dict[str, float]:
        return self._say("mark")["mark"]

    def stop(self) -> dict[str, float]:
        """Final counters, then wait for the child to end (kill if it hangs)."""
        proc = self._proc
        if proc is None:
            return {}
        self._proc = None
        try:
            assert proc.stdin is not None and proc.stdout is not None
            proc.stdin.write("stop\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            final = json.loads(line)["final"] if line else {}
            proc.wait(timeout=30)
            return final
        except (OSError, ValueError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
            return {}
        finally:
            for pipe in (proc.stdin, proc.stdout):
                if pipe is not None:
                    pipe.close()


@dataclass
class HttpRun:
    """Everything one HTTP phase observed."""

    workload: Workload
    setups: list[float]
    stages: dict[str, float]
    prime_s: float
    primed: dict[int, bytes]
    loop: client.LoopResult
    health_rtts: list[float]
    timed: dict[str, float]  # the server's counters over the timed loops only
    peak_rss_kb: float
    probes: dict[int, client.ProbeResult] = field(default_factory=dict)
    journal_lines: int = 0
    journal_jobs: int = 0
    journal_replay_s: float = 0.0
    #: cluster index → error, filled by :func:`verify`
    bad_clusters: dict[int, str] = field(default_factory=dict)

    @property
    def samples(self) -> list[client.JobSample]:
        return self.loop.samples

    def good(self) -> list[client.JobSample]:
        return [s for s in self.samples if s.ok and s.cluster not in self.bad_clusters]


async def _health_rtts(port: int, count: int) -> list[float]:
    conn = client.Connection(HOST, port)
    out: list[float] = []
    try:
        for _ in range(count):
            started = time.perf_counter()
            status, _, _ = await conn.request("GET", "/health")
            if status == 200:
                out.append(time.perf_counter() - started)
    finally:
        await conn.close()
    return out


async def _probe(port: int, workload: Workload, hot: list[int], rate: int, seconds: float) -> client.ProbeResult:
    """Open-loop mix against clusters whose results are already cached."""

    async def fire(conn: client.Connection, kind: str, index: int) -> bool:
        cluster = workload.clusters[hot[index % len(hot)]]
        tenant = f"probe-{index % 8}"  # well under the per-tenant in-flight cap
        if kind == "job":
            sample = await client.run_job(conn, tenant, cluster.name, 0, None)
            return sample.ok and sample.cache_hit
        if kind == "cone":
            target = f"/cone?RA={cluster.center.ra}&DEC={cluster.center.dec}&SR=0.2"
        else:
            target = f"/sia?POS={cluster.center.ra},{cluster.center.dec}&SIZE=0.5"
        status, _, body = await conn.request("GET", target, headers=(("X-Tenant", tenant),))
        return status == 200 and body.rstrip().endswith(b"</VOTABLE>")

    schedule = client.poisson_schedule(rate, seconds, workload.seed * 1000 + rate)
    return await client.open_loop(HOST, port, schedule, fire)


def run_http(
    workload: Workload,
    seconds: float,
    setup_repeats: int,
    cpus: list[int],
    probe_seconds: float = 0.0,
) -> HttpRun:
    """Set up ``setup_repeats`` times, prime, run the timed closed loops,
    optionally probe open-loop, shut down, and read the journal left behind."""
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    names = [c.name for c in workload.clusters]
    setups: list[float] = []
    child = ServerChild(workload, workdir, "0", cpus)
    try:
        for repeat in range(setup_repeats):
            if repeat:
                child.stop()
                child = ServerChild(workload, workdir, str(repeat), cpus)
            setups.append(child.start())

        health = asyncio.run(_health_rtts(child.port, 50))
        prime_jobs = [[Job(i) for i in mine] for mine in workload.prime]
        prime = asyncio.run(client.closed_loops(HOST, child.port, names, prime_jobs, None))
        primed = {s.cluster: s.body for s in prime.samples if s.ok}
        if len(primed) != sum(len(mine) for mine in workload.prime):
            errors = [s.error for s in prime.samples if not s.ok]
            raise RuntimeError(f"priming failed: {errors[:3]}")
        mark = child.mark()

        # Resubmits are checked against the priming bytes on the spot, so
        # thousands of identical bodies are never held (or hashed) at once.
        def keep_body(sample: client.JobSample) -> bool:
            return primed.get(sample.cluster) != sample.body

        loop = asyncio.run(
            client.closed_loops(HOST, child.port, names, workload.jobs, seconds, keep_body)
        )
        after = child.mark()
        probes: dict[int, client.ProbeResult] = {}
        if probe_seconds > 0:
            hot = sorted({s.cluster for s in loop.samples if s.ok} | set(primed))
            for rate in PROBE_RATES:
                if hot:
                    probes[rate] = asyncio.run(
                        _probe(child.port, workload, hot, rate, probe_seconds)
                    )
        final = child.stop()
        if not final:
            raise RuntimeError("server child did not report its final counters")
        run = HttpRun(
            workload=workload,
            setups=setups,
            stages=child.stages,
            prime_s=prime.wall if prime.samples else 0.0,
            primed=primed,
            loop=loop,
            health_rtts=health,
            timed={k: after[k] - mark[k] for k in after if k != "vm_hwm_kb"},
            peak_rss_kb=final["vm_hwm_kb"],
            probes=probes,
        )
        _read_journal(run, child.journal)
        return run
    finally:
        child.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def _read_journal(run: HttpRun, path: Path) -> None:
    with path.open("rb") as fh:
        for line in fh:
            run.journal_lines += 1
            run.journal_jobs += b'"event": "submit"' in line
    started = time.perf_counter()
    JobJournal(path).replay()
    run.journal_replay_s = time.perf_counter() - started


# -- the correctness gate ------------------------------------------------------------
def check_table(body: bytes, cluster_name: str, members: int) -> str:
    """'' when ``body`` is a VOTable with one row per catalogued member."""
    try:
        table = parse_votable(body.decode("utf-8"))
    except Exception as exc:  # noqa: BLE001 - any parse failure is a wrong result
        return f"result does not parse as a VOTable: {exc}"
    ids = [row["id"] for row in table]
    if len(ids) != members or len(set(ids)) != members:
        return f"{len(ids)} rows ({len(set(ids))} distinct) for {members} members"
    if not all(i.startswith(cluster_name + "-") for i in ids):
        return "rows from another cluster"
    return ""


def first_bodies(run: HttpRun) -> dict[int, bytes]:
    """Cluster index → the first result the run saw for it."""
    bodies = dict(run.primed)
    for sample in run.samples:
        if sample.ok and sample.cluster not in run.primed:
            bodies[sample.cluster] = sample.body
    return bodies


def check_results(run: HttpRun) -> None:
    """Fill ``run.bad_clusters``: every distinct result parses with one row
    per member, and resubmits equal the priming bytes."""
    for sample in run.samples:
        # a resubmit's body was kept only when it differed from the priming run
        if sample.ok and sample.cluster in run.primed and sample.body:
            run.bad_clusters[sample.cluster] = "resubmit bytes differ from the priming run"
    for index, body in first_bodies(run).items():
        cluster = run.workload.clusters[index]
        error = check_table(body, cluster.name, cluster.n_galaxies)
        if error:
            run.bad_clusters.setdefault(index, error)


def verify(run: HttpRun) -> None:
    """``check_results``, then sampled clusters byte for byte against an
    in-process sequential ``PortalJobRunner``."""
    check_results(run)
    workload, bodies = run.workload, first_bodies(run)
    seen = sorted({s.cluster for s in run.samples if s.ok})
    rng = np.random.default_rng(workload.seed)
    count = min(REFERENCE_SAMPLES, max(1, len(workload.clusters) // 4), len(seen))
    picks = rng.choice(seen, size=count, replace=False) if seen else []
    if len(picks):
        runner = PortalJobRunner(build_demo_environment(clusters=workload.clusters))
        for index in sorted(int(i) for i in picks):
            outcome = runner.run(JobSpec.create("reference", workload.clusters[index].name), None)
            if outcome.result_bytes != bodies[index]:
                run.bad_clusters.setdefault(index, "bytes differ from the in-process reference run")


def free_cores(confined: HttpRun, seconds: float, cpus: list[int]) -> tuple[dict[str, float], list[str]]:
    """The confined phase's loops again, against a server left free on every
    core: the deployed shape, too unsteady to gate (see ``confined_cpus``) but
    the row where a change that frees the GIL or adds processes shows.
    Returns the metrics and what was wrong (same checks, same bytes)."""
    workload = confined.workload
    free = run_http(workload, seconds, 1, cpus)
    check_results(free)
    names = [c.name for c in workload.clusters]
    notes = [f"free cores, {names[i]}: {why}" for i, why in free.bad_clusters.items()]
    notes += [f"free cores, {names[s.cluster]}: {s.error}" for s in free.samples if not s.ok]
    notes += [f"free cores: {error}" for error in path_errors(free)]
    theirs = first_bodies(confined)
    notes += [
        f"free cores, {names[i]}: bytes differ from the confined server's"
        for i, body in first_bodies(free).items()
        if i in theirs and theirs[i] != body
    ]
    rate, base = throughput(free)[0], throughput(confined)[0]
    return {
        "process.free_cores_galaxies_per_s": rate,
        "process.free_cores_speedup": rate / base if base else 0.0,
    }, notes


def path_counts(run: HttpRun) -> dict[str, float]:
    """The counts that prove which path the traffic took."""
    ok = [s for s in run.samples if s.ok]
    jobs = max(1, len(ok))
    timed = run.timed
    return {
        "scheduler.cache_hit_share": sum(1 for s in ok if s.cache_hit) / jobs,
        "portal.short_circuit_share": timed["short_circuited"] / max(1.0, timed["requests"]),
        "condor.nodes_per_job": timed["dag_nodes"] / jobs,
        "pegasus.pruned_share": timed["pruned_jobs"] / max(1.0, timed["abstract_jobs"]),
    }


def path_errors(run: HttpRun) -> list[str]:
    """Does the traffic match the workload's rationale?"""
    counts = path_counts(run)
    ok = sum(1 for s in run.samples if s.ok)
    requests, planned = run.timed["requests"], run.timed["planned"]
    temperature = run.workload.shape.temperature
    expect = {
        "cold": {"scheduler.cache_hit_share": 0, "portal.short_circuit_share": 0, "pegasus.pruned_share": 0},
        "warm": {"scheduler.cache_hit_share": 0, "portal.short_circuit_share": 1, "condor.nodes_per_job": 0},
        "hit": {"scheduler.cache_hit_share": 1, "portal.short_circuit_share": 0, "condor.nodes_per_job": 0},
    }[temperature]
    errors = [
        f"{name} is {counts[name]:g}, {temperature} traffic needs {want}"
        for name, want in expect.items()
        if counts[name] != want
    ]
    want_requests = 0 if temperature == "hit" else ok
    want_planned = ok if temperature == "cold" else 0
    if (requests, planned) != (want_requests, want_planned):
        errors.append(
            f"compute service saw {requests:g} requests and planned {planned:g} "
            f"for {ok} jobs; expected {want_requests} and {want_planned}"
        )
    if temperature == "cold" and ok and counts["condor.nodes_per_job"] <= 0:
        errors.append("cold jobs executed no DAG nodes")
    return errors


# -- metrics ----------------------------------------------------------------------------
def throughput(run: HttpRun) -> tuple[float, float]:
    """(galaxies/s, jobs/s): correctly completed timed work ÷ timed wall
    (first submit to the last result byte), so every stall and every failed
    job costs throughput."""
    good = run.good()
    members = [c.n_galaxies for c in run.workload.clusters]
    wall = run.loop.wall
    return sum(members[s.cluster] for s in good) / wall, len(good) / wall


def block_rate_p50(run: HttpRun) -> float:
    """Galaxies/s as the median over a client's blocks of consecutive jobs,
    summed over clients.  Every block holds the same galaxies
    (``inputs.BLOCK``), so the median is the rate of an undisturbed stretch:
    where it sits above ``galaxies_per_s``, stalls or a ragged end ate the
    difference."""
    good = {id(s) for s in run.good()}
    members = [c.n_galaxies for c in run.workload.clusters]
    size = len(run.workload.shape.block)
    total = 0.0
    for index in range(len(run.workload.jobs)):
        mine = [s for s in run.samples if s.client == index]
        blocks = [mine[i : i + size] for i in range(0, len(mine), size)]
        if len(blocks) > 1 and len(blocks[-1]) < size:
            blocks.pop()  # the deadline cut this one short
        rates = [
            sum(members[s.cluster] for s in block if id(s) in good)
            / (block[-1].finished - block[0].started)
            for block in blocks
        ]
        if rates:
            total += statistics.median(rates)
    return total


def end_to_end(run: HttpRun) -> dict[str, float]:
    good = run.good()
    galaxies_per_s, jobs_per_s = throughput(run)
    return {
        "setup_s": statistics.median(run.setups),
        "job_turnaround_ms_p50": 1e3 * statistics.median(s.turnaround for s in good) if good else 0.0,
        "galaxies_per_s": galaxies_per_s,
        "jobs_per_s": jobs_per_s,
        "peak_rss_mb": run.peak_rss_kb / 1024.0,
    }


def _p(values: list[float], q: float, scale: float = 1e3) -> float:
    return scale * stats.percentile(values, q) if values else 0.0


def http_layer_metrics(run: HttpRun) -> dict[str, float]:
    """Layer metrics visible from the wire and the server's public output."""
    good = run.good()
    jobs = max(1, len(good))
    out = {
        "process.import_s": run.stages["import_s"],
        "process.env_build_s": run.stages["env_build_s"],
        "process.listen_s": run.stages["listen_s"],
        "process.prime_s": run.prime_s,
        "serve.health_rtt_ms_p50": _p(run.health_rtts, 50),
        "serve.submit_rtt_ms_p50": _p([s.submit_rtt for s in good], 50),
        "serve.result_fetch_ms_p50": _p([s.result_fetch for s in good], 50),
        "serve.overhead_ms_p50": _p(
            [s.turnaround - s.server_wait - s.server_run for s in good], 50
        ),
        "serve.turnaround_ms_p90": _p([s.turnaround for s in good], 90),
        "serve.block_galaxies_per_s_p50": block_rate_p50(run),
        "scheduler.queue_wait_ms_p50": _p([s.server_wait for s in good], 50),
        "scheduler.run_ms_p50": _p([s.server_run for s in good], 50),
        "scheduler.journal_lines_per_job": run.journal_lines / max(1, run.journal_jobs),
        "scheduler.journal_replay_ms_per_kline": 1e3 * run.journal_replay_s / max(1e-3, run.journal_lines / 1e3),
        "services.calls_per_job": run.timed["service_calls"] / jobs,
        "services.bytes_per_job": run.timed["bytes_downloaded"] / jobs,
        "condor.failed_or_retried_nodes": run.timed["failed_or_retried_nodes"],
        **path_counts(run),
    }
    late: list[float] = []
    attempted = failed = 0
    for rate in PROBE_RATES:
        probe = run.probes.get(rate, client.ProbeResult())
        out[f"serve.open_r{rate}_p50_ms"] = _p(probe.latencies, 50)
        out[f"serve.open_r{rate}_p99_ms"] = _p(probe.latencies, 99)
        late += probe.lateness
        attempted += probe.attempted
        failed += probe.failed
    out["serve.open_late_p99_ms"] = _p(late, 99)
    out["serve.open_failed_share"] = failed / max(1, attempted)
    return out
