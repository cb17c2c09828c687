"""Self-tests of the measuring instrument (``python -m pytest benchmarks/e2e -q``).

Not part of tier-1 (``testpaths`` stays ``tests``): these check the
benchmark's own arithmetic, wire client and tooling, plus one smoke pass
over all five workloads against a real server child.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from benchmarks.e2e import client, harness, inputs, run, stats


# -- statistics ---------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 90) == 5.0
    assert stats.percentile(samples, 0) == 1.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_sample_count_rule_needs_ten_samples_beyond_the_percentile():
    assert stats.supported_percentile(4) == 50
    assert stats.supported_percentile(99) == 50
    assert stats.supported_percentile(100) == 90
    assert stats.supported_percentile(999) == 90
    assert stats.supported_percentile(1000) == 99
    assert stats.supported_percentile(10_000) == 99.9


def test_spread_is_the_drivers_quartile_rule():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_self_time_counts_overlapping_children_once():
    spans = [
        stats.Span("parent", 0.0, 10.0, None, "t"),
        stats.Span("a", 1.0, 5.0, 0, "t"),
        stats.Span("b", 3.0, 7.0, 0, "t"),  # overlaps a on [3, 5]
        stats.Span("c", 9.0, 12.0, 0, "t"),  # runs past the parent's end
        stats.Span("grandchild", 2.0, 3.0, 1, "t"),
    ]
    selfs = stats.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (6.0 + 1.0))  # [1,7] and [9,10]
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(4.0)


def test_recorder_parents_by_nesting_and_is_free_when_off():
    rec = stats.SpanRecorder()
    with rec.span("job", trace="c1"):
        with rec.span("stage"):
            pass
    assert [(s.name, s.parent, s.trace) for s in rec.spans] == [
        ("job", None, "c1"),
        ("stage", 0, "c1"),
    ]
    assert all(r["self_s"] >= 0 for r in rec.records())
    off = stats.SpanRecorder(enabled=False)
    with off.span("job"):
        pass
    assert off.spans == []


# -- inputs -------------------------------------------------------------------------
def test_same_seed_same_inputs():
    a = inputs.make_workload("cold-serial", 11, 10)
    b = inputs.make_workload("cold-serial", 11, 10)
    c = inputs.make_workload("cold-serial", 12, 10)
    assert [inputs.cluster_to_dict(x) for x in a.clusters] == [
        inputs.cluster_to_dict(x) for x in b.clusters
    ]
    assert a.jobs == b.jobs
    assert [x.name for x in a.clusters] != [x.name for x in c.clusters]
    assert a.clusters[0] == inputs.cluster_from_dict(inputs.cluster_to_dict(a.clusters[0]))


@pytest.mark.parametrize("name", sorted(inputs.SHAPES))
def test_blocks_hold_equal_work_and_sit_on_the_median(name):
    workload = inputs.make_workload(name, inputs.HELD_OUT_SEED, 10)
    shape = workload.shape
    counts = [c.n_galaxies for c in workload.clusters]
    size = len(shape.block)
    for start in range(0, len(counts), size):
        block = counts[start : start + size]
        assert sum(block) == size * shape.richness
    assert 3 * counts.count(shape.richness) >= len(counts)  # the median is a like-sized job
    assert min(counts) >= shape.richness - shape.half_range
    assert max(counts) <= shape.richness + shape.half_range
    assert len(workload.jobs) == shape.clients
    # resubmits under fresh options never repeat a (cluster, options) pair
    if shape.temperature == "warm":
        keys = [(j.cluster, json.dumps(j.options)) for jobs in workload.jobs for j in jobs]
        assert len(keys) == len(set(keys))


# -- the open loop --------------------------------------------------------------------
def test_schedule_is_a_function_of_the_seed():
    a = client.poisson_schedule(100, 2.0, seed=5)
    assert a == client.poisson_schedule(100, 2.0, seed=5)
    assert a != client.poisson_schedule(100, 2.0, seed=6)
    dues = [due for due, _ in a]
    assert dues == sorted(dues) and 0 < dues[0] and dues[-1] < 2.0
    assert 120 < len(a) < 280  # 200 expected
    assert {kind for _, kind in a} == {"job", "cone", "sia"}


def test_open_loop_times_from_the_due_time():
    async def fire(conn, kind, index):
        if index == 0:
            time.sleep(0.05)  # a stall that makes the next send late
        return index != 2

    result = asyncio.run(
        client.open_loop("127.0.0.1", 1, [(0.0, "job"), (0.0, "job"), (0.01, "job")], fire)
    )
    assert result.attempted == 3 and result.failed == 1
    assert len(result.latencies) == 2
    # the second request was due at 0 but sent after the stall: its latency
    # includes the wait, and the generator reports how late it ran
    assert result.latencies[1] >= 0.05
    assert max(result.lateness) >= 0.04


# -- the wire client --------------------------------------------------------------------
async def _tiny_server(requests_per_connection: int, announce_close: bool):
    """Chunked responses in several pieces; drops the connection after N."""

    async def handle(reader, writer):
        try:
            for served in range(requests_per_connection):
                head = await reader.readuntil(b"\r\n\r\n")
                path = head.split(b" ", 2)[1].decode()
                last = announce_close and served == requests_per_connection - 1
                writer.write(
                    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
                    + (b"Connection: close\r\n" if last else b"")
                    + b"\r\n"
                )
                for piece in (b"echo:", path.encode(), b"", b";done"):
                    if piece:
                        writer.write(f"{len(piece):X}\r\n".encode() + piece + b"\r\n")
                writer.write(b"0\r\n\r\n")
                await writer.drain()
        except asyncio.IncompleteReadError:
            pass
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


@pytest.mark.parametrize("announce_close", [False, True])
def test_client_decodes_chunks_and_reconnects(announce_close):
    async def scenario():
        server = await _tiny_server(2, announce_close)
        port = server.sockets[0].getsockname()[1]
        conn = client.Connection("127.0.0.1", port)
        try:
            bodies = []
            for i in range(5):
                status, headers, body = await conn.request("GET", f"/r{i}")
                assert status == 200 and headers["transfer-encoding"] == "chunked"
                bodies.append(body)
            return bodies, conn.connects
        finally:
            await conn.close()
            server.close()
            await server.wait_closed()

    bodies, connects = asyncio.run(scenario())
    assert bodies == [f"echo:/r{i};done".encode() for i in range(5)]
    assert connects == 3  # two requests per connection, silently or announced


def test_client_never_resends_a_post_and_retires_its_own_connections(monkeypatch):
    async def scenario():
        server = await _tiny_server(2, announce_close=False)
        port = server.sockets[0].getsockname()[1]
        conn = client.Connection("127.0.0.1", port)
        try:
            for i in range(2):
                await conn.request("GET", f"/r{i}")
            # the server has silently dropped the connection: a POST sent into
            # it may or may not have been acted on, so it is not sent twice
            with pytest.raises((ConnectionError, asyncio.IncompleteReadError)):
                await conn.request("POST", "/jobs", body=b"{}")
            assert conn.connects == 1
            # retiring after one request keeps every POST on a fresh connection
            monkeypatch.setattr(client.Connection, "MAX_REQUESTS", 1)
            for i in range(3):
                status, headers, _ = await conn.request("POST", "/jobs", body=b"{}")
                assert status == 200
            return conn.connects
        finally:
            await conn.close()
            server.close()
            await server.wait_closed()

    assert asyncio.run(scenario()) == 4


def test_a_timeout_closes_the_connection(monkeypatch):
    async def scenario():
        async def handle(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhal")  # and stalls
            await writer.drain()
            await asyncio.sleep(1)
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        conn = client.Connection("127.0.0.1", server.sockets[0].getsockname()[1])
        monkeypatch.setattr(client, "IO_TIMEOUT", 0.05)
        try:
            with pytest.raises(asyncio.TimeoutError):
                await conn.request("GET", "/slow")
            return conn._writer  # the half-read response must not answer the next request
        finally:
            await conn.close()
            server.close()
            await server.wait_closed()

    assert asyncio.run(scenario()) is None


# -- throughput and comparison tooling ----------------------------------------------------
def _fake_run(turnarounds: list[float]) -> harness.HttpRun:
    workload = inputs.make_workload("cold-serial", 3, 10)
    samples, clock = [], 0.0
    for index, seconds in enumerate(turnarounds):
        samples.append(
            client.JobSample(
                index, client=0, started=clock, finished=clock + seconds, ok=True, turnaround=seconds
            )
        )
        clock += seconds
    loop = client.LoopResult(samples=samples, wall=clock)
    return harness.HttpRun(workload, [1.0], {}, 0.0, {}, loop, [], {}, 0.0)


def test_throughput_is_work_over_wall_and_the_block_rate_its_undisturbed_median():
    # three whole blocks, one of them stalled, and one the deadline cut short
    run_ = _fake_run([1.0] * 4 + [1.0] * 4 + [5.0] * 4 + [1.0] * 2)
    members = sum(c.n_galaxies for c in run_.workload.clusters[:14])
    galaxies_per_s, jobs_per_s = harness.throughput(run_)
    assert jobs_per_s == pytest.approx(14 / 30.0)  # the stall costs throughput
    assert galaxies_per_s == pytest.approx(members / 30.0)
    assert harness.block_rate_p50(run_) == pytest.approx(4 * 80 / 4.0)  # median of 80, 80, 16
    run_.samples[1].ok = False  # a failed job is work not done in the same time
    assert harness.throughput(run_)[1] == pytest.approx(13 / 30.0)


def test_compare_flags_a_regression_beyond_the_bound(tmp_path, capsys):
    def result_set(turnaround: float) -> dict:
        metrics = {
            name: {"value": 100.0, "unit": spec["unit"]} for name, spec in run.END_TO_END.items()
        }
        metrics["job_turnaround_ms_p50"]["value"] = turnaround
        base = {"workload": "cold-serial", "seed": 1, "trace": 0, "correct": True, "failed": 0}
        return {"runs": [{**base, "metrics": metrics}]}

    bound = run.END_TO_END["job_turnaround_ms_p50"]["bound"]
    a, near, far = tmp_path / "a.json", tmp_path / "near.json", tmp_path / "far.json"
    a.write_text(json.dumps(result_set(100.0)))
    near.write_text(json.dumps(result_set(100.0 * (1 + bound * 0.9))))
    far.write_text(json.dumps(result_set(100.0 * (1 + bound * 1.1))))
    assert run.compare(str(a), str(near)) == 0
    assert run.compare(str(a), str(far)) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert run.compare(str(far), str(a)) == 0  # better is never a regression
    lacking = result_set(100.0)
    del lacking["runs"][0]["metrics"]["peak_rss_mb"]
    near.write_text(json.dumps(lacking))
    assert run.compare(str(a), str(near)) == 1  # a metric missing from one set
    assert "only one of the two sets" in capsys.readouterr().out


def test_calibrate_needs_two_runs():
    with pytest.raises(SystemExit):
        run.main(["--calibrate", "1"])


# -- the whole thing, small ------------------------------------------------------------------
def test_smoke_pass_over_every_workload(capsys):
    started = time.perf_counter()
    assert run.main(["--smoke"]) == 0
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    for name in run.WORKLOADS:
        assert f"## {name} (timed" in out
    assert "WRONG" not in out
    assert elapsed < 20, f"smoke pass took {elapsed:.1f} s"


def test_traced_smoke_run_reports_every_layer_metric(capsys):
    assert run.main(["--smoke", "--workload", "warm-resubmit", "--trace", "1"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["portal.short_circuit_share"]["value"] == 1
    assert (harness.OUT_DIR / "trace-warm-resubmit.jsonl").stat().st_size > 0
