"""App-level tests: routing, admission/backpressure, streaming identity."""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.core.errors import SchedulerError, ServiceTimeoutError
from repro.scheduler.policy import AdmissionPolicy
from repro.scheduler.service import WorkloadManager
from repro.serve.app import ServeApp, TenantGate
from repro.serve.http import HttpError, Response, StreamingResponse, parse_request_head
from repro.serve.observability import ObservabilityPlane
from repro.services.protocol import ConeSearchRequest
from repro.votable.writer import write_votable

from tests.doubles import HeldJobRunner, SyntheticJobRunner
from tests.serve.conftest import (
    TINY_DEC,
    TINY_NAME,
    TINY_RA,
    run_with_app,
    run_with_server,
)


def req(method: str, target: str, *, tenant: str = "", body: bytes = b""):
    lines = [f"{method} {target} HTTP/1.1", "Host: test"]
    if tenant:
        lines.append(f"X-Tenant: {tenant}")
    request = parse_request_head("\r\n".join(lines).encode("ascii"))
    request.body = body
    return request


def drained(response: StreamingResponse) -> bytes:
    out = bytearray()
    for chunk in response.chunks:
        out += chunk.encode("utf-8") if isinstance(chunk, str) else chunk
    return bytes(out)


async def served_result(stack) -> tuple[str, bytes | None]:
    """Submit the tiny cluster over the app, long-poll it, fetch its bytes."""
    body = json.dumps({"cluster": TINY_NAME}).encode()
    submit = await stack.app.handle(req("POST", "/jobs", tenant="alice", body=body))
    location = dict(submit.headers)["Location"]
    status = await stack.app.handle(req("GET", f"{location}?wait=30"))
    state = json.loads(status.body)["state"]
    if state != "completed":
        return state, None
    return state, drained(await stack.app.handle(req("GET", f"{location}/result")))


class TestTenantGate:
    def test_bounds_are_validated(self):
        with pytest.raises(ValueError):
            TenantGate(per_tenant=0, total=64)

    def test_per_tenant_and_total_bounds(self):
        gate = TenantGate(per_tenant=1, total=2)
        assert gate.try_enter("a")
        assert not gate.try_enter("a")  # per-tenant bound
        assert gate.try_enter("b")
        assert not gate.try_enter("c")  # global bound
        gate.leave("a")
        assert gate.try_enter("c")
        assert gate.inflight() == 2
        assert gate.inflight("b") == 1


class TestRouteLabel:
    @pytest.mark.parametrize(
        ("method", "path", "label"),
        [
            ("GET", "/cone", "cone"),
            ("GET", "/sia", "sia"),
            ("GET", "/health", "health"),
            ("GET", "/metrics", "metrics"),
            ("GET", "/queue", "queue"),
            ("POST", "/jobs", "jobs.submit"),
            ("GET", "/jobs", "jobs.list"),
            ("GET", "/jobs/job-1", "jobs.status"),
            ("GET", "/jobs/job-1/result", "jobs.result"),
            ("GET", "/nope", "unmatched"),
        ],
    )
    def test_labels_are_stable_and_low_cardinality(self, method, path, label):
        assert ServeApp.route_label(method, path) == label


class TestQueryEndpoints:
    def test_health_reports_queue_state(self):
        async def scenario(stack):
            response = await stack.app.handle(req("GET", "/health"))
            return json.loads(response.body)

        payload = run_with_app(scenario)
        assert payload["status"] == "ok"
        assert payload["queued"] == 0

    def test_cone_streams_byte_identical_to_writer(self):
        """Acceptance criterion: streamed == non-streaming writer output."""

        async def scenario(stack):
            target = f"/cone?RA={TINY_RA}&DEC={TINY_DEC}&SR=0.25"
            response = await stack.app.handle(req("GET", target))
            assert isinstance(response, StreamingResponse)
            streamed = drained(response)
            reference = stack.env.photometry_service.search(
                ConeSearchRequest(ra=TINY_RA, dec=TINY_DEC, sr=0.25)
            )
            assert streamed == write_votable(reference).encode("utf-8")
            assert int(dict(response.headers)["X-Record-Count"]) == len(reference)
            # the gate slot taken by handle() is released by consumption
            assert stack.app.gate.inflight() == 0

        run_with_app(scenario)

    @pytest.mark.parametrize(
        "target",
        [
            "/cone?RA=150&DEC=2.2",  # missing SR
            "/cone?RA=abc&DEC=2.2&SR=0.2",
            "/cone?RA=150&DEC=2.2&SR=0.2&catalog=sounding",
            "/sia?POS=150.0&SIZE=0.2",  # malformed POS
            "/sia?POS=150.0,2.2",  # missing SIZE
            "/sia?POS=1,2&SIZE=0.2&survey=nope",
            "/cone?RA=1&DEC=1&SR=nan",
            "/sia?POS=1,1&SIZE=nan",
        ],
    )
    def test_bad_query_parameters_are_400(self, target):
        async def scenario(stack):
            with pytest.raises(HttpError) as err:
                await stack.app.handle(req("GET", target))
            assert err.value.status == 400
            assert stack.app.gate.inflight() == 0

        run_with_app(scenario)

    def test_sia_streams_the_archive_table(self):
        async def scenario(stack):
            target = f"/sia?POS={TINY_RA},{TINY_DEC}&SIZE=0.3&survey=rosat"
            response = await stack.app.handle(req("GET", target))
            body = drained(response)
            assert body.startswith(b"<?xml version='1.0' encoding='utf-8'?>")
            assert b"VOTABLE" in body

        run_with_app(scenario)

    def test_method_not_allowed_carries_allow_header(self):
        async def scenario(stack):
            with pytest.raises(HttpError) as err:
                await stack.app.handle(req("POST", "/cone?RA=1&DEC=2&SR=0.1"))
            assert err.value.status == 405
            assert dict(err.value.headers)["Allow"] == "GET"

        run_with_app(scenario)

    def test_unknown_route_is_404(self):
        async def scenario(stack):
            with pytest.raises(HttpError) as err:
                await stack.app.handle(req("GET", "/totally/elsewhere"))
            assert err.value.status == 404

        run_with_app(scenario)


class TestJobEndpoints:
    def test_submit_then_poll_then_stream_result(self):
        async def scenario(stack):
            submit = await stack.app.handle(
                req(
                    "POST",
                    "/jobs",
                    tenant="alice",
                    body=json.dumps({"cluster": "SRV01"}).encode(),
                )
            )
            assert submit.status == 202
            job = json.loads(submit.body)
            location = dict(submit.headers)["Location"]
            assert location == f"/jobs/{job['job_id']}"

            # long-poll until terminal, then stream the result
            status = await stack.app.handle(req("GET", f"{location}?wait=30"))
            record = json.loads(status.body)
            assert record["state"] == "completed"

            result = await stack.app.handle(req("GET", f"{location}/result"))
            body = drained(result)
            assert body == stack.manager.result_bytes(job["job_id"])
            assert body.startswith(b"<?xml version='1.0' encoding='utf-8'?>")

        run_with_app(scenario)

    def test_served_job_reports_its_accounting(self):
        """A cold job's record carries the §5 accounting of its own compute
        request; an identical resubmit is a cache hit and carries none."""

        async def submit_and_wait(stack):
            body = json.dumps({"cluster": "SRV01"}).encode()
            submit = await stack.app.handle(req("POST", "/jobs", tenant="alice", body=body))
            location = dict(submit.headers)["Location"]
            status = await stack.app.handle(req("GET", f"{location}?wait=60"))
            return json.loads(status.body)

        async def scenario(stack):
            cold = await submit_and_wait(stack)
            assert cold["state"] == "completed" and not cold["cache_hit"]
            a = cold["accounting"]
            assert a["galaxies"] == 12 and a["valid_measurements"] > 0
            assert a["compute_jobs"] == a["galaxies"] + 1
            assert a["transfers"] == a["stage_in"] + a["inter_site"] + a["stage_out"]
            assert a["images"] == a["galaxies"] + 4  # tiny_cluster's context images
            assert a["image_bytes"] > 0
            assert sum(a["jobs_per_site"].values()) == a["compute_jobs"]
            assert (a["failed_nodes"], a["unrunnable_nodes"]) == (0, 0)

            hit = await submit_and_wait(stack)
            assert hit["cache_hit"] and hit["accounting"] is None
            complete = {
                line["job_id"]: line
                for line in stack.manager.journal.events()
                if line["event"] == "complete"
            }
            assert complete[cold["job_id"]]["accounting"] == a
            assert "accounting" not in complete[hit["job_id"]]

        run_with_app(scenario, runner="portal")

    def test_submit_body_validation(self):
        cases = [
            (b"{not json", "malformed JSON"),
            (b"[]", "must be an object"),
            (b"{}", "cluster"),
            (b'{"cluster": "X", "options": 5}', "options"),
            (b'{"cluster": "X", "priority": "high"}', "priority"),
        ]

        async def scenario(stack):
            for body, needle in cases:
                with pytest.raises(HttpError) as err:
                    await stack.app.handle(req("POST", "/jobs", body=body))
                assert err.value.status == 400
                assert needle in err.value.detail

        run_with_app(scenario)

    def test_unschedulable_user_and_infinite_priority_are_400(self):
        """A list ``user`` is unhashable and an int one unorderable against
        the string names the fair-share pick sorts; queued once, either
        stopped dispatch for every tenant.  ``Infinity`` parses as JSON
        and overflows ``int()``.  All three are refused at the door, and
        the next well-formed job runs."""
        bodies = [
            b'{"cluster": "SRV01", "user": ["x"]}',
            b'{"cluster": "SRV01", "user": 5}',
            b'{"cluster": "SRV01", "priority": Infinity}',
        ]

        async def scenario(stack):
            for body in bodies:
                with pytest.raises(HttpError) as err:
                    await stack.app.handle(req("POST", "/jobs", tenant="bob", body=body))
                assert err.value.status == 400
            assert stack.manager.jobs() == []
            state, content = await served_result(stack)
            assert state == "completed" and content

        run_with_app(scenario)

    def test_non_finite_wait_is_400_not_an_unbounded_long_poll(self):
        """``?wait=nan`` slipped through the 30 s cap and held an executor
        thread until the job ended."""
        runner = HeldJobRunner()

        async def scenario(stack):
            record = await asyncio.to_thread(stack.manager.submit, "alice", TINY_NAME, {})
            assert await asyncio.to_thread(runner.started.wait, 5.0)
            t0 = time.monotonic()
            try:
                for wait in ("nan", "inf"):
                    with pytest.raises(HttpError) as err:
                        await asyncio.wait_for(
                            stack.app.handle(req("GET", f"/jobs/{record.job_id}?wait={wait}")),
                            timeout=5.0,
                        )
                    assert err.value.status == 400
                elapsed = time.monotonic() - t0
            finally:
                runner.release.set()
            assert elapsed < 1.0

        run_with_app(scenario, runner=runner)

    def test_served_job_retries_a_transient_cutout_timeout(self):
        """Every served environment runs the retry layer ``repro chaos``
        certifies: a cutout query that times out once is re-asked, and the
        job's bytes are the undisturbed run's."""

        async def scenario(stack):
            service = stack.env.cutout_service
            query, calls = service.query, []

            def times_out_once(request):
                calls.append(request)
                if len(calls) == 1:
                    raise ServiceTimeoutError("cutout query timed out")
                return query(request)

            service.query = times_out_once
            return await served_result(stack), len(calls)

        async def undisturbed(stack):
            return await served_result(stack)

        (state, content), calls = run_with_app(scenario, runner="portal")
        assert state == "completed"
        assert calls == 12 + 1  # one query per galaxy, plus the retried one
        assert content == run_with_app(undisturbed, runner="portal")[1]

    def test_unknown_job_is_404(self):
        async def scenario(stack):
            for target in ("/jobs/job-404-x", "/jobs/job-404-x/result"):
                with pytest.raises(HttpError) as err:
                    await stack.app.handle(req("GET", target))
                assert err.value.status == 404

        run_with_app(scenario)

    def test_result_of_unfinished_job_is_409(self):
        async def scenario(stack):
            # the manager is built but never started: the job stays queued
            record = stack.manager.submit("alice", "SRV01", {})
            with pytest.raises(HttpError) as err:
                await stack.app.handle(req("GET", f"/jobs/{record.job_id}/result"))
            assert err.value.status == 409

        import asyncio

        from tests.serve.conftest import build_tiny_stack

        # mirror run_with_app but without manager.start()
        asyncio.run(scenario(build_tiny_stack()))

    def test_result_gone_after_restart_is_410(self, tmp_path):
        from repro.serve.loadgen import http_request

        journal = str(tmp_path / "journal.jsonl")

        async def first(stack, host, port):
            _, _, body = await http_request(
                host, port, "POST", "/jobs", headers=[("X-Tenant", "alice")],
                body=json.dumps({"cluster": "SRV01"}).encode(),
            )
            job_id = json.loads(body)["job_id"]
            status, _, body = await http_request(host, port, "GET", f"/jobs/{job_id}?wait=30")
            assert json.loads(body)["state"] == "completed"
            status, _, _ = await http_request(host, port, "GET", f"/jobs/{job_id}/result")
            assert status == 200
            return job_id

        async def restarted(stack, host, port):
            # the journal replays the job as completed, but its stored
            # bytes are gone from the store beside the journal
            assert stack.manager.job(job_id).state.value == "completed"
            return await http_request(host, port, "GET", f"/jobs/{job_id}/result")

        job_id = run_with_server(first, journal_path=journal)
        (stored,) = (tmp_path / "sigstore").glob("*.vot")
        stored.unlink()
        status, _, body = run_with_server(restarted, journal_path=journal)
        assert status == 410
        assert b"no longer materialised" in body

    def test_a_restart_on_the_same_journal_serves_the_stored_bytes(self, tmp_path):
        """Results are as durable as the journal: a restarted server answers
        a completed job byte for byte, and an identical resubmission is a
        cache hit that runs nothing."""
        from repro.serve.loadgen import http_request

        journal = str(tmp_path / "journal.jsonl")

        async def submit(host, port):
            _, _, body = await http_request(
                host, port, "POST", "/jobs", headers=[("X-Tenant", "alice")],
                body=json.dumps({"cluster": "SRV01"}).encode(),
            )
            job_id = json.loads(body)["job_id"]
            _, _, body = await http_request(host, port, "GET", f"/jobs/{job_id}?wait=30")
            view = json.loads(body)
            assert view["state"] == "completed"
            status, _, content = await http_request(host, port, "GET", f"/jobs/{job_id}/result")
            assert status == 200
            return job_id, view, content

        async def first(stack, host, port):
            return await submit(host, port)

        async def restarted(stack, host, port):
            status, _, content = await http_request(host, port, "GET", f"/jobs/{job_id}/result")
            assert status == 200
            return content, await submit(host, port)

        job_id, view, content = run_with_server(first, journal_path=journal, runner="portal")
        assert view["cache_hit"] is False and view["accounting"] is not None
        again, (_, resubmitted, resubmitted_content) = run_with_server(
            restarted, journal_path=journal, runner="portal"
        )
        assert again == content
        assert resubmitted["cache_hit"] is True
        assert resubmitted["accounting"] is None
        assert resubmitted_content == content


class TestAdmissionAndBackpressure:
    def test_tenant_gate_sheds_with_retry_after(self):
        async def scenario(stack):
            gate = TenantGate(per_tenant=1, total=8)
            app = ServeApp(stack.env, stack.manager, plane=ObservabilityPlane(), gate=gate)
            target = f"/cone?RA={TINY_RA}&DEC={TINY_DEC}&SR=0.2"
            held = await app.handle(req("GET", target, tenant="alice"))
            # stream not yet consumed: alice's slot is still in flight
            with pytest.raises(HttpError) as err:
                await app.handle(req("GET", target, tenant="alice"))
            assert err.value.status == 429
            assert "Retry-After" in dict(err.value.headers)
            # other tenants are unaffected
            other = await app.handle(req("GET", target, tenant="bob"))
            drained(other)
            # consuming the held stream frees the slot
            drained(held)
            after = await app.handle(req("GET", target, tenant="alice"))
            drained(after)
            assert gate.inflight() == 0

        run_with_app(scenario)

    def test_abandoned_stream_releases_slot_on_close(self):
        async def scenario(stack):
            gate = TenantGate(per_tenant=1, total=8)
            app = ServeApp(stack.env, stack.manager, plane=ObservabilityPlane(), gate=gate)
            target = f"/cone?RA={TINY_RA}&DEC={TINY_DEC}&SR=0.2"
            held = await app.handle(req("GET", target, tenant="alice"))
            assert gate.inflight("alice") == 1
            held.chunks.close()  # what write_response does on an aborted write
            assert gate.inflight("alice") == 0

        run_with_app(scenario)

    def test_queue_full_submission_sheds_429(self):
        async def scenario(stack):
            assert isinstance(
                (
                    await stack.app.handle(
                        req("POST", "/jobs", tenant="a",
                            body=b'{"cluster": "SRV01"}')
                    )
                ),
                Response,
            )
            with pytest.raises(HttpError) as err:
                await stack.app.handle(
                    req("POST", "/jobs", tenant="a",
                        body=b'{"cluster": "SRV01", "options": {"n": 2}}')
                )
            assert err.value.status == 429
            retry = dict(err.value.headers)["Retry-After"]
            assert int(retry) >= 1

        import asyncio

        from tests.serve.conftest import build_tiny_stack

        async def unstarted():
            # manager never started: the first job occupies the whole queue
            stack = build_tiny_stack()
            stack.manager = WorkloadManager(
                SyntheticJobRunner(),
                admission=AdmissionPolicy(max_queue_depth=1, max_active_per_user=8),
            )
            stack.app.manager = stack.manager
            await scenario(stack)

        asyncio.run(unstarted())

    def test_retry_after_scales_with_backlog(self):
        async def scenario(stack):
            base = stack.app.retry_after()
            assert base == 1  # empty queue still tells clients to back off
            for i in range(12):
                stack.manager.submit("a", "SRV01", {"i": i})
            assert stack.app.retry_after() >= 6

        import asyncio

        from tests.serve.conftest import build_tiny_stack

        asyncio.run(scenario(build_tiny_stack()))
