"""Socket-level tests: keep-alive, deadlines, shedding, clean shutdown."""

from __future__ import annotations

import asyncio

from repro.serve.loadgen import http_request

from tests.serve.conftest import TINY_DEC, TINY_RA, run_with_server


async def raw_exchange(host, port, payload: bytes, *, read_until_eof=True) -> bytes:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        await writer.drain()
        if read_until_eof:
            return await reader.read()
        return await reader.readuntil(b"\r\n\r\n")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestConnectionHandling:
    def test_keep_alive_serves_many_requests_on_one_connection(self):
        async def scenario(stack, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for _ in range(3):
                    writer.write(
                        f"GET /health HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
                    )
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                    assert head.startswith(b"HTTP/1.1 200 OK")
                    assert b"Connection: keep-alive" in head
                    length = int(
                        [
                            line.split(b":")[1]
                            for line in head.split(b"\r\n")
                            if line.lower().startswith(b"content-length")
                        ][0]
                    )
                    await reader.readexactly(length)
            finally:
                writer.close()
                await writer.wait_closed()

        run_with_server(scenario)

    def test_last_permitted_response_says_connection_close(self):
        """The server drops a connection after ``max_requests_per_connection``
        responses; the last one must say so instead of promising keep-alive."""

        async def scenario(stack, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                heads = []
                for _ in range(3):
                    writer.write(f"GET /health HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                    (length,) = [
                        int(line.split(b":")[1])
                        for line in head.split(b"\r\n")
                        if line.lower().startswith(b"content-length")
                    ]
                    await reader.readexactly(length)
                    heads.append(head)
                assert all(b"Connection: keep-alive" in head for head in heads[:2])
                assert b"Connection: close" in heads[2]
                assert b"keep-alive" not in heads[2]
                assert await asyncio.wait_for(reader.read(), 2.0) == b""  # EOF
            finally:
                writer.close()
                await writer.wait_closed()

        run_with_server(scenario, max_requests_per_connection=3)

    def test_connection_close_is_honoured(self):
        async def scenario(stack, host, port):
            data = await raw_exchange(
                host,
                port,
                f"GET /health HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode(),
            )
            assert data.startswith(b"HTTP/1.1 200 OK")
            assert b"Connection: close" in data

        run_with_server(scenario)

    def test_malformed_request_gets_400_and_drop(self):
        async def scenario(stack, host, port):
            data = await raw_exchange(host, port, b"WHAT IS THIS\r\n\r\n")
            assert data.startswith(b"HTTP/1.1 400 ")

        run_with_server(scenario)

    def test_head_request_sends_headers_only(self):
        async def scenario(stack, host, port):
            data = await raw_exchange(
                host,
                port,
                f"HEAD /health HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode(),
            )
            head, _, body = data.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 OK")
            assert b"Content-Length" in head
            assert body == b""

        run_with_server(scenario)

    def test_slow_loris_header_is_dropped_at_deadline(self):
        async def scenario(stack, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"GET /health HTTP/1.1\r\n")  # never finished
                await writer.drain()
                # the server must hang up (EOF), not wait forever
                data = await asyncio.wait_for(reader.read(), timeout=5.0)
                assert data == b""
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

        run_with_server(scenario, header_timeout=0.2)

    def test_connection_flood_sheds_503_with_retry_after(self):
        async def scenario(stack, host, port):
            # one idle keep-alive connection occupies the only handler slot
            reader1, writer1 = await asyncio.open_connection(host, port)
            writer1.write(f"GET /health HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
            await writer1.drain()
            await reader1.readuntil(b"\r\n\r\n")
            try:
                status, headers, _ = await http_request(
                    host, port, "GET", "/health", timeout=5.0
                )
                assert status == 503
                assert headers.get("retry-after") == "1"
            finally:
                writer1.close()
                await writer1.wait_closed()

        run_with_server(scenario, max_connections=1, keep_alive_timeout=30.0)


class TestStreamingOverTheWire:
    def test_cone_response_is_chunked_and_parseable(self):
        async def scenario(stack, host, port):
            status, headers, body = await http_request(
                host, port, "GET", f"/cone?RA={TINY_RA}&DEC={TINY_DEC}&SR=0.25"
            )
            assert status == 200
            assert headers.get("transfer-encoding") == "chunked"
            assert headers.get("content-type") == "application/x-votable+xml"
            assert body.startswith(b"<?xml version='1.0' encoding='utf-8'?>")
            assert body.rstrip().endswith(b"</VOTABLE>")

        run_with_server(scenario)

    def test_full_job_lifecycle_over_http(self):
        async def scenario(stack, host, port):
            status, headers, body = await http_request(
                host,
                port,
                "POST",
                "/jobs",
                headers=[("X-Tenant", "alice"), ("Content-Type", "application/json")],
                body=b'{"cluster": "SRV01"}',
            )
            assert status == 202
            location = headers["location"]
            status, _, body = await http_request(
                host, port, "GET", f"{location}?wait=30"
            )
            assert status == 200 and b'"state": "completed"' in body
            status, headers, result = await http_request(
                host, port, "GET", f"{location}/result"
            )
            assert status == 200
            assert headers.get("transfer-encoding") == "chunked"
            job_id = location.rsplit("/", 1)[1]
            assert result == stack.manager.result_bytes(job_id)

        run_with_server(scenario)


class TestShutdown:
    def test_close_leaves_no_tasks_and_refuses_connections(self):
        async def scenario():
            from tests.serve.conftest import build_tiny_stack

            stack = build_tiny_stack()
            await stack.start()
            host, port = stack.server.host, stack.server.port
            status, _, _ = await http_request(host, port, "GET", "/health")
            assert status == 200
            await stack.close()

            current = asyncio.current_task()
            stray = [
                t for t in asyncio.all_tasks() if t is not current and not t.done()
            ]
            assert stray == []
            assert stack.server.connections() == 0
            try:
                _, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port), timeout=1.0
                )
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
            else:
                writer.close()
                raise AssertionError("listener still accepting after close()")

        asyncio.run(scenario())

    def test_close_is_safe_with_inflight_idle_connection(self):
        async def scenario():
            from tests.serve.conftest import build_tiny_stack

            stack = build_tiny_stack()
            await stack.start()
            host, port = stack.server.host, stack.server.port
            # an idle keep-alive connection is parked in its read loop
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(f"GET /health HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")
            await stack.close(grace=0.2)
            assert stack.server.connections() == 0
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

        asyncio.run(scenario())
