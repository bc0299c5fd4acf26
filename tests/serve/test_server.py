"""Round-trip tests for the JSON-lines TCP server and request router."""

from __future__ import annotations

import asyncio
import json

from repro.constraints import ConstraintSolver
from repro.datalog import parse_program
from repro.serve import MediatorServer, MediatorService, RequestRouter
from repro.stream import StreamScheduler

RULES = """
b(X) <- X = 1.
b(X) <- X = 2.
c(X) <- b(X).
"""


def make_service() -> MediatorService:
    return MediatorService(
        StreamScheduler(parse_program(RULES), ConstraintSolver())
    )


async def rpc(reader, writer, payload) -> dict:
    writer.write((json.dumps(payload) if isinstance(payload, dict) else payload).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


class TestServerRoundTrip:
    def test_query_update_flush_cycle_over_tcp(self):
        async def main():
            async with make_service() as service:
                async with MediatorServer(service) as server:
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(host, port)
                    replies = [
                        await rpc(reader, writer, {"op": "ping"}),
                        await rpc(
                            reader, writer,
                            {"op": "query", "predicate": "c", "universe": "0:10"},
                        ),
                        await rpc(
                            reader, writer,
                            {"op": "insert", "atom": "b(X) <- X = 7"},
                        ),
                        await rpc(
                            reader, writer,
                            {"op": "delete", "atom": "b(X) <- X = 1"},
                        ),
                        await rpc(reader, writer, {"op": "flush"}),
                        await rpc(
                            reader, writer,
                            {"op": "query", "predicate": "c", "universe": "0:10"},
                        ),
                    ]
                    writer.close()
                    await writer.wait_closed()
                    return replies

        ping, before, ins, dele, flush, after = asyncio.run(main())
        assert ping == {"ok": True, "pong": True}
        assert before["ok"] and before["instances"] == [[1], [2]]
        assert ins["ok"] and dele["ok"]
        assert ins["txn"] != dele["txn"]
        assert flush["ok"] and flush["pending"] == 0
        assert after["instances"] == [[2], [7]]

    def test_errors_do_not_break_the_connection(self):
        async def main():
            async with make_service() as service:
                async with MediatorServer(service) as server:
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(host, port)
                    replies = [
                        await rpc(reader, writer, "this is not json"),
                        await rpc(reader, writer, {"op": "explode"}),
                        await rpc(reader, writer, {"op": "query"}),
                        await rpc(reader, writer, {"op": "insert", "atom": "((("}),
                        await rpc(reader, writer, {"op": "ping"}),
                    ]
                    writer.close()
                    await writer.wait_closed()
                    return replies

        bad_json, bad_op, missing, bad_atom, ping = asyncio.run(main())
        assert not bad_json["ok"] and "invalid JSON" in bad_json["error"]
        assert not bad_op["ok"] and "unknown op" in bad_op["error"]
        assert not missing["ok"]
        assert not bad_atom["ok"]
        assert ping["ok"], "connection must survive every error above"

    def test_non_utf8_line_gets_an_error_and_the_connection_survives(self):
        async def main():
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            async with make_service() as service:
                async with MediatorServer(service) as server:
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(b'{"op": "ping", "x": "\xff\xfe"}\n')
                    await writer.drain()
                    bad = json.loads(await reader.readline())
                    ping = await rpc(reader, writer, {"op": "ping"})
                    writer.close()
                    await writer.wait_closed()
            return bad, ping, loop_errors

        bad, ping, loop_errors = asyncio.run(main())
        assert bad["ok"] is False and "UTF-8" in bad["error"]
        assert ping == {"ok": True, "pong": True}
        assert loop_errors == []

    def test_deeply_nested_json_gets_an_error_and_the_connection_survives(self):
        async def main():
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            async with make_service() as service:
                async with MediatorServer(service) as server:
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(host, port)
                    deep = await rpc(reader, writer, "[" * 60_000)
                    ping = await rpc(reader, writer, {"op": "ping"})
                    writer.close()
                    await writer.wait_closed()
            return deep, ping, loop_errors

        deep, ping, loop_errors = asyncio.run(main())
        assert deep["ok"] is False and "nested too deeply" in deep["error"]
        assert ping == {"ok": True, "pong": True}
        assert loop_errors == []

    def test_overlong_line_gets_an_error_then_the_connection_closes(self):
        async def main():
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            async with make_service() as service:
                async with MediatorServer(service) as server:
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(host, port)
                    # Past the server-side StreamReader's default 64 KiB limit.
                    writer.write(b'{"op": "ping", "pad": "' + b"x" * 70_000 + b'"}\n')
                    await writer.drain()
                    reply = json.loads(await reader.readline())
                    try:
                        rest = await reader.read()
                    except ConnectionResetError:
                        rest = b""
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except ConnectionResetError:
                        pass
                    # The server keeps accepting new connections.
                    reader, writer = await asyncio.open_connection(host, port)
                    ping = await rpc(reader, writer, {"op": "ping"})
                    writer.close()
                    await writer.wait_closed()
            return reply, rest, ping, loop_errors

        reply, rest, ping, loop_errors = asyncio.run(main())
        assert reply["ok"] is False and "too long" in reply["error"]
        assert rest == b"", "the server closes a connection whose framing is lost"
        assert ping == {"ok": True, "pong": True}
        assert loop_errors == []

    def test_concurrent_connections_share_one_view(self):
        async def main():
            async with make_service() as service:
                async with MediatorServer(service) as server:
                    host, port = server.address
                    first = await asyncio.open_connection(host, port)
                    second = await asyncio.open_connection(host, port)
                    await rpc(*first, {"op": "insert", "atom": "b(X) <- X = 9"})
                    await rpc(*first, {"op": "flush"})
                    seen = await rpc(
                        *second,
                        {"op": "query", "predicate": "b", "universe": "0:20"},
                    )
                    for reader, writer in (first, second):
                        writer.close()
                        await writer.wait_closed()
                    return seen

        seen = asyncio.run(main())
        assert [9] in seen["instances"]


class TestRouterDirect:
    def test_stats_and_notice_ops(self):
        async def main():
            async with make_service() as service:
                router = RequestRouter(service)
                notice = await router.dispatch(
                    {"op": "notice", "source": "faces"}
                )
                flush = await router.dispatch({"op": "flush"})
                stats = await router.dispatch({"op": "stats"})
                return notice, flush, stats

        notice, flush, stats = asyncio.run(main())
        assert notice["ok"]
        assert flush["ok"]
        assert stats["ok"] and stats["pending"] == 0

    def test_non_object_request_is_rejected(self):
        async def main():
            async with make_service() as service:
                return await RequestRouter(service).dispatch([1, 2, 3])

        reply = asyncio.run(main())
        assert not reply["ok"] and "object" in reply["error"]
