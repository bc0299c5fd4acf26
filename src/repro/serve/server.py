"""A JSON-lines TCP front end over :class:`~repro.serve.MediatorService`.

Protocol: one JSON object per line in, one JSON object per line out, in
request order per connection.  Connections are independent asyncio tasks;
queries from one connection overlap queries from another and updates from
any of them -- the service's snapshot reads make that safe without any
per-connection locking.

The dependency-free wire format keeps the server inside the stdlib (no
HTTP framework in the container); an HTTP layer can front it later without
touching the routing or the service.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple

from repro.errors import MediatorError
from repro.serve.routing import RequestRouter
from repro.serve.service import MediatorService


class MediatorServer:
    """Serve one :class:`MediatorService` over TCP (JSON lines)."""

    def __init__(
        self,
        service: MediatorService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._service = service
        self._router = RequestRouter(service)
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); port 0 resolves at :meth:`start`."""
        if self._server is None:
            return (self._host, self._port)
        sockname = self._server.sockets[0].getsockname()
        return (sockname[0], sockname[1])

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns the address."""
        if self._server is not None:
            raise MediatorError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        return self.address

    async def stop(self) -> None:
        """Stop accepting connections and close the listener."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def __aenter__(self) -> "MediatorServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as error:
                    # The line overran the reader's buffer limit.  Its tail
                    # may still be in flight, so the next request cannot be
                    # found reliably: answer, then close.
                    await _reply(
                        writer, {"ok": False, "error": f"request line too long: {error}"}
                    )
                    break
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    request = json.loads(stripped)
                except UnicodeDecodeError as error:
                    response = {"ok": False, "error": f"request is not UTF-8: {error}"}
                except json.JSONDecodeError as error:
                    response = {"ok": False, "error": f"invalid JSON: {error}"}
                except RecursionError:
                    response = {"ok": False, "error": "invalid JSON: nested too deeply"}
                else:
                    response = await self._router.dispatch(request)
                await _reply(writer, response)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to clean up
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


async def _reply(writer: asyncio.StreamWriter, response: dict) -> None:
    """Send one JSON-lines response."""
    writer.write(json.dumps(response, default=str).encode("utf-8") + b"\n")
    await writer.drain()
