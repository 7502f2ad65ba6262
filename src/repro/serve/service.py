"""Asyncio NDJSON server wrapping a :class:`~repro.serve.engine.ServeEngine`.

One server owns one engine (one simulated machine, one session).  Any
number of clients may connect over TCP or a unix socket; each
connection is a line-oriented request/response stream, and clients may
pipeline requests.  Engine calls are synchronous and run on the event
loop — they are microsecond-scale per request, and single-threaded
dispatch is what keeps the session deterministic (requests are applied
in exactly the order lines arrive).

Graceful shutdown (``shutdown`` op, :meth:`SchedulerService.stop`, or
SIGINT in :func:`run_service`) stops accepting connections, drains the
engine — every admitted job runs to completion and the final report is
computed — then closes remaining connections.
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path
from typing import Any

from repro.errors import ProtocolError, ServeError
from repro.obs.log import get_logger
from repro.serve.engine import ServeEngine
from repro.serve.protocol import MAX_LINE_BYTES, decode_line, encode, error_response

logger = get_logger(__name__)


class SchedulerService:
    """Serves one engine over TCP (``host``/``port``) or a unix socket."""

    def __init__(
        self,
        engine: ServeEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: str | Path | None = None,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.unix_path = Path(unix_path) if unix_path is not None else None
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._connections = 0

    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """The bound address, ``host:port`` or the socket path."""
        if self.unix_path is not None:
            return str(self.unix_path)
        if self._server is None or not self._server.sockets:
            raise ServeError("service is not listening")
        bound = self._server.sockets[0].getsockname()
        return f"{bound[0]}:{bound[1]}"

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise ServeError("service already started")
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=str(self.unix_path),
                limit=MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.host,
                port=self.port,
                limit=MAX_LINE_BYTES,
            )
        logger.info("serving on %s", self.address)

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`stop`) lands."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.stop()

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain the engine, close up."""
        if self._server is None:
            return
        self._server.close()
        if drain:
            self.engine.handle({"op": "drain"})
        await self._server.wait_closed()
        self._server = None
        if self.unix_path is not None:
            self.unix_path.unlink(missing_ok=True)
        self._shutdown.set()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        encode(
                            error_response(
                                ProtocolError(
                                    f"request line exceeds {MAX_LINE_BYTES} bytes"
                                ),
                                protocol_error=True,
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode_line(line)
                except ProtocolError as exc:
                    writer.write(encode(error_response(exc, protocol_error=True)))
                    await writer.drain()
                    continue
                response = self.engine.handle(message)
                writer.write(encode(response))
                await writer.drain()
                if response.get("shutdown"):
                    self._shutdown.set()
                    break
        except ConnectionResetError:
            pass
        finally:
            self._connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


def run_service(
    engine: ServeEngine,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    unix_path: str | Path | None = None,
    ready_file: str | Path | None = None,
    metrics_file: str | Path | None = None,
) -> dict[str, Any]:
    """Run a service until shutdown; returns the final metrics snapshot.

    ``ready_file`` (written once listening, containing the bound
    address) lets a supervisor — the CI smoke job, a test fixture —
    discover the ephemeral port without racing the bind.
    """

    async def _main() -> None:
        service = SchedulerService(
            engine, host=host, port=port, unix_path=unix_path
        )
        await service.start()
        if ready_file is not None:
            # Write-then-rename: a poller that sees the file sees the
            # whole address, never an empty or partial line.
            ready = Path(ready_file)
            partial = ready.with_name(ready.name + ".partial")
            partial.write_text(service.address + "\n", encoding="utf-8")
            os.replace(partial, ready)
        await service.serve_until_shutdown()

    asyncio.run(_main())
    snapshot = engine.metrics_snapshot()
    if metrics_file is not None:
        Path(metrics_file).write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return snapshot
