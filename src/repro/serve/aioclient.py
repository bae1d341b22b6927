"""Asyncio client for the pattern-serving daemon.

:class:`AsyncServeClient` is the event-loop twin of
:class:`repro.serve.client.ServeClient`: the same newline-delimited JSON
protocol, the same operation methods, the same error contract
(:class:`~repro.serve.client.ServeError` on error responses and broken
connections) — awaited instead of blocked on, over TCP or a unix-domain
socket.

Usage::

    from repro.serve import AsyncServeClient

    async with AsyncServeClient("127.0.0.1", 7007) as client:
        await client.ping()
        await client.score(["ABCD", "AXY"])

One connection carries one request at a time (requests are paired with
responses by order, so callers that want concurrency open one client per
in-flight request — connections are cheap, the daemon multiplexes).
"""

from __future__ import annotations

import asyncio
from typing import Any, cast

from repro.obs import MetricsRegistry
from repro.serve.client import decode_response, encode_request
from repro.serve.protocol import MAX_LINE_BYTES, PingInfo

__all__ = ["AsyncServeClient"]


class AsyncServeClient:
    """A persistent asyncio connection to a pattern-serving daemon.

    Parameters
    ----------
    host, port:
        The daemon's TCP address (``PatternServer.address``).
    uds:
        A unix-domain socket path; when given, the client connects there
        instead of TCP (``PatternServer.uds_path``).
    ns:
        A namespace name stamped onto every request (as the ``ns``
        field); ``None`` targets the daemon's default namespace.
        Explicit per-request ``ns`` parameters win over this.
    timeout:
        Seconds allowed for connecting and for each full round-trip.
    obs:
        Optional :class:`~repro.obs.MetricsRegistry`; when enabled, every
        request is timed into ``serve.client.request.seconds`` and the
        span's context rides the request's ``trace`` field, exactly like
        the sync client.

    The connection opens lazily on the first request; use the async
    context-manager form to close it deterministically.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        uds: str | None = None,
        ns: str | None = None,
        timeout: float = 30.0,
        obs: MetricsRegistry | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.uds = uds
        self.ns = ns
        self.timeout = timeout
        self.obs = obs
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    async def connect(self) -> AsyncServeClient:
        """Open the connection now (otherwise the first request does)."""
        if self._writer is None:
            if self.uds is not None:
                opening = asyncio.open_unix_connection(
                    self.uds, limit=MAX_LINE_BYTES + 2
                )
            else:
                opening = asyncio.open_connection(
                    self.host, self.port, limit=MAX_LINE_BYTES + 2
                )
            self._reader, self._writer = await asyncio.wait_for(
                opening, self.timeout
            )
        return self

    async def close(self) -> None:
        """Close the connection (requests after this reconnect lazily)."""
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def __aenter__(self) -> AsyncServeClient:
        return await self.connect()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # The request primitive
    # ------------------------------------------------------------------
    async def request(self, op: str, **params: Any) -> dict[str, Any]:
        """Send one operation and return its success payload.

        Raises :class:`~repro.serve.client.ServeError` on an error
        response or a connection the daemon closed mid-request.  Any
        transport failure mid-request closes the connection (a response
        may still be in flight on it; reuse would desynchronise the
        request/response pairing); the next request reconnects lazily.
        """
        obs = self.obs
        if obs is not None and obs.enabled:
            with obs.span("serve.client.request.seconds", op=op):
                return await self._request(op, params)
        return await self._request(op, params)

    async def _request(self, op: str, params: dict[str, Any]) -> dict[str, Any]:
        """The untraced request primitive ``request`` wraps."""
        await self.connect()
        reader, writer = self._reader, self._writer
        assert reader is not None and writer is not None
        try:
            writer.write(encode_request(op, params, self.ns))
            await asyncio.wait_for(writer.drain(), self.timeout)
            line = await asyncio.wait_for(reader.readline(), self.timeout)
        except Exception:
            await self.close()
            raise
        if not line:
            await self.close()
        return decode_response(line, op)

    # ------------------------------------------------------------------
    # Operations (the sync client's surface, awaited)
    # ------------------------------------------------------------------
    async def ping(self) -> PingInfo:
        """Liveness + store snapshot (see :class:`~repro.serve.protocol.PingInfo`)."""
        return cast(PingInfo, await self.request("ping"))

    async def stats(self) -> dict[str, Any]:
        """The daemon's metrics snapshot (deterministic sorted mapping)."""
        return cast(dict[str, Any], (await self.request("stats"))["stats"])

    async def match(self, sequences: str | list[Any]) -> dict[str, Any]:
        """Match every served pattern against ``sequences`` in one pass."""
        return await self.request("match", sequences=sequences)

    async def score(self, sequences: str | list[Any]) -> list[dict[str, Any]]:
        """Coverage/anomaly score of each query sequence, in input order."""
        return cast(
            list[dict[str, Any]],
            (await self.request("score", sequences=sequences))["scores"],
        )

    async def rank(
        self, sequences: str | list[Any], k: int | None = None, *, by: str = "anomaly"
    ) -> list[list[Any]]:
        """Query sequences ranked by ``by`` — ``[index, score]`` pairs."""
        return cast(
            list[list[Any]],
            (await self.request("rank", sequences=sequences, k=k, by=by))["ranked"],
        )

    async def top_k(
        self, sequences: str | list[Any], k: int = 10, *, by: str = "support"
    ) -> list[list[Any]]:
        """The served patterns most present in the query — ``[pattern, support]`` pairs."""
        return cast(
            list[list[Any]],
            (await self.request("top_k", sequences=sequences, k=k, by=by))[
                "patterns"
            ],
        )

    async def reload(self, force: bool = False) -> dict[str, Any]:
        """Ask the daemon to swap in a republished store file."""
        return await self.request("reload", force=force)

    async def namespaces(self) -> dict[str, Any]:
        """The daemon's served namespaces, keyed by name."""
        return cast(
            dict[str, Any], (await self.request("namespaces"))["namespaces"]
        )

    async def trace(self, limit: int | None = None) -> dict[str, Any]:
        """The daemon's recent completed spans (its trace-recorder ring)."""
        if limit is None:
            return await self.request("trace")
        return await self.request("trace", limit=limit)

    async def shutdown(self) -> dict[str, Any]:
        """Stop the daemon (it responds, then exits its serving loop)."""
        response = await self.request("shutdown")
        await self.close()
        return response
