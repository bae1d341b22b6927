"""Client helper for the pattern-serving daemon.

:class:`ServeClient` speaks the newline-delimited JSON protocol of
:mod:`repro.serve.protocol` over one persistent TCP connection: each method
sends one request line and blocks for its response line.  Error responses
(``{"ok": false}``) raise :class:`ServeError` with the daemon's message, so
callers handle failures as exceptions instead of inspecting dicts.

Usage::

    from repro.serve import ServeClient

    with ServeClient("127.0.0.1", 7007) as client:
        client.ping()["patterns"]
        client.score(["ABCD", "AXY"])        # coverage/anomaly per sequence
        client.top_k(["ABCDABCD"], k=5)      # dominant patterns of a trace
        client.reload()                      # pick up a republished store

The wire format is plain enough that this class is a convenience, not a
requirement — ``printf '{"op":"ping"}\\n' | nc host port`` works too.
"""

from __future__ import annotations

import socket
from typing import Any, cast

from repro.obs import MetricsRegistry, current_context
from repro.serve.protocol import PingInfo, decode_line, encode_line


class ServeError(RuntimeError):
    """An error response from the serving daemon, or a broken connection."""


def encode_request(op: str, params: dict[str, Any], ns: str | None) -> bytes:
    """The request line for ``op``, stamped with ``ns`` and the ambient trace context.

    Neither stamp overrides an ``ns`` / ``trace`` already in ``params``.
    """
    payload: dict[str, Any] = {"op": op}
    payload.update(params)
    if ns is not None:
        payload.setdefault("ns", ns)
    context = current_context()
    if context is not None:
        payload.setdefault("trace", context.to_wire())
    return encode_line(payload)


def decode_response(line: bytes, op: str) -> dict[str, Any]:
    """The success payload of response ``line`` to ``op``, or :class:`ServeError`.

    An empty ``line`` is the daemon closing the connection mid-request;
    ``{"ok": false}`` carries the daemon's error message.
    """
    if not line:
        raise ServeError(f"connection closed by the daemon during {op!r}")
    response = decode_line(line)
    if not response.get("ok"):
        raise ServeError(response.get("error", "unknown daemon error"))
    return response


class ServeClient:
    """A persistent connection to a :class:`~repro.serve.aio.PatternServer`.

    Parameters
    ----------
    host, port:
        The daemon's TCP address (``PatternServer.address``).
    uds:
        A unix-domain socket path; when given, the client connects there
        instead of TCP (``PatternServer.uds_path`` on an asyncio daemon
        serving one).
    ns:
        A namespace name stamped onto every request (as the ``ns`` field)
        so this client scores against that store slot; ``None`` (default)
        targets the daemon's default namespace.  Explicit per-request
        ``ns`` parameters win over this.
    timeout:
        Socket timeout in seconds for connecting and for each response.
    obs:
        Optional :class:`~repro.obs.MetricsRegistry`.  When enabled, every
        request is timed into ``serve.client.request.seconds`` as a client
        span, and the span's :class:`~repro.obs.TraceContext` rides the
        request's ``trace`` field — so a tracing daemon parents its
        operation span under this client's, and the two processes' spans
        stitch into one tree by ``trace_id``.

    The connection opens lazily on the first request and is reusable across
    requests; use the context-manager form to close it deterministically.
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
        self._sock: socket.socket | None = None
        # The buffered reader/writer over the socket; ``Any`` because the
        # lazy-connect dance (None until the first request) defeats narrowing.
        self._file: Any = None

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def connect(self) -> ServeClient:
        """Open the connection now (otherwise the first request does)."""
        if self._sock is None:
            if self.uds is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                try:
                    sock.connect(self.uds)
                except OSError:
                    sock.close()
                    raise
                self._sock = sock
            else:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            self._file = self._sock.makefile("rwb")
        return self

    def close(self) -> None:
        """Close the connection (requests after this reconnect lazily)."""
        file, self._file = self._file, None
        sock, self._sock = self._sock, None
        if file is not None:
            file.close()
        if sock is not None:
            sock.close()

    def __enter__(self) -> ServeClient:
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The request primitive
    # ------------------------------------------------------------------
    def request(self, op: str, **params: Any) -> dict[str, Any]:
        """Send one operation and return its success payload.

        Raises :class:`ServeError` on an error response or a connection the
        daemon closed mid-request.  Any transport failure mid-request — a
        socket timeout, a broken pipe — closes the connection, because a
        response may still be in flight on it: reusing the socket would
        desynchronise the request/response pairing and hand a later caller
        the wrong payload.  The next request reconnects lazily.

        With an enabled ``obs`` registry the whole round-trip runs inside
        a ``serve.client.request.seconds`` span; its context (or any
        ambient :class:`~repro.obs.TraceContext` when no registry is
        attached) is injected as the request's ``trace`` field, which a
        tracing daemon parents its operation span under and echoes back.
        """
        obs = self.obs
        if obs is not None and obs.enabled:
            with obs.span("serve.client.request.seconds", op=op):
                return self._request(op, params)
        return self._request(op, params)

    def _request(self, op: str, params: dict[str, Any]) -> dict[str, Any]:
        """The untraced request primitive ``request`` wraps."""
        self.connect()
        try:
            self._file.write(encode_request(op, params, self.ns))
            self._file.flush()
            line = self._file.readline()
        except Exception:
            self.close()
            raise
        if not line:
            self.close()
        return decode_response(line, op)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def ping(self) -> PingInfo:
        """Liveness + store snapshot, typed (see :class:`~repro.serve.protocol.PingInfo`).

        Carries the pattern count, reload counters and last-reload duration,
        monotonic uptime ticks, total requests served, and the daemon pid.
        """
        return cast(PingInfo, self.request("ping"))

    def stats(self) -> dict[str, Any]:
        """The daemon's metrics snapshot (deterministic sorted mapping).

        The shape is ``{"counters": ..., "gauges": ..., "histograms": ...}``
        — see :meth:`repro.obs.MetricsRegistry.snapshot`.  Per-operation
        request counts live under ``counters["serve.op.<op>.requests"]`` and
        latency summaries (count/sum/min/max/p50/p95/p99) under
        ``histograms["serve.op.<op>.seconds"]``.
        """
        return cast(dict[str, Any], self.request("stats")["stats"])

    def match(self, sequences: str | list[Any]) -> dict[str, Any]:
        """Match every served pattern against ``sequences`` in one pass.

        Returns the wire form of a :class:`~repro.match.automaton.MatchResult`:
        ``num_sequences``, ``coverage`` and per-pattern ``entries`` (pattern,
        total support, per-sequence counts keyed by the 1-based sequence
        index as a string).
        """
        return self.request("match", sequences=sequences)

    def score(self, sequences: str | list[Any]) -> list[dict[str, Any]]:
        """Coverage/anomaly score of each query sequence, in input order."""
        return self.request("score", sequences=sequences)["scores"]

    def rank(
        self, sequences: str | list[Any], k: int | None = None, *, by: str = "anomaly"
    ) -> list[list[Any]]:
        """Query sequences ranked by ``by`` — ``[index, score]`` pairs."""
        return self.request("rank", sequences=sequences, k=k, by=by)["ranked"]

    def top_k(
        self, sequences: str | list[Any], k: int = 10, *, by: str = "support"
    ) -> list[list[Any]]:
        """The served patterns most present in the query — ``[pattern, support]`` pairs."""
        return self.request("top_k", sequences=sequences, k=k, by=by)["patterns"]

    def reload(self, force: bool = False) -> dict[str, Any]:
        """Ask the daemon to swap in a republished store file."""
        return self.request("reload", force=force)

    def namespaces(self) -> dict[str, Any]:
        """The daemon's served namespaces, keyed by name.

        Each value carries ``patterns``, ``generation`` (the publish
        epoch that keys the response cache), ``store_path`` and
        ``zero_copy``.  This operation always answers for the whole
        daemon, whatever this client's ``ns`` is.
        """
        return cast(dict[str, Any], self.request("namespaces")["namespaces"])

    def trace(self, limit: int | None = None) -> dict[str, Any]:
        """The daemon's recent completed spans (its trace-recorder ring).

        Returns ``{"spans": [wire dicts, oldest first], "dropped": ...,
        "total": ..., "enabled": ...}`` — the newest ``limit`` spans when
        given.  A daemon without a recorder reports ``enabled: false`` and
        no spans.
        """
        if limit is None:
            return self.request("trace")
        return self.request("trace", limit=limit)

    def shutdown(self) -> dict[str, Any]:
        """Stop the daemon (it responds, then exits its serving loop)."""
        response = self.request("shutdown")
        self.close()
        return response
