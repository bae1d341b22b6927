"""repro.serve — the pattern-serving daemon: resident, queryable stores.

The read-side subsystem (:mod:`repro.match`) made mined patterns loadable
and matchable; this package keeps them *resident*: a long-running daemon
that loads pattern stores once (zero-copy over shared mappings where the
platform allows), compiles each shared automaton once, and answers scoring
traffic over a newline-delimited JSON protocol — TCP and, optionally, a
unix-domain socket — until told to stop.

* :mod:`repro.serve.protocol` — the wire format (one JSON object per line)
  and its pure encode/decode helpers, shared by daemon and client.
* :mod:`repro.serve.core` — :class:`~repro.serve.core.ServeCore`, the
  transport-agnostic request engine: namespace-keyed multi-store routing,
  generation-keyed response caching, batched dispatch, graceful ``reload``
  on store republication (compiled-automaton reuse when only supports
  changed), and the per-request telemetry contract.
* :mod:`repro.serve.aio` — :class:`PatternServer` and :func:`serve`, the
  asyncio event-loop daemon: TCP + unix-domain socket listeners,
  micro-batched ``score``/``match`` dispatch through a thread pool, and
  the in-loop response-cache fast path.  Loop-free callers embed it with
  :meth:`PatternServer.start` (a background loop thread).
* :mod:`repro.serve.client` / :mod:`repro.serve.aioclient` —
  :class:`ServeClient` and :class:`AsyncServeClient`, the sync and async
  helpers that speak the protocol from Python (any language with sockets
  + JSON works); both build requests and decode responses through the
  same two functions in :mod:`repro.serve.client`.

Surfaced as :func:`repro.api.serve` and the ``serve`` CLI subcommand.
"""

from repro.serve.aio import PatternServer, serve
from repro.serve.aioclient import AsyncServeClient
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import PingInfo

__all__ = [
    "AsyncServeClient",
    "PatternServer",
    "PingInfo",
    "ServeClient",
    "ServeError",
    "serve",
]
