"""The asyncio client against the sync client, op by op.

:class:`~repro.serve.aioclient.AsyncServeClient` and
:class:`~repro.serve.client.ServeClient` share their request building and
response decoding; what differs is only the transport I/O.  This suite
pins the observable contract of the async client to the sync one:

* every operation returns the same payload over TCP and over the
  unix-domain socket;
* an error response raises :class:`ServeError`;
* the client's ``ns`` is stamped onto requests that do not name their own;
* a daemon hanging up mid-request raises :class:`ServeError`, and the
  next request reconnects on its own.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.clogsgrow import mine_closed
from repro.db.database import SequenceDatabase
from repro.match.store import save_patterns
from repro.serve import AsyncServeClient, PatternServer, ServeClient, ServeError
from repro.serve.protocol import encode_line

QUERY = ["ABCDAB", "AACB", "DDDD"]

#: ``ping`` fields that legitimately change between two calls.
VOLATILE_PING = ("uptime_ticks", "requests_served")


def sync_payloads(client: ServeClient) -> dict:
    """Every non-mutating operation's payload, through the sync client."""
    ping = dict(client.ping())
    return {
        "ping": {k: v for k, v in ping.items() if k not in VOLATILE_PING},
        "score": client.score(QUERY),
        "match": client.match(QUERY),
        "rank": client.rank(QUERY),
        "rank_k": client.rank(QUERY, k=1, by="coverage"),
        "top_k": client.top_k(QUERY),
        "top_k_ratio": client.top_k(QUERY, k=2, by="ratio"),
        "namespaces": client.namespaces(),
        "reload": client.reload(),
        "trace": client.trace(),
        "trace_limit": client.trace(limit=1),
    }


async def async_payloads(client: AsyncServeClient) -> dict:
    """The same operations, in the same order, through the async client."""
    ping = dict(await client.ping())
    return {
        "ping": {k: v for k, v in ping.items() if k not in VOLATILE_PING},
        "score": await client.score(QUERY),
        "match": await client.match(QUERY),
        "rank": await client.rank(QUERY),
        "rank_k": await client.rank(QUERY, k=1, by="coverage"),
        "top_k": await client.top_k(QUERY),
        "top_k_ratio": await client.top_k(QUERY, k=2, by="ratio"),
        "namespaces": await client.namespaces(),
        "reload": await client.reload(),
        "trace": await client.trace(),
        "trace_limit": await client.trace(limit=1),
    }


@pytest.fixture
def alt_store_file(tmp_path):
    """A second store, mined from different data so its scores differ."""
    db = SequenceDatabase.from_strings(["DDAD", "DADA", "ADDA"])
    return save_patterns(mine_closed(db, 2), tmp_path / "alt.rps")


class TestAsyncClientMatchesSyncClient:
    @pytest.mark.parametrize("transport", ["tcp", "uds"])
    def test_every_op_returns_the_sync_payload(self, store_file, uds_path, transport):
        with PatternServer(store_file, uds=uds_path) as server:
            host, port = server.address
            where = {"uds": str(uds_path)} if transport == "uds" else {"host": host, "port": port}
            with ServeClient(**where) as client:
                expected = sync_payloads(client)

            async def drive() -> dict:
                async with AsyncServeClient(**where) as client:
                    return await async_payloads(client)

            got = asyncio.run(drive())
        assert got.keys() == expected.keys()
        for op, payload in expected.items():
            assert got[op] == payload, f"async {op} diverged over {transport}"
        assert got["score"], "the comparison must not be vacuous"

    def test_error_response_raises_serve_error(self, store_file):
        with PatternServer(store_file) as server:

            async def drive() -> None:
                async with AsyncServeClient(*server.address) as client:
                    with pytest.raises(ServeError, match="unknown operation"):
                        await client.request("frobnicate")
                    with pytest.raises(ServeError):
                        await client.score(42)
                    # An error response leaves the connection usable.
                    assert (await client.ping())["ok"] is True

            asyncio.run(drive())


class TestNamespaceStamping:
    def test_client_ns_is_stamped_unless_the_request_names_one(
        self, store_file, alt_store_file
    ):
        with PatternServer(store_file, stores={"alt": alt_store_file}) as server:
            host, port = server.address
            with ServeClient(host, port) as plain, ServeClient(
                host, port, ns="alt"
            ) as alt:
                default_scores = plain.score(QUERY)
                alt_scores = alt.score(QUERY)
            assert default_scores != alt_scores

            async def drive() -> tuple:
                async with AsyncServeClient(host, port, ns="alt") as client:
                    stamped = await client.score(QUERY)
                    own = await client.request("score", sequences=QUERY, ns="default")
                    with pytest.raises(ServeError, match="nope"):
                        await client.request("score", sequences=QUERY, ns="nope")
                    return stamped, own["scores"]

            stamped, own = asyncio.run(drive())
        assert stamped == alt_scores
        assert own == default_scores


class TestConnectionLoss:
    def test_hang_up_mid_request_raises_then_reconnects_lazily(self):
        """A daemon closing mid-request: ServeError now, a fresh connection next."""

        async def drive() -> int:
            connections = 0

            async def flaky_daemon(
                reader: asyncio.StreamReader, writer: asyncio.StreamWriter
            ) -> None:
                nonlocal connections
                connections += 1
                first = connections == 1
                await reader.readline()
                if not first:  # the first connection dies without answering
                    writer.write(encode_line({"ok": True, "patterns": 0}))
                    await writer.drain()
                writer.close()
                await writer.wait_closed()

            server = await asyncio.start_server(flaky_daemon, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                async with AsyncServeClient(host, port, timeout=10) as client:
                    with pytest.raises(ServeError, match="connection closed"):
                        await client.ping()
                    assert (await client.ping())["patterns"] == 0
            finally:
                server.close()
                await server.wait_closed()
            return connections

        assert asyncio.run(drive()) == 2
