"""Fault injection against the serving daemon.

The daemon's survival contract: no client behaviour — disconnecting
mid-request, writing half a frame, streaming an endless line, trickling
bytes — and no store mishap — a file truncated or replaced with garbage
between the reload check and the load — may crash it, wedge it, or leak a
socket.  Every fault lands as an error response or a closed connection for
the offender, a ``serve.op.invalid.*`` tick or a ``ping.last_reload_error``
for the operator, and *nothing at all* for the other clients.

Socket hygiene is enforced suite-wide by ``tests/serve/conftest.py``
(ResourceWarning promoted to an error, post-test collection), so a daemon
that leaks a connection object under any of these faults fails the test
that provoked it.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.serve import PatternServer, ServeClient, ServeError
from repro.serve import core as core_module
from repro.serve.core import ServeCore

PING = b'{"op":"ping"}\n'


def raw_connection(server):
    """A plain TCP connection to ``server`` with a buffered stream."""
    sock = socket.create_connection(server.address, timeout=30)
    return sock, sock.makefile("rwb")


class TestClientFaults:
    def test_disconnect_mid_request_leaves_daemon_serving(self, running):
        server, client = running
        sock, stream = raw_connection(server)
        stream.write(b'{"op":"score","sequences":["ABC')  # half a frame
        stream.flush()
        stream.close()
        sock.close()  # gone before the newline ever arrives
        # The daemon must shrug: the next client gets normal service.
        assert client.ping()["ok"] is True
        assert client.score(["ABCD"])[0]["total"] > 0

    def test_half_written_frame_counts_as_invalid(self, running):
        server, client = running
        before = client.stats()["counters"].get("serve.op.invalid.requests", 0)
        sock, stream = raw_connection(server)
        stream.write(b'{"op":"ping"')  # no newline, then EOF
        stream.flush()
        sock.shutdown(socket.SHUT_WR)
        # The daemon reads the partial line at EOF and answers it as a
        # malformed request (there is still a reader to answer).
        response = json.loads(stream.readline())
        assert response["ok"] is False
        stream.close()
        sock.close()
        after = client.stats()["counters"]["serve.op.invalid.requests"]
        assert after == before + 1

    def test_oversized_line_is_rejected_and_connection_closed(
        self, store_file, monkeypatch
    ):
        from repro.serve import aio as aio_module

        monkeypatch.setattr(aio_module, "MAX_LINE_BYTES", 512)
        with PatternServer(store_file) as server:
            sock, stream = raw_connection(server)
            stream.write(b'{"op":"ping","pad":"' + b"x" * 2048 + b'"}\n')
            stream.flush()
            payload = json.loads(stream.readline())
            assert payload["ok"] is False
            assert "exceeds" in payload["error"]
            assert stream.readline() == b""  # daemon closed the connection
            stream.close()
            sock.close()
            # ...and other clients never noticed.
            with ServeClient(*server.address) as client:
                assert client.ping()["ok"] is True

    def test_endless_unframed_stream_cannot_wedge_the_daemon(
        self, store_file, monkeypatch
    ):
        """A newline-free firehose hits the line cap, not the daemon's memory.

        The offender still gets exactly one response line — the error —
        followed by EOF: the daemon shuts its write side and drains the
        rest of the flood before closing, so no reset can overtake the
        error line.
        """
        from repro.serve import aio as aio_module

        monkeypatch.setattr(aio_module, "MAX_LINE_BYTES", 4096)
        with PatternServer(store_file) as server:
            sock = socket.create_connection(server.address, timeout=30)
            # A read-only stream: closing it never flushes into the socket.
            reader = sock.makefile("rb")
            try:
                for _ in range(64):  # far beyond the cap, never a newline
                    sock.sendall(b"x" * 1024)
                response = json.loads(reader.readline())
                assert response["ok"] is False
                assert "exceeds 4096 bytes" in response["error"]
                try:
                    trailing = reader.readline()
                except ConnectionResetError:
                    trailing = b""  # a reset after the error line is a hang-up too
                assert trailing == b"", "more than one response line"
            finally:
                reader.close()
                sock.close()
            with ServeClient(*server.address) as client:
                assert client.ping()["ok"] is True

    def test_slowloris_writer_does_not_block_other_clients(self, running):
        """One byte-at-a-time writer occupies a buffer, not the daemon."""
        server, client = running
        sock, stream = raw_connection(server)
        finished = threading.Event()
        slow_response: list[bytes] = []

        def slowloris():
            for byte in PING:
                sock.sendall(bytes([byte]))
                time.sleep(0.005)
            slow_response.append(stream.readline())
            finished.set()

        thread = threading.Thread(target=slowloris, daemon=True)
        thread.start()
        # While the slow frame trickles in, fast clients stay fast.
        for _ in range(5):
            assert client.ping()["ok"] is True
        assert finished.wait(timeout=30), "slowloris never got its response"
        thread.join(timeout=30)
        assert json.loads(slow_response[0])["ok"] is True
        stream.close()
        sock.close()

    def test_uds_disconnect_mid_request(self, store_file, uds_path):
        with PatternServer(store_file, uds=uds_path) as server:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(str(uds_path))
            sock.sendall(b'{"op":"match","sequences":')  # half a frame
            sock.close()
            with ServeClient(uds=str(uds_path)) as client:
                assert client.ping()["ok"] is True


class TestStoreFaults:
    def test_store_truncated_under_auto_reload_keeps_serving(
        self, store_file, train_db
    ):
        """A republish caught mid-write must not poison live requests."""
        with PatternServer(store_file, auto_reload=True) as server, ServeClient(
            *server.address
        ) as client:
            patterns = client.ping()["patterns"]
            blob = store_file.read_bytes()
            store_file.write_bytes(blob[: len(blob) // 2])  # torn publish
            info = client.ping()  # answers on the loaded state
            assert info["patterns"] == patterns
            assert info["last_reload_error"]
            assert client.score(["ABCD"])  # operations keep working
            store_file.write_bytes(blob)  # publisher finishes the write
            healed = client.ping()
            assert healed["patterns"] == patterns

    def test_store_vanishing_between_check_and_load(self, store_file, monkeypatch):
        """The stat()-then-load gap: the file can disappear inside it."""
        core = ServeCore(store_file, auto_reload=True)
        real_load = core_module.load_patterns
        failures = iter([FileNotFoundError(f"{store_file} vanished mid-reload")])

        def flaky_load(path, **kwargs):
            failure = next(failures, None)
            if failure is not None:
                raise failure
            return real_load(path, **kwargs)

        monkeypatch.setattr(core_module, "load_patterns", flaky_load)
        # Force the identity check to see a change so reload really runs.
        store_file.touch()
        response, _ = core.handle_raw(b'{"op":"ping"}')
        info = json.loads(response)
        assert info["ok"] is True
        assert "vanished" in info["last_reload_error"]
        # The next request reloads successfully and clears the error.
        store_file.touch()
        response, _ = core.handle_raw(b'{"op":"ping"}')
        assert json.loads(response)["last_reload_error"] is None

    def test_explicit_reload_error_reported_to_caller_only(self, running, store_file):
        server, client = running
        blob = store_file.read_bytes()
        store_file.write_bytes(b"RPST garbage that cannot be parsed")
        with pytest.raises(ServeError):
            client.reload()
        assert client.ping()["ok"] is True
        store_file.write_bytes(blob)

    def test_per_namespace_reload_fault_is_isolated(self, store_file, tmp_path):
        """One namespace's torn store must not break the others."""
        import shutil

        alt = tmp_path / "alt.rps"
        shutil.copy(store_file, alt)
        with PatternServer(
            store_file, stores={"alt": alt}, auto_reload=True
        ) as server, ServeClient(*server.address) as client:
            alt_client_score = client.request("score", sequences=["ABCD"], ns="alt")
            alt.write_bytes(b"RPST garbage")
            # The poisoned namespace still answers on its loaded state...
            again = client.request("score", sequences=["ABCD"], ns="alt")
            assert again["scores"] == alt_client_score["scores"]
            # ...and the default namespace never even notices.
            assert client.ping()["ok"] is True
