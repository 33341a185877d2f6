"""The HTTP client: what a server sees and what a caller gets back."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import helpers
import ldcost
from ldcost import web
from ldcost.errors import RemoteError
from ldcost.traversal import dereference, load_store

EX = helpers.EX
DOC = f'<{EX}x> <{EX}name> "X" .\n'
ACCEPT = "text/turtle, application/n-triples"


class TestClientContract:
    @pytest.mark.parametrize("absolute", [False, True], ids=["relative", "absolute"])
    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_followed(self, status, absolute):
        server = helpers.DocServer({"/new/b": DOC})
        with server as base:
            server.documents["/old/a"] = (status, f"{base}/new/b" if absolute else "../new/b")
            resp = web.get(f"{base}/old/a", accept=ACCEPT, timeout=5)
        assert (resp.status, resp.text) == (200, DOC)
        assert [path for path, _ in server.requests] == ["/old/a", "/new/b"]
        assert all(accept == ACCEPT for _, accept in server.requests)

    def test_redirect_loop_is_a_remote_error_in_bounded_time(self, tmp_path):
        documents = {"/a": (302, "/b"), "/b": (302, "/a")}
        with helpers.DocServer(documents) as base:
            manifest = tmp_path / "m.tsv"
            manifest.write_text(f"{EX}x\t{base}/a\n")
            started = time.monotonic()
            with pytest.raises(RemoteError, match=rf"^status 302 for {base}/a$"):
                dereference(load_store(manifest, mode="http", timeout=1.0), EX + "x")
            assert time.monotonic() - started < 5

    def test_request_headers(self):
        server = helpers.DocServer({"/x": DOC})
        with server as base:
            web.get(f"{base}/x", accept=ACCEPT, timeout=5)
        ((line, headers, _),) = server.received
        assert line == "GET /x HTTP/1.1"
        assert headers["Accept"] == ACCEPT
        assert headers["User-Agent"] == "Python-urllib/%d.%d" % sys.version_info[:2]
        assert headers["Host"] == base.removeprefix("http://")

    def test_fragment_is_not_sent_and_params_are_appended(self):
        server = helpers.DocServer({})
        with server as base:
            web.get(f"{base}/x?a=1#me", accept=ACCEPT, timeout=5)
            web.get(f"{base}/x?a=1", accept=ACCEPT, timeout=5, params={"query": "ASK {}"})
            web.get(f"{base}/Café", accept=ACCEPT, timeout=5)
            # the fragment is dropped before the params are appended
            web.get(f"{base}/x?a=1#me", accept=ACCEPT, timeout=5, params={"query": "ASK {}"})
            web.get(f"{base}/y#me", accept=ACCEPT, timeout=5, params={"query": "ASK {}"})
        assert [path for path, _ in server.requests] == [
            "/x?a=1", "/x?a=1&query=ASK+%7B%7D", "/Caf%C3%A9", "/x?a=1&query=ASK+%7B%7D", "/y?query=ASK+%7B%7D"
        ]

    @staticmethod
    def _get_in_new_process(url: str, **env: str) -> str:
        """``web.get`` of ``url`` in a fresh interpreter whose environment
        holds ``env`` and no other proxy setting; its status and body, or
        "OSError"."""
        environment = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
        environment["PYTHONPATH"] = str(Path(ldcost.__file__).parents[1])
        code = (
            "import sys; from ldcost import web\n"
            "try: r = web.get(sys.argv[1], accept='text/turtle', timeout=5)\n"
            "except OSError: print('OSError', end='')\n"
            "else: print(r.status, r.text, end='')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, url], env={**environment, **env},
            capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_http_proxy_gets_the_absolute_uri(self):
        origin = helpers.DocServer({"/x": "from the origin"})
        proxy = helpers.DocServer({})
        with origin as origin_base, proxy as proxy_base:
            proxy.documents[f"{origin_base}/x"] = "from the proxy"
            proxy_url = proxy_base.replace("//", "//user:p%40ss@")
            out = self._get_in_new_process(f"{origin_base}/x", http_proxy=proxy_url)
        assert out == "200 from the proxy"
        assert origin.received == []
        ((line, headers, _),) = proxy.received
        assert line == f"GET {origin_base}/x HTTP/1.1"
        assert headers["Host"] == origin_base.removeprefix("http://")
        assert headers["Proxy-Authorization"] == "Basic dXNlcjpwQHNz"  # user:p@ss

    def test_https_proxy_is_asked_for_a_tunnel(self):
        origin = helpers.DocServer({})
        proxy = helpers.DocServer({})  # answers the CONNECT with 404: no tunnel
        with origin as origin_base, proxy as proxy_base:
            host = origin_base.removeprefix("http://")
            out = self._get_in_new_process(f"https://{host}/x", https_proxy=proxy_base)
        assert out == "OSError"
        assert origin.received == []
        assert [line for line, _, _ in proxy.received] == [f"CONNECT {host} HTTP/1.0"]

    def test_no_proxy_bypasses_the_proxy(self):
        origin = helpers.DocServer({"/x": "from the origin"})
        proxy = helpers.DocServer({})
        with origin as origin_base, proxy as proxy_base:
            out = self._get_in_new_process(
                f"{origin_base}/x", http_proxy=proxy_base, no_proxy="127.0.0.1"
            )
        assert out == "200 from the origin"
        assert proxy.received == []
        assert [path for path, _ in origin.requests] == ["/x"]


class TestKeepAlive:
    def test_sequential_gets_share_one_connection_without_stalling(self):
        documents = {f"/d{i}": f"document {i}" for i in range(30)}
        server = helpers.DocServer(documents, keep_alive=True)
        with server as base, web.Session(5) as session:
            started = time.monotonic()
            texts = [session.get(f"{base}/d{i}", accept=ACCEPT).text for i in range(30)]
            elapsed = time.monotonic() - started
        assert texts == [f"document {i}" for i in range(30)]
        assert server.connections == 1
        assert elapsed < 0.5  # a delayed ACK would stall each response ~40 ms: >= 1.2 s

    def test_a_session_keeps_one_connection_across_origins(self):
        """A request to another origin closes the connection kept for the
        last one, so a session never holds more than one open."""
        servers = [helpers.DocServer({"/x": DOC}, keep_alive=True) for _ in range(3)]
        with servers[0] as a, servers[1] as b, servers[2] as c, web.Session(5) as session:
            for base in (a, b, c, a, c, b, b):
                assert session.get(f"{base}/x", accept=ACCEPT).text == DOC
                deadline = time.monotonic() + 5
                while (sum(server.open_connections for server in servers) > 1
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert sum(server.open_connections for server in servers) == 1
        assert [server.connections for server in servers] == [2, 2, 2]

    def test_a_connection_the_server_dropped_is_replaced(self):
        """The server closes each connection after its 3rd response without
        saying so: the 4th request fails on it and is sent once more on a
        new connection."""
        documents = {f"/d{i}": f"document {i}" for i in range(10)}
        server = helpers.DocServer(documents, keep_alive=True, drop_after=3)
        with server as base, web.Session(5) as session:
            texts = [session.get(f"{base}/d{i}", accept=ACCEPT).text for i in range(10)]
        assert texts == [f"document {i}" for i in range(10)]
        assert [path for path, _ in server.requests] == list(documents)
        assert server.connections == 4

    def test_without_resend_a_request_on_a_dropped_connection_raises(self):
        """The server closes each connection after its response without
        saying so.  With ``resend`` false the request made on the kept
        connection raises IdleClosed, and the next opens a new one."""
        server = helpers.DocServer({"/d0": "document 0", "/d1": "document 1"},
                                   keep_alive=True, drop_after=1)
        with server as base, web.Session(5) as session:
            assert not session.connected_to(f"{base}/d0")
            assert session.get(f"{base}/d0", accept=ACCEPT).text == "document 0"
            assert session.connected_to(f"{base}/d1")
            assert not session.connected_to("http://localhost:1/d1")  # another origin
            with pytest.raises(web.IdleClosed):
                session.get(f"{base}/d1", accept=ACCEPT, resend=False)
            assert not session.connected_to(f"{base}/d1")
            assert session.get(f"{base}/d1", accept=ACCEPT, resend=False).text == "document 1"
        assert [path for path, _ in server.requests] == ["/d0", "/d1"]
        assert server.connections == 2

    def test_redirecting_is_called_before_a_redirect_opens_a_connection(self):
        """A redirect to another server, one on the connection kept to it,
        and one back to the first, whose connection the session no longer
        keeps: the callback hears of the two new connections, not of the
        kept one or of the first request's."""
        first = helpers.DocServer({}, keep_alive=True)
        second = helpers.DocServer({}, keep_alive=True)
        with first as first_base, second as second_base, web.Session(5) as session:
            first.documents["/a"] = (303, f"{second_base}/b")
            second.documents["/b"] = (303, f"{second_base}/c")
            second.documents["/c"] = (303, f"{first_base}/d")
            first.documents["/d"] = "document d"
            heard = []
            resp = session.get(f"{first_base}/a", accept=ACCEPT, redirecting=heard.append)
            assert session.get(f"{first_base}/a", accept=ACCEPT).status == 200  # no callback: no call
        assert resp.text == "document d"
        assert heard == [f"{second_base}/b", f"{first_base}/d"]

    def test_what_redirecting_raises_passes_through(self):
        server = helpers.DocServer({"/a": (303, "/b"), "/b": "document b"})  # HTTP/1.0: every request connects

        def refuse(url):
            raise LookupError(url)

        with server as base, web.Session(5) as session:
            with pytest.raises(LookupError, match="/b"):
                session.get(f"{base}/a", accept=ACCEPT, redirecting=refuse)
        assert [path for path, _ in server.requests] == ["/a"]

    def test_a_server_that_closes_gets_a_connection_per_request(self):
        server = helpers.DocServer({"/x": DOC})  # HTTP/1.0
        with server as base, web.Session(5) as session:
            statuses = [session.get(f"{base}/{path}", accept=ACCEPT).status for path in "xyx"]
        assert statuses == [200, 404, 200]
        assert server.connections == 3

    def test_without_quick_acks_a_connection_serves_one_request(self, monkeypatch):
        import socket

        monkeypatch.delattr(socket, "TCP_QUICKACK", raising=False)
        server = helpers.DocServer({"/x": DOC}, keep_alive=True)
        with server as base, web.Session(5) as session:
            texts = [session.get(f"{base}/x", accept=ACCEPT).text for _ in range(3)]
        assert texts == [DOC] * 3
        assert server.connections == 3

    def test_a_failure_on_a_new_connection_is_not_sent_again(self):
        server = helpers.DocServer({"/x": helpers.DocServer.DROP}, keep_alive=True)
        with server as base, web.Session(5) as session:
            with pytest.raises(ConnectionError, match="RemoteDisconnected"):
                session.get(f"{base}/x", accept=ACCEPT)
        assert len(server.requests) == 1
