"""The package's one HTTP client: GETs with the standard library's
``http.client``, over kept-alive connections.

Document dereferencing, the statistics collector and the endpoint probe
all call :func:`get` or :meth:`Session.get`, so the transport, redirects,
proxies, the body decoding and the transport-error rules live here once.
Each caller maps a status and a transport error to its own exceptions.
``socket`` and ``http.client`` are imported by the first request, so a
run that makes none does not load them.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from collections.abc import Callable
    from http.client import HTTPConnection, HTTPResponse

# the reserved characters, '%' and '~': left as they are when a URL is quoted
_URI_CHARACTERS = "!#$%&'()*+,/:;=?@[]~"
_USER_AGENT = "Python-urllib/%d.%d" % sys.version_info[:2]  # as urllib.request sends
_REDIRECT_STATUSES = (301, 302, 303, 307, 308)
_MAX_REDIRECTS = 10


class Response(NamedTuple):
    status: int
    text: str  # the decoded body; empty for a status outside 2xx
    content_type: str  # empty for a status outside 2xx


def get(url: str, accept: str, timeout: float, params: dict[str, str] | None = None) -> Response:
    """GET ``url`` on a connection of its own; see :meth:`Session.get`."""
    with Session(timeout) as session:
        return session.get(url, accept, params)


class IdleClosed(ConnectionError):
    """A request on a kept connection failed before its status line: the
    server closed the connection while it was idle, or on the request."""


class Session:
    """GETs that reuse one connection while the server keeps it open.
    The connection is closed after any error, after a response that says
    it will close, before a request to another origin, and by
    :meth:`close`.  A session serves one thread at a time.  ``timeout``
    bounds each socket operation.
    """

    def __init__(self, timeout: float):
        self.timeout = timeout
        # the origin (scheme, host[:port]) it reaches, the connection, and
        # the headers of a forwarding proxy (None when it reaches the
        # origin itself); None when no connection is open
        self._kept: tuple[tuple[str, str], HTTPConnection, dict | None] | None = None

    def connected_to(self, url: str) -> bool:
        """Whether a connection to the origin of ``url`` is kept open: one
        that has answered."""
        return self._kept is not None and self._kept[0] == _origin(url)

    def __enter__(self) -> Session:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._kept is not None:
            self._kept[1].close()
            self._kept = None

    def get(
        self,
        url: str,
        accept: str,
        params: dict[str, str] | None = None,
        resend: bool = True,
        redirecting: Callable[[str], None] | None = None,
    ) -> Response:
        """GET ``url`` (with ``params`` as its urlencoded query string),
        following up to 10 redirects, and return any status the server
        answers with.  A redirect past that, or to a URL that is not
        http(s), returns its own status.  A request on a kept connection
        that fails before its status line is sent once more, on a new
        connection; with ``resend`` false the first request, on a
        connection kept from an earlier call, raises IdleClosed instead.
        ``redirecting``, if given, is called with a redirect's target URL
        before each new connection a request to it opens; what it raises
        passes through.

        The body is decoded with the charset of ``Content-Type``, else as
        UTF-8, which the Turtle, N-Triples and SPARQL-results media types
        require.  Raises TimeoutError when the server does not answer
        within the session's timeout (per socket operation), and OSError
        for any other failure to get a response: refused, reset, closed
        without a response, or a URL that is not http(s).
        """
        import http.client
        import urllib.parse

        # an IRI may hold characters a URI may not: percent-encode them as
        # UTF-8; the fragment is never sent, so drop it before the params
        url = urllib.parse.quote(url.partition("#")[0], safe=_URI_CHARACTERS)
        if params:
            url += ("&" if "?" in url else "?") + urllib.parse.urlencode(params)
        try:
            if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
                raise ConnectionError("not an http(s) URL")
            for redirects_left in range(_MAX_REDIRECTS, -1, -1):
                first = redirects_left == _MAX_REDIRECTS
                resp, body = self._exchange(url, accept, resend or not first, None if first else redirecting)
                if 200 <= resp.status < 300:
                    charset = resp.headers.get_content_charset()
                    return Response(
                        resp.status, _decode(body, charset), resp.headers.get("Content-Type", "")
                    )
                location = resp.headers.get("Location", resp.headers.get("URI"))
                if resp.status not in _REDIRECT_STATUSES or location is None or not redirects_left:
                    break
                url = _redirect_target(url, location)
                if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
                    break
            return Response(resp.status, "", "")
        except (http.client.HTTPException, ValueError) as exc:  # a malformed reply or URL
            raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc

    def _exchange(
        self, url: str, accept: str, resend: bool, connecting: Callable[[str], None] | None
    ) -> tuple[HTTPResponse, bytes]:
        """One GET of ``url``: the response and its body, read whole.

        A request on a reused connection that fails before a status line
        arrives is sent once more on a new connection (the server closed
        the connection while it was idle), or with ``resend`` false raises
        IdleClosed.  ``connecting``, if given, is called with ``url``
        before a new connection is opened.
        """
        import socket
        import urllib.parse

        parts = urllib.parse.urlsplit(url)
        key = _origin(url)
        host = key[1]
        if not host:
            raise ConnectionError("no host given")
        reused = self._kept is not None and self._kept[0] == key
        if reused:
            _, conn, forward = self._kept
            self._kept = None
        else:
            self.close()
            if connecting is not None:
                connecting(url)
            conn, forward = self._connect(*key)
        headers = {"Host": host, "User-Agent": _USER_AGENT, "Accept": accept}
        if forward is None:  # origin-form: the path and query
            target = url.partition("#")[0][len(parts.scheme) + 3 + len(parts.netloc):]
        else:  # absolute-form, to a forwarding proxy
            target = url.partition("#")[0]
            headers.update(forward)
        # without quick ACKs (below) a kept-alive connection can stall
        quickack = getattr(socket, "TCP_QUICKACK", None)
        keep = False
        try:
            try:
                resp = _send(conn, target, headers, quickack)
            except (ConnectionResetError, BrokenPipeError) as exc:  # RemoteDisconnected too
                if not reused:
                    raise
                conn.close()
                if not resend:
                    raise IdleClosed(f"{type(exc).__name__}: {exc}") from exc
                if connecting is not None:
                    connecting(url)
                conn, forward = self._connect(*key)
                resp = _send(conn, target, headers, quickack)
            body = resp.read()
            keep = quickack is not None and not resp.will_close
        finally:
            if keep:
                self._kept = (key, conn, forward)
            else:
                conn.close()
        return resp, body

    def _connect(self, scheme: str, host: str) -> tuple[HTTPConnection, dict | None]:
        """A new connection for the origin ``scheme://host``, and the
        headers of the proxy it forwards requests to (None if it does not)."""
        import http.client

        proxy_scheme, address, proxy_headers = _proxy(scheme, host) or (scheme, host, None)
        tls = "https" in (scheme, proxy_scheme)
        conn_type = http.client.HTTPSConnection if tls else http.client.HTTPConnection
        conn = conn_type(address, timeout=self.timeout)
        if proxy_headers is not None and scheme == "https":  # through a CONNECT tunnel
            conn.set_tunnel(host, headers=proxy_headers)
            return conn, None
        return conn, proxy_headers


def _send(conn: HTTPConnection, target: str, headers: dict, quickack: int | None) -> HTTPResponse:
    """Send one GET on ``conn`` and read the response's status line and headers."""
    import socket

    conn.request("GET", target, headers=headers)
    if quickack is not None:
        # A server that writes a response's headers and its body in two
        # small sends with Nagle's algorithm on (as http.server does) holds
        # the body until the headers are acknowledged, and on a reused
        # connection the kernel delays that ACK by up to 40 ms.  Quick-ACK
        # mode, which the kernel leaves again by itself, sends it at once.
        conn.sock.setsockopt(socket.IPPROTO_TCP, quickack, 1)
    return conn.getresponse()


def _origin(url: str) -> tuple[str, str]:
    """The origin of ``url`` as a kept connection is keyed: its scheme and
    its host[:port], unquoted."""
    import urllib.parse

    parts = urllib.parse.urlsplit(url)
    return parts.scheme, urllib.parse.unquote(parts.netloc)


def _proxy(scheme: str, host: str) -> tuple[str, str, dict[str, str]] | None:
    """The proxy that urllib.request would send a request for
    ``scheme://host`` through (its ``getproxies`` and ``proxy_bypass``):
    its scheme, its host[:port] and the headers it needs.  None to
    connect directly."""
    if sys.platform not in ("darwin", "win32") and not any(
        name.lower().endswith("_proxy") for name in os.environ
    ):
        # elsewhere getproxies reads only these variables, and none is
        # set: spare the import of urllib.request, about 1 MB
        return None
    import urllib.parse
    import urllib.request

    proxy = urllib.request.getproxies().get(scheme)
    if proxy is None or urllib.request.proxy_bypass(host):
        return None
    if "://" not in proxy:  # a bare host[:port] proxies with the request's scheme
        proxy = f"{scheme}://{proxy}"
    parts = urllib.parse.urlsplit(proxy)
    headers = {}
    if parts.username and parts.password:
        import base64

        user_pass = f"{urllib.parse.unquote(parts.username)}:{urllib.parse.unquote(parts.password)}"
        headers["Proxy-Authorization"] = "Basic " + base64.b64encode(user_pass.encode()).decode("ascii")
    return parts.scheme, urllib.parse.unquote(parts.netloc.rpartition("@")[2]), headers


def _redirect_target(url: str, location: str) -> str:
    """The URL a ``Location`` header sends a request for ``url`` to,
    quoted as urllib.request quotes it."""
    import string
    import urllib.parse

    parts = urllib.parse.urlparse(location)
    if not parts.path and parts.netloc:
        parts = parts._replace(path="/")
    # the header was decoded as ISO-8859-1: percent-encode its original bytes
    location = urllib.parse.quote(
        urllib.parse.urlunparse(parts), encoding="iso-8859-1", safe=string.punctuation
    )
    return urllib.parse.urljoin(url, location)


def _decode(body: bytes, charset: str | None) -> str:
    try:
        return body.decode(charset or "utf-8", errors="replace")
    except LookupError:  # a charset Python does not know
        return body.decode("utf-8", errors="replace")
