"""The package's one HTTP client: a GET with the standard library.

Document dereferencing, the statistics collector and the endpoint probe
all call :func:`get`, so the transport, the body decoding and the
transport-error rules live here once.  Each caller maps a status and a
transport error to its own exceptions.
"""

from __future__ import annotations

from typing import NamedTuple

# the reserved characters, '%' and '~': left as they are when a URL is quoted
_URI_CHARACTERS = "!#$%&'()*+,/:;=?@[]~"


class Response(NamedTuple):
    status: int
    text: str  # the decoded body; empty for a status outside 2xx
    content_type: str  # empty for a status outside 2xx


def get(url: str, accept: str, timeout: float, params: dict[str, str] | None = None) -> Response:
    """GET ``url`` (with ``params`` as its urlencoded query string),
    following redirects, and return any status the server answers with.

    The body is decoded with the charset of ``Content-Type``, else as
    UTF-8, which the Turtle, N-Triples and SPARQL-results media types
    require.  Raises TimeoutError when the server does not answer within
    ``timeout`` seconds (per socket operation), and OSError for any other
    failure to get a response: refused, reset, closed without a response,
    or a URL that is not http(s).
    """
    import http.client
    import urllib.error
    import urllib.parse
    import urllib.request

    # an IRI may hold characters a URI may not: percent-encode them as UTF-8
    url = urllib.parse.quote(url, safe=_URI_CHARACTERS)
    if params:
        url += ("&" if "?" in url else "?") + urllib.parse.urlencode(params)
    try:
        if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
            raise ConnectionError("not an http(s) URL")
        request = urllib.request.Request(url, headers={"Accept": accept})
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            body = resp.read()
            return Response(
                resp.status,
                _decode(body, resp.headers.get_content_charset()),
                resp.headers.get("Content-Type", ""),
            )
    except urllib.error.HTTPError as exc:
        exc.close()
        return Response(exc.code, "", "")
    except urllib.error.URLError as exc:
        if isinstance(exc.reason, TimeoutError):  # timed out while connecting
            raise TimeoutError(str(exc.reason)) from exc
        raise
    except (http.client.HTTPException, ValueError) as exc:  # a malformed reply or URL
        raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc


def _decode(body: bytes, charset: str | None) -> str:
    try:
        return body.decode(charset or "utf-8", errors="replace")
    except LookupError:  # a charset Python does not know
        return body.decode("utf-8", errors="replace")
