"""Minimal HTTP abstractions for the demonstration web application.

The paper's demo includes "a web-based application for client
registration and subscription/publication input" (§4).  This module
provides a dependency-free request/response model and router that can
be driven in-process (tests, benchmarks) or served for real through the
WSGI adapter (:meth:`App.wsgi`) with the standard library's
``wsgiref.simple_server`` — no framework required.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable
from urllib.parse import parse_qsl, urlsplit

from repro.errors import RoutingError

__all__ = ["Request", "Response", "App", "escape"]

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    302: "Found",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


@dataclass(frozen=True)
class Request:
    """One HTTP request (already parsed)."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    form: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def get(cls, url: str, headers: dict[str, str] | None = None) -> "Request":
        """Build a GET request from a path-with-query string."""
        parts = urlsplit(url)
        return cls(
            method="GET",
            path=parts.path or "/",
            query=dict(parse_qsl(parts.query)),
            headers=dict(headers or {}),
        )

    @classmethod
    def post(
        cls,
        url: str,
        form: dict[str, str] | None = None,
        headers: dict[str, str] | None = None,
    ) -> "Request":
        parts = urlsplit(url)
        return cls(
            method="POST",
            path=parts.path or "/",
            query=dict(parse_qsl(parts.query)),
            form=dict(form or {}),
            headers=dict(headers or {}),
        )

    @property
    def wants_json(self) -> bool:
        accept = self.headers.get("accept", "")
        return "application/json" in accept or self.query.get("format") == "json"


@dataclass(frozen=True)
class Response:
    """One HTTP response."""

    status: int = 200
    body: str = ""
    content_type: str = "text/html; charset=utf-8"
    headers: tuple[tuple[str, str], ...] = ()

    @property
    def status_line(self) -> str:
        return f"{self.status} {_STATUS_TEXT.get(self.status, 'Unknown')}"

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def json(self) -> object:
        """Parse the body as JSON (raises ``ValueError`` otherwise)."""
        return json.loads(self.body)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def html(cls, body: str, status: int = 200) -> "Response":
        return cls(status=status, body=body)

    @classmethod
    def json_response(cls, payload: object, status: int = 200) -> "Response":
        return cls(
            status=status,
            body=json.dumps(payload, indent=2, sort_keys=True, default=str),
            content_type="application/json",
        )

    @classmethod
    def bad_request(cls, message: str, *, as_json: bool = False) -> "Response":
        if as_json:
            return cls.json_response({"error": message}, status=400)
        return cls.html(f"<h1>400 Bad Request</h1><p>{escape(message)}</p>", status=400)


def escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


#: Route handlers receive the request plus extracted path parameters.
Handler = Callable[..., Response]


class App:
    """Pattern-matching router with a WSGI adapter.

    Patterns are slash-separated; a ``<name>`` segment captures one
    path component and is passed to the handler as a keyword argument::

        @app.route("GET", "/clients/<client_id>")
        def show_client(request, client_id): ...
    """

    def __init__(self) -> None:
        self._routes: list[tuple[str, tuple[str, ...], Handler]] = []

    def route(self, method: str, pattern: str) -> Callable[[Handler], Handler]:
        segments = tuple(seg for seg in pattern.strip("/").split("/") if seg) or ("",)

        def register(handler: Handler) -> Handler:
            self._routes.append((method.upper(), segments, handler))
            return handler

        return register

    def _match(self, method: str, path: str) -> tuple[Handler, dict[str, str]]:
        segments = tuple(seg for seg in path.strip("/").split("/") if seg) or ("",)
        methods_seen: set[str] = set()
        for route_method, pattern, handler in self._routes:
            params = _match_segments(pattern, segments)
            if params is None:
                continue
            methods_seen.add(route_method)
            if route_method == method.upper():
                return handler, params
        if methods_seen:
            raise RoutingError(f"method {method} not allowed for {path}")
        raise RoutingError(f"no route for {path}")

    def dispatch(self, request: Request) -> Response:
        """Route and execute; routing misses become 404/405."""
        try:
            handler, params = self._match(request.method, request.path)
        except RoutingError as exc:
            status = 405 if "not allowed" in str(exc) else 404
            if request.wants_json:
                return Response.json_response({"error": str(exc)}, status=status)
            return Response(
                status=status,
                body=f"<h1>{status}</h1><p>{escape(str(exc))}</p>",
            )
        return handler(request, **params)

    # -- WSGI ------------------------------------------------------------------------

    def wsgi(self, environ, start_response):
        """WSGI entry point (``wsgiref.simple_server.make_server(...,
        app.wsgi)``)."""
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/")
        query = dict(parse_qsl(environ.get("QUERY_STRING", "")))
        form: dict[str, str] = {}
        if method == "POST":
            try:
                length = int(environ.get("CONTENT_LENGTH") or 0)
            except ValueError:
                length = 0
            if length:
                body = environ["wsgi.input"].read(length).decode("utf-8")
                form = dict(parse_qsl(body))
        headers = {
            key[5:].replace("_", "-").lower(): value
            for key, value in environ.items()
            if key.startswith("HTTP_")
        }
        request = Request(method=method, path=path, query=query, form=form, headers=headers)
        response = self.dispatch(request)
        start_response(
            response.status_line,
            [("Content-Type", response.content_type), *response.headers],
        )
        return [response.body.encode("utf-8")]


def _match_segments(pattern: tuple[str, ...], segments: tuple[str, ...]) -> dict[str, str] | None:
    if len(pattern) != len(segments):
        return None
    params: dict[str, str] = {}
    for expected, actual in zip(pattern, segments):
        if expected.startswith("<") and expected.endswith(">"):
            params[expected[1:-1]] = actual
        elif expected != actual:
            return None
    return params
