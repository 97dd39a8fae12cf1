"""Unit tests for the HTTP substrate (repro.webapp.http)."""

from __future__ import annotations

import io

from repro.webapp.http import App, Request, Response, escape


class TestRequest:
    def test_get_parses_query(self):
        request = Request.get("/explain?event=(a,1)&format=json")
        assert request.path == "/explain"
        assert request.query["format"] == "json"

    def test_post_carries_form(self):
        request = Request.post("/clients", form={"name": "X"})
        assert request.method == "POST" and request.form["name"] == "X"

    def test_wants_json_via_header(self):
        assert Request.get("/", headers={"accept": "application/json"}).wants_json
        assert not Request.get("/").wants_json

    def test_wants_json_via_query(self):
        assert Request.get("/?format=json").wants_json


class TestResponse:
    def test_status_lines(self):
        assert Response(200).status_line == "200 OK"
        assert Response(404).status_line == "404 Not Found"
        assert Response(201).ok and not Response(400).ok

    def test_json_round_trip(self):
        response = Response.json_response({"a": 1})
        assert response.json() == {"a": 1}
        assert response.content_type == "application/json"

    def test_escape(self):
        assert escape('<b a="1">&') == "&lt;b a=&quot;1&quot;&gt;&amp;"


class TestRouting:
    def _app(self) -> App:
        app = App()

        @app.route("GET", "/items")
        def list_items(request):
            return Response.json_response(["a", "b"])

        @app.route("GET", "/items/<item_id>")
        def get_item(request, item_id):
            return Response.json_response({"id": item_id})

        @app.route("POST", "/items")
        def create_item(request):
            return Response.json_response(request.form, status=201)

        return app

    def test_static_route(self):
        response = self._app().dispatch(Request.get("/items"))
        assert response.json() == ["a", "b"]

    def test_path_parameter(self):
        response = self._app().dispatch(Request.get("/items/42"))
        assert response.json() == {"id": "42"}

    def test_method_dispatch(self):
        response = self._app().dispatch(Request.post("/items", form={"x": "1"}))
        assert response.status == 201 and response.json() == {"x": "1"}

    def test_404(self):
        response = self._app().dispatch(Request.get("/nope"))
        assert response.status == 404

    def test_405(self):
        response = self._app().dispatch(Request.post("/items/42"))
        assert response.status == 405

    def test_404_json(self):
        response = self._app().dispatch(
            Request.get("/nope", headers={"accept": "application/json"})
        )
        assert response.status == 404 and "error" in response.json()

    def test_trailing_slash_tolerated(self):
        response = self._app().dispatch(Request.get("/items/"))
        assert response.status == 200


class TestWsgi:
    def test_wsgi_round_trip(self):
        app = self_app = App()

        @self_app.route("POST", "/echo")
        def echo(request):
            return Response.json_response(
                {"form": request.form, "q": request.query, "h": request.headers.get("x-test")}
            )

        body = b"name=Ada&role=publisher"
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/echo",
            "QUERY_STRING": "debug=1",
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
            "HTTP_X_TEST": "yes",
        }
        captured = {}

        def start_response(status, headers):
            captured["status"] = status
            captured["headers"] = headers

        chunks = app.wsgi(environ, start_response)
        import json

        payload = json.loads(b"".join(chunks).decode())
        assert captured["status"] == "200 OK"
        assert payload["form"] == {"name": "Ada", "role": "publisher"}
        assert payload["q"] == {"debug": "1"}
        assert payload["h"] == "yes"
