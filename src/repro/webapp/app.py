"""The job-finder demonstration web application (paper §4).

"To demonstrate our system, we build a web-based application for client
registration and subscription/publication input … the application can
run in two different modes: semantic or syntactic."

Routes (HTML by default, JSON with ``Accept: application/json`` or
``?format=json``):

=======  =========================  ==========================================
method   path                       purpose
=======  =========================  ==========================================
GET      /                          overview: mode, stats, how-to
POST     /clients                   register (name, role, email/sms/tcp/udp)
GET      /clients                   list registered clients
POST     /subscriptions             subscribe (client_id, subscription text)
GET      /subscriptions             list subscriptions
POST     /publications              publish (client_id, event text) → matches
GET      /notifications/<client>    deliveries for one subscriber
GET      /explain                   semantic expansion of ?event=...
GET/POST /mode                      read / switch semantic|syntactic
=======  =========================  ==========================================
"""

from __future__ import annotations

from repro.broker.broker import Broker
from repro.broker.clients import ClientKind
from repro.errors import (
    FormValidationError,
    ParseError,
    ReproError,
)
from repro.model.parser import parse_event
from repro.webapp.forms import optional, optional_int, required, required_choice
from repro.webapp.http import App, Request, Response, escape

__all__ = ["JobFinderWebApp"]

_PAGE = """<!DOCTYPE html>
<html><head><title>S-ToPSS job finder</title></head>
<body>
<h1>S-ToPSS — {title}</h1>
<p><a href="/">overview</a> | <a href="/clients">clients</a> |
<a href="/subscriptions">subscriptions</a> | <a href="/mode">mode</a></p>
{body}
</body></html>"""


def _page(title: str, body: str, status: int = 200) -> Response:
    return Response.html(_PAGE.format(title=escape(title), body=body), status=status)


class JobFinderWebApp:
    """HTTP facade over a :class:`~repro.broker.broker.Broker`."""

    def __init__(self, broker: Broker) -> None:
        self.broker = broker
        self.app = App()
        self._register_routes()

    # -- plumbing -----------------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Dispatch one request (library-level entry point)."""
        try:
            return self.app.dispatch(request)
        except FormValidationError as exc:
            return Response.bad_request(str(exc), as_json=request.wants_json)
        except ParseError as exc:
            return Response.bad_request(f"parse error: {exc}", as_json=request.wants_json)
        except ReproError as exc:
            return Response.bad_request(str(exc), as_json=request.wants_json)

    def wsgi(self, environ, start_response):
        """WSGI entry point with the same error translation."""
        inner_app = App()
        inner_app.dispatch = self.handle  # type: ignore[method-assign]
        return inner_app.wsgi(environ, start_response)

    def _register_routes(self) -> None:
        app, broker = self.app, self.broker

        @app.route("GET", "/")
        def overview(request: Request) -> Response:
            stats = broker.stats()
            if request.wants_json:
                return Response.json_response({"mode": broker.mode, "stats": stats})
            rows = "".join(
                f"<li>{escape(str(key))}: {escape(str(value))}</li>"
                for key, value in stats.items()
                if not isinstance(value, dict)
            )
            return _page(
                "overview",
                f"<p>mode: <b>{broker.mode}</b></p><ul>{rows}</ul>"
                "<p>POST /clients, /subscriptions, /publications to interact.</p>",
            )

        @app.route("POST", "/clients")
        def register_client(request: Request) -> Response:
            name = required(request.form, "name")
            role = required_choice(request.form, "role", ("publisher", "subscriber", "both"))
            client = broker.register_client(
                name,
                kind=ClientKind(role),
                email=optional(request.form, "email") or None,
                sms=optional(request.form, "sms") or None,
                tcp=optional(request.form, "tcp") or None,
                udp=optional(request.form, "udp") or None,
            )
            if request.wants_json:
                return Response.json_response(
                    {
                        "client_id": client.client_id,
                        "name": client.name,
                        "role": client.kind.value,
                    },
                    status=201,
                )
            return _page(
                "client registered",
                f"<p>registered <b>{escape(str(client))}</b></p>",
                status=201,
            )

        @app.route("GET", "/clients")
        def list_clients(request: Request) -> Response:
            clients = list(broker.registry.clients())
            if request.wants_json:
                return Response.json_response(
                    [
                        {
                            "client_id": c.client_id,
                            "name": c.name,
                            "role": c.kind.value,
                            "transports": list(c.preferred_transports()),
                        }
                        for c in clients
                    ]
                )
            items = "".join(f"<li>{escape(str(c))}</li>" for c in clients)
            return _page("clients", f"<ul>{items}</ul>")

        @app.route("POST", "/subscriptions")
        def subscribe(request: Request) -> Response:
            client_id = required(request.form, "client_id")
            text = required(request.form, "subscription")
            max_generality = optional_int(request.form, "max_generality", default=None, minimum=0)
            subscription = broker.subscribe(client_id, text, max_generality=max_generality)
            if request.wants_json:
                return Response.json_response(
                    {
                        "sub_id": subscription.sub_id,
                        "subscription": subscription.format(),
                        "max_generality": subscription.max_generality,
                    },
                    status=201,
                )
            return _page(
                "subscribed",
                f"<p>subscription <b>{subscription.sub_id}</b>: "
                f"{escape(subscription.format())}</p>",
                status=201,
            )

        @app.route("GET", "/subscriptions")
        def list_subscriptions(request: Request) -> Response:
            subs = list(broker.engine.subscriptions())
            if request.wants_json:
                return Response.json_response(
                    [
                        {
                            "sub_id": s.sub_id,
                            "subscriber": s.subscriber_id,
                            "subscription": s.format(),
                        }
                        for s in subs
                    ]
                )
            items = "".join(
                f"<li><b>{s.sub_id}</b> ({escape(str(s.subscriber_id))}): "
                f"{escape(s.format())}</li>"
                for s in subs
            )
            return _page("subscriptions", f"<ul>{items}</ul>")

        @app.route("POST", "/publications")
        def publish(request: Request) -> Response:
            client_id = required(request.form, "client_id")
            text = required(request.form, "event")
            report = broker.publish(client_id, text)
            if request.wants_json:
                return Response.json_response(
                    {
                        "event": report.event.format(),
                        "matches": [
                            {
                                "sub_id": m.subscription.sub_id,
                                "generality": m.generality,
                                "semantic": m.is_semantic,
                                "explanation": m.explain(),
                            }
                            for m in report.matches
                        ],
                        "delivered": report.delivered_count,
                    },
                    status=201,
                )
            items = "".join(f"<li><pre>{escape(m.explain())}</pre></li>" for m in report.matches)
            return _page(
                "published",
                f"<p>event {escape(report.event.format())} matched "
                f"{report.match_count} subscription(s); "
                f"{report.delivered_count} notification(s) delivered.</p>"
                f"<ul>{items}</ul>",
                status=201,
            )

        @app.route("GET", "/notifications/<client_id>")
        def notifications(request: Request, client_id: str) -> Response:
            rows = broker.notifier.delivered_to(client_id)
            if request.wants_json:
                return Response.json_response(
                    [
                        {
                            "notification_id": row.notification_id,
                            "transport": row.transport,
                            "subject": row.subject,
                        }
                        for row in rows
                    ]
                )
            items = "".join(f"<li>[{row.transport}] {escape(row.subject)}</li>" for row in rows)
            return _page(f"notifications for {client_id}", f"<ul>{items}</ul>")

        @app.route("GET", "/explain")
        def explain(request: Request) -> Response:
            text = request.query.get("event", "")
            if not text:
                raise FormValidationError("query parameter 'event' is required", field="event")
            result = broker.engine.explain(parse_event(text))
            if request.wants_json:
                return Response.json_response(
                    {
                        "original": result.original.format(),
                        "derived": [d.explain() for d in result.derived],
                        "iterations": result.iterations,
                        "truncated": result.truncated,
                    }
                )
            items = "".join(f"<li><pre>{escape(d.explain())}</pre></li>" for d in result.derived)
            return _page("semantic expansion", f"<ul>{items}</ul>")

        @app.route("GET", "/mode")
        def get_mode(request: Request) -> Response:
            if request.wants_json:
                return Response.json_response({"mode": broker.mode})
            return _page(
                "mode",
                f"<p>current mode: <b>{broker.mode}</b></p>"
                '<form method="POST" action="/mode">'
                '<select name="mode"><option>semantic</option>'
                "<option>syntactic</option></select>"
                '<button type="submit">switch</button></form>',
            )

        @app.route("POST", "/mode")
        def set_mode(request: Request) -> Response:
            mode = required_choice(request.form, "mode", ("semantic", "syntactic"))
            if mode == "semantic":
                broker.set_semantic_mode()
            else:
                broker.set_syntactic_mode()
            if request.wants_json:
                return Response.json_response({"mode": broker.mode})
            return _page("mode", f"<p>mode switched to <b>{broker.mode}</b></p>")

    # -- convenience -----------------------------------------------------------------

    def get(self, url: str, *, json: bool = False) -> Response:
        headers = {"accept": "application/json"} if json else {}
        return self.handle(Request.get(url, headers=headers))

    def post(self, url: str, form: dict[str, str], *, json: bool = False) -> Response:
        headers = {"accept": "application/json"} if json else {}
        return self.handle(Request.post(url, form=form, headers=headers))

    def serve(self, host: str = "127.0.0.1", port: int = 8080):  # pragma: no cover
        """Serve over real HTTP via the standard library (demo use)."""
        from wsgiref.simple_server import make_server

        server = make_server(host, port, self.wsgi)
        print(f"S-ToPSS job finder listening on http://{host}:{port}/")
        server.serve_forever()
