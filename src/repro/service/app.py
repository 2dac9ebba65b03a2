"""The WSGI layer: thin REST resources over the service modules.

Resources do translation only — parse the path/query/body, call one
:class:`~repro.service.service.CampaignService` or
:class:`~repro.service.watchlist.Watchlist` method, serialize the
result.  All domain logic (and all state) lives in those modules, so
the same behavior is reachable in-process (tests, embedders) and over
HTTP (the ``repro serve`` daemon) without divergence.

Everything is stdlib: ``wsgiref.simple_server`` with a
``ThreadingMixIn`` server class (one thread per request — the store
serializes access internally), ``json`` bodies, regex routing.

Error mapping, service exceptions → HTTP statuses::

    ValueError          400  (malformed spec / filter / parameter)
    KeyError            404  (unknown campaign id)
    oversized body      413  (Content-Length above MAX_BODY_BYTES)
    HttpError(s, msg)   s    (raised by handlers directly)
    anything else       500  (traceback to stderr, one-line body)
"""

from __future__ import annotations

import json
import os
import re
import socketserver
import sys
import time
import traceback
from typing import Optional
from urllib.parse import parse_qs
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from repro import telemetry
from repro.service.service import CampaignService
from repro.service.watchlist import Watchlist

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}

#: Largest request body accepted, in bytes.  A campaign spec is a few
#: hundred bytes (a genome list of thousands of rows still fits); a
#: longer ``Content-Length`` is refused with 413 before any byte of the
#: body is read.
MAX_BODY_BYTES = 1 << 20


class HttpError(Exception):
    """An error with an explicit HTTP status, raised by handlers."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def _json_body(environ) -> object:
    """Parse the request body as JSON, or raise a 400 (413 if too long)."""
    try:
        length = int(environ.get("CONTENT_LENGTH") or 0)
    except (TypeError, ValueError):
        raise HttpError(400, "bad Content-Length header") from None
    if length > MAX_BODY_BYTES:
        raise HttpError(
            413, f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit"
        )
    raw = environ["wsgi.input"].read(length) if length > 0 else b""
    if not raw:
        raise HttpError(400, "empty request body (expected a JSON object)")
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise HttpError(400, f"malformed JSON body: {error}") from None


def _int_param(
    query: dict, name: str, default: Optional[int] = None
) -> Optional[int]:
    """A non-negative integer query parameter, or a 400."""
    values = query.get(name)
    if not values:
        return default
    try:
        value = int(values[-1])
    except ValueError:
        raise HttpError(
            400, f"query parameter {name!r} must be an integer, "
            f"got {values[-1]!r}"
        ) from None
    if value < 0:
        raise HttpError(400, f"query parameter {name!r} must be >= 0")
    return value


def _flag_param(query: dict, name: str) -> bool:
    """A boolean query flag (``?name=1`` / ``?name=true``)."""
    values = query.get(name)
    if not values:
        return False
    return values[-1].lower() not in ("", "0", "false", "no")


class ServiceApp:
    """The WSGI application: route table + error mapping.

    Handlers take ``(query, groups, environ)`` and return either a
    JSON-serializable object (200), a ``(status, object)`` pair, or a
    plain string (``text/plain``, the ``/brief`` digest).
    """

    def __init__(
        self, service: CampaignService, watchlist: Optional[Watchlist] = None
    ):
        self.service = service
        self.watchlist = watchlist or Watchlist(service.store)
        # Route names are the metric label values: stable, low
        # cardinality (never the raw path — campaign ids would explode
        # the label space).
        self._routes = (
            ("GET", re.compile(r"^/healthz$"), self._get_health,
             "healthz"),
            ("GET", re.compile(r"^/metrics$"), self._get_metrics,
             "metrics"),
            ("GET", re.compile(r"^/campaigns$"), self._get_campaigns,
             "campaigns"),
            ("POST", re.compile(r"^/campaigns$"), self._post_campaign,
             "campaigns"),
            ("GET",
             re.compile(r"^/campaigns/(?P<a>[^/]+)/diff/(?P<b>[^/]+)$"),
             self._get_diff, "campaign_diff"),
            ("GET", re.compile(r"^/campaigns/(?P<cid>[^/]+)/records$"),
             self._get_records, "campaign_records"),
            ("GET", re.compile(r"^/campaigns/(?P<cid>[^/]+)/trace$"),
             self._get_trace, "campaign_trace"),
            ("GET", re.compile(r"^/campaigns/(?P<cid>[^/]+)$"),
             self._get_campaign, "campaign"),
            ("GET", re.compile(r"^/workers$"), self._get_workers,
             "workers"),
            ("GET", re.compile(r"^/watchlist$"), self._get_watchlist,
             "watchlist"),
            ("GET", re.compile(r"^/alerts$"), self._get_alerts, "alerts"),
            ("GET", re.compile(r"^/brief$"), self._get_brief, "brief"),
            ("POST", re.compile(r"^/watchlist/baseline$"),
             self._post_baseline, "watchlist_baseline"),
        )
        self._m_requests = telemetry.REGISTRY.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route, method, and status.",
        )
        self._m_latency = telemetry.REGISTRY.histogram(
            "repro_http_request_seconds",
            "HTTP request handling latency by route.",
        )

    # ------------------------------------------------------------------
    # WSGI entry point
    # ------------------------------------------------------------------
    def __call__(self, environ, start_response):
        method = (environ.get("REQUEST_METHOD") or "GET").upper()
        path = environ.get("PATH_INFO") or "/"
        query = parse_qs(environ.get("QUERY_STRING") or "",
                         keep_blank_values=True)
        path_exists = False
        for route_method, pattern, handler, route_name in self._routes:
            match = pattern.match(path)
            if match is None:
                continue
            path_exists = True
            if route_method != method:
                continue
            return self._dispatch(
                start_response, handler, route_name, method, query,
                match.groupdict(), environ,
            )
        if path_exists:
            self._count("unmatched", method, 405, started=None)
            return self._error(
                start_response, 405, f"method {method} not allowed on {path}"
            )
        self._count("unmatched", method, 404, started=None)
        return self._error(start_response, 404, f"no such resource: {path}")

    def _dispatch(
        self, start_response, handler, route_name, method, query, groups,
        environ,
    ):
        """Run one handler with error mapping, a span, and metrics."""
        started = time.perf_counter()
        with telemetry.span(
            "service.request", route=route_name, method=method
        ) as request_span:
            try:
                result = handler(query, groups, environ)
            except HttpError as error:
                status, response = error.status, self._error(
                    start_response, error.status, error.message
                )
            except KeyError as error:
                message = str(error.args[0]) if error.args else str(error)
                status, response = 404, self._error(
                    start_response, 404, message
                )
            except ValueError as error:
                status, response = 400, self._error(
                    start_response, 400, str(error)
                )
            except Exception as error:
                traceback.print_exc(file=sys.stderr)
                status, response = 500, self._error(
                    start_response, 500, f"{type(error).__name__}: {error}",
                )
            else:
                status = result[0] if isinstance(result, tuple) else 200
                response = self._ok(start_response, result)
            request_span.set(status=status)
        self._count(route_name, method, status, started=started)
        return response

    def _count(self, route, method, status, started) -> None:
        """Record one request in the process metrics registry."""
        self._m_requests.inc(route=route, method=method, status=str(status))
        if started is not None:
            self._m_latency.observe(
                time.perf_counter() - started, route=route
            )

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _send(start_response, status: int, body: bytes, content_type: str):
        start_response(
            f"{status} {_REASONS.get(status, 'Unknown')}",
            [
                ("Content-Type", content_type),
                ("Content-Length", str(len(body))),
            ],
        )
        return [body]

    def _ok(self, start_response, result):
        status = 200
        if isinstance(result, tuple):
            status, result = result
        if isinstance(result, str):
            return self._send(
                start_response, status, result.encode("utf-8"),
                "text/plain; charset=utf-8",
            )
        body = json.dumps(result, indent=2, sort_keys=True).encode("utf-8")
        return self._send(start_response, status, body, "application/json")

    def _error(self, start_response, status: int, message: str):
        body = json.dumps(
            {"error": message, "status": status}, sort_keys=True
        ).encode("utf-8")
        return self._send(start_response, status, body, "application/json")

    # ------------------------------------------------------------------
    # Resources
    # ------------------------------------------------------------------
    def _get_health(self, query, groups, environ):
        body = self.service.health()
        body["watchlist"] = self.watchlist.scan_health()
        body["requests_total"] = int(self._m_requests.total())
        return body

    def _get_metrics(self, query, groups, environ):
        """Prometheus text exposition: process + fleet + state gauges."""
        return telemetry.scrape(
            queue_path=self.service.queue_path,
            store_path=self.service.store.path,
            uptime=self.service.uptime(),
        )

    def _get_trace(self, query, groups, environ):
        """Span tree for one campaign's most recent trace."""
        campaign_id = self.service.store.resolve(groups["cid"])
        store_path = self.service.store.path
        spans = (
            []
            if store_path == ":memory:" or not os.path.exists(store_path)
            else telemetry.load_spans(store_path, campaign_id=campaign_id)
        )
        payload = telemetry.trace_payload(spans)
        payload["campaign_id"] = campaign_id
        return payload

    def _get_campaigns(self, query, groups, environ):
        return {
            "campaigns": self.service.list_campaigns(
                limit=_int_param(query, "limit"),
                offset=_int_param(query, "offset", 0),
            )
        }

    def _post_campaign(self, query, groups, environ):
        return 202, self.service.submit(_json_body(environ))

    def _get_campaign(self, query, groups, environ):
        return self.service.progress(groups["cid"])

    def _get_records(self, query, groups, environ):
        where = query.get("where", [None])[-1]
        rows = self.service.records(
            groups["cid"],
            where=where,
            limit=_int_param(query, "limit"),
            offset=_int_param(query, "offset", 0),
        )
        return {"campaign_id": groups["cid"], "count": len(rows),
                "records": rows}

    def _get_diff(self, query, groups, environ):
        return self.service.diff(groups["a"], groups["b"])

    def _get_workers(self, query, groups, environ):
        return self.service.workers()

    def _get_watchlist(self, query, groups, environ):
        return self.watchlist.snapshot(refresh=_flag_param(query, "refresh"))

    def _get_alerts(self, query, groups, environ):
        snap = self.watchlist.snapshot(refresh=_flag_param(query, "refresh"))
        return {
            "generated_at": snap["generated_at"],
            "baseline": snap["baseline"],
            "alerts": snap["alerts"],
        }

    def _get_brief(self, query, groups, environ):
        return self.watchlist.brief(refresh=_flag_param(query, "refresh"))

    def _post_baseline(self, query, groups, environ):
        body = _json_body(environ)
        if not isinstance(body, dict) or "campaign_id" not in body:
            raise HttpError(
                400, 'baseline body must be {"campaign_id": "<id>"}'
            )
        resolved = self.watchlist.set_baseline(str(body["campaign_id"]))
        return {"baseline": resolved}


def make_app(
    service: CampaignService, watchlist: Optional[Watchlist] = None
) -> ServiceApp:
    """Bundle service + watchlist into one WSGI application."""
    return ServiceApp(service, watchlist=watchlist)


class _ThreadingWSGIServer(socketserver.ThreadingMixIn, WSGIServer):
    """One thread per request; daemonic so Ctrl-C exits promptly."""

    daemon_threads = True


class _Handler(WSGIRequestHandler):
    """Request logging to stderr with the service's one-line format."""

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        sys.stderr.write(
            "service: %s %s\n" % (self.address_string(), format % args)
        )


def make_http_server(app: ServiceApp, host: str = "127.0.0.1",
                     port: int = 0) -> WSGIServer:
    """A threaded ``wsgiref`` server bound to *host*:*port*.

    ``port=0`` binds an ephemeral port (tests read it back from
    ``server.server_address``).  The caller drives ``serve_forever``
    (or ``handle_request``) and must ``server_close()`` when done.
    """
    return make_server(
        host, port, app,
        server_class=_ThreadingWSGIServer,
        handler_class=_Handler,
    )
