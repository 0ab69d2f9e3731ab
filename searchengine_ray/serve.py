"""HTTP serving layer — the reference Flask app's endpoint surface
(reference app.py:111-194 ``/search``, app.py:197-244 ``/api/search``,
app.py:246-274 ``/health`` + ``/api/health``) over any of this repo's
serving tiers, with zero extra dependencies (stdlib ``http.server``).

The backend is ANY engine-like object exposing ``search(q, top_k)`` (and
optionally ``hybrid_search``, ``corrected_query``, ``suggest``, ... and
``stats``): an in-process ``QueryEngine``, the actor-pool
``QueryService`` (result LRU + round-robin fan-out), the doc-range
``ShardedQueryService``, a ``FederatedQueryEngine`` serving base+delta
indexes, or the ``FederationManager`` around one. The pool forwards
every public engine method to a ``ray.remote(QueryEngine)`` actor, and
the sharded tier serves every method an endpoint calls, each with the
engine's results — no endpoint degrades with the backend. One process =
one gunicorn-worker analogue; at scale you run one ``serve`` process per
frontend node, all sharing the same actor tier on the Ray cluster — the
index itself stays distributed.

Endpoint semantics (the handler DATA is reference-exact; ``/search``
serves it as JSON — the engine's machine contract — while ``/`` and
``/web/search`` render the reference's HTML pages
(web/templates/index.html + search_results.html) from the same payload,
standalone markup with no static assets):

``GET /search?q=&page=``
    Reference app.py:128-185: fixed over-fetch ``results_per_page * 3``
    regardless of page, excluded-domain substring filter on the
    lowercased URL, ``source`` tag on every result, slice
    ``[start:start+per_page]``, ``total_pages = ceil`` (0 when empty)
    and the prev/next pagination dict.

``GET /api/search?q=&limit=``
    Reference app.py:197-244: over-fetch ``limit * 2``, same domain
    filter + source tag, truncate to ``limit``; empty query → empty
    result envelope, not an error.

``GET /health`` / ``GET /api/health``
    Reference app.py:246-274: index cardinalities + search mode when
    loaded, ``initializing`` before first use (this wrapper's backend
    loads eagerly, so it reports loaded), 500 + ``unhealthy`` on error.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

# Reference app.py:136/217 — the hardcoded excluded-domain set.
DEFAULT_EXCLUDED_DOMAINS = frozenset({
    "open.spotify.com", "spotify.com", "podcasts.apple.com",
    "podcasts.google.com",
})

RESULTS_PER_PAGE = 15  # reference utils/config.py:104 WEB_CONFIG


class SearchApp:
    """Transport-independent handler logic (reference app.py handlers,
    HTML rendering excluded). Exposed separately from the HTTP plumbing
    so tests can assert byte-identity between HTTP responses and direct
    calls."""

    def __init__(self, backend, *, mode: str = "bm25",
                 results_per_page: int = RESULTS_PER_PAGE,
                 excluded_domains=DEFAULT_EXCLUDED_DOMAINS):
        if mode not in ("bm25", "hybrid"):
            raise ValueError(f"mode must be bm25|hybrid, got {mode!r}")
        if mode == "hybrid" and not hasattr(backend, "hybrid_search"):
            raise ValueError("hybrid mode needs a backend with "
                             "hybrid_search()")
        self.backend = backend
        self.mode = mode
        self.results_per_page = int(results_per_page)
        self.excluded_domains = [d.lower() for d in excluded_domains]
        # reference app.py:133: the source string names the engine family
        self.search_source = ("Hybrid BM25+BERT" if mode == "hybrid"
                              else "BM25")

    def _search_fn(self, query: str, top_k: int) -> list[dict]:
        if self.mode == "hybrid":
            return self.backend.hybrid_search(query, top_k=top_k)
        return self.backend.search(query, top_k=top_k)

    def _filter_tag(self, results: list[dict]) -> list[dict]:
        """Excluded-domain filter + source tag (app.py:144-154) — on
        copies, so a shared result cache is never mutated."""
        out = []
        for r in results:
            url = str(r.get("url", "")).lower()
            if any(d in url for d in self.excluded_domains):
                continue
            r = dict(r)
            r["source"] = self.search_source
            out.append(r)
        return out

    def search(self, query: str, page: int = 1) -> dict:
        """``/search`` payload (app.py:111-194). The over-fetch ×3 /
        domain-filter / slice core is THE shared ``query._paginate``
        implementation (one copy — search_page and HTTP cannot diverge);
        this layer adds the source tag and the pagination envelope."""
        if not query:
            return {"query": "", "results": [], "total_results": 0,
                    "pagination": None, "search_source": self.search_source}
        from searchengine_ray.query import _paginate
        base = _paginate(self._search_fn, query, page,
                         self.results_per_page, self.excluded_domains)
        page = base["page"]          # clamped to ≥ 1 by _paginate
        total_pages = base["total_pages"]
        extra = {}
        if not base["results"]:
            # additive did-you-mean hint (engine extension; absent from
            # the reference envelope and from payloads with results)
            fn = getattr(self.backend, "corrected_query", None)
            fixed = fn(query) if fn else ""
            if fixed and fixed != query:
                extra["did_you_mean"] = fixed
        return {
            **extra,
            "query": query,
            "results": [dict(r, source=self.search_source)
                        for r in base["results"]],
            "total_results": base["total_results"],
            "pagination": {
                "current_page": page,
                "total_pages": total_pages,
                "has_prev": page > 1,
                "has_next": page < total_pages,
                "prev_page": page - 1 if page > 1 else None,
                "next_page": page + 1 if page < total_pages else None,
            },
            "search_source": self.search_source,
        }

    def api_search(self, query: str, limit: int | None = None) -> dict:
        """``/api/search`` payload (app.py:197-244)."""
        limit = self.results_per_page if limit is None else int(limit)
        if not query:
            return {"results": [], "total": 0}
        results = self._filter_tag(
            self._search_fn(query, top_k=limit * 2))[:limit]
        return {"results": results, "total": len(results)}

    def api_suggest(self, prefix: str, k: int = 10) -> dict:
        """``/api/suggest`` — engine extension beyond the reference app:
        prefix autocomplete over the index term dictionary
        (QueryEngine.suggest). Backends without a term dictionary yield
        an empty list rather than 500."""
        fn = getattr(self.backend, "suggest", None)
        if fn is None or not prefix:
            return {"suggestions": []}
        return {"suggestions": [{"term": t, "df": d}
                                for t, d in fn(prefix, k)]}

    def api_facets(self, query: str) -> dict:
        """``/api/facets`` — engine extension: per-field hit counts over
        the query's scored result set (QueryEngine.facet_counts)."""
        fn = getattr(self.backend, "facet_counts", None)
        if fn is None or not query:
            return {"facets": {}}
        out: dict[str, dict[str, int]] = {}
        for f, v, c in fn(query):
            out.setdefault(f, {})[v] = c
        return {"facets": out}

    def api_related(self, doc_id: int | None, k: int = 10) -> dict:
        """``/api/related`` — engine extension: more-like-this over a seed
        doc (QueryEngine.more_like_this), source-tagged + domain-filtered
        like every result list."""
        fn = getattr(self.backend, "more_like_this", None)
        if fn is None or doc_id is None:
            return {"results": [], "total": 0}
        try:
            results = self._filter_tag(fn(doc_id, top_k=k))
        except (AssertionError, KeyError):  # unknown doc_id
            return {"results": [], "total": 0}
        return {"results": results, "total": len(results)}

    def api_boolean(self, query: str, mode: str = "and",
                    exclude: str = "", k: int = 100) -> dict:
        """``/api/boolean`` — engine extension: unscored set retrieval
        (and/or/exclude). Returns up to ``k`` ascending doc_ids plus the
        total match count; invalid modes report a 400-style error body
        rather than 500."""
        fn = getattr(self.backend, "boolean_search", None)
        if fn is None or not query:
            return {"doc_ids": [], "total": 0}
        if mode not in ("and", "or"):
            return {"error": f"mode must be and|or, got {mode!r}",
                    "doc_ids": [], "total": 0}
        ids = fn(query, mode=mode, exclude=exclude)
        return {"doc_ids": [int(i) for i in ids[:max(k, 0)]],
                "total": int(ids.size)}

    # -- HTML surface (reference web/templates/index.html +
    # search_results.html, app.py:104-194). The engine keeps ``/search``
    # as the JSON contract (tests/clients pin it); the reference's HTML
    # pages are served at ``/`` and ``/web/search`` with the same data
    # payloads — standalone markup, no static assets or CDN links. ------
    _PAGE_CSS = (
        "body{font-family:sans-serif;max-width:52em;margin:2em auto;"
        "padding:0 1em;color:#222}"
        ".searchbox input[type=text]{width:70%;padding:8px;font-size:16px}"
        ".searchbox button{padding:8px 14px;font-size:16px}"
        ".result-item{padding:12px;margin-bottom:16px;border:1px solid #ddd;"
        "border-radius:5px}"
        ".result-url{color:#006621;font-size:14px;word-break:break-all}"
        ".result-snippet{background:#f6f6f6;padding:8px;border-radius:4px;"
        "font-style:italic}"
        ".result-meta{font-size:12px;color:#666}"
        ".pagination a,.pagination span{margin-right:8px}"
        ".search-source{font-weight:bold;color:#1a5276}")

    def _form_html(self, query: str = "") -> str:
        import html
        q = html.escape(query, quote=True)
        return (f'<form class="searchbox" action="/web/search" '
                f'method="get"><input type="text" name="q" value="{q}" '
                f'placeholder="Search..."/>'
                f'<button type="submit">Search</button></form>')

    def render_home(self, error: str = "") -> str:
        """index.html analogue (reference web/templates/index.html)."""
        import html
        err = (f'<p class="error">{html.escape(error)}</p>' if error
               else "")
        return (f"<!DOCTYPE html><html><head><meta charset='utf-8'>"
                f"<title>Search</title><style>{self._PAGE_CSS}</style>"
                f"</head><body><h1>Search</h1>{self._form_html()}{err}"
                f"</body></html>")

    def render_search_page(self, query: str, page: int = 1) -> str:
        """search_results.html analogue: the SAME payload ``search()``
        returns, rendered as the reference's result-item list + the
        prev/next pagination block (web/templates/search_results.html)."""
        import html
        if not query:
            return self.render_home()
        payload = self.search(query, page)
        qh = html.escape(query)
        parts = [f"<!DOCTYPE html><html><head><meta charset='utf-8'>"
                 f"<title>{qh} - Search Results</title>"
                 f"<style>{self._PAGE_CSS}</style></head><body>",
                 f"<h1>Search</h1>{self._form_html(query)}",
                 f"<p>{payload['total_results']} results for "
                 f"<b>{qh}</b> <span class='search-source'>"
                 f"({html.escape(payload['search_source'])})</span></p>"]
        if not payload["results"] and payload.get("did_you_mean"):
            dym = payload["did_you_mean"]
            from urllib.parse import quote_plus
            parts.append(f"<p>Did you mean <a href='/web/search?q="
                         f"{quote_plus(dym)}'><i>{html.escape(dym)}</i>"
                         f"</a>?</p>")
        for r in payload["results"]:
            title = html.escape(str(r.get("title", "")))
            raw_url = str(r.get("url", ""))
            url = html.escape(raw_url, quote=True)
            desc = html.escape(str(r.get("description", "")))
            snip = html.escape(str(r.get("content_snippet", "")))
            score = r.get("score", 0.0)
            # html.escape does not neutralize javascript:/data: schemes —
            # only emit an anchor for http(s) URLs and rooted local paths
            # ("/x"), else render the title as plain text (round-4 advice).
            # "//host/x" is protocol-relative, not rooted: it leaves the
            # site, as does "/\\host/x", which browsers read the same way.
            # Docstore URLs here are repo-path keys (no scheme), which also
            # render unlinked — matching their non-navigable meaning.
            scheme_ok = (raw_url.startswith(("http://", "https://"))
                         or (raw_url[:1] == "/"
                             and raw_url[1:2] not in ("/", "\\")))
            head = (f"<h3><a href='{url}'>{title}</a></h3>" if scheme_ok
                    else f"<h3>{title}</h3>")
            parts.append(
                f"<div class='result-item'>"
                f"{head}"
                f"<div class='result-url'>{url}</div>"
                f"<div class='result-description'>{desc}</div>"
                f"<div class='result-snippet'>{snip}</div>"
                f"<div class='result-meta'><span>score "
                f"{score:.4f}</span> <span>{html.escape(str(r.get('source', '')))}"
                f"</span></div></div>")
        pg = payload["pagination"]
        if pg and pg["total_pages"] > 1:
            from urllib.parse import quote_plus
            qq = quote_plus(query)
            nav = ["<div class='pagination'>"]
            if pg["has_prev"]:
                nav.append(f"<a href='/web/search?q={qq}&page="
                           f"{pg['prev_page']}'>&laquo; Previous</a>")
            nav.append(f"<span>Page {pg['current_page']} of "
                       f"{pg['total_pages']}</span>")
            if pg["has_next"]:
                nav.append(f"<a href='/web/search?q={qq}&page="
                           f"{pg['next_page']}'>Next &raquo;</a>")
            nav.append("</div>")
            parts.append("".join(nav))
        parts.append("</body></html>")
        return "".join(parts)

    def health(self) -> tuple[int, dict]:
        """``/health`` payload + status code (app.py:246-274)."""
        try:
            stats = self.backend.stats()
            return 200, {
                "status": "healthy",
                "index_loaded": True,
                "document_count": int(stats["num_docs"]),
                "term_count": int(stats["num_terms"]),
                "search_mode": self.mode,
            }
        except Exception as e:  # app.py:270-274
            return 500, {"status": "unhealthy", "error": str(e)}


class SearchHTTPServer:
    """Thin stdlib HTTP wrapper around :class:`SearchApp`.

    ``serve_forever()`` blocks (CLI use); ``start()`` runs the accept
    loop in a daemon thread and returns the bound port (tests / embedded
    use). Request handling is threaded, matching the read-only backends
    (engine search paths are pure reads; QueryService's LRU ops are
    GIL-atomic dict/OrderedDict operations)."""

    def __init__(self, app: SearchApp, host: str = "127.0.0.1",
                 port: int = 0):
        self.app = app
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *a):  # quiet — callers own logging
                pass

            def _html(self, code: int, body: str) -> None:
                data = body.encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type",
                                 "text/html; charset=utf-8")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def _json(self, code: int, payload: dict) -> None:
                body = json.dumps(payload).encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
                try:
                    u = urlparse(self.path)
                    q = parse_qs(u.query)
                    first = {k: v[0] for k, v in q.items()}
                    def _int(val, default):
                        # Flask's `type=int` silently falls back on a
                        # malformed value (app.py:118,204) — match that
                        try:
                            return int(val)
                        except (TypeError, ValueError):
                            return default

                    if u.path == "/":
                        self._html(200, outer.app.render_home())
                    elif u.path == "/web/search":
                        self._html(200, outer.app.render_search_page(
                            first.get("q", ""),
                            _int(first.get("page"), 1)))
                    elif u.path == "/search":
                        self._json(200, outer.app.search(
                            first.get("q", ""),
                            _int(first.get("page"), 1)))
                    elif u.path == "/api/search":
                        lim = _int(first.get("limit"), None)
                        self._json(200, outer.app.api_search(
                            first.get("q", ""), lim))
                    elif u.path == "/api/suggest":
                        self._json(200, outer.app.api_suggest(
                            first.get("q", ""),
                            _int(first.get("k"), 10)))
                    elif u.path == "/api/facets":
                        self._json(200, outer.app.api_facets(
                            first.get("q", "")))
                    elif u.path == "/api/boolean":
                        self._json(200, outer.app.api_boolean(
                            first.get("q", ""),
                            first.get("mode", "and"),
                            first.get("exclude", ""),
                            _int(first.get("k"), 100)))
                    elif u.path == "/api/related":
                        self._json(200, outer.app.api_related(
                            _int(first.get("doc_id"), None),
                            _int(first.get("k"), 10)))
                    elif u.path in ("/health", "/api/health"):
                        code, payload = outer.app.health()
                        self._json(code, payload)
                    else:
                        self._json(404, {"error": "not found"})
                except Exception as e:
                    self._json(500, {"error": str(e)})

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> int:
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self.port

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
