"""``repro top`` — a live ANSI dashboard over the ``/debug`` surface.

The renderer is a pure function from the three debug payloads
(``/debug/requests``, ``/debug/slo``, ``/health``) to a frame of text, so
it is unit-testable without a server; the poll loop around it is a thin
``urllib`` client so the dashboard needs nothing beyond the standard
library and works against any serving tier started with observability
enabled (``repro serve-http --observe``).
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import Any, TextIO

__all__ = ["fetch_json", "render_dashboard", "run_top"]

#: ANSI: cursor home + clear to end of screen (no full-reset flicker).
CLEAR = "\x1b[H\x1b[J"

#: Seconds between frames.
INTERVAL_S = 2.0

_STATE_GLYPH = {"ok": "ok", "warn": "WARN", "page": "PAGE!"}


def fetch_json(url: str) -> dict[str, Any]:
    """GET one JSON document; raises ``urllib.error.URLError`` on failure."""
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return json.loads(response.read().decode("utf-8"))


def _fmt_rate(value: float | None) -> str:
    if value is None:
        return "     -"
    return f"{value:6.1f}"


def _fmt_ms(value: float | None) -> str:
    if value is None:
        return "      -"
    return f"{value * 1000.0:7.1f}"


def _rates_line(label: str, rates: dict[str, Any], total: Any) -> str:
    """``rates`` is ``/debug/requests``' ``requests`` or ``errors``: ``rate_1s``/``rate_10s``/``rate_60s``."""
    return (
        f"{label:<10s}"
        f" 1s {_fmt_rate(rates.get('rate_1s'))} rps "
        f" 10s {_fmt_rate(rates.get('rate_10s'))} rps "
        f" 60s {_fmt_rate(rates.get('rate_60s'))} rps "
        f" total {total}"
    )


def _top_series(series: dict[str, dict[str, float]]) -> str:
    """The five busiest of ``/debug/requests``' ``tenants`` or ``routes``, by their 10 s rate."""
    ranked = sorted(((name, rates.get("10s", 0.0)) for name, rates in series.items()),
                    key=lambda kv: (-kv[1], kv[0]))[:5]
    return "  ".join(f"{name} {rate:.1f}" for name, rate in ranked) or "(idle)"


def render_dashboard(
    requests: dict[str, Any],
    slo: dict[str, Any],
    health: dict[str, Any],
    *,
    url: str = "",
    clock: Any = time.localtime,
) -> str:
    """One dashboard frame from the three debug payloads (pure)."""
    lines: list[str] = []
    stamp = time.strftime("%H:%M:%S", clock())
    uptime = requests.get("uptime_s", 0.0)
    lines.append(f"repro top — {url or 'portal'}   up {uptime:.0f}s   {stamp}")
    lines.append("")

    req = requests.get("requests", {})
    err = requests.get("errors", {})
    lines.append(
        _rates_line("requests", req, int(req.get("total", 0)))
    )
    lines.append(_rates_line("errors", err, int(err.get("total", 0))))

    lat = requests.get("latency", {})
    lines.append(
        f"{'latency':<10s} p50 {_fmt_ms(lat.get('p50'))} ms  "
        f"p95 {_fmt_ms(lat.get('p95'))} ms  "
        f"p99 {_fmt_ms(lat.get('p99'))} ms   ({lat.get('window_s', 60)}s window)"
    )
    lines.append(
        f"{'queue':<10s} queued {health.get('queued', 0)}  "
        f"running {health.get('running', 0)}  "
        f"inflight {health.get('inflight', 0)}  "
        f"status {health.get('status', '?')}"
    )
    lines.append("")

    for objective in slo.get("objectives", ()):
        state = _STATE_GLYPH.get(objective.get("state", "?"), objective.get("state"))
        budget = objective.get("budget_remaining")
        budget_text = f"{budget * 100.0:5.1f}%" if budget is not None else "    -"
        lines.append(
            f"{'slo':<10s} {objective.get('objective', '?'):<13s} {state:<6s} "
            f"burn {objective.get('burn_short', 0.0):5.2f}/"
            f"{objective.get('burn_long', 0.0):5.2f}  "
            f"budget {budget_text}"
        )

    shed_totals = {
        k: float(v) for k, v in requests.get("shed_totals", {}).items() if v
    }
    if shed_totals:
        lines.append(
            f"{'sheds':<10s} "
            + "  ".join(
                f"{reason} {int(count)}" for reason, count in sorted(shed_totals.items())
            )
        )
    lines.append(f"{'tenants':<10s} {_top_series(requests.get('tenants', {}))}")
    lines.append(f"{'routes':<10s} {_top_series(requests.get('routes', {}))}")

    shards = health.get("shards")
    if shards:
        cells = []
        for name, info in sorted(shards.get("shards", {}).items()):
            if info.get("alive"):
                cells.append(f"{name} q{info.get('queued', 0)}/r{info.get('running', 0)}")
            else:
                cells.append(f"{name} DEAD")
        lines.append(
            f"{'shards':<10s} " + "  ".join(cells)
            + (f"  relocated {shards['relocated_jobs']}" if shards.get("relocated_jobs") else "")
        )

    sites = health.get("sites")
    if sites:
        lines.append(
            f"{'sites':<10s} "
            + "  ".join(f"{name} {state}" for name, state in sorted(sites.items()))
        )

    flight = requests.get("flight", {})
    lines.append(
        f"{'flight':<10s} open {flight.get('open', 0)}  "
        f"completed {flight.get('completed', 0)}  "
        f"errors {flight.get('errors', 0)}"
    )
    return "\n".join(lines) + "\n"


def run_top(base_url: str, *, once: bool = False, stream: TextIO | None = None) -> int:
    """Poll the debug surface and redraw every :data:`INTERVAL_S` until
    Ctrl-C; ``once`` renders a single frame without clearing the screen.
    Returns a process exit code.
    """
    out = stream if stream is not None else sys.stdout
    base = base_url.rstrip("/")
    while True:
        try:
            requests = fetch_json(f"{base}/debug/requests")
            slo = fetch_json(f"{base}/debug/slo")
            health = fetch_json(f"{base}/health")
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                print(
                    f"error: {base} has no /debug surface — start the tier "
                    "with observability enabled (repro serve-http --observe)",
                    file=sys.stderr,
                )
                return 2
            print(f"error: {base}: HTTP {exc.code}", file=sys.stderr)
            return 1
        except (urllib.error.URLError, OSError) as exc:
            print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
            return 1
        if not once:
            out.write(CLEAR)
        out.write(render_dashboard(requests, slo, health, url=base))
        out.flush()
        if once:
            return 0
        try:
            time.sleep(INTERVAL_S)
        except KeyboardInterrupt:
            return 0
