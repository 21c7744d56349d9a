#!/usr/bin/env python3
"""Validates observability artifacts produced by --obs-trace / --obs-metrics.

Stdlib-only checker used by CI (and handy locally):

  python3 tools/check_obs.py --trace out.trace.json \
                             --metrics out.metrics.prom \
                             --metrics-json out.metrics.json

Trace checks (Chrome trace_event JSON):
  * parses as JSON, has a traceEvents list and otherData accounting;
  * every event carries pid/tid/ph/ts (metadata events excepted for ts);
  * scoped 'B'/'E' counts balance per (pid, tid);
  * both the "wall" and "sim" process tracks are named;
  * timestamps are non-negative (exporter rebases to t=0).

Metrics checks (Prometheus text exposition):
  * every series line matches name{labels} value;
  * every series is preceded by a # TYPE declaration;
  * histogram series end with a le="+Inf" bucket equal to _count, and
    cumulative bucket counts never decrease.

Metrics-JSON checks: object with counters/hists maps plus an
optional gauges series list ({name, labels, value} objects).

Serve-metrics checks (--serve-metrics, a /metrics or --metrics-out body):
  * the full windowed gauge schema is present for both the 10s and 60s
    windows (step-diagnose quantiles, queue depth, records/verdict rates);
  * vedr_uptime_seconds and a vedr_build_info series with version/compiler
    labels are exposed.

Flight checks (--flight, a /debug/flight body): recorded/capacity/dropped
accounting agrees with the event list, events carry seq/wall_ns/cat/msg,
and seqs ascend (oldest first).

Live-serve checks (--serve-bin + --serve-corpus): boots the daemon against a
corpus trace, waits for the session to finish, scrapes /metrics and
/debug/flight (validated with the checks above, bodies saved next to the
other artifacts), pokes SIGQUIT (the daemon must dump the flight ring and
keep running), then SIGTERM (the daemon must exit 0).
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

_FAILURES = []


def fail(msg: str) -> None:
    _FAILURES.append(msg)
    print(f"FAIL: {msg}", file=sys.stderr)


def check_trace(path: str) -> None:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: traceEvents missing or not a list")
        return
    other = doc.get("otherData")
    if not isinstance(other, dict) or "written" not in other or "dropped" not in other:
        fail(f"{path}: otherData must carry written/dropped accounting")

    tracks = set()
    balance = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph is None or "pid" not in ev or "tid" not in ev:
            fail(f"{path}: event {i} lacks ph/pid/tid: {ev}")
            continue
        if ph == "M":
            if ev.get("name") == "process_name":
                tracks.add(ev.get("args", {}).get("name"))
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{path}: event {i} has bad ts {ts!r} (exporter rebases to >= 0)")
        if ph in ("B", "E"):
            key = (ev["pid"], ev["tid"])
            balance[key] = balance.get(key, 0) + (1 if ph == "B" else -1)
            if balance[key] < 0:
                fail(f"{path}: 'E' without matching 'B' on track {key} at event {i}")
        elif ph in ("b", "e"):
            if "id" not in ev:
                fail(f"{path}: async event {i} lacks an id")
        elif ph == "i":
            if ev.get("s") != "t":
                fail(f"{path}: instant event {i} should be thread-scoped (s='t')")
        else:
            fail(f"{path}: event {i} has unexpected phase {ph!r}")
    for key, depth in balance.items():
        if depth != 0:
            fail(f"{path}: {depth} unclosed 'B' span(s) on track {key}")
    for want in ("wall", "sim"):
        if want not in tracks:
            fail(f"{path}: missing process_name metadata for the '{want}' track")
    n = len(events)
    print(f"ok: {path}: {n} events, tracks={sorted(t for t in tracks if t)}")


_SERIES_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? (?P<value>[0-9eE+.\-]+|NaN|[+-]Inf)$"
)
_TYPE_RE = re.compile(r"^# TYPE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) (?P<kind>counter|gauge|histogram)$")


def check_metrics(path: str) -> None:
    typed = {}
    series = 0
    hist_buckets = {}  # base name -> list of (le, value) in file order
    hist_counts = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                m = _TYPE_RE.match(line)
                if m is None:
                    fail(f"{path}:{lineno}: malformed comment line: {line!r}")
                else:
                    typed[m.group("name")] = m.group("kind")
                continue
            m = _SERIES_RE.match(line)
            if m is None:
                fail(f"{path}:{lineno}: malformed series line: {line!r}")
                continue
            series += 1
            name, labels, value = m.group("name"), m.group("labels") or "", m.group("value")
            base = re.sub(r"_(bucket|sum|count|mean|min|max)$", "", name)
            if base not in typed and name not in typed:
                fail(f"{path}:{lineno}: series {name} has no # TYPE declaration")
            if name.endswith("_bucket"):
                le = dict(
                    kv.split("=", 1) for kv in labels.split(",") if "=" in kv
                ).get("le", "").strip('"')
                hist_buckets.setdefault(base, []).append((le, float(value)))
            elif name.endswith("_count") and typed.get(base) == "histogram":
                hist_counts[base] = float(value)

    for base, buckets in hist_buckets.items():
        last = -1.0
        for le, v in buckets:
            if v < last:
                fail(f"{path}: {base}: cumulative bucket counts decrease at le={le}")
            last = v
        if not buckets or buckets[-1][0] != "+Inf":
            fail(f"{path}: {base}: bucket series must end with le=\"+Inf\"")
        elif base in hist_counts and buckets[-1][1] != hist_counts[base]:
            fail(f"{path}: {base}: le=\"+Inf\" ({buckets[-1][1]}) != _count ({hist_counts[base]})")
    print(f"ok: {path}: {series} series, {len(typed)} metrics, {len(hist_buckets)} histograms")


def check_metrics_json(path: str) -> None:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    for key in ("counters", "hists"):
        if not isinstance(doc.get(key), dict):
            fail(f"{path}: top-level '{key}' object missing")
    for name, h in doc.get("hists", {}).items():
        if not isinstance(h.get("buckets"), list):
            fail(f"{path}: hist {name} lacks a buckets list")
            continue
        total = sum(count for _, count in h["buckets"])
        if total != h.get("count"):
            fail(f"{path}: hist {name}: bucket counts sum to {total}, count says {h.get('count')}")
    gauges = doc.get("gauges", [])
    if not isinstance(gauges, list):
        fail(f"{path}: 'gauges' must be a series list")
        gauges = []
    for i, g in enumerate(gauges):
        if not isinstance(g.get("name"), str) or not g["name"]:
            fail(f"{path}: gauge {i} lacks a name: {g}")
        if not isinstance(g.get("labels"), dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in g.get("labels", {}).items()
        ):
            fail(f"{path}: gauge {i} labels must be a string map: {g}")
        if not isinstance(g.get("value"), (int, float)):
            fail(f"{path}: gauge {i} lacks a numeric value: {g}")
    print(
        f"ok: {path}: {len(doc.get('counters', {}))} counters, "
        f"{len(doc.get('hists', {}))} hists, {len(gauges)} gauges"
    )


# The windowed gauge schema vedr_serve must expose for each rolling window
# (DESIGN.md §15). Prometheus names; the window="..." label distinguishes
# the 10s and 60s series.
_WINDOWED_SERIES = (
    "vedr_serve_window_step_diagnose_p50_ns",
    "vedr_serve_window_step_diagnose_p99_ns",
    "vedr_serve_window_step_diagnose_count",
    "vedr_serve_window_queue_depth_p50",
    "vedr_serve_window_queue_depth_p99",
    "vedr_serve_window_queue_depth_peak",
    "vedr_serve_window_records_per_sec",
    "vedr_serve_window_verdicts_per_sec",
)


def _parse_labels(raw: str) -> dict:
    return {
        k: v.strip('"')
        for k, v in (kv.split("=", 1) for kv in re.findall(r'[^,]+="[^"]*"', raw))
    }


def check_serve_metrics(path: str) -> None:
    """Schema check for a serve /metrics (or --metrics-out) exposition."""
    seen = {}  # name -> set of frozenset(labels.items())
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            m = _SERIES_RE.match(line.rstrip("\n"))
            if m is None:
                continue
            labels = _parse_labels(m.group("labels") or "")
            seen.setdefault(m.group("name"), []).append(labels)

    for name in _WINDOWED_SERIES:
        windows = {ls.get("window") for ls in seen.get(name, [])}
        for want in ("10s", "60s"):
            if want not in windows:
                fail(f"{path}: windowed series {name}{{window=\"{want}\"}} missing")
    if "vedr_serve_tail_threshold_ns" not in seen:
        fail(f"{path}: vedr_serve_tail_threshold_ns gauge missing")
    if "vedr_uptime_seconds" not in seen:
        fail(f"{path}: vedr_uptime_seconds gauge missing")
    build = seen.get("vedr_build_info", [])
    if not build:
        fail(f"{path}: vedr_build_info gauge missing")
    elif not all(ls.get("version") and ls.get("compiler") for ls in build):
        fail(f"{path}: vedr_build_info must carry version and compiler labels")
    print(f"ok: {path}: serve windowed schema complete ({len(seen)} series names)")


def check_flight(path: str) -> None:
    """Schema + accounting check for a /debug/flight JSON dump."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    for key in ("recorded", "capacity", "dropped"):
        if not isinstance(doc.get(key), int) or doc[key] < 0:
            fail(f"{path}: '{key}' must be a non-negative integer")
            return
    events = doc.get("events")
    if not isinstance(events, list):
        fail(f"{path}: 'events' missing or not a list")
        return
    recorded, capacity, dropped = doc["recorded"], doc["capacity"], doc["dropped"]
    if dropped != max(0, recorded - capacity):
        fail(f"{path}: dropped={dropped} disagrees with recorded={recorded}/capacity={capacity}")
    if len(events) != min(recorded, capacity):
        fail(f"{path}: {len(events)} events, expected min(recorded, capacity)")
    last_seq = 0
    for i, ev in enumerate(events):
        for key, kind in (("seq", int), ("wall_ns", int), ("cat", str), ("msg", str)):
            if not isinstance(ev.get(key), kind):
                fail(f"{path}: event {i} lacks {key}: {ev}")
        seq = ev.get("seq", 0)
        if seq <= last_seq:
            fail(f"{path}: event {i} seq {seq} not ascending (oldest first)")
        last_seq = seq
    print(f"ok: {path}: {len(events)} flight events, recorded={recorded} dropped={dropped}")


def _http_get(port: int, path: str, timeout: float = 5.0) -> str:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=timeout) as r:
        return r.read().decode("utf-8")


def check_live_serve(serve_bin: str, corpus: str, out_prefix: str = "serve") -> None:
    """Boots vedr_serve (no --oneshot), validates its live HTTP surface, and
    exercises SIGQUIT (flight dump, keeps running) and SIGTERM (clean exit)."""
    port_file = f"{out_prefix}.port"
    stderr_path = f"{out_prefix}.stderr"
    if os.path.exists(port_file):
        os.unlink(port_file)
    stderr_f = open(stderr_path, "w", encoding="utf-8")
    proc = subprocess.Popen(
        [serve_bin, "--follow", f"{corpus}=tenant-ci", "--port", "0",
         "--port-file", port_file, "--verdicts", f"{out_prefix}.verdicts.jsonl"],
        stderr=stderr_f,
    )
    try:
        deadline = time.time() + 30
        port = None
        while time.time() < deadline and port is None:
            if proc.poll() is not None:
                fail(f"{serve_bin}: exited early with {proc.returncode} (see {stderr_path})")
                return
            try:
                with open(port_file, "r", encoding="utf-8") as f:
                    port = int(f.read().strip())
            except (OSError, ValueError):
                time.sleep(0.05)
        if port is None:
            fail(f"{serve_bin}: no port file within 30s")
            return

        # Wait for the followed session to finish so the windowed gauges and
        # flight ring have real content behind them.
        while time.time() < deadline:
            sessions = json.loads(_http_get(port, "/sessions")).get("sessions", [])
            if sessions and all(s.get("state") in ("finished", "error") for s in sessions):
                break
            time.sleep(0.1)
        else:
            fail(f"{serve_bin}: session never finished (see {stderr_path})")
            return

        metrics_path = f"{out_prefix}.metrics.prom"
        with open(metrics_path, "w", encoding="utf-8") as f:
            f.write(_http_get(port, "/metrics"))
        check_metrics(metrics_path)
        check_serve_metrics(metrics_path)

        flight_path = f"{out_prefix}.flight.json"
        with open(flight_path, "w", encoding="utf-8") as f:
            f.write(_http_get(port, "/debug/flight"))
        check_flight(flight_path)

        # SIGQUIT: dump-and-carry-on, never death.
        proc.send_signal(signal.SIGQUIT)
        dump_deadline = time.time() + 10
        while time.time() < dump_deadline:
            stderr_f.flush()
            with open(stderr_path, "r", encoding="utf-8") as f:
                if "flight recorder dump: SIGQUIT" in f.read():
                    break
            time.sleep(0.1)
        else:
            fail(f"{serve_bin}: SIGQUIT produced no flight dump on stderr")
        if proc.poll() is not None:
            fail(f"{serve_bin}: died on SIGQUIT (exit {proc.returncode})")
            return
        if "ok" not in _http_get(port, "/healthz"):
            fail(f"{serve_bin}: unhealthy after SIGQUIT")

        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=30)
        if rc != 0:
            fail(f"{serve_bin}: SIGTERM exit code {rc} (want 0; see {stderr_path})")
        else:
            print(f"ok: {serve_bin}: live surface validated, SIGQUIT survived, clean SIGTERM")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        stderr_f.close()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", action="append", default=[], help="Chrome trace JSON file")
    ap.add_argument("--metrics", action="append", default=[], help="Prometheus text file")
    ap.add_argument("--metrics-json", action="append", default=[], help="metrics JSON snapshot")
    ap.add_argument("--serve-metrics", action="append", default=[],
                    help="serve /metrics body: windowed gauge schema check")
    ap.add_argument("--flight", action="append", default=[],
                    help="/debug/flight JSON body: flight recorder schema check")
    ap.add_argument("--serve-bin", help="vedr_serve binary: live HTTP/signal checks")
    ap.add_argument("--serve-corpus", help=".vtrc trace for --serve-bin to follow")
    args = ap.parse_args()
    if not (args.trace or args.metrics or args.metrics_json or args.serve_metrics
            or args.flight or args.serve_bin):
        ap.error("nothing to check: pass --trace / --metrics / --metrics-json / "
                 "--serve-metrics / --flight / --serve-bin")
    if bool(args.serve_bin) != bool(args.serve_corpus):
        ap.error("--serve-bin and --serve-corpus go together")
    for path in args.trace:
        check_trace(path)
    for path in args.metrics:
        check_metrics(path)
    for path in args.metrics_json:
        check_metrics_json(path)
    for path in args.serve_metrics:
        check_serve_metrics(path)
    for path in args.flight:
        check_flight(path)
    if args.serve_bin:
        check_live_serve(args.serve_bin, args.serve_corpus)
    return 1 if _FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
