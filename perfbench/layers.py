"""Per-layer metrics of one traced iteration, computed from its spans.

A span is ``[id, parent, name, item, start, end, attrs]`` as written by
``tracing``; ids are unique within one CLI process. Each process also has
the top-level spans ``cli.startup``, ``cli.import``, ``cli.main`` and
``cli.exit``. A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

from dataclasses import dataclass

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
METRICS = (
    ("runner.spawns", "count", "lower"),
    ("runner.failed", "count", "lower"),
    ("runner.spawn_ms_p50", "ms", "lower"),
    ("runner.spawn_ms_p90", "ms", "lower"),
    ("runner.floor_ms", "ms", "lower"),
    ("runner.busy_share", "ratio", "higher"),
    ("probe.calls", "count", "lower"),
    ("probe.ms_p50", "ms", "lower"),
    ("probe.packet_scans", "count", "lower"),
    ("encoder.calls", "count", "lower"),
    ("encoder.self_ms_p50", "ms", "lower"),
    ("encoder.out_mb", "MB", "lower"),
    ("encoder.mpx_per_item", "Mpx", "lower"),
    ("bitrate.calls", "count", "lower"),
    ("bitrate.fallback_share", "ratio", "lower"),
    ("estimator.trials_per_pair", "count", "lower"),
    ("estimator.trials_max", "count", "lower"),
    ("estimator.witness_share", "ratio", "higher"),
    ("estimator.pair_s_p50", "s", "lower"),
    ("estimator.pair_s_max", "s", "lower"),
    ("planner.plan_ms_p50", "ms", "lower"),
    ("planner.select_ms_p50", "ms", "lower"),
    ("planner.exact_share", "ratio", "higher"),
    ("profile_db.load_s", "s", "lower"),
    ("profile_db.save_s", "s", "lower"),
    ("profile_db.entries", "count", "higher"),
    ("analysis.bootstrap_s", "s", "lower"),
    ("analysis.draws", "count", "lower"),
    ("cli.other_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
)
TOP_LEVEL = ("cli.startup", "cli.import", "cli.main", "cli.exit")


@dataclass
class Span:
    proc: int
    id: int
    parent: int | None
    name: str
    item: str | None
    start: float
    end: float
    attrs: dict

    @property
    def dur(self) -> float:
        return self.end - self.start


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, -(-len(values) * q // 100))
    return values[int(rank) - 1]


def load_spans(proc: int, doc: dict, t_exit: float) -> list[Span]:
    """Spans of one CLI process, plus ``cli.exit`` up to its observed exit."""
    spans = [Span(proc, *raw) for raw in doc["spans"]]
    spans.append(Span(proc, 0, None, "cli.exit", None, doc["t_done"], t_exit, {}))
    return spans


@dataclass
class PairTrace:
    pair_id: str
    crf_hat: int
    saturated: bool
    trials: list[float]
    spawns: int
    seconds: float
    witness: bool


def pair_traces(spans: list[Span]) -> list[PairTrace]:
    """One row per ``estimate_crf`` call: its trial CRFs, spawns and witness."""
    by_item: dict[str, list[Span]] = {}
    for s in spans:
        if s.item is not None:
            by_item.setdefault(s.item, []).append(s)
    rows = []
    for s in spans:
        if s.name != "estimator.estimate_crf" or "crf_hat" not in s.attrs:
            continue
        mine = [t for t in by_item.get(s.item, []) if s.start <= t.start and t.end <= s.end]
        trials = sorted(t.attrs["crf"] for t in mine if t.name == "encoder.encode")
        a = s.attrs
        if a["saturated"]:
            witness = a["c_max"] in trials
        else:
            witness = a["crf_hat"] in trials and (a["crf_hat"] == a["c_min"]
                                                  or a["crf_hat"] - 1 in trials)
        rows.append(PairTrace(s.item, a["crf_hat"], a["saturated"], trials,
                              sum(t.name == "runner.run_tool" for t in mine), s.dur, witness))
    return rows


def _witnesses(row: PairTrace) -> int:
    wanted = {row.crf_hat} if row.saturated else {row.crf_hat, row.crf_hat - 1}
    return len(wanted & set(row.trials))


def _union(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus the time its children cover."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault((s.proc, s.parent), []).append((s.start, s.end))
    totals: dict[str, float] = {}
    for s in spans:
        own = s.dur - _union(children.get((s.proc, s.id), []))
        totals[s.name] = totals.get(s.name, 0.0) + own
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def layer_metrics(spans: list[Span], wall: float, items: int, workers: int) -> dict[str, float]:
    """Every metric of ``METRICS`` except the two measured outside the trace."""
    named: dict[str, list[Span]] = {}
    children: dict[tuple[int, int], list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault((s.proc, s.parent), []).append(s)

    def calls(name):
        return named.get(name, [])

    def kids(span, name=None):
        return [c for c in children.get((span.proc, span.id), []) if name in (None, c.name)]

    tools = calls("runner.run_tool")
    encodes = calls("encoder.encode")
    measures = calls("bitrate.measure_bitrate")
    pairs = pair_traces(spans)
    trials = [len(p.trials) for p in pairs]
    plans = calls("planner.plan_emulation")
    selects = calls("planner.select_resolution")
    library = sum(c.dur for main in calls("cli.main") for c in kids(main))
    top = sum(s.dur for s in spans if s.parent is None and s.name in TOP_LEVEL)
    ms = 1000.0
    return {
        "runner.spawns": len(tools),
        "runner.failed": sum(s.attrs.get("rc", 0) != 0 for s in tools),
        "runner.spawn_ms_p50": percentile([s.dur for s in tools], 50) * ms,
        "runner.spawn_ms_p90": percentile([s.dur for s in tools], 90) * ms,
        "runner.busy_share": sum(s.dur for s in tools) / (wall * workers),
        "probe.calls": len(calls("probe.probe_media")),
        "probe.ms_p50": percentile([s.dur for s in calls("probe.probe_media")], 50) * ms,
        "probe.packet_scans": len(calls("probe.scan_video_stream_bytes")),
        "encoder.calls": len(encodes),
        "encoder.self_ms_p50": percentile(
            [e.dur - sum(c.dur for c in kids(e, "probe.probe_media")) for e in encodes], 50) * ms,
        "encoder.out_mb": sum(e.attrs.get("bytes", 0) for e in encodes) / 1e6,
        "encoder.mpx_per_item": sum(e.attrs.get("mpx", 0) for e in encodes) / items,
        "bitrate.calls": len(measures),
        "bitrate.fallback_share": (sum(m.attrs.get("method") == "VideoBytesOverDuration"
                                       for m in measures) / len(measures)) if measures else 0.0,
        "estimator.trials_per_pair": sum(trials) / len(trials) if trials else 0.0,
        "estimator.trials_max": max(trials, default=0),
        "estimator.witness_share": (sum(map(_witnesses, pairs)) / sum(trials)) if sum(trials) else 0.0,
        "estimator.pair_s_p50": percentile([p.seconds for p in pairs], 50),
        "estimator.pair_s_max": max((p.seconds for p in pairs), default=0.0),
        "planner.plan_ms_p50": percentile([p.dur for p in plans], 50) * ms,
        "planner.select_ms_p50": percentile(
            [sum(c.dur for c in kids(p) if c.name.startswith("planner.select_")) for p in plans],
            50) * ms,
        "planner.exact_share": (sum(bool(s.attrs.get("exact")) for s in selects)
                                / len(selects)) if selects else 0.0,
        "profile_db.load_s": sum(s.dur for s in calls("profile_db.load_profile")),
        "profile_db.save_s": sum(s.dur for s in calls("profile_db.save_profile")),
        "profile_db.entries": max((s.attrs.get("entries", 0) for s in
                                   calls("profile_db.load_profile") + calls("profile_db.save_profile")),
                                  default=0),
        "analysis.bootstrap_s": sum(s.dur for s in calls("analysis.bootstrap_stability")),
        "analysis.draws": sum(s.attrs.get("draws", 0) for s in calls("analysis.bootstrap_stability")),
        "cli.other_s": wall - library,
        "trace.coverage": top / wall,
    }
