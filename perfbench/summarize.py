"""Trace summarizer for the perfbench driver's traced runs.

Reads a Chrome trace (the program's WriteChromeTrace output) and computes,
for every span, its self time: its duration minus the part of it that its
children on the same thread cover. Spans map to layers (src/ modules) by
name; per-layer sums are taken inside each benchmark-recorded batch span
(bench.batch), on the thread that made the call.

Usage: python3 perfbench/summarize.py TRACE.json  (prints per-layer totals)
"""

import json
import math
import statistics
import sys

# Simulated-cluster timelines are exported on synthetic thread ids from
# here up (telemetry/trace.h kSimTidBase); they are not host work.
SIM_TID_BASE = 10000

# Span name -> layer (src/ module). Longest matching prefix wins. The
# executor lives in src/maintenance, but its join phase runs src/join's
# kernels, so exec.joins / exec.node_joins are the join layer.
LAYER_PREFIXES = [
    ("workload.", "workload"),
    ("cluster.", "cluster"),
    ("view.", "view"),
    ("maint.", "maintenance"),
    ("plan.", "maintenance"),
    ("exec.joins", "join"),
    ("exec.node_joins", "join"),
    ("exec.", "maintenance"),
    ("serve.", "serve"),
    ("buffer.", "buffer"),
    ("query.", "query"),
    ("harness.", "harness"),
    ("bench.", "bench"),
]


def layer_of(name):
    best = None
    for prefix, layer in LAYER_PREFIXES:
        if name.startswith(prefix) and (best is None or len(prefix) > best[0]):
            best = (len(prefix), layer)
    return best[1] if best else "other"


class Span:
    __slots__ = ("name", "tid", "start", "end", "self_us", "children")

    def __init__(self, event):
        self.name = event["name"]
        self.tid = event["tid"]
        self.start = float(event["ts"])
        self.end = self.start + float(event["dur"])
        self.self_us = 0.0
        self.children = []

    @property
    def dur(self):
        return self.end - self.start


def load_spans(trace_path):
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    return build_spans(events)


def build_spans(events):
    """Nests complete events per thread and fills in self times."""
    spans = [Span(e) for e in events
             if e.get("ph") == "X" and e.get("tid", 0) < SIM_TID_BASE]
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s.tid, []).append(s)
    for tid_spans in by_tid.values():
        tid_spans.sort(key=lambda s: (s.start, -s.dur))
        stack = []
        for s in tid_spans:
            while stack and stack[-1].end <= s.start:
                stack.pop()
            if stack:
                stack[-1].children.append(s)
            stack.append(s)
    for s in spans:
        covered = 0.0
        for c in s.children:
            covered += max(0.0, min(c.end, s.end) - max(c.start, s.start))
        s.self_us = max(0.0, s.dur - covered)
    return spans


def descendants(span):
    out = []
    todo = list(span.children)
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(s.children)
    return out


def layer_self_seconds(span):
    """Self time per layer of `span` and its same-thread descendants."""
    totals = {}
    for s in [span] + descendants(span):
        layer = layer_of(s.name)
        totals[layer] = totals.get(layer, 0.0) + s.self_us * 1e-6
    return totals


def median(values, default=0.0):
    return statistics.median(values) if values else default


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(len(ordered) * q / 100.0)))
    return ordered[rank - 1]


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spans = load_spans(argv[1])
    totals = {}
    for s in spans:
        layer = layer_of(s.name)
        totals[layer] = totals.get(layer, 0.0) + s.self_us * 1e-6
    for layer, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"{layer:12s} {seconds:12.6f} s self")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
