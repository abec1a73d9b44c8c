"""Span recording and the per-layer analysis.

A span is one call into a layer's public function, recorded by a
wrapper that lives in this benchmark (see ``probes.py``).  Spans stay
in memory as tuples and are written out when the run ends:

    (name, t0, t1, parent, nested, counts)

``t0``/``t1`` come from ``time.perf_counter`` (CLOCK_MONOTONIC, so the
client's interaction windows and a server child's spans share one
clock), ``parent`` is the index of the enclosing span or -1,
``nested`` is true when a span of the same name encloses this one
(recursion: counted once), and ``counts`` is None or a dict of the
counters the wrapper read at the same boundary.

Nothing here imports the program.
"""

import functools
import time

#: Layer of a span: the part of its name before the first dot.
LAYERS = ("xlib", "xaw", "xt", "tcl", "core", "server")


class Recorder:
    """Keeps spans in memory; ``wrap`` makes a timing wrapper."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._active = {}
        #: callable() -> dict, sampled around every root span (one
        #: with no enclosing span); its deltas ride on that span.
        self.root_counters = None

    def wrap(self, name, func, probe=None, once=False):
        """A wrapper timing ``func`` as a span called ``name``.

        ``probe`` is an optional ``(before, after)`` pair:
        ``before(args)`` returns a state, ``after(state, args,
        result)`` returns the span's counts.  With ``once`` a call made
        while a span of the same name is open runs unrecorded (a
        drawing primitive built from other primitives is one call).
        """
        spans, stack, active, clock = (self.spans, self._stack,
                                       self._active, self.clock)
        before, after = probe if probe is not None else (None, None)
        recorder = self

        def wrapper(*args, **kwargs):
            depth = active.get(name, 0)
            if once and depth:
                return func(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            active[name] = depth + 1
            sampler = recorder.root_counters if parent < 0 else None
            base = sampler() if sampler is not None else None
            state = before(args) if before is not None else None
            result = None
            t0 = clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                counts = (after(state, args, result)
                          if after is not None else None)
                if base is not None:
                    counts = dict(counts or {})
                    for key, value in sampler().items():
                        counts[key] = counts.get(key, 0) + value - base[key]
                stack.pop()
                active[name] = depth
                spans[index] = (name, t0, t1, parent, depth > 0, counts)

        return functools.wraps(func)(wrapper)


# ----------------------------------------------------------------------
# Interval arithmetic


def merge(intervals):
    """Sorted, disjoint union of (start, end) intervals."""
    out = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1][1] = end
        else:
            out.append([start, end])
    return [(a, b) for a, b in out]


def covered(intervals):
    return sum(b - a for a, b in merge(intervals))


def overlap(a, b):
    """Length of the intersection of two merged interval lists."""
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > start:
            total += end - start
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def self_times(spans):
    """Per span: its duration minus the time its child spans cover."""
    children = [[] for __ in spans]
    for span in spans:
        if span is not None and span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for span, kids in zip(spans, children):
        if span is None:  # still open when the spans were written
            out.append(0.0)
            continue
        t0, t1 = span[1], span[2]
        clipped = [(max(t0, a), min(t1, b)) for a, b in kids]
        out.append((t1 - t0) - covered(clipped))
    return out


# ----------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(spans, windows):
    """Per-interaction layer metrics from the spans that start inside
    the measured phase.  ``windows`` holds one (start, end) per
    interaction, on the spans' clock."""
    n = len(windows)
    if not n:
        raise ValueError("no interactions")
    phase = (min(w[0] for w in windows), max(w[1] for w in windows))
    selfs = self_times(spans)
    chosen = [i for i, s in enumerate(spans)
              if s is not None and phase[0] <= s[1] <= phase[1]]
    incl, self_by_name, calls, counts = {}, {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i in chosen:
        name, t0, t1, __, nested, cnt = spans[i]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + selfs[i]
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[i]
        if nested:
            continue
        incl[name] = incl.get(name, 0.0) + (t1 - t0)
        for key, value in (cnt or {}).items():
            counts[key] = counts.get(key, 0) + value

    def per_ms(seconds):
        return seconds * 1000.0 / n

    def per(count):
        return count / n

    raster_calls = counts.get("raster_calls", 0)
    lists = counts.get("searchlists", 0)
    interaction = merge(windows)
    busy = merge([(spans[i][1], spans[i][2]) for i in chosen])
    out = {
        "xlib.raster_ms": per_ms(incl.get("xlib.raster", 0.0)),
        "xlib.draw_calls": per(counts.get("draw_calls", 0)),
        "xlib.drawn_pixels": per(counts.get("drawn_pixels", 0)),
        "xlib.clipped_call_frac": (counts.get("clipped_calls", 0)
                                   / raster_calls if raster_calls else 0.0),
        "xlib.damage_ms": per_ms(incl.get("xlib.damage", 0.0)),
        "xlib.expose_events": per(counts.get("expose_events", 0)),
        "xlib.damage_pixels": per(counts.get("damage_pixels", 0)),
        "xaw.expose_self_ms": per_ms(self_by_name.get("xaw.expose", 0.0)),
        "xt.create_ms": per_ms(incl.get("xt.create", 0.0)),
        "xt.destroy_ms": per_ms(incl.get("xt.destroy", 0.0)),
        "xt.set_values_ms": per_ms(incl.get("xt.set_values", 0.0)),
        "xt.xrm_ms": per_ms(incl.get("xt.xrm_searchlist", 0.0)
                            + incl.get("xt.xrm_search", 0.0)),
        "xt.xrm_searches": per(calls.get("xt.xrm_search", 0)),
        "xt.xrm_searchlist_hit_rate": (counts.get("searchlist_hits", 0)
                                       / lists if lists else 0.0),
        "xt.dispatch_ms": per_ms(incl.get("xt.dispatch", 0.0)),
        "xt.events": per(calls.get("xt.dispatch", 0)),
        "xt.polls": per(calls.get("xt.poll", 0)),
        "xt.poll_wait_ms": per_ms(self_by_name.get("xt.poll", 0.0)),
        "tcl.eval_self_ms": per_ms(self_by_name.get("tcl.eval", 0.0)),
        "tcl.commands": per(counts.get("commands", 0)),
        "core.cmd_self_ms": per_ms(self_by_name.get("core.cmd", 0.0)),
        "core.lines": per(counts.get("lines", 0)),
        "core.split_ms": per_ms(incl.get("core.split", 0.0)),
        "core.channel_flush_ms": per_ms(incl.get("core.flush", 0.0)),
        "core.channel_writes": per(counts.get("writes", 0)),
        "core.channel_bytes": per(counts.get("bytes", 0)),
        "server.dispatch_ms": per_ms(incl.get("server.dispatch", 0.0)),
        "trace.interaction_ms": per_ms(covered(interaction)),
        "trace.unattributed_frac": 1.0 - (overlap(busy, interaction)
                                          / covered(interaction)),
    }
    for layer in LAYERS:
        out["%s.self_ms" % layer] = per_ms(layer_self[layer])
    return out


#: Every metric layer_metrics reports, plus the traced-vs-untraced gap.
METRIC_UNITS = {
    "xlib.raster_ms": "ms", "xlib.draw_calls": "count",
    "xlib.drawn_pixels": "count", "xlib.clipped_call_frac": "frac",
    "xlib.damage_ms": "ms", "xlib.expose_events": "count",
    "xlib.damage_pixels": "count", "xaw.expose_self_ms": "ms",
    "xt.create_ms": "ms", "xt.destroy_ms": "ms", "xt.set_values_ms": "ms",
    "xt.xrm_ms": "ms", "xt.xrm_searches": "count",
    "xt.xrm_searchlist_hit_rate": "frac", "xt.dispatch_ms": "ms",
    "xt.events": "count", "xt.polls": "count", "xt.poll_wait_ms": "ms",
    "tcl.eval_self_ms": "ms", "tcl.commands": "count",
    "core.cmd_self_ms": "ms", "core.lines": "count", "core.split_ms": "ms",
    "core.channel_flush_ms": "ms", "core.channel_writes": "count",
    "core.channel_bytes": "count", "server.dispatch_ms": "ms",
    "xlib.self_ms": "ms", "xaw.self_ms": "ms", "xt.self_ms": "ms",
    "tcl.self_ms": "ms", "core.self_ms": "ms", "server.self_ms": "ms",
    "trace.interaction_ms": "ms", "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
}
