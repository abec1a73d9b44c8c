"""The end-to-end interaction benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (why each was chosen is in
BENCHMARK.json):

* ``dashboard`` -- path (a) plus the multi-session round trip: two
  sessions of one ``repro.server`` process, each a closed loop of ticks
  (four label updates, a plotter append, an echo token).
* ``click_roundtrip`` -- path (b): a click on a command button, its
  callback's echo over the real pipe to a backend child, the backend's
  ``%sV`` reply, until the label holds the expected text.
* ``dialog_churn`` -- widget-tree writes: one session creates a
  12-widget dialog, reads two resources back and destroys it, per
  line, against a seeded ~200-entry resource database.

``--trace 0`` measures for S seconds with tracing off and reports the
end-to-end metrics: latency p50 and p99 (with sample counts),
throughput, set-up time (median of several launches) and the peak RSS
of the process hosting the frontend; failed interactions are reported
as ``failed``/``attempted``.  Latency and throughput come from the
quietest quarter-second slices of the run (``measure.quiet_slices``):
the shared hosts this runs on slow all work down by up to 2x for
seconds at a time.  ``--trace 1`` runs a fixed number of
interactions once untraced and once under the timing wrappers and
reports the per-layer split, per interaction.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

import gen
from client import ProgramError, Server, closed_loop
from measure import (Ledger, percentile, quiet_slices, samples_beyond,
                     tail_percentile)
from spans import METRIC_UNITS, layer_metrics

WORKLOADS = ("dashboard", "click_roundtrip", "dialog_churn")
#: Launches per timed run; setup_s is their median.
SETUPS = 9
#: Untimed interactions before measuring (caches fill, lazy set-up
#: finishes).  Per connection.
WARMUP = {"dashboard": 30, "click_roundtrip": 50, "dialog_churn": 30}
#: Interactions per connection in each half of a traced run: fixed, so
#: the count metrics repeat exactly for a seed.
TRACE_COUNT = {"dashboard": 240, "click_roundtrip": 1000,
               "dialog_churn": 400}
#: The run is cut into slices of this length; p50 latency and
#: throughput come from the quietest MEDIAN_SHARE of them, p99 from the
#: quietest TAIL_SHARE, which holds enough samples for it
#: (measure.quiet_slices).
SLICE_S = 0.25
MEDIAN_SHARE = 0.1
TAIL_SHARE = 0.5
WORK_DIR = ".bench_run"


# ----------------------------------------------------------------------
# One launch of the program, driven through one workload


class ServerRun:
    """dashboard and dialog_churn: a repro.server child over a socket."""

    def __init__(self, workload, seed, root, workdir, traced):
        self.workload = workload
        if workload == "dashboard":
            self.feeds = [gen.DashboardFeed(seed, 1),
                          gen.DashboardFeed(seed, 2)]
        else:
            self.feeds = [gen.DialogFeed(seed)]
        self.spans_path = (os.path.join(workdir, "spans.json")
                           if traced else None)
        self.server = Server(root, workdir, self.feeds, self.spans_path)

    def start(self):
        return self.server.start()

    def stop(self):
        self.server.stop()

    def _nexts(self):
        if self.workload == "dashboard":
            return [feed.next_tick for feed in self.feeds]
        return [self.feeds[0].next_op]

    def measure(self, seconds, count, warmup):
        conns = self.server.conns
        ledger = Ledger()
        closed_loop(conns, self._nexts(), Ledger(), count=warmup)
        windows, wall = closed_loop(conns, self._nexts(), ledger,
                                    seconds=seconds, count=count)
        rss = self.server.peak_rss_mb()
        self._readback(ledger)
        self.stop()
        out = {"ledger": ledger, "windows": windows, "wall": wall,
               "peak_rss_mb": rss}
        if self.spans_path is not None:
            with open(self.spans_path) as handle:
                out["layers"] = layer_metrics(json.load(handle), windows)
        return out

    def _readback(self, ledger):
        for conn, feed in zip(self.server.conns, self.feeds):
            if self.workload == "dashboard":
                conn.send(feed.readback_lines())
                labels, series = feed.expected_readback()
                ledger.check("labels readback", conn.readline(), labels)
                ledger.check("series readback", numbers(conn.readline()),
                             series)
            else:
                conn.send(b"%echo [widgetExists dlg]\n")
                ledger.check("dialog destroyed", conn.readline(), "0")


def numbers(text):
    """The numeric items of a readback, whatever list syntax holds
    them."""
    return re.findall(r"-?\d+(?:\.\d+)?", text)


class ClickRun:
    """click_roundtrip: the frontend hosted in a child of this process
    (clickhost.py), so that launching it is timed from outside."""

    def __init__(self, seed, root, traced):
        self.seed = seed
        self.root = root
        self.traced = traced
        self.proc = None

    def start(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join("perfbench", "clickhost.py"),
             str(self.seed), "1" if self.traced else "0"],
            cwd=self.root, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.stop()
            raise ProgramError("click host did not start (%r)" % line)
        return time.perf_counter() - started

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc = None

    def measure(self, seconds, count, warmup):
        self.proc.stdin.write("run %s %d %d\n" % (seconds or 0, count or 0,
                                                  warmup))
        self.proc.stdin.flush()
        result = None
        for line in self.proc.stdout:
            if line.startswith("result "):
                result = json.loads(line[len("result "):])
        self.stop()
        if result is None:
            raise ProgramError("click host ended without a result")
        ledger = Ledger()
        ledger.latencies = result["latencies"]
        ledger.attempted = result["attempted"]
        ledger.failed = result["failed"]
        ledger.reasons = result["reasons"]
        out = {"ledger": ledger, "windows": result["windows"],
               "wall": result["wall"], "peak_rss_mb": result["peak_rss_mb"]}
        if "layers" in result:
            out["layers"] = result["layers"]
        return out


def launch(workload, seed, root, workdir, traced=False):
    if workload == "click_roundtrip":
        return ClickRun(seed, root, traced)
    return ServerRun(workload, seed, root, workdir, traced)


def session(workload, seed, root, workdir, seconds=None, count=None,
            traced=False):
    """Start the program, run the workload, stop it; with ``seconds``
    the set-up is also sampled SETUPS times."""
    setups = []
    for __ in range(SETUPS - 1 if seconds else 0):
        program = launch(workload, seed, root, workdir)
        try:
            setups.append(program.start())
        finally:
            program.stop()
    program = launch(workload, seed, root, workdir, traced)
    try:
        setups.append(program.start())
        out = program.measure(seconds, count, WARMUP[workload])
    finally:
        program.stop()
    if not out["windows"]:
        raise ProgramError("no interaction completed: %s"
                           % "; ".join(out["ledger"].reasons))
    out["setup_s"] = statistics.median(setups)
    return out


# ----------------------------------------------------------------------
# Reporting


def end_to_end(out):
    ledger = out["ledger"]
    samples, rate = quiet_slices(out["windows"], SLICE_S, MEDIAN_SHARE)
    tail_samples, __ = quiet_slices(out["windows"], SLICE_S, TAIL_SHARE)
    n, n_tail = len(samples), len(tail_samples)
    q, tail = tail_percentile(tail_samples)
    metrics = {
        "latency_p50_ms": (percentile(samples, 50) * 1000.0, "ms"),
        "latency_p99_ms": (tail * 1000.0, "ms"),
        "throughput_ops_s": (rate, "1/s"),
        "setup_s": (out["setup_s"], "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MiB"),
    }
    print("%-18s %14s  %s" % ("metric", "value", "unit"))
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_p50_ms":
            note = "  (n=%d of %d)" % (n, len(ledger.latencies))
        elif name == "latency_p99_ms":
            note = "  (n=%d, p%g: %d beyond)" % (
                n_tail, q, samples_beyond(n_tail, q))
        elif name == "setup_s":
            note = "  (median of %d launches)" % SETUPS
        print("%-18s %14.4f  %s%s" % (name, value, unit, note))
    print("%-18s %14.4f  frac  (%d of %d attempted)" % (
        "failed_frac", ledger.failed_frac, ledger.failed, ledger.attempted))
    if ledger.latencies:
        print("whole run: p50 %.4f ms, %.1f interactions/s" % (
            percentile(ledger.latencies, 50) * 1000.0,
            len(ledger.latencies) / out["wall"]))
    if q != 99:
        print("note: too few samples for p99; latency_p99_ms holds p%g" % q)
    print("p99 against the paper's 10 ms perception threshold: %s" % (
        "within" if metrics["latency_p99_ms"][0] <= 10.0 else "OVER"))
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def per_layer(untraced, traced):
    layers = dict(traced["layers"])
    base = percentile(untraced["ledger"].latencies, 50)
    under = percentile(traced["ledger"].latencies, 50)
    layers["trace.overhead_frac"] = (under - base) / base
    print("latency_p50_ms untraced %.4f, traced %.4f" % (base * 1000.0,
                                                         under * 1000.0))
    print("%-28s %14s  %s" % ("per-interaction metric", "value", "unit"))
    for name in sorted(layers):
        print("%-28s %14.4f  %s" % (name, layers[name], METRIC_UNITS[name]))
    return {name: {"value": value, "unit": METRIC_UNITS[name]}
            for name, value in layers.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        sys.stderr.write("perfbench: no program source (src/repro) under "
                         "%s; run from the root of a checkout\n" % root)
        return 2
    workdir = os.path.join(root, WORK_DIR)
    os.makedirs(workdir, exist_ok=True)
    print("workload %s, seed %d, %s" % (
        args.workload, args.seed,
        "traced (%d interactions per connection)" % TRACE_COUNT[
            args.workload] if args.trace else "%gs measured" % args.seconds))
    try:
        if args.trace:
            count = TRACE_COUNT[args.workload]
            untraced = session(args.workload, args.seed, root, workdir,
                               count=count)
            traced = session(args.workload, args.seed, root, workdir,
                             count=count, traced=True)
            ledgers = [untraced["ledger"], traced["ledger"]]
            metrics = per_layer(untraced, traced)
        else:
            out = session(args.workload, args.seed, root, workdir,
                          seconds=args.seconds)
            ledgers = [out["ledger"]]
            metrics = end_to_end(out)
    except (ProgramError, OSError) as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 1
    attempted = sum(ledger.attempted for ledger in ledgers)
    failed = sum(ledger.failed for ledger in ledgers)
    for ledger in ledgers:
        for reason in ledger.reasons:
            print("FAILED: %s" % reason)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
