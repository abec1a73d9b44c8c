"""Shared fixtures for the benchmark harness.

Each bench regenerates one table, figure, or experience claim from the
paper (the index lives in DESIGN.md / EXPERIMENTS.md).  Absolute
numbers are ours -- the substrate is a simulator, not a DECstation --
but each bench asserts the *shape* the paper reports and prints the
rows it regenerates.
"""

import json
import os
import platform
import time

import pytest

from repro.core import make_wafe
from repro.xlib import close_all_displays

# ----------------------------------------------------------------------
# BENCH_*.json: the committed perf artifacts.
#
# Benches add workload records with ``bench_record``; at session end
# every artifact that received records is rewritten next to this file,
# so CI can upload them and regressions are diffable in review.  The
# committed copies double as regression baselines
# (``committed_workloads``).

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: artifact -> (file name, schema tag)
ARTIFACTS = {
    # bench_tcl_cost.py: tree walker vs bytecode VM ops/sec, watchdog
    # overhead, cache hit rates.
    "tcl_compile": ("BENCH_tcl_compile.json", "wafe-tcl-compile-bench/3"),
    # bench_xrm.py: quark-tree Xrm lookups vs the naive matcher.
    "xrm": ("BENCH_xrm.json", "wafe-xrm-bench/1"),
    # bench_event_core.py: selectors backend vs the raw-select oracle.
    "event_core": ("BENCH_event_core.json", "wafe-event-core-bench/1"),
    # bench_refresh.py: repainted pixels per incremental update (damage
    # path vs full redraw), protocol pipelining, round trips/sec.
    "refresh": ("BENCH_refresh.json", "wafe-refresh-bench/2"),
    # bench_multi_app.py: concurrent sessions, throughput, round-trip
    # p50/p99 beside a hostile neighbour, zero-leak drain.
    "server": ("BENCH_server.json", "wafe-server-bench/1"),
}

_RECORDS = {}  # artifact -> {workload name: payload}


def bench_record(artifact, name, payload):
    """Add one workload record to an artifact (written at session end)."""
    if artifact not in ARTIFACTS:
        raise KeyError("unknown bench artifact %r" % artifact)
    _RECORDS.setdefault(artifact, {})[name] = payload


def committed_workloads(artifact):
    """The committed artifact's workload records, or None when there is
    no committed copy yet."""
    path = os.path.join(BENCH_DIR, ARTIFACTS[artifact][0])
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)["workloads"]


def paired_median_ratio(run_a, run_b, windows=45):
    """Median of back-to-back per-pair ratios ``b/a`` -- the estimator
    that survives CPU frequency drift.

    On a frequency-scaling or contended CPU the absolute rate drifts by
    tens of percent over a few seconds, so comparing each side's best
    window (possibly from different thermal regimes) is hopeless.
    Instead each round times both sides back-to-back -- inside one
    regime -- and takes the ratio; the median over many rounds discards
    the pairs a scheduling event landed in.  The order within a pair
    alternates because the side measured first is systematically
    favoured while the clock ramps.

    ``run_a`` and ``run_b`` are thunks returning their elapsed seconds.
    """
    ratios = []
    for i in range(windows):
        if i % 2:
            b_s = run_b()
            a_s = run_a()
        else:
            a_s = run_a()
            b_s = run_b()
        ratios.append(b_s / max(a_s, 1e-12))
    ratios.sort()
    return ratios[len(ratios) // 2]


@pytest.fixture(name="paired_median_ratio")
def paired_median_ratio_fixture():
    """The shared noise-robust A/B estimator as a fixture."""
    return paired_median_ratio


def pytest_sessionfinish(session, exitstatus):
    for artifact, records in _RECORDS.items():
        filename, schema = ARTIFACTS[artifact]
        document = {
            "schema": schema,
            "generated_unix": round(time.time(), 3),
            "python": platform.python_version(),
            "workloads": records,
        }
        with open(os.path.join(BENCH_DIR, filename), "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")


@pytest.fixture
def wafe():
    close_all_displays()
    return make_wafe()


@pytest.fixture
def mofe():
    close_all_displays()
    return make_wafe(build="motif")


@pytest.fixture
def echo_lines(wafe):
    lines = []
    wafe.interp.write_output = lambda text: lines.append(text.rstrip("\n"))
    return lines


def click(wafe, widget_name):
    widget = wafe.lookup_widget(widget_name)
    x, y = widget.window.absolute_origin()
    wafe.app.default_display.click(x + 2, y + 2)
    wafe.app.process_pending()
