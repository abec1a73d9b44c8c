"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The unit tests need nothing but the benchmark's files; the end-to-end
tests at the bottom drive the real program from the checkout's src/.
"""

import io
import json
import os
import socket
import threading
from contextlib import redirect_stdout

import pytest

import client
import gen
import measure
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# ----------------------------------------------------------------------
# The percentile rule


def test_p99_needs_ten_samples_beyond():
    samples = list(range(1, 1001))  # 1000 samples: exactly 10 beyond p99
    assert measure.samples_beyond(1000, 99) == 10
    assert measure.tail_percentile(samples) == (99, 990)


def test_tail_falls_back_to_highest_qualifying_percentile():
    # 500 samples leave 5 beyond p99 and 10 beyond p98.
    assert measure.tail_percentile(list(range(1, 501))) == (98, 490)
    # 50 samples: p80 is the highest with 10 beyond.
    q, value = measure.tail_percentile(list(range(1, 51)))
    assert (q, value) == (80, 40)
    assert measure.samples_beyond(50, q) == 10
    assert measure.samples_beyond(50, q + 1) < 10


def test_percentile_nearest_rank():
    assert measure.percentile([5, 1, 3], 50) == 3
    assert measure.percentile([4, 1, 3, 2], 50) == 2
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_quiet_slices_drop_a_slow_episode():
    # 10 slices of 1 s: 1 ms interactions, except 2 ms in slices 3-5.
    windows = []
    t = 0.0
    while t < 10.0:
        cost = 0.002 if 3.0 <= t < 6.0 else 0.001
        windows.append((t, t + cost))
        t += cost
    samples, rate = measure.quiet_slices(windows, 1.0, 0.5)
    assert max(samples) == pytest.approx(0.001)
    assert rate == pytest.approx(1000.0, rel=0.01)
    everything, rate = measure.quiet_slices(windows, 1.0, 1.0)
    assert max(everything) == pytest.approx(0.002)
    assert rate < 1000.0 * 0.9


# ----------------------------------------------------------------------
# Spans: self time on nested spans, coverage


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    recorder = spans.Recorder(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 1.0
        traced_leaf()

    def outer():
        clock.now += 3.0
        traced_middle()

    traced_leaf = recorder.wrap("xlib.leaf", leaf)
    traced_middle = recorder.wrap("xt.middle", middle)
    recorder.wrap("tcl.outer", outer)()
    by_name = {s[0]: s for s in recorder.spans}
    selfs = dict(zip((s[0] for s in recorder.spans),
                     spans.self_times(recorder.spans)))
    assert by_name["tcl.outer"][2] - by_name["tcl.outer"][1] == 9.0
    assert selfs["tcl.outer"] == 3.0
    assert selfs["xt.middle"] == 2.0
    assert selfs["xlib.leaf"] == 2.0
    assert by_name["xlib.leaf"][3] == recorder.spans.index(
        by_name["xt.middle"])


def test_self_time_counts_overlapping_children_once():
    records = [("a", 0.0, 10.0, -1, False, None),
               ("b", 1.0, 5.0, 0, False, None),
               ("c", 4.0, 6.0, 0, False, None)]
    assert spans.self_times(records)[0] == pytest.approx(5.0)


def test_recursion_and_once():
    clock = FakeClock()
    recorder = spans.Recorder(clock)

    def primitive(depth):
        clock.now += 1.0
        if depth:
            traced(depth - 1)

    traced = recorder.wrap("xlib.raster", primitive, once=True)
    traced(3)
    assert len(recorder.spans) == 1  # inner calls run unrecorded
    recorder.spans.clear()
    nested = recorder.wrap("xt.destroy", primitive)
    traced = nested
    traced(2)
    assert [s[4] for s in recorder.spans] == [False, True, True]


def test_layer_metrics_closure_and_counts():
    records = [
        ("server.dispatch", 0.0, 0.008, -1, False,
         {"expose_events": 2, "damage_pixels": 10}),
        ("tcl.eval", 0.001, 0.007, 0, False, {"commands": 3}),
        ("xlib.raster", 0.002, 0.006, 1, False,
         {"raster_calls": 1, "draw_calls": 5, "drawn_pixels": 0,
          "clipped_calls": 1}),
        ("xlib.raster", 0.5, 0.6, -1, False, None),  # outside the phase
    ]
    out = spans.layer_metrics(records, [(0.0, 0.010)])
    assert out["server.dispatch_ms"] == pytest.approx(8.0)
    assert out["tcl.eval_self_ms"] == pytest.approx(2.0)
    assert out["xlib.raster_ms"] == pytest.approx(4.0)
    assert out["tcl.commands"] == 3
    assert out["xlib.draw_calls"] == 5
    assert out["xlib.clipped_call_frac"] == 1.0
    assert out["xlib.expose_events"] == 2
    assert out["trace.unattributed_frac"] == pytest.approx(0.2)
    assert set(out) | {"trace.overhead_frac"} == set(spans.METRIC_UNITS)


# ----------------------------------------------------------------------
# Seeded inputs


def _dashboard_stream(seed, ticks=300):
    feed = gen.DashboardFeed(seed, 1)
    return feed.setup_lines() + b"".join(
        feed.next_tick()[0] for __ in range(ticks))


def _dialog_stream(seed, ops=50):
    feed = gen.DialogFeed(seed)
    return feed.setup_lines() + b"".join(
        feed.next_op()[0] for __ in range(ops))


def test_generators_are_deterministic_per_seed():
    assert _dashboard_stream(3) == _dashboard_stream(3)
    assert _dashboard_stream(3) != _dashboard_stream(4)
    assert _dialog_stream(3) == _dialog_stream(3)
    assert _dialog_stream(3) != _dialog_stream(4)
    assert [gen.click_reply(3, k) for k in range(20)] == \
        [gen.click_reply(3, k) for k in range(20)]
    assert gen.click_reply(3, 0) != gen.click_reply(4, 0)


def test_dashboard_series_wraps_and_labels_keep_their_width():
    feed = gen.DashboardFeed(1, 1)
    lengths = []
    for __ in range(2 * gen.WRAP):
        feed.next_tick()
        lengths.append(len(feed.series))
        assert len({len(label.split()[2]) for label in feed.labels}) == 1
    assert max(lengths) == gen.WRAP and lengths.count(2) == 2


def test_click_reply_factors_multiply_back():
    for k in range(50):
        n, factors = gen.click_reply(9, k).split(" = ")
        product = 1
        for factor in factors.split(" x "):
            product *= int(factor)
        assert product == int(n)


# ----------------------------------------------------------------------
# failed_frac accounting


def test_reply_checker_accepts_in_order_reply():
    checker = measure.ReplyChecker()
    checker.expect("t1")
    assert checker.feed("t1") == (True, None)


def test_reply_checker_flags_out_of_order_and_error_replies():
    ledger = measure.Ledger()
    checker = measure.ReplyChecker()
    checker.expect("t1")
    ok, reason = checker.feed("t2")
    assert not ok and "out of order" in reason
    ledger.fail(reason)
    checker.expect("t2")
    assert checker.feed("error: invalid command name") is None
    ok, reason = checker.feed("t2")
    assert not ok and "error reply" in reason
    ledger.fail(reason)
    checker.expect("t3")
    assert checker.feed("t3")[0]
    ledger.ok(0.001)
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert ledger.failed_frac == pytest.approx(2 / 3)


def test_missing_reply_counts_as_failed(monkeypatch):
    monkeypatch.setattr(client, "DEADLINE_S", 0.2)
    ours, theirs = socket.socketpair()
    replies = iter(["t1", None])  # answers the first, drops the second

    def server():
        buffer = b""
        while True:
            data = theirs.recv(4096)
            if not data:
                return
            buffer += data
            while b"\n" in buffer:
                __, buffer = buffer.split(b"\n", 1)
                reply = next(replies)
                if reply is not None:
                    theirs.sendall(reply.encode() + b"\n")

    thread = threading.Thread(target=server)
    thread.start()
    tokens = iter(["t1", "t2"])

    def next_interaction():
        token = next(tokens)
        return ("%%echo %s\n" % token).encode(), token

    ledger = measure.Ledger()
    try:
        windows, __ = client.closed_loop([client.Conn(ours)],
                                         [next_interaction], ledger,
                                         count=2)
    finally:
        ours.close()
        thread.join(timeout=5)
        theirs.close()
    assert not thread.is_alive()
    assert len(windows) == 1
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "missing" in ledger.reasons[0]


def test_readback_mismatch_is_a_failure():
    ledger = measure.Ledger()
    ledger.check("labels", "a|b", "a|b")
    ledger.check("series", ["1.0"], ["1.5"])
    assert (ledger.attempted, ledger.failed) == (2, 1)


# ----------------------------------------------------------------------
# End to end against the program in src/


def _run(monkeypatch, tmp_path, argv):
    import run

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUPS", 2)
    monkeypatch.setattr(run, "TRACE_COUNT", {
        "dashboard": 40, "click_roundtrip": 60, "dialog_churn": 40})
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run.main(argv)
    lines = buffer.getvalue().strip().split("\n")
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["dashboard", "click_roundtrip",
                                      "dialog_churn"])
def test_workload_runs_clean(monkeypatch, tmp_path, workload):
    code, result = _run(monkeypatch, tmp_path, [
        "--workload", workload, "--seed", "5", "--seconds", "1.5"])
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        "latency_p50_ms", "latency_p99_ms", "throughput_ops_s", "setup_s",
        "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_for_a_seed(monkeypatch, tmp_path):
    argv = ["--workload", "dialog_churn", "--seed", "2", "--seconds", "1",
            "--trace", "1"]
    first = _run(monkeypatch, tmp_path, argv)[1]["metrics"]
    second = _run(monkeypatch, tmp_path, argv)[1]["metrics"]
    assert set(first) == set(spans.METRIC_UNITS)
    for name in ("xlib.draw_calls", "xlib.drawn_pixels", "xt.xrm_searches",
                 "tcl.commands", "core.channel_writes", "xlib.expose_events",
                 "core.lines", "core.channel_bytes"):
        assert first[name]["value"] == second[name]["value"], name
    assert first["xt.xrm_searches"]["value"] > 0


def test_refuses_to_run_without_the_program(monkeypatch, tmp_path):
    import run

    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "dashboard", "--seed", "1",
                     "--seconds", "1"]) != 0
