"""click_roundtrip's program host: the frontend runs in this process.

    python perfbench/clickhost.py SEED TRACE

The host builds ``make_wafe()`` with a command button and a result
label, attaches the backend child (``backend.py``) over the real pipes
of ``repro.core.frontend.Frontend``, realizes, and prints ``ready``.
It then reads one line on stdin: ``quit``, or ``run SECONDS COUNT
WARMUP``, which plays the X server and the user -- ``Display.click``
on the button, then the Xt loop until the backend's reply has set the
label -- and prints ``result {json}`` before exiting.

The completion probe reads the label's resource directly, not through
Tcl, so the harness's cost is not booked as Tcl time.  With TRACE 1 the
timing wrappers are installed first and the per-layer metrics ride
along in the result.
"""

import json
import os
import sys
import time

import gen
from client import peak_rss_mb
from measure import Ledger

DEADLINE_S = 5.0
HERE = os.path.dirname(os.path.abspath(__file__))


def build(display_name=":0"):
    from repro.core import make_wafe

    wafe = make_wafe(display_name=display_name)
    wafe.run_script(gen.CLICK_SCRIPT)
    return wafe


def button_center(wafe):
    window = wafe.widgets["b"].window
    ox, oy = window.absolute_origin()
    return ox + window.width // 2, oy + window.height // 2


def run(wafe, seed, seconds, count, warmup, errors):
    """The click loop; returns (ledger, windows, wall_seconds,
    clicks made)."""
    app = wafe.app
    display = app.default_display
    label = wafe.widgets["result"]
    x, y = button_center(wafe)
    ledger = Ledger()
    windows = []
    k = 0

    def click():
        nonlocal k
        expected = gen.click_reply(seed, k)
        k += 1
        del errors[:]
        t0 = time.perf_counter()
        display.click(x, y)
        while label.resources["label"] != expected or app.pending():
            app.process_one(block=True)
            if time.perf_counter() - t0 > DEADLINE_S:
                return t0, None, "reply %d missing after %.0f s" % (
                    k, DEADLINE_S)
        t1 = time.perf_counter()
        if errors:
            return t0, None, "error reported: %s" % errors[0]
        return t0, t1, None

    for __ in range(warmup):
        t0, t1, reason = click()
        if t1 is None:
            ledger.fail("warmup: " + reason)
            return ledger, windows, 0.0, k
    start = time.perf_counter()
    stop_at = start + seconds if seconds else None
    done = 0
    while (stop_at is None or time.perf_counter() < stop_at) and \
            (count is None or done < count):
        t0, t1, reason = click()
        done += 1
        if t1 is None:
            ledger.fail(reason)
            break
        ledger.ok(t1 - t0)
        windows.append((t0, t1))
    return ledger, windows, time.perf_counter() - start, k


def final_checks(wafe, seed, clicks, ledger):
    """Readback through Tcl, and the final framebuffer against a
    fresh, untimed render of the same final state."""
    import numpy

    expected = gen.click_reply(seed, clicks - 1) if clicks else "ready"
    ledger.check("gV result label", wafe.run_script("gV result label"),
                 expected)
    x, y = button_center(wafe)
    reference = build(":perfbench-reference")
    reference.run_script("sV result label {%s}" % expected)
    reference.realize()
    ref_display = reference.app.default_display
    ref_display.warp_pointer(x, y)  # the pointer rests on the button
    reference.app.process_pending()
    same = numpy.array_equal(wafe.app.default_display.screen.framebuffer,
                             ref_display.screen.framebuffer)
    ledger.check("final framebuffer", same, True)


def main(seed, traced):
    recorder = None
    if traced:
        import probes

        recorder = probes.install()
    from repro.core.frontend import Frontend

    wafe = build()
    errors = []
    wafe.error_sink = errors.append
    front = Frontend(wafe, [sys.executable,
                            os.path.join(HERE, "backend.py"), str(seed)])
    wafe.realize()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    command = sys.stdin.readline().split()
    try:
        if not command or command[0] != "run":
            return 0
        seconds, count, warmup = (float(command[1]), int(command[2]),
                                  int(command[3]))
        ledger, windows, wall, clicks = run(
            wafe, seed, seconds or None, count or None, warmup, errors)
        rss = peak_rss_mb(os.getpid())
        final_checks(wafe, seed, clicks, ledger)
        result = {"latencies": ledger.latencies, "windows": windows,
                  "wall": wall, "attempted": ledger.attempted,
                  "failed": ledger.failed, "reasons": ledger.reasons,
                  "peak_rss_mb": rss}
        if recorder is not None and windows:
            from spans import layer_metrics

            result["layers"] = layer_metrics(recorder.spans, windows)
        sys.stdout.write("result %s\n" % json.dumps(result))
        sys.stdout.flush()
        return 0
    finally:
        front.close()


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), sys.argv[2] == "1"))
