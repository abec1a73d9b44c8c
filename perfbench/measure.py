"""Pure bookkeeping for the end-to-end numbers: the percentile rule and
the per-interaction outcome ledger.  Nothing here imports the program.
"""

import math

#: Report a tail percentile only when at least this many samples lie
#: beyond it (choosing-metrics: "the highest percentile that has at
#: least ten samples beyond it").
MIN_BEYOND = 10


def percentile(samples, q):
    """The q-th percentile (0 < q < 100) by the nearest-rank rule."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q-th
    percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(samples, wanted=99.0, floor=50.0):
    """``(q, value)`` for the highest percentile <= ``wanted`` that has
    at least MIN_BEYOND samples beyond it, stepping down by whole
    percents.  With too few samples for even the ``floor`` percentile,
    the floor is returned all the same."""
    n = len(samples)
    q = wanted
    while q > floor and samples_beyond(n, q) < MIN_BEYOND:
        q -= 1
    return q, percentile(samples, q)


def quiet_slices(windows, slice_s, share):
    """Latency samples and throughput from the quietest slices of a run.

    ``windows`` holds one (start, end) per completed interaction, in
    completion order.  The run is cut into whole slices of ``slice_s``
    seconds by completion time.  A shared host runs the same code up to
    twice as slow, in episodes from a fraction of a second to most of a
    run; keeping only the quietest ``share`` of the slices drops those
    episodes, while a slower program is slower in every slice.
    Latency samples are pooled from the slices with the lowest median
    latency; throughput is completions per second between the first and
    last completion of a slice, over the slices with the highest rate.
    Returns ``(latencies, completions_per_second)``.
    """
    if not windows:
        return [], 0.0
    start = min(w[0] for w in windows)
    end = max(w[1] for w in windows)
    whole = int((end - start) / slice_s)
    slices = {}
    for t0, t1 in windows:
        index = int((t1 - start) / slice_s)
        if index < whole:
            slices.setdefault(index, []).append((t0, t1))
    slices = [v for v in slices.values() if len(v) >= 2 and
              v[-1][1] > v[0][1]]
    if not slices:
        samples = [t1 - t0 for t0, t1 in windows]
        return samples, len(samples) / max(end - start, 1e-9)
    keep = max(1, int(round(len(slices) * share)))

    def median_latency(v):
        return percentile([t1 - t0 for t0, t1 in v], 50)

    def rate(v):
        return (len(v) - 1) / (v[-1][1] - v[0][1])

    quiet = sorted(slices, key=median_latency)[:keep]
    fast = sorted(slices, key=rate, reverse=True)[:keep]
    samples = [t1 - t0 for v in quiet for t0, t1 in v]
    done = sum(len(v) - 1 for v in fast)
    seconds = sum(v[-1][1] - v[0][1] for v in fast)
    return samples, done / seconds


class Ledger:
    """Outcome of every attempted interaction.

    An interaction fails when its reply is missing by the deadline,
    arrives out of order, carries an ``error:`` line, or fails its
    readback check; each failure keeps a one-line reason.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.reasons = []

    def ok(self, seconds):
        self.attempted += 1
        self.latencies.append(seconds)

    def fail(self, reason):
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, label, got, expected):
        """A readback check: one attempted operation of its own."""
        if got == expected:
            self.attempted += 1
        else:
            self.fail("%s: got %r, expected %r" % (label, got, expected))

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


class ReplyChecker:
    """Matches the reply lines of one closed-loop connection against
    the token each interaction expects, in order.

    Feed it every line read; it returns ``(ok, reason)`` once the
    current interaction's reply has arrived and None while the reply is
    still outstanding.
    """

    def __init__(self):
        self.expected = None
        self.errors = []

    def expect(self, token):
        self.expected = token
        self.errors = []

    def feed(self, line):
        if line.startswith("error:"):
            # The traceback block of a failed line runs until the token.
            self.errors.append(line)
            return None
        token, self.expected = self.expected, None
        if token is None:
            return False, "unexpected reply %r" % line
        if line != token:
            return False, "out of order: got %r, expected %r" % (line, token)
        if self.errors:
            return False, "error reply: %s" % self.errors[0]
        return True, None
