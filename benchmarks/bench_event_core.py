"""The unified event core: selectors backend vs the raw-select spec.

Wafe's interactivity rides on one loop: X events, backend pipe
traffic, timers and work procs all dispatch through the
:class:`~repro.xt.eventcore.EventCore`.  The paper's frontends watch a
handful of descriptors; a grown deployment (mass-transfer channels,
supervised backends, designer sessions) watches hundreds.  Raw
``select`` pays O(watched) per poll to build and scan fd sets -- and
hard-caps at FD_SETSIZE (1024) -- while the selectors backend
(epoll/kqueue) pays O(ready).  These benches quantify the gap at high
watch counts with sparse readiness (the GUI steady state: many
sources, few active) and write benchmarks/BENCH_event_core.json so CI
can upload the numbers and gate regressions against the committed
copy.

The raw-select side is the executable specification from
tests/oracles/eventcore.py (``SelectEventCore``).
"""

import resource
import socket
import time

import pytest

from repro.xt.eventcore import EventCore

from benchmarks.conftest import bench_record, committed_workloads
from tests.oracles.eventcore import SelectEventCore

# The head-to-head size: both backends must handle it, so it stays
# under select's FD_SETSIZE once stdio and the suite's own fds are
# counted (256 pairs = 512 watched fds).
AB_PAIRS = 256
# The scale the selectors backend is asked to prove: 1000 watched fds,
# beyond what raw select could even register.
BIG_PAIRS = 1000
HOT = 16          # sources active per round (sparse readiness)
ROUNDS = 200


def _raise_nofile_limit(need):
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < need:
        resource.setrlimit(resource.RLIMIT_NOFILE,
                           (min(need, hard), hard))
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    return soft


def _make_pairs(n):
    pairs = []
    for __ in range(n):
        read_side, write_side = socket.socketpair()
        read_side.setblocking(False)
        pairs.append((read_side, write_side))
    return pairs


def _close_pairs(pairs):
    for read_side, write_side in pairs:
        read_side.close()
        write_side.close()


def _events_per_second(core_class, n_pairs, rounds=ROUNDS, hot=HOT):
    """Register ``n_pairs`` readers, then per round make ``hot`` of
    them ready (striding through the set so every fd takes turns) and
    poll until all are dispatched.  Returns dispatched events/sec."""
    core = core_class()
    core.report = lambda message: None  # teardown leaks are deliberate
    pairs = _make_pairs(n_pairs)
    dispatched = []

    def drain(sock):
        sock.recv(16)
        dispatched.append(1)

    try:
        for read_side, __ in pairs:
            core.add_reader(read_side, drain)
        expected = 0
        start = time.perf_counter()
        for round_no in range(rounds):
            base = (round_no * hot) % n_pairs
            for k in range(hot):
                pairs[(base + k) % n_pairs][1].send(b"x")
            expected += hot
            while len(dispatched) < expected:
                core.poll(0.5)
        elapsed = time.perf_counter() - start
    finally:
        core.shutdown(drain_timeout=0)
        _close_pairs(pairs)
    assert len(dispatched) == rounds * hot
    return len(dispatched) / elapsed


_RESULTS = {}  # shared with the regression-gate test below


def test_selectors_beats_select_spec():
    """The tentpole gate: at 512 watched fds with sparse readiness the
    selectors backend must at least match the raw-select spec path
    (ratio >= 1x); in practice epoll's O(ready) wait beats select's
    O(watched) set scan by a wide margin."""
    _raise_nofile_limit(AB_PAIRS * 2 + 256)
    best_selectors = max(
        _events_per_second(EventCore, AB_PAIRS) for __ in range(3))
    best_select = max(
        _events_per_second(SelectEventCore, AB_PAIRS) for __ in range(3))
    ratio = best_selectors / best_select
    _RESULTS["ab_ratio"] = ratio
    print("\n%d watched fds, %d hot per round, %d rounds:"
          % (AB_PAIRS * 2, HOT, ROUNDS))
    print("  selectors %10.0f ev/s   select %10.0f ev/s   %.2fx"
          % (best_selectors, best_select, ratio))
    bench_record("event_core", "ab_512_fds", {
        "watched_fds": AB_PAIRS * 2,
        "hot_per_round": HOT,
        "rounds": ROUNDS,
        "selectors_eps": round(best_selectors, 1),
        "select_eps": round(best_select, 1),
        "ratio": round(ratio, 3),
    })
    assert ratio >= 1.0


def test_selectors_at_1k_watched_fds():
    """The scale claim: 1000 watched fds is beyond FD_SETSIZE (the
    spec path's select.select raises on fd >= 1024), and the selectors
    backend's throughput there must stay within 2x of its own 512-fd
    figure -- per-poll cost is O(ready), not O(watched)."""
    soft = _raise_nofile_limit(BIG_PAIRS * 2 + 256)
    if soft < BIG_PAIRS * 2 + 64:
        pytest.skip("RLIMIT_NOFILE hard cap %d too low for %d fds"
                    % (soft, BIG_PAIRS * 2))
    eps_1k = max(_events_per_second(EventCore, BIG_PAIRS)
                 for __ in range(3))
    eps_512 = max(_events_per_second(EventCore, AB_PAIRS)
                  for __ in range(3))
    _RESULTS["eps_1k"] = eps_1k
    print("\nselectors backend, %d hot per round, %d rounds:"
          % (HOT, ROUNDS))
    print("  %5d watched fds %10.0f ev/s" % (AB_PAIRS * 2, eps_512))
    print("  %5d watched fds %10.0f ev/s  (%.2fx of 512-fd rate)"
          % (BIG_PAIRS * 2, eps_1k, eps_1k / eps_512))
    bench_record("event_core", "selectors_2k_fds", {
        "watched_fds": BIG_PAIRS * 2,
        "hot_per_round": HOT,
        "rounds": ROUNDS,
        "events_per_sec": round(eps_1k, 1),
        "ratio_vs_512_fds": round(eps_1k / eps_512, 3),
    })
    assert eps_1k >= eps_512 / 2.0


def test_select_spec_blind_beyond_fd_setsize():
    """Document the cliff the migration removes: raw ``select`` rejects
    any fd >= FD_SETSIZE outright, so the spec path -- whose hardening
    turns that rejection into an empty poll -- is permanently blind to
    such a descriptor, while the selectors backend dispatches it."""
    import select as select_module
    soft = _raise_nofile_limit(2048 + 256)
    if soft < 1100:
        pytest.skip("cannot allocate an fd >= 1024 under this rlimit")
    pairs = _make_pairs(BIG_PAIRS)
    try:
        high = [p for p in pairs if p[0].fileno() >= 1024]
        if not high:
            pytest.skip("no fd >= 1024 was allocated")
        high_fd = high[0][0].fileno()
        with pytest.raises(ValueError):
            select_module.select([high_fd], [], [], 0)
        spec = SelectEventCore()
        spec.report = lambda message: None
        spec_hits = []
        spec.add_reader(high[0][0], lambda s: spec_hits.append(1))
        high[0][1].send(b"x")
        for __ in range(5):
            spec.poll(0.01)
        assert spec_hits == []  # ready data, but the spec cannot see it
        spec.shutdown(drain_timeout=0)
        # The selectors backend dispatches the very same descriptor.
        good = EventCore()
        good.report = lambda message: None
        hits = []
        good.add_reader(high[0][0], lambda s: (s.recv(16),
                                               hits.append(1)))
        deadline = time.monotonic() + 5.0
        while not hits and time.monotonic() < deadline:
            good.poll(0.1)
        assert hits
        good.shutdown(drain_timeout=0)
    finally:
        _close_pairs(pairs)


def test_no_regression_vs_committed_baseline():
    """CI gate: throughput must not collapse relative to the committed
    BENCH_event_core.json (shared-runner noise allowed for, a real
    regression not)."""
    assert "ab_ratio" in _RESULTS and "eps_1k" in _RESULTS, \
        "the throughput benches must run first"
    baseline = committed_workloads("event_core")
    if baseline is None:
        print("\nno committed BENCH_event_core.json yet; "
              "absolute gates only")
        return
    committed = baseline["selectors_2k_fds"]["events_per_sec"]
    floor = committed * 0.2
    print("\ncommitted 2k-fd throughput %.0f ev/s -> floor %.0f ev/s, "
          "measured %.0f ev/s" % (committed, floor, _RESULTS["eps_1k"]))
    assert _RESULTS["eps_1k"] >= floor
