"""Ablation -- the paper's own caveat about the string-only data model:

"The string representation of all data types is a disadvantage, when
repetitious calculations have to be made in Tcl."

Quantified: the same computation (summing, prime-testing) in Tcl versus
Python, and the paper's recommended remedy -- keep the computation in
the backend process and let Tcl only drive the GUI.
"""

import time

from benchmarks.conftest import (
    bench_record,
    committed_workloads,
    paired_median_ratio,
)


def _tcl_sum(wafe, n):
    return wafe.run_script(
        "set s 0\nfor {set i 0} {$i < %d} {incr i} {incr s $i}\nset s" % n)


def test_tcl_vs_python_loop(benchmark, wafe):
    n = 2000

    tcl_result = benchmark(_tcl_sum, wafe, n)
    start = time.perf_counter()
    python_result = sum(range(n))
    python_s = max(time.perf_counter() - start, 1e-9)
    tcl_s = benchmark.stats["mean"]
    print("\nsumming 0..%d:" % (n - 1))
    print("  Tcl    : %10.3f ms" % (tcl_s * 1000))
    print("  Python : %10.3f ms (%.0fx faster)"
          % (python_s * 1000, tcl_s / python_s))
    assert tcl_result == str(python_result)
    assert tcl_s > python_s  # the paper's caveat, confirmed


def test_expr_string_roundtrip_cost(benchmark, wafe):
    """Every expr operand goes str -> number -> str."""

    def expr_chain():
        return wafe.run_script("expr {(3.5 + 4.5) * [expr {2 + 2}]}")

    assert benchmark(expr_chain) == "32.0"


def test_parse_cache_ablation(benchmark, wafe):
    """Design decision: Wafe caches parsed scripts because callbacks are
    the same Tcl strings evaluated on every event.  Measured: the same
    callback body with and without the cache."""
    script = 'set t [expr {1 + 2 * 3}]; if {$t == 7} {set ok 1}'
    wafe.run_script(script)  # warm

    def cached():
        for __ in range(50):
            wafe.run_script(script)

    benchmark(cached)
    cached_s = benchmark.stats["mean"]

    import time as _time

    start = _time.perf_counter()
    for __ in range(50):
        wafe.interp.clear_caches()
        wafe.run_script(script)
    uncached_s = _time.perf_counter() - start
    print("\n50 evaluations of a callback-sized script:")
    print("  with parse cache   : %8.3f ms" % (cached_s * 1000))
    print("  cache cleared each : %8.3f ms (%.1fx slower)"
          % (uncached_s * 1000, uncached_s / cached_s))
    assert uncached_s > cached_s


def _ops_per_sec_multi(interps, script, windows=9):
    """Interleaved min-of-K ops/sec for N interpreters on one script.

    Windows rotate through all sides so load drift on a shared machine
    hits each equally; the per-side minimum window time is the robust
    estimator (noise only ever makes a window slower).  The window size
    is calibrated on the slowest side (the first interpreter).
    """
    for interp in interps:
        interp.eval(script)  # warm caches / compile
    start = time.perf_counter()
    interps[0].eval(script)
    per_eval = max(time.perf_counter() - start, 1e-9)
    n = max(1, int(0.05 / per_eval))
    best = [float("inf")] * len(interps)
    for __ in range(windows):
        for i, interp in enumerate(interps):
            best[i] = min(best[i], _timed_window(interp, script, n))
    return [n / b for b in best]


_COMPILE_WORKLOADS = {
    # The paper's own caveat workload: a counting loop in Tcl.
    "for_loop_sum": (
        "set s 0\nfor {set i 0} {$i < 500} {incr i} {incr s $i}\nset s"),
    # Condition-dominated: what every animated Wafe callback does.
    "while_countdown": "set i 400\nwhile {$i > 0} {incr i -1}\nset i",
    # A callback-sized mixed script: expr, if, set.
    "callback_expr": 'set t [expr {1 + 2 * 3}]; if {$t == 7} {set ok 1}',
    # Pure-literal commands: the literal-argv fast path.
    "literal_commands": "set a 1; set b 2; set c 3; set d 4",
}


#: VM speedups over the tree walker measured by
#: test_compile_layer_speedup, for the committed-baseline gate below
#: (mirrors bench_xrm.py).
_SPEEDUPS = {}


def test_compile_layer_speedup():
    """The tentpole claim: the bytecode VM (inline caches, integer
    shadows) gives >= 10x ops/sec on loop/expr workloads over the tree
    walker (tests/oracles/tcl.py)."""
    from repro.tcl import Interp
    from tests.oracles.tcl import TreeInterp

    print("\nTcl engines, ops/sec (evals of whole script):")
    speedups = _SPEEDUPS
    for name, script in _COMPILE_WORKLOADS.items():
        vm_interp = Interp()
        vm_interp.reset_cache_stats()
        baseline, vm = _ops_per_sec_multi(
            [TreeInterp(), vm_interp], script)
        stats = vm_interp.cache_stats()
        speedups[name] = vm / baseline
        print("  %-18s tree %11.0f  vm %11.0f (%5.2fx)"
              % (name, baseline, vm, vm / baseline))
        bench_record("tcl_compile", name, {
            "script": script,
            "uncompiled_ops_per_sec": round(baseline, 1),
            "vm_ops_per_sec": round(vm, 1),
            "vm_speedup": round(vm / baseline, 3),
            "cache_hit_rates": {
                cache: round(cache_stats["hit_rate"], 4)
                for cache, cache_stats in stats.items()
            },
        })
    # Loop/expr workloads: the VM must clear 10x; the pure-literal
    # workload is reported but only needs to not regress.
    for name in ("for_loop_sum", "while_countdown", "callback_expr"):
        assert speedups[name] >= 10.0, \
            "vm %.2fx on %s" % (speedups[name], name)
    assert speedups["literal_commands"] >= 1.0


def _timed_window(interp, script, n):
    start = time.perf_counter()
    for __ in range(n):
        interp.eval(script)
    return time.perf_counter() - start


def _watchdog_overhead_trial(plain, armed, script, n, windows=45):
    """One paired A/B trial: the median of per-pair ratios, minus one.

    Delegates to the shared ``paired_median_ratio`` estimator in
    conftest (also used by bench_refresh.py): back-to-back pairs with
    alternating order, median over many rounds -- the estimator that
    survives CPU frequency drift on shared machines."""
    return paired_median_ratio(
        lambda: _timed_window(plain, script, n),
        lambda: _timed_window(armed, script, n),
        windows=windows) - 1.0


def test_eval_limit_overhead():
    """Fault-containment gate: an *armed* watchdog (generous budgets
    that never trip) must cost < 5% on the loop workloads -- the limit
    check hides behind a next-checkpoint counter in the dispatch hot
    loop, one integer compare per command whether armed or not.  The
    default ``Interp()`` is the bytecode VM, so this now gates the VM
    dispatch loop: its inlined statements pay the same single compare.

    Work-unit accounting is unconditional (nested eval entries bump
    ``cmd_count`` armed or not), so arming adds nothing to the fast
    path at all -- only the amortised ``_check_limits`` slow path every
    ``_CHECK_INTERVAL`` work units.  The gate takes the median of
    paired back-to-back ratios, the estimator that survives CPU
    frequency drift (see _watchdog_overhead_trial)."""
    from repro.tcl import Interp

    print("\neval-limit watchdog overhead (armed, never tripping):")
    overheads = {}
    for name, n in (("for_loop_sum", 30), ("while_countdown", 120),
                    ("callback_expr", 8000)):
        script = _COMPILE_WORKLOADS[name]
        plain = Interp()
        armed = Interp()
        armed.set_eval_limits(time_ms=600000, commands=1 << 40)
        plain.eval(script)   # warm both compile caches
        armed.eval(script)
        overhead = _watchdog_overhead_trial(plain, armed, script, n)
        overheads[name] = overhead
        print("  %-18s median paired overhead %6.2f%%"
              % (name, overhead * 100))
        bench_record("tcl_compile", "eval_limit_overhead_%s" % name, {
            "overhead_fraction": round(max(0.0, overhead), 4),
        })
    for name, overhead in overheads.items():
        assert overhead < 0.05, \
            "armed watchdog costs %.1f%% on %s" % (overhead * 100, name)


def test_speedup_vs_committed_baseline():
    """CI gate: the VM speedups must stay close to the committed
    BENCH_tcl_compile.json (a collapse means the dispatch path grew a
    per-command cost, or an inline cache stopped hitting).
    """
    assert _SPEEDUPS, "test_compile_layer_speedup must run first"
    baseline = committed_workloads("tcl_compile")
    if baseline is None:
        print("\nno committed BENCH_tcl_compile.json yet; "
              "absolute gate only")
        return
    for name in ("for_loop_sum", "callback_expr"):
        committed = baseline[name]["vm_speedup"]
        # 25% headroom for timing noise, never below the absolute 10x
        # claim.
        floor = max(10.0, committed * 0.75)
        measured = _SPEEDUPS[name]
        print("committed %s vm speedup %.2fx -> floor %.2fx, "
              "measured %.2fx" % (name, committed, floor, measured))
        assert measured >= floor


def test_compile_cache_hit_rate_steady_state():
    """Steady state (a callback re-fired forever) should be nearly all
    cache hits on every layer."""
    from repro.tcl import Interp

    interp = Interp()
    script = _COMPILE_WORKLOADS["callback_expr"]
    interp.eval(script)
    interp.reset_cache_stats()
    for __ in range(500):
        interp.eval(script)
    stats = interp.cache_stats()
    print("\nsteady-state cache hit rates after 500 re-evaluations:")
    for cache in ("parse", "bytecode", "expr"):
        print("  %-8s %6.2f%%  (%d hits, %d misses)"
              % (cache, stats[cache]["hit_rate"] * 100,
                 stats[cache]["hits"], stats[cache]["misses"]))
    bench_record("tcl_compile", "steady_state_hit_rates", {
        cache: round(stats[cache]["hit_rate"], 4)
        for cache in ("parse", "bytecode", "expr")
    })
    # The default engine is the VM: its bytecode cache is the one that
    # must serve the callback from memory.
    assert stats["bytecode"]["hit_rate"] > 0.99


def test_remedy_backend_computation(benchmark, wafe):
    """The paper's fix: computation lives in the application process;
    Tcl only receives the result string (one sV per update)."""
    wafe.run_script("label out topLevel label 0")
    wafe.run_script("realize")
    n = 2000

    def backend_style():
        result = sum(range(n))           # "backend" computes natively
        wafe.run_script("sV out label %d" % result)
        return wafe.run_script("gV out label")

    value = benchmark(backend_style)
    assert value == str(sum(range(n)))
    print("\nbackend-computes + one sV: %.3f ms vs Tcl loop above"
          % (benchmark.stats["mean"] * 1000))
