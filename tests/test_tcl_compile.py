"""Correctness of the Tcl compilation layer (repro.tcl.compile).

The compiled fast paths must be semantically invisible: command names
resolve at call time (so ``proc`` redefinition, ``rename`` and the
``unknown`` fallback behave identically for cached scripts), variable
traces fire the same, errorInfo is built the same, and the tree
walker (``TreeInterp`` from tests/oracles/tcl.py, the reference
semantics) gives byte-identical results.
"""

import pytest

from repro.tcl import Interp, LRUCache, TclError
from repro.tcl import expr as tcl_expr
from repro.tcl.bytecode import OP_CALL, W_CONST, W_VAR, Code
from repro.tcl.compile import _emit_call
from repro.tcl.parser import ParseCache, parse_script

from tests.oracles.tcl import TreeInterp


def both_interps():
    return Interp(), TreeInterp()


# ----------------------------------------------------------------------
# Late binding through the literal-argv fast path


class TestLateBinding:
    def test_proc_redefinition_after_caching(self):
        interp = Interp()
        interp.eval("proc greet {} {return hello}")
        script = "greet"
        assert interp.eval(script) == "hello"
        # The script is now cached; redefining the proc must take
        # effect on the very next evaluation of the same string.
        interp.eval("proc greet {} {return goodbye}")
        assert interp.eval(script) == "goodbye"

    def test_rename_after_caching(self):
        interp = Interp()
        interp.eval("proc original {} {return first}")
        script = "original"
        assert interp.eval(script) == "first"
        interp.eval("rename original moved")
        with pytest.raises(TclError, match="invalid command name"):
            interp.eval(script)
        assert interp.eval("moved") == "first"

    def test_rename_builtin_after_caching(self):
        interp = Interp()
        script = "set x 1"
        assert interp.eval(script) == "1"
        interp.eval("rename set assign")
        with pytest.raises(TclError, match='invalid command name "set"'):
            interp.eval(script)
        assert interp.eval("assign x 2") == "2"

    def test_unknown_fallback_through_literal_fast_path(self):
        interp = Interp()
        interp.eval(
            "proc unknown {args} {return [concat handled $args]}")
        script = "frobnicate a b"
        assert interp.eval(script) == "handled frobnicate a b"
        # Registering the real command must win over ``unknown`` for
        # the already-cached script.
        interp.eval("proc frobnicate {x y} {return [concat real $x $y]}")
        assert interp.eval(script) == "real a b"

    def test_unknown_fallback_without_handler(self):
        interp = Interp()
        script = "nosuchcommand"
        with pytest.raises(TclError, match="invalid command name"):
            interp.eval(script)
        interp.eval("proc nosuchcommand {} {return now-exists}")
        assert interp.eval(script) == "now-exists"


# ----------------------------------------------------------------------
# Semantic equivalence: compiled vs escape hatch


EQUIVALENCE_SCRIPTS = [
    "set s 0\nfor {set i 0} {$i < 25} {incr i} {incr s $i}\nset s",
    "set i 0\nwhile {$i < 10} {incr i}\nset i",
    'set out ""\nforeach x {a b c} {append out $x-}\nset out',
    'if {1 + 1 == 2} {set r yes} else {set r no}',
    'set a(k) v1; set a(k2) v2; set a(k)',
    'set n 3; expr {$n * [expr {$n + 1}]}',
    'proc f {x {y 7}} {return [expr {$x + $y}]}\nf 5',
    'set lst {1 2 3}; lindex $lst 1',
    'catch {error boom} msg; set msg',
    'set x 5; subst {value is $x}',
    '{} ignored words',  # empty literal command name evaluates to ""
]


class TestEquivalence:
    @pytest.mark.parametrize("script", EQUIVALENCE_SCRIPTS)
    def test_results_identical(self, script):
        compiled, reference = both_interps()
        assert compiled.eval(script) == reference.eval(script)
        # Second evaluation exercises the cached path.
        assert compiled.eval(script) == reference.eval(script)

    def test_dynamic_command_name_resolves_empty(self):
        compiled, reference = both_interps()
        for interp in (compiled, reference):
            interp.eval('set name ""')
            assert interp.eval("$name anything") == ""

    def test_errorinfo_identical(self):
        compiled, reference = both_interps()
        results = []
        for interp in (compiled, reference):
            with pytest.raises(TclError):
                interp.eval("proc p {} {error deep}\np")
            results.append(interp.eval("set errorInfo"))
        assert results[0] == results[1]
        assert "deep" in results[0]

    def test_upvar_and_uplevel(self):
        compiled, reference = both_interps()
        script = (
            "proc bump {name} {upvar $name v; incr v}\n"
            "set counter 5\nbump counter\nbump counter\nset counter"
        )
        assert compiled.eval(script) == reference.eval(script) == "7"

    def test_break_continue_in_compiled_loops(self):
        compiled, reference = both_interps()
        script = (
            "set s 0\n"
            "for {set i 0} {$i < 10} {incr i} {\n"
            "  if {$i == 3} continue\n"
            "  if {$i == 6} break\n"
            "  incr s $i\n"
            "}\nset s"
        )
        assert compiled.eval(script) == reference.eval(script) == "12"

    def test_unreached_loop_body_parse_error_stays_silent(self):
        # The body of a loop that never runs is never parsed in the
        # reference path; the hoisted compiled body must stay lazy.
        compiled, reference = both_interps()
        for interp in (compiled, reference):
            assert interp.eval('while {0} "set a \\{"') == ""
            assert interp.eval('foreach x {} "set a \\{"') == ""
            with pytest.raises(TclError):
                interp.eval('while {1} "set a \\{"')

    def test_return_at_top_level(self):
        compiled, reference = both_interps()
        assert compiled.eval("return early") == \
            reference.eval("return early") == "early"

    def test_escape_hatch_disables_compile_cache(self):
        interp = TreeInterp()
        interp.eval("set x 1")
        interp.eval("set x 1")
        assert len(interp.bytecode_cache) == 0

    def test_escape_hatch_bypasses_expr_ast_cache(self):
        # The oracle must be a *full* reference: expr strings
        # are reparsed on every evaluation, never served from the
        # process-wide AST cache.
        interp = TreeInterp()
        tcl_expr.ast_cache.reset_stats()
        interp.eval("expr {5 + [string length abcdef]}")
        interp.eval("expr {5 + [string length abcdef]}")
        stats = tcl_expr.ast_cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_stats_reset_clears_bytecode_counters(self):
        interp = Interp()
        script = "set hatch 3"
        interp.eval(script)
        interp.eval(script)
        assert interp.cache_stats()["bytecode"]["hits"] >= 1
        interp.eval("info stats tcl.bytecode.* -reset")
        stats = interp.cache_stats()["bytecode"]
        assert stats["hits"] == 0 and stats["misses"] == 0


# ----------------------------------------------------------------------
# Variable traces under cached evaluation


class TestTracesUnderCaching:
    def _run_traced(self, interp):
        interp.eval("set log {}")
        interp.eval(
            "proc tracer {name index op} {\n"
            "  global log\n"
            "  lappend log $name/$op\n"
            "}")
        interp.eval("trace variable watched rwu tracer")
        script = "set watched 1; set watched 2; set watched"
        interp.eval(script)
        interp.eval(script)  # cached second round
        interp.eval("unset watched")
        return interp.eval("set log")

    def test_traces_fire_identically(self):
        compiled, reference = both_interps()
        assert self._run_traced(compiled) == self._run_traced(reference)
        assert "watched/w" in self._run_traced(Interp())


# ----------------------------------------------------------------------
# info stats tcl.*


class TestCacheStats:
    def test_counters_move_on_repeat_eval(self):
        interp = Interp()
        interp.eval("info stats tcl.bytecode.* -reset")
        script = "set y 42"
        interp.eval(script)
        before = interp.cache_stats()["bytecode"]
        interp.eval(script)
        interp.eval(script)
        after = interp.cache_stats()["bytecode"]
        assert after["hits"] >= before["hits"] + 2

    def test_tree_walker_parse_counters_move_on_repeat_eval(self):
        interp = TreeInterp()
        interp.eval("info stats tcl.parse.* -reset")
        script = "set y 42"
        interp.eval(script)
        before = interp.cache_stats()["parse"]
        interp.eval(script)
        interp.eval(script)
        after = interp.cache_stats()["parse"]
        assert after["hits"] >= before["hits"] + 2

    def test_tcl_level_introspection(self):
        interp = Interp()
        from repro.tcl import string_to_list

        report = string_to_list(interp.eval("info stats tcl.*"))
        assert len(report) % 2 == 0
        keys = report[0::2]
        assert {"parse", "bytecode", "expr", "eval", "vm"} == {
            key.split(".")[1] for key in keys}
        assert "tcl.bytecode.hits" in keys
        assert "tcl.bytecode.evictions" in keys

    def test_reset(self):
        interp = Interp()
        interp.eval("set z 1")
        interp.eval("set z 1")
        interp.eval("info stats tcl.parse.* -reset; "
                    "info stats tcl.bytecode.* -reset")
        stats = interp.cache_stats()["parse"]
        assert stats["hits"] == 0 and stats["misses"] == 0
        stats = interp.cache_stats()["bytecode"]
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_expr_cache_hits(self):
        # The VM lowers literal expr words to its own bytecode; an expr
        # whose text is only known at run time is compiled once, then
        # served from the bytecode cache under ("expr", text).
        interp = Interp()
        interp.eval("set e {21 * 2}")
        interp.eval("expr $e")
        assert ("expr", "21 * 2") in interp.bytecode_cache
        hits = interp.bytecode_cache.hits
        interp.eval("expr $e")
        assert interp.bytecode_cache.hits == hits + 2  # script + expr

    def test_clear_caches(self):
        interp = Interp()
        interp.eval("set q 9")
        assert len(interp.bytecode_cache) > 0
        interp.clear_caches()
        assert len(interp.bytecode_cache) == 0
        assert len(interp.parse_cache) == 0
        assert interp.eval("set q") == "9"


# ----------------------------------------------------------------------
# The shared LRU machinery and the ParseCache satellite fix


class TestLRUCache:
    def test_evicts_oldest_not_everything(self):
        cache = LRUCache(maxsize=3)
        for key in "abc":
            cache.put(key, key.upper())
        cache.put("d", "D")
        assert "a" not in cache
        assert all(k in cache for k in "bcd")
        assert cache.evictions == 1
        assert len(cache) == 3

    def test_hit_refreshes_recency(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh: "b" is now oldest
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache

    def test_counters_and_hit_rate(self):
        cache = LRUCache(maxsize=4)
        cache.put("k", "v")
        cache.get("k")
        cache.get("missing")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_parse_cache_is_true_lru(self):
        cache = ParseCache(maxsize=4)
        scripts = ["set v %d" % i for i in range(4)]
        for script in scripts:
            cache.get(script)
        cache.get(scripts[0])          # keep the first script hot
        cache.get("set v 99")          # evicts scripts[1], not the world
        assert scripts[0] in cache
        assert scripts[1] not in cache
        assert len(cache) == 4

    def test_hot_scripts_survive_cold_stream(self):
        # The pre-fix behaviour (clear() on full) wiped the frequently
        # used entries whenever a stream of one-off scripts filled the
        # cache; true LRU keeps the hot working set resident.
        cache = ParseCache(maxsize=8)
        hot = ["set hot %d" % i for i in range(4)]
        for i in range(40):
            for script in hot:
                cache.get(script)
            cache.get("set cold %d" % i)  # distinct every time
        assert all(script in cache for script in hot)
        assert cache.stats()["hits"] >= 4 * 39


# ----------------------------------------------------------------------
# Compiled-form construction details


class TestCompiledForms:
    def test_literal_command_precomputes_argv(self):
        op = _emit_call(parse_script("set alpha beta")[0], 1)
        assert op == (OP_CALL, ("set", "alpha", "beta"), None, 1)

    def test_mixed_command_carries_words(self):
        op = _emit_call(parse_script("set alpha $beta")[0], 1)
        assert op[1] is None
        assert [word[0] for word in op[2]] == [W_CONST, W_CONST, W_VAR]

    def test_literal_argv_not_shared_between_calls(self):
        interp = Interp()

        def mutator(interp_, argv):
            argv.append("mutated")
            return str(len(argv))

        interp.register("mut", mutator)
        script = "mut a"
        assert interp.eval(script) == "3"
        assert interp.eval(script) == "3"  # cache must be unaffected

    def test_compiled_script_reexecutes(self):
        interp = Interp()
        interp.eval("set n 0")
        compiled = interp.compile_script("incr n; incr n")
        assert isinstance(compiled, Code)
        assert compiled.execute(interp) == "2"
        assert compiled.execute(interp) == "4"


# ----------------------------------------------------------------------
# info bytecode disassemble


class TestDisassembler:
    SCRIPT = (
        "puts $msg [string length abc]\n"
        "set x [llength {a b}]\n"
        "if {$x > 1} {set y big} else {set y small}\n"
        "while {$x < 4} {incr x}\n"
        "expr {$x * 2}"
    )

    LISTING = "\n".join([
        "bytecode for 'puts $msg [string length abc]\\\\nset x "
        "[llength {a b}]\\\\nif ...' (4 inline, 1 generic)",
        "  0  call     const 'puts', $msg, [string length abc]",
        "  1  set      x <- [<code 1 ops>]",
        "      0  call     const 'llength', const 'a b'",
        "  2  if",
        "    cond '$x > 1' [fused]",
        "          0  load    $x",
        "          1  const   1",
        "          2  gt",
        "          0  set      y <- const 'big'",
        "    else",
        "          0  set      y <- const 'small'",
        "  3  while",
        "    cond '$x < 4' [fused]",
        "          0  load    $x",
        "          1  const   4",
        "          2  lt",
        "      0  incr     x by 1",
        "  4  expr     'expr $x * 2'",
        "      0  load    $x",
        "      1  const   2",
        "      2  mul",
    ])

    def test_listing_is_fixed_across_interpreters(self):
        listings = [
            Interp().eval(
                "info bytecode disassemble {%s}" % self.SCRIPT)
            for __ in range(2)]
        assert listings == [self.LISTING, self.LISTING]
