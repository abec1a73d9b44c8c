"""Differential fuzzing: the bytecode VM against the executable spec.

The tree-walker (``TreeInterp`` from tests/oracles/tcl.py) is the
reference semantics; the bytecode VM (``Interp``, the production
engine) must be
observationally identical to it -- same
results, same error messages, byte-identical ``errorInfo`` tracebacks,
same ``errorCode``, the same work-unit accounting (``info cmdcount``,
watchdog command-budget trips), and all of that on both the cold and
the cached evaluation of every script.

Three corpora drive the comparison: the hand-written equivalence
scripts shared with ``test_tcl_compile``, the hostile corpus distilled
from the fault-containment suite, and a seeded random script generator
that leans on the constructs the VM inlines (set/incr/expr/if/while/
for/foreach) plus the hazards that force its deoptimisation paths.
"""

import random

import pytest

from repro.tcl import Interp
from repro.tcl.errors import TclError, TclLimitError

from tests.oracles.tcl import TreeInterp
from tests.test_tcl_compile import EQUIVALENCE_SCRIPTS

#: Interpreter classes under test; the tree-walker defines truth.
ENGINES = (
    TreeInterp,
    Interp,
)
ENGINE_IDS = ("tree", "vm")


def snapshot(engine, script, rounds=2, commands=None, prelude=None):
    """Run ``script`` ``rounds`` times; capture every observable.

    Round 2 exercises the cached/compiled path, which is where inline
    caches (and their invalidation bugs) live.
    """
    interp = engine()
    if prelude:
        interp.eval(prelude)
    if commands:
        interp.set_eval_limits(commands=commands)
    observed = []
    for __ in range(rounds):
        try:
            observed.append(("ok", interp.eval(script)))
        except TclLimitError as err:
            observed.append(("limit", err.limit))
        except TclError as err:
            observed.append(("error", str(err.result)))
    for global_name in ("errorInfo", "errorCode"):
        try:
            observed.append((global_name,
                             interp.eval("set %s" % global_name)))
        except TclError:
            observed.append((global_name, None))
    observed.append(("cmdcount", interp.eval("info cmdcount")))
    observed.append(("trips", {
        key: count for key, count in interp.eval_stats().items()
        if key.startswith("trips_")}))
    return observed


def assert_engines_agree(script, **kwargs):
    reference = snapshot(ENGINES[0], script, **kwargs)
    for engine, label in zip(ENGINES[1:], ENGINE_IDS[1:]):
        assert snapshot(engine, script, **kwargs) == reference, (
            "engine %r diverged from the tree-walker on:\n%s"
            % (label, script))
    return reference


# ----------------------------------------------------------------------
# Corpus 1: the equivalence scripts (results + accounting)


class TestEquivalenceCorpus:
    @pytest.mark.parametrize("script", EQUIVALENCE_SCRIPTS)
    def test_engines_agree(self, script):
        assert_engines_agree(script)


# ----------------------------------------------------------------------
# Corpus 2: the hostile corpus (errors, tracebacks, budgets)


HOSTILE_SCRIPTS = [
    # Errors inside every construct the VM inlines.
    "unknowncmd a b",
    "set",
    "set a b c d",
    "incr missing",
    "set x notanumber\nincr x",
    "incr x notanumber",
    "expr {1 +}",
    "expr {1 / 0}",
    "expr {$undefinedvar + 1}",
    "if {1 +} {set x 1}",
    "if {1} {error inside-then} else {set x 2}",
    "if {0} {set x 1} else {error inside-else}",
    "if {1} {x} else",          # malformed tail never reached
    "if {0} {x} else",          # malformed tail reached: must error
    "while {$i <} {incr i}",
    "set i 0\nwhile {$i < 3} {incr i\nerror loop-body}",
    "for {set i 0} {$i <} {incr i} {set x 1}",
    "for {set i 0} {$i < 3} {incr i} {error for-body}",
    "for {set i 0} {$i < 3} {error for-next} {set x 1}",
    "foreach x {a b} {error foreach-body}",
    "foreach x {bad {list} {{} {}} {incr}} {set y $x}",
    'foreach x "un {balanced" {set y $x}',
    "proc p {} {error deep}\np",
    "proc outer {} {inner}\nproc inner {} {error deep}\nouter",
    "catch {error caught} msg\nset msg",
    "error msg myinfo mycode",
    # Nested bodies with errors at different depths.
    "for {set i 0} {$i < 4} {incr i} {\n"
    "  if {$i == 2} {\n"
    "    while {1} {error nested-deep}\n"
    "  }\n"
    "}",
    # break/continue misuse at top level.
    "break",
    "continue",
    # Variable hazards: traces, arrays vs scalars, unset mid-loop.
    'set a(k) v\nset a "scalar"',
    "set s scalar\nset s(k) v",
    "set i 0\nwhile {$i < 5} {incr i\nif {$i == 3} {unset i}}",
    "for {set i 0} {$i < 5} {incr i} {if {$i == 2} {unset i}}",
    # Loop bodies that fail to parse, held in a variable so the loop
    # runs through its builtin: the traceback keeps the body's own
    # "while executing" frame and the body entry counts as a work unit.
    "set b {set x [}; foreach i {1 2} $b",
    "set b {set x [}; set c 1; while $c $b",
    "set b {set x [}; for {set i 0} {$i < 2} {incr i} $b",
    "proc p {b} {foreach i {1 2} $b}\np {set x [}",
    "proc p {b} {set c 1; while $c $b}\np {set x [}",
    "proc p {b} {for {set i 0} {$i < 2} {incr i} $b}\np {set x [}",
    # A Python fault in a constant operand (OverflowError, raised at
    # once) must not fail the line at compile time: the walker meets
    # it only when the expression runs, inside the expr firewall.
    "if {0} {expr {1 << (1<<70)}}; set ok 1",
    "while {0} {expr {1 << (1<<70)}}; set ok 1",
    "set x 0; if {$x} {expr {1 << (1<<70)}} else {set ok 1}",
    "catch {expr {1 << (1<<70)}} m; set m",
]


class TestHostileCorpus:
    @pytest.mark.parametrize("script", HOSTILE_SCRIPTS)
    def test_engines_agree(self, script):
        assert_engines_agree(script)

    @pytest.mark.parametrize("script, budget", [
        ("while 1 {}", 500),
        ("set x 0\nwhile 1 {incr x}", 500),
        ("set x 0\nfor {set i 0} {1} {incr i} {incr x}", 500),
        ("catch {while 1 {}}", 400),
        ("proc spin {} {while 1 {}}\nspin", 300),
        ("set s 0\nfor {set i 0} {$i < 100000} {incr i} {incr s $i}",
         777),
    ])
    def test_command_budget_trips_identically(self, script, budget):
        # The watchdog counts work units (commands + nested eval
        # entries); the VM must account exactly like the tree-walker,
        # so the trip fires after the same unit -- observable through
        # identical `info cmdcount` and the loop counter left behind.
        assert_engines_agree(script, commands=budget)

    def test_traces_observe_identical_sequences(self):
        script = (
            "set log {}\n"
            "proc tracer {name index op} {global log\n"
            "  lappend log $name/$op}\n"
            "trace variable watched rwu tracer\n"
            "for {set i 0} {$i < 3} {incr i} {\n"
            "  set watched $i\n"
            "  set copy $watched\n"
            "}\n"
            "unset watched\n"
            "set log"
        )
        assert_engines_agree(script)


# ----------------------------------------------------------------------
# Corpus 3: mid-flight command-table and variable mutations
# (the inline-cache invalidation paths)


class TestMidFlightMutation:
    def test_rename_between_cached_evals(self):
        prelude = "proc shadowed {} {return original}"
        script = (
            "set r [shadowed]\n"
            "rename shadowed {}\n"
            "proc shadowed {} {return redefined}\n"
            "set r2 [shadowed]\n"
            "proc shadowed {} {return original}\n"
            "list $r $r2"
        )
        assert_engines_agree(script, prelude=prelude, rounds=3)

    def test_set_renamed_away_mid_script(self):
        # `set` disappears between the first and second statement: the
        # VM's inlined OP_SET must notice via its generation check.
        script = (
            "set a 1\n"
            "rename set assign\n"
            "catch {set b 2} msg\n"
            "assign restored 3\n"
            "rename assign set\n"
            "list $a $msg $restored"
        )
        assert_engines_agree(script, rounds=3)

    def test_proc_shadows_builtin_incr(self):
        script = (
            "set n 0\n"
            "incr n\n"
            "rename incr _incr\n"
            "proc incr {name} {upvar $name v; set v shadowed}\n"
            "incr n\n"
            "rename incr {}\n"
            "rename _incr incr\n"
            "set n"
        )
        assert_engines_agree(script, rounds=3)

    def test_hidden_command_fails_identically(self):
        interps = [engine() for engine in ENGINES]
        outcomes = []
        for interp in interps:
            interp.eval("set x 1")           # warm caches on `set`
            interp.hide_command("set")
            try:
                interp.eval("set x 2")
                outcomes.append(("ok",))
            except TclError as err:
                outcomes.append(("error", str(err.result),
                                 interp.eval("info cmdcount")))
            interp.expose_command("set")
            outcomes.append(("after", interp.eval("set x")))
        assert outcomes[0::2] == [outcomes[0]] * len(interps)
        assert outcomes[1::2] == [outcomes[1]] * len(interps)
        assert "invalid command name" in outcomes[0][1]

    def test_upvar_links_invalidate_cached_slots(self):
        script = (
            "proc bump {} {upvar 1 n v\nincr v}\n"
            "set n 0\n"
            "for {set i 0} {$i < 5} {incr i} {bump}\n"
            "set n"
        )
        assert_engines_agree(script)

    def test_unset_then_reset_in_cached_loop(self):
        script = (
            "set total 0\n"
            "for {set i 0} {$i < 6} {incr i} {\n"
            "  unset total\n"
            "  set total $i\n"
            "}\n"
            "set total"
        )
        assert_engines_agree(script)


# ----------------------------------------------------------------------
# Corpus 4: seeded random scripts


_VARS = ["a", "b", "c", "d"]


def _gen_expr(rng, depth=0):
    if depth > 2 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return str(rng.randint(-20, 20))
        return "$%s" % rng.choice(_VARS)
    op = rng.choice(["+", "-", "*", "<", ">", "<=", ">=", "==", "!="])
    return "(%s %s %s)" % (
        _gen_expr(rng, depth + 1), op, _gen_expr(rng, depth + 1))


def _gen_stmt(rng, depth=0):
    roll = rng.random()
    var = rng.choice(_VARS)
    if roll < 0.25:
        return "set %s %d" % (var, rng.randint(-50, 50))
    if roll < 0.40:
        return "incr %s %d" % (var, rng.randint(-3, 3))
    if roll < 0.55:
        return "set %s [expr {%s}]" % (var, _gen_expr(rng))
    if roll < 0.65 and depth < 2:
        return "if {%s} {\n%s\n} else {\n%s\n}" % (
            _gen_expr(rng), _gen_block(rng, depth + 1),
            _gen_block(rng, depth + 1))
    if roll < 0.75 and depth < 2:
        limit = rng.randint(1, 8)
        return ("for {set %s 0} {$%s < %d} {incr %s} {\n%s\n}"
                % (var, var, limit, var, _gen_block(rng, depth + 1)))
    if roll < 0.82 and depth < 2:
        items = " ".join(str(rng.randint(0, 9))
                         for __ in range(rng.randint(1, 4)))
        return "foreach %s {%s} {\n%s\n}" % (
            var, items, _gen_block(rng, depth + 1))
    if roll < 0.88:
        # Hazards: unset (epoch bump), array elements, errors in catch.
        hazard = rng.choice([
            "catch {unset %s}" % var,
            "set arr(%s) %d" % (var, rng.randint(0, 9)),
            "catch {incr %s oops} msg" % var,
            "catch {nosuchcommand} msg",
        ])
        return hazard
    if roll < 0.94:
        # Constant shapes: adjacent constant sets, constant exprs
        # (folded at expr compile time), and constant conditions.
        bait = rng.choice([
            "set %s %d\nset %s %d\nset %s %d" % (
                var, rng.randint(0, 9), var, rng.randint(0, 9),
                var, rng.randint(0, 9)),
            "set %s [expr {%d + %d * %d}]" % (
                var, rng.randint(0, 9), rng.randint(0, 9),
                rng.randint(0, 9)),
            "expr {%d %% %d}" % (rng.randint(0, 99), rng.randint(1, 9)),
            "while {0} {set %s never}" % var,
            "if {1} {set %s taken} else {set %s nottaken}" % (var, var),
            "incr %s [expr {%d - %d}]" % (
                var, rng.randint(0, 9), rng.randint(0, 9)),
        ])
        return bait
    return "set %s [string length %s%d]" % (var, var, rng.randint(0, 99))


def _gen_block(rng, depth):
    return "\n".join(_gen_stmt(rng, depth)
                     for __ in range(rng.randint(1, 3)))


def _gen_script(rng):
    lines = ["set %s %d" % (v, rng.randint(0, 9)) for v in _VARS]
    lines += [_gen_stmt(rng) for __ in range(rng.randint(3, 8))]
    lines.append("list $a $b $c $d [info cmdcount]")
    return "\n".join(lines)


class TestRandomizedDifferential:
    # Every random script runs under a command budget: generated loop
    # bodies may rewrite their own loop variable into an infinite loop,
    # and a trip is itself a differential observable (the engines must
    # stop after the identical work unit).
    @pytest.mark.parametrize("seed", range(40))
    def test_random_script_engines_agree(self, seed):
        rng = random.Random(4242 + seed)
        script = _gen_script(rng)
        assert_engines_agree(script, commands=20000)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_script_under_tight_budget(self, seed):
        rng = random.Random(9000 + seed)
        script = _gen_script(rng)
        assert_engines_agree(script, commands=50 + seed * 17)


# ----------------------------------------------------------------------
# Corpus 5: seeded random scripts through the builtin fallback paths
#
# Corpus 4's loops and conditions are braced literals, which the VM
# always inlines.  Here bodies, conditions and expressions are only
# known at run time, so `while`/`for`/`foreach`/`if`/`expr` reach their
# builtins through OP_CALL and evaluate via `Interp.eval` and the
# cached expr programs.


#: Bodies that do not parse; each keeps its braces balanced so it can
#: sit inside a braced word of the generated script.
_BAD_BODIES = ["set x [", 'set z "', "set w [list a {b}", 'puts "[incr a"']


def _gen_fallback_stmt(rng, depth=0):
    roll = rng.random()
    var = rng.choice(_VARS)
    if roll < 0.45 and depth < 2:
        # A loop body held in a variable.
        body = _gen_fallback_block(rng, depth + 1)
        loop = rng.choice([
            "while {$%s < %d} $bd" % (var, rng.randint(1, 6)),
            "for {set %s 0} {$%s < %d} {incr %s} $bd" % (
                var, var, rng.randint(1, 6), var),
            "foreach %s {%s} $bd" % (var, " ".join(
                str(rng.randint(0, 9)) for __ in range(rng.randint(0, 3)))),
        ])
        return "set bd {%s}\n%s" % (body, loop)
    if roll < 0.6 and depth < 2:
        # A quoted condition: substituted per evaluation of the word.
        cond = '"\\$%s %s $lim"' % (var, rng.choice(["<", ">", "!=", "<="]))
        body = _gen_fallback_block(rng, depth + 1)
        if rng.random() < 0.5:
            return "while %s {\n%s\nincr %s\n}" % (cond, body, var)
        return "if %s {\n%s\n}" % (cond, body)
    if roll < 0.85:
        # A generated expression held in a variable.
        if rng.random() < 0.5 or depth >= 2:
            return "set e {%s}\nset %s [expr $e]" % (_gen_expr(rng), var)
        return "set e {%s}\nif $e {\n%s\n} else {\n%s\n}" % (
            _gen_expr(rng), _gen_fallback_block(rng, depth + 1),
            _gen_fallback_block(rng, depth + 1))
    # An unparseable body: the error, its traceback and its work units
    # must match.
    bad = rng.choice(_BAD_BODIES)
    user = rng.choice([
        "foreach %s {1 2} $bad" % var,
        "while {$%s < 3} $bad" % var,
        "for {set %s 0} {$%s < 2} {incr %s} $bad" % (var, var, var),
        "if {$%s} $bad" % var,
        "expr $bad",
    ])
    return "set bad {%s}\ncatch {%s} msg" % (bad, user)


def _gen_fallback_block(rng, depth):
    return "\n".join(
        (_gen_fallback_stmt if rng.random() < 0.5 else _gen_stmt)(
            rng, depth)
        for __ in range(rng.randint(1, 3)))


def _gen_fallback_script(rng):
    lines = ["set %s %d" % (v, rng.randint(0, 9)) for v in _VARS]
    lines.append("set lim %d" % rng.randint(1, 6))
    lines += [_gen_fallback_stmt(rng) for __ in range(rng.randint(3, 6))]
    lines.append("list $a $b $c $d [info cmdcount]")
    return "\n".join(lines)


class TestRandomizedFallbackDifferential:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_script_engines_agree(self, seed):
        rng = random.Random(7000 + seed)
        script = _gen_fallback_script(rng)
        assert_engines_agree(script, commands=20000)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_script_under_tight_budget(self, seed):
        rng = random.Random(7500 + seed)
        script = _gen_fallback_script(rng)
        assert_engines_agree(script, commands=50 + seed * 17)
