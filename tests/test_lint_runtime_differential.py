"""Lint-vs-runtime differential fuzzer.

The flow rules in :mod:`repro.lint.flowrules` make claims about what
scripts *do at runtime* -- W012 claims a variable read can fail, W013
claims a statement can never execute.  Those claims are checkable: run
the script and watch.  This suite generates random scripts from a
grammar both the linter and the interpreter fully understand and pins
the two soundness directions that matter:

* **W012 completeness** -- a script the flow pass considers clean
  (no W012) must never raise ``can't read "x": no such variable`` when
  executed.  W012 is deliberately a *may* analysis (a variable
  assigned on one branch is not reported, to keep false positives at
  zero), so the generator keeps conditional writes confined to
  variables that are already unconditionally assigned: within that
  grammar "may-assigned" and "definitely-assigned" coincide and the
  completeness property is exact.  Reads are unrestricted -- scripts
  that read a never-assigned variable must come out flagged.
* **W013 soundness** -- a statement the flow pass flags as unreachable
  must never execute.  Proven two ways: a registered probe command
  records every call (must record none), and ``info cmdcount`` is
  byte-identical with the flagged statement deleted from the script
  (an executed-but-unobserved statement would still pay a work unit).

Scripts run under eval limits (nested loops can still spin), so the
CI failure-injection job runs this file under pytest-timeout alongside
the other watchdog-dependent suites.  The very first run of this
fuzzer caught a real bug: the constant-propagation join treated
_TOP-tainted loop states as replace-wholesale and the worklist
ping-ponged forever (see ConstLattice.join).
"""

import random
import re

import pytest

from repro.lint import check
from repro.tcl import Interp
from repro.tcl.errors import TclError

_CANT_READ = re.compile(r'can\'t read "[^"]*": no such variable')

_VARS = ["a", "b", "c", "d"]

#: Ghost variables: only ever tested with ``info exists`` and read
#: inside the guarded branch -- never assigned, so the guard is the
#: only thing keeping the read safe.
_GHOSTS = ["g1", "g2"]


# ----------------------------------------------------------------------
# W012: lint-clean scripts never raise a missing-variable read


def _write_target(rng, definite):
    """A variable that is safe to assign below the top level.

    Falls back to the pre-seeded ``w0`` (see :func:`_gen_script`) --
    never to an arbitrary variable, because a conditional write (even
    an ``incr`` on a loop back-edge) makes its target may-assigned and
    silences W012 for reads the runtime can still lose.
    """
    pool = sorted(definite) or ["w0"]
    return rng.choice(pool)


def _read_var(rng, definite):
    """A variable to read: usually one already assigned (so a healthy
    share of the corpus comes out lint-clean and actually exercises
    the completeness property), sometimes any (so flagged scripts and
    true runtime failures stay represented too)."""
    if definite and rng.random() < 0.8:
        return rng.choice(sorted(definite))
    return rng.choice(_VARS)


def _gen_stmt(rng, depth, definite):
    """One random statement.

    ``definite`` is the set of variables unconditionally assigned so
    far; it is only grown at depth 0 (straight-line code).  Nested
    blocks may *read* anything -- unassigned reads must surface as
    W012 -- but only *write* variables already in ``definite``, so the
    linter's may-assigned model stays exact for this grammar.
    """
    var = rng.choice(_VARS)
    other = _read_var(rng, definite)
    roll = rng.random()
    if roll < 0.24:
        target = var if depth == 0 else _write_target(rng, definite)
        if depth == 0:
            definite.add(target)
        return "set %s %d" % (target, rng.randint(0, 9))
    if roll < 0.36:
        target = var if depth == 0 else _write_target(rng, definite)
        if depth == 0 and other in definite:
            definite.add(target)
        return "set %s $%s" % (target, other)
    if roll < 0.44:
        target = var if depth == 0 else _write_target(rng, definite)
        return "incr %s" % target
    if roll < 0.52:
        target = var if depth == 0 else _write_target(rng, definite)
        if depth == 0 and other in definite:
            definite.add(target)
        return "set %s [string length $%s]" % (target, other)
    if roll < 0.58:
        # catch swallows the read error and neither sink nor msg is
        # ever read again, so this is safe whatever $other holds.
        return "catch {set sink $%s} msg" % other
    if roll < 0.66 and depth < 2:
        return "if {$%s > 4} {\n%s\n} else {\n%s\n}" % (
            other,
            _gen_block(rng, depth + 1, definite),
            _gen_block(rng, depth + 1, definite))
    if roll < 0.72 and depth < 2:
        # The guard is the sole protection for the ghost read.
        ghost = rng.choice(_GHOSTS)
        return "if {[info exists %s]} {\nset sink $%s\n%s\n}" % (
            ghost, ghost, _gen_block(rng, depth + 1, definite))
    if roll < 0.80 and depth < 2:
        counter = _write_target(rng, definite)
        return "while {$%s < %d} {\nincr %s\n%s\n}" % (
            counter, rng.randint(1, 6), counter,
            _gen_block(rng, depth + 1, definite))
    if roll < 0.86 and depth < 2:
        if depth == 0:
            definite.add(var)
        target = var if depth == 0 else _write_target(rng, definite)
        return "foreach %s {1 2 3} {\n%s\n}" % (
            target, _gen_block(rng, depth + 1, definite))
    if roll < 0.92 and depth == 0:
        definite.discard(var)
        return "unset -nocomplain %s" % var
    return "set %s [expr {$%s * 2 + 1}]" % (
        var if depth == 0 else _write_target(rng, definite), other)


def _gen_block(rng, depth, definite):
    return "\n".join(_gen_stmt(rng, depth, definite)
                     for _ in range(rng.randint(1, 3)))


def _gen_script(rng):
    definite = {"w0"}
    body = "\n".join(_gen_stmt(rng, 0, definite)
                     for _ in range(rng.randint(3, 10)))
    return "set w0 0\n%s\n" % body


def _lint_codes(script, extra=()):
    return [d.code for d in check(script, extra_commands=extra)]


def _gen_clean_script(rng, attempts=200, gen=_gen_script):
    """The next generated script lint finds W012-clean: the
    completeness direction only concerns clean scripts."""
    for _ in range(attempts):
        script = gen(rng)
        if "W012" not in _lint_codes(script):
            return script
    raise AssertionError("no W012-clean script in %d draws" % attempts)


def _run(script, commands=20000, register=None):
    """Execute under the production (bytecode VM) engine with limits."""
    interp = Interp()
    if register:
        for name, func in register.items():
            interp.register(name, func)
    interp.set_eval_limits(commands=commands)
    try:
        interp.eval(script)
    except TclError as err:
        return str(err.result)
    return None


class TestUseBeforeSetNeverLies:
    """W012-clean scripts must not raise missing-variable reads."""

    @pytest.mark.parametrize("seed", range(150))
    def test_clean_scripts_never_raise_cant_read(self, seed):
        script = _gen_clean_script(random.Random(31000 + seed))
        error = _run(script)
        if error is not None:
            assert not _CANT_READ.search(error), (
                "lint said every read is definitely assigned, but the "
                "runtime disagrees:\n%s\n-> %s" % (script, error))

    def test_corpus_exercises_both_verdicts(self):
        """The generator must produce clean AND flagged scripts --
        otherwise the parametrized property above tests nothing."""
        verdicts = set()
        for seed in range(150):
            rng = random.Random(31000 + seed)
            verdicts.add("W012" in _lint_codes(_gen_script(rng)))
            if len(verdicts) == 2:
                return
        raise AssertionError("generator corpus is one-sided: %r" % verdicts)

    def test_known_tricky_shapes_stay_consistent(self):
        # Regression pins for shapes that historically tempt false
        # cleanliness: loop-carried defs and catch probes.
        for script in (
            "while {[info exists t] == 0} {set t 1}\nset u $t\n",
            "if {[catch {set x $maybe}]} {set x fallback}\nset y $x\n",
            "foreach v {1 2} {set w $v}\nset z $w\n",
        ):
            codes = _lint_codes(script)
            error = _run(script)
            if "W012" not in codes and error is not None:
                assert not _CANT_READ.search(error), script


# ----------------------------------------------------------------------
# W012 through ``for``, ``switch`` and ``time``: the linter builds their
# flow graphs itself, so they get the same completeness property.


def _gen_control_stmt(rng, definite):
    """A top-level ``for``, ``switch`` (braced or inline) or ``time``
    around :func:`_gen_block` bodies, which write only variables in
    ``definite``."""
    other = _read_var(rng, definite)
    shape = rng.randrange(4)
    if shape == 0:
        body = _gen_block(rng, 1, definite)
        if rng.random() < 0.5:
            body = "if {$i == 1} {continue}\n" + body
        return "for {set i 0} {$i < %d} {incr i} {\n%s\n}" % (
            rng.randint(0, 3), body)
    if shape == 1:
        return "switch -- $%s {\n%d {\n%s\n}\ndefault {\n%s\n}\n}" % (
            other, rng.randint(0, 9), _gen_block(rng, 1, definite),
            _gen_block(rng, 1, definite))
    if shape == 2:
        return "switch $%s %d {\n%s\n} default {\n%s\n}" % (
            other, rng.randint(0, 9), _gen_block(rng, 1, definite),
            _gen_block(rng, 1, definite))
    return "time {\n%s\n} %d" % (_gen_block(rng, 1, definite),
                                 rng.randint(1, 3))


def _gen_control_script(rng):
    definite = {"w0"}
    count = rng.randint(3, 8)
    control_at = rng.randrange(count)
    stmts = [
        _gen_control_stmt(rng, definite)
        if k == control_at or rng.random() < 0.3
        else _gen_stmt(rng, 0, definite)
        for k in range(count)]
    return "set w0 0\n%s\n" % "\n".join(stmts)


class TestControlCommandsKeepUseBeforeSet:
    @pytest.mark.parametrize("seed", range(60))
    def test_clean_scripts_never_raise_cant_read(self, seed):
        script = _gen_clean_script(random.Random(53000 + seed),
                                   gen=_gen_control_script)
        error = _run(script)
        if error is not None:
            assert not _CANT_READ.search(error), (
                "lint said every read is definitely assigned, but the "
                "runtime disagrees:\n%s\n-> %s" % (script, error))

    def test_corpus_exercises_both_verdicts_and_every_shape(self):
        verdicts = set()
        text = ""
        for seed in range(60):
            script = _gen_control_script(random.Random(53000 + seed))
            verdicts.add("W012" in _lint_codes(script))
            text += script
        assert verdicts == {True, False}
        for shape in ("for {", "switch -- ", "} default {", "time {",
                      "{continue}"):
            assert shape in text, shape


# ----------------------------------------------------------------------
# W013: flagged-unreachable statements never execute


def _gen_unreachable_script(rng):
    """A script with ``probe`` planted where the CFG proves no path
    arrives.  Returns (script, probe_line)."""
    prefix = ["set %s %d" % (v, rng.randint(0, 9)) for v in _VARS[:2]]
    shape = rng.randrange(3)
    if shape == 0:
        # Join after both branches of a proc return.
        body = ("if {$n > %d} {\nreturn big\n} else {\nreturn small\n}\n"
                "probe dead" % rng.randint(0, 9))
        lines = prefix + ["proc judge {n} {"] + body.split("\n") + [
            "}", "judge $a", "judge $b"]
    elif shape == 1:
        # Statement after an unconditional error, across a block join.
        lines = prefix + [
            "if {$a > %d} {\nerror boom\n} else {\nerror bust\n}"
            % rng.randint(0, 9),
            "probe dead",
        ]
        lines = "\n".join(lines).split("\n")
    else:
        # Every arm of an if/elseif/else chain returns.
        body = ("if {$n > %d} {\nreturn big\n} elseif {$n > %d} {\n"
                "return mid\n} else {\nreturn small\n}\nprobe dead"
                % (rng.randint(5, 9), rng.randint(0, 4)))
        lines = prefix + ["proc grade {n} {"] + body.split("\n") + [
            "}", "grade $b"]
    script = "\n".join(lines) + "\n"
    probe_line = next(i + 1 for i, text in enumerate(lines)
                      if text.startswith("probe"))
    return script, probe_line


class TestUnreachableNeverExecutes:
    """W013-flagged statements must be invisible at runtime."""

    @pytest.mark.parametrize("seed", range(60))
    def test_flagged_statement_never_runs(self, seed):
        rng = random.Random(47000 + seed)
        script, probe_line = _gen_unreachable_script(rng)
        diags = check(script, extra_commands=("probe",))
        flagged = [d for d in diags
                   if d.code == "W013" and d.line == probe_line]
        assert flagged, (
            "generator planted an unreachable probe at line %d but the "
            "flow pass missed it:\n%s" % (probe_line, script))

        calls = []

        def probe(interp, argv):
            calls.append(tuple(argv))
            return ""

        interp = Interp()
        interp.register("probe", probe)
        interp.set_eval_limits(commands=5000)
        try:
            interp.eval(script)
        except TclError:
            pass
        assert calls == [], (
            "statement flagged W013 executed anyway:\n%s" % script)

        # cmdcount proof: deleting the unreachable line changes nothing
        # the accounting can see -- even an unobserved execution would
        # have paid a work unit.
        with_probe = int(interp.eval("info cmdcount"))
        stripped = "\n".join(
            text for i, text in enumerate(script.split("\n"))
            if i + 1 != probe_line)
        control = Interp()
        control.set_eval_limits(commands=5000)
        try:
            control.eval(stripped)
        except TclError:
            pass
        without_probe = int(control.eval("info cmdcount"))
        # Both interps pay the same unit for their own "info cmdcount"
        # call, so the totals must match exactly.
        assert with_probe == without_probe, (
            "cmdcount shifted when the W013 line was deleted:\n%s"
            % script)
