"""The Tcl interpreter: frames, variables, substitution, dispatch.

The design mirrors the C implementation's structure: an interpreter owns
a command table and a stack of call frames; every command is a callable
``(interp, argv) -> str`` where ``argv[0]`` is the command name, exactly
like ``Tcl_CmdProc``.  Variables live in frames and may be scalars,
associative arrays, or upvar links into another frame.
"""

import sys as _sys
import time as _time

from repro.tcl import compile as _compile
from repro.tcl import parser as _parser
from repro.tcl import vm as _vm
from repro.tcl.cache import LRUCache
from repro.tcl.errors import (
    ERRORINFO_FRAME_LIMIT,
    TclBreak,
    TclContinue,
    TclError,
    TclLimitError,
    TclReturn,
    log_panic,
)
from repro.tcl.expr import (
    ast_cache as _expr_ast_cache,
    compile_expr,
    format_number,
)
from repro.tcl.lists import quote_element

_SCALAR = 0
_ARRAY = 1
_LINK = 2

#: Tcl's ``interp recursionlimit`` default: the deepest the Tcl-level
#: evaluation stack may grow before a clean "too many nested
#: evaluations" error replaces what would otherwise be a Python
#: RecursionError crash.
DEFAULT_RECURSION_LIMIT = 1000

#: Watchdog check granularity: the limit slow path runs every this
#: many work units (dispatched commands + nested eval entries).  Sized
#: so the slow path (a monotonic-clock read plus ceiling compares)
#: stays under the <5% armed-overhead budget even at bytecode-VM
#: dispatch rates; budgets are enforced with up to this much slack.
_CHECK_INTERVAL = 256

#: ``_next_check`` sentinel while the watchdog is disarmed: a command
#: count no session will ever reach, so the hot-loop comparison stays
#: false without a second attribute test.
_NO_CHECK = 1 << 62

#: Each Tcl nesting level costs ~7 Python frames (measured; eval ->
#: execute -> call -> command -> ...), so the Python recursion limit
#: must leave headroom above the Tcl limit for the TclError to be the
#: one that fires.  Capped: past this the RecursionError backstop in
#: ``eval`` still yields the same clean Tcl error.
_PY_FRAMES_PER_NESTING = 8
_PY_RECURSION_CAP = 200000


def _ensure_python_stack(recursion_limit):
    needed = min(recursion_limit * _PY_FRAMES_PER_NESTING + 200,
                 _PY_RECURSION_CAP)
    if _sys.getrecursionlimit() < needed:
        _sys.setrecursionlimit(needed)


class _Var:
    __slots__ = ("kind", "value", "traces", "num", "num_str")

    def __init__(self, kind, value):
        self.kind = kind
        self.value = value  # str | dict | (frame, name)
        self.traces = None  # list of _Trace, lazily created
        # Numeric shadow for the bytecode VM's integer fast paths.
        # Invariant: the shadow is meaningful only while ``num_str is
        # value`` (object identity) -- any writer that replaces
        # ``value`` invalidates it implicitly, so only the VM's trusted
        # integer writers ever need to maintain these two fields.
        self.num = None
        self.num_str = None


class _Trace:
    """One ``trace variable`` registration."""

    __slots__ = ("ops", "command", "active")

    def __init__(self, ops, command):
        self.ops = ops
        self.command = command
        self.active = False  # reentrancy guard (Tcl disables a firing trace)


class CallFrame:
    """One level of the Tcl procedure call stack."""

    __slots__ = ("vars", "level", "proc_name", "argv")

    def __init__(self, level, proc_name=None, argv=None):
        self.vars = {}
        self.level = level
        self.proc_name = proc_name
        self.argv = argv or []


class Proc:
    """A Tcl procedure: formal arguments (with defaults) and a body."""

    __slots__ = ("name", "formals", "body")

    def __init__(self, name, formals, body):
        self.name = name
        self.formals = formals  # list of (name, default_or_None)
        self.body = body


def split_varname(name):
    """Split ``a(b)`` into ``("a", "b")``; plain names give index None."""
    if name.endswith(")"):
        paren = name.find("(")
        if paren >= 0:
            return name[:paren], name[paren + 1 : -1]
    return name, None


class Interp:
    """A Tcl interpreter with all built-in commands registered.

    ``Interp()`` gives plain Tcl; Wafe layers its widget commands on top
    by calling :meth:`register`.
    """

    def __init__(self, register_builtins=True):
        self.commands = {}
        self.procs = {}
        self.frames = [CallFrame(0)]
        self.parse_cache = _parser.ParseCache()
        # Compiled scripts (keyed on the script text) and compiled expr
        # conditions (keyed on ``("expr", text)``) for the bytecode VM.
        self.bytecode_cache = LRUCache(maxsize=512)
        # Inline-cache invalidation counters (see repro.tcl.vm): any
        # command-table mutation bumps ``cmds_generation``; unset/upvar
        # bump ``var_epoch``.  Cheap monotonic integers, bumped even
        # when the VM is not in use.
        self.cmds_generation = 0
        self.var_epoch = 0
        self._vm_stats = {
            "scripts": 0, "inline_ops": 0, "generic_ops": 0, "deopts": 0,
        }
        # Integer handoff between an inlined ``expr`` and a consuming
        # ``set`` (see repro.tcl.vm): valid only while ``_vm_num_str``
        # is, by object identity, the string being stored.
        self._vm_num = None
        self._vm_num_str = None
        self.cmd_count = 0
        self.recursion_limit = DEFAULT_RECURSION_LIMIT
        _ensure_python_stack(self.recursion_limit)
        self._nesting = 0
        self._peak_nesting = 0
        # The cooperative watchdog (Tcl's ``interp limit``): optional
        # wall-time and command-count budgets per *top-level* eval
        # (one backend line, one callback).  Armed when the outermost
        # eval starts.  The hot-loop cost is one integer comparison,
        # armed or not: ``call`` tests ``cmd_count >= _next_check``,
        # where ``_next_check`` is a far-away sentinel while disarmed
        # and the next ``_CHECK_INTERVAL`` checkpoint while armed.  Budgets
        # therefore have up to ``_CHECK_INTERVAL`` work units of
        # slack; that is the price of <5% overhead.
        self.limit_time_ms = 0      # 0: no wall-time budget
        self.limit_commands = 0     # 0: no command-count budget
        self._limits_armed = False
        self._limit_deadline = None
        self._limit_cmd_ceiling = None
        self._limit_fresh = False
        self._next_check = _NO_CHECK
        self._limit_trips = {"commands": 0, "time": 0, "recursion": 0}
        # Embedder hook fired on every budget trip with the trip kind
        # ("commands"/"time"/"recursion"); the server's quota ledger
        # hangs off this.  Hook failures are contained -- a broken
        # observer must not mask the limit error itself.
        self.on_limit_trip = None
        # The Python-exception firewall counter (``info stats tcl.eval``).
        self.firewall_catches = 0
        # Safe mode (Safe Tcl): hidden commands are parked here, out of
        # reach of scripts but restorable via :meth:`expose_command`.
        self.hidden_commands = {}
        # Output hook: ``puts``/``echo`` write through here so embedders
        # (the Wafe frontend) can redirect output to the backend pipe.
        self.write_output = None
        # The counter ledgers behind ``info stats``: source name ->
        # (snapshot, reset).  ``snapshot()`` returns a flat dict;
        # ``reset()`` zeroes the counters in place and is None for a
        # source shared beyond this interpreter, which Tcl may read but
        # not reset.  Embedders add their own sources (Wafe: ``xt.*``,
        # ``xlib.render``, ``core.channel``; a server session: ``server``).
        self.stats_sources = {
            "tcl.parse": (self.parse_cache.stats,
                          self.parse_cache.reset_stats),
            "tcl.bytecode": (self.bytecode_cache.stats,
                             self.bytecode_cache.reset_stats),
            "tcl.expr": (_expr_ast_cache.stats, None),  # process-wide
            "tcl.eval": (self.eval_stats, self.reset_eval_stats),
            "tcl.vm": (self.vm_stats, self.reset_vm_stats),
        }
        if register_builtins:
            from repro.tcl import cmds_core, cmds_info, cmds_list, cmds_string

            cmds_core.register(self)
            cmds_list.register(self)
            cmds_string.register(self)
            cmds_info.register(self)

    # ------------------------------------------------------------------
    # Command table

    def register(self, name, func):
        """Register a command: ``func(interp, argv) -> str``."""
        self.cmds_generation += 1
        self.commands[name] = func

    def unregister(self, name):
        self.cmds_generation += 1
        self.commands.pop(name, None)
        self.procs.pop(name, None)

    def rename(self, old, new):
        self.cmds_generation += 1
        if old not in self.commands:
            raise TclError('can\'t rename "%s": command doesn\'t exist' % old)
        if new == "":
            self.commands.pop(old)
            self.procs.pop(old, None)
            return
        if new in self.commands:
            raise TclError('can\'t rename to "%s": command already exists' % new)
        self.commands[new] = self.commands.pop(old)
        if old in self.procs:
            self.procs[new] = self.procs.pop(old)

    def hide_command(self, name):
        """Safe-Tcl ``interp hide``: park a command out of script reach.

        The command vanishes from the dispatch table (invoking it gives
        ``invalid command name``, and ``rename``/``info commands`` no
        longer see it) but its implementation is kept so a trusted
        caller can :meth:`expose_command` it again.
        """
        self.cmds_generation += 1
        func = self.commands.pop(name, None)
        if func is None:
            raise TclError(
                'unknown command "%s": cannot hide' % name)
        self.hidden_commands[name] = func

    def expose_command(self, name):
        """Safe-Tcl ``interp expose``: restore a hidden command."""
        func = self.hidden_commands.get(name)
        if func is None:
            raise TclError('unknown hidden command "%s"' % name)
        if name in self.commands:
            raise TclError(
                'exposed command "%s" would hide an existing command'
                % name)
        del self.hidden_commands[name]
        self.cmds_generation += 1
        self.commands[name] = func

    # ------------------------------------------------------------------
    # Frames and variables

    @property
    def current_frame(self):
        return self.frames[-1]

    @property
    def global_frame(self):
        return self.frames[0]

    def _resolve(self, frame, name):
        """Follow upvar links; returns (frame, name)."""
        seen = 0
        while True:
            var = frame.vars.get(name)
            if var is not None and var.kind == _LINK:
                frame, name = var.value
                seen += 1
                if seen > 100:
                    raise TclError("too many nested upvar links")
            else:
                return frame, name

    def set_var(self, name, value, index=None, frame=None):
        if index is None:
            name, index = split_varname(name)
        if frame is None:
            frame = self.current_frame
        frame, name = self._resolve(frame, name)
        if index is None:
            # upvar links may point at an array element ("a(k)").
            name, index = split_varname(name)
        var = frame.vars.get(name)
        if index is None:
            if var is not None and var.kind == _ARRAY:
                raise TclError('can\'t set "%s": variable is array' % name)
            if var is not None and var.kind == _SCALAR:
                var.value = value  # keep traces attached
            else:
                var = _Var(_SCALAR, value)
                frame.vars[name] = var
        else:
            if var is None or var.kind != _ARRAY:
                if var is not None and var.kind == _SCALAR:
                    if var.value is None:
                        # Trace-only placeholder: become an array.
                        var.kind = _ARRAY
                        var.value = {}
                    else:
                        raise TclError(
                            'can\'t set "%s(%s)": variable isn\'t array'
                            % (name, index)
                        )
                else:
                    var = _Var(_ARRAY, {})
                    frame.vars[name] = var
            var.value[index] = value
        self._fire_traces(var, name, index, "w")
        return value

    def get_var(self, name, index=None, frame=None):
        if index is None:
            name, index = split_varname(name)
        if frame is None:
            frame = self.current_frame
        frame, name = self._resolve(frame, name)
        if index is None:
            name, index = split_varname(name)
        var = frame.vars.get(name)
        if var is None:
            raise TclError('can\'t read "%s": no such variable' % name)
        self._fire_traces(var, name, index, "r")
        if index is None:
            if var.kind == _ARRAY:
                raise TclError('can\'t read "%s": variable is array' % name)
            if var.value is None:
                # A trace-only placeholder: the variable has no value yet.
                raise TclError('can\'t read "%s": no such variable' % name)
            return var.value
        if var.kind != _ARRAY:
            raise TclError('can\'t read "%s(%s)": variable isn\'t array' % (name, index))
        if index not in var.value:
            raise TclError(
                'can\'t read "%s(%s)": no such element in array' % (name, index)
            )
        return var.value[index]

    def var_exists(self, name, index=None, frame=None):
        if index is None:
            name, index = split_varname(name)
        if frame is None:
            frame = self.current_frame
        frame, name = self._resolve(frame, name)
        if index is None:
            name, index = split_varname(name)
        var = frame.vars.get(name)
        if var is None or var.kind == _LINK:
            return False
        if var.kind == _SCALAR and var.value is None:
            return False  # trace-only placeholder
        if index is None:
            return True
        return var.kind == _ARRAY and index in var.value

    def unset_var(self, name, index=None, frame=None):
        if index is None:
            name, index = split_varname(name)
        if frame is None:
            frame = self.current_frame
        owner = frame
        frame, name = self._resolve(frame, name)
        if index is None:
            name, index = split_varname(name)
        var = frame.vars.get(name)
        if var is None:
            raise TclError('can\'t unset "%s": no such variable' % name)
        self._fire_traces(var, name, index, "u")
        if index is None:
            del frame.vars[name]
            # The var object is now orphaned: invalidate every VM cache
            # cell (a later ``set`` creates a *new* object, which a
            # stale cell would miss).  Element deletion keeps the var
            # object, so it does not need the epoch bump.
            self.var_epoch += 1
        else:
            if var.kind != _ARRAY or index not in var.value:
                raise TclError(
                    'can\'t unset "%s(%s)": no such element in array' % (name, index)
                )
            del var.value[index]
        del owner  # links stay; reading through them re-raises no-such-var

    def _fire_traces(self, var, name, index, op):
        """Run ``trace variable`` commands registered for this op."""
        if var is None or not var.traces:
            return
        for trace in list(var.traces):
            if op not in trace.ops or trace.active:
                continue
            trace.active = True
            try:
                self.eval("%s %s %s %s" % (
                    trace.command, quote_element(name),
                    quote_element(index if index is not None else ""), op))
            finally:
                trace.active = False

    def add_trace(self, name, ops, command, frame=None):
        """``trace variable``: attach a trace (creates the variable slot
        if needed, like Tcl does for write/unset traces)."""
        base, index = split_varname(name)
        if frame is None:
            frame = self.current_frame
        frame, base = self._resolve(frame, base)
        var = frame.vars.get(base)
        if var is None:
            var = _Var(_ARRAY if index is not None else _SCALAR,
                       {} if index is not None else None)
            frame.vars[base] = var
        if var.traces is None:
            var.traces = []
        var.traces.append(_Trace(ops, command))

    def remove_trace(self, name, ops, command, frame=None):
        base, __ = split_varname(name)
        if frame is None:
            frame = self.current_frame
        frame, base = self._resolve(frame, base)
        var = frame.vars.get(base)
        if var is None or not var.traces:
            return
        for trace in list(var.traces):
            if trace.ops == ops and trace.command == command:
                var.traces.remove(trace)
                return

    def trace_info(self, name, frame=None):
        base, __ = split_varname(name)
        if frame is None:
            frame = self.current_frame
        frame, base = self._resolve(frame, base)
        var = frame.vars.get(base)
        if var is None or not var.traces:
            return []
        return [(t.ops, t.command) for t in var.traces]

    def link_var(self, local_name, target_frame, target_name):
        """Implement upvar/global: alias local_name to another frame's var."""
        # A link can shadow or redirect any cached (frame, name)
        # resolution, so it invalidates VM variable cells like unset.
        self.var_epoch += 1
        self.current_frame.vars[local_name] = _Var(_LINK, (target_frame, target_name))

    def array_of(self, name, frame=None, create=False):
        """Return the dict behind array ``name`` (or None)."""
        if frame is None:
            frame = self.current_frame
        frame, name = self._resolve(frame, name)
        var = frame.vars.get(name)
        if var is None:
            if not create:
                return None
            var = _Var(_ARRAY, {})
            frame.vars[name] = var
        if var.kind != _ARRAY:
            return None
        return var.value

    def frame_at_level(self, spec):
        """Resolve a level spec: ``#0`` absolute, digits relative."""
        if spec.startswith("#"):
            try:
                level = int(spec[1:])
            except ValueError:
                raise TclError('bad level "%s"' % spec)
            if not 0 <= level < len(self.frames):
                raise TclError('bad level "%s"' % spec)
            return self.frames[level]
        try:
            up = int(spec)
        except ValueError:
            raise TclError('bad level "%s"' % spec)
        target = len(self.frames) - 1 - up
        if target < 0:
            raise TclError('bad level "%s"' % spec)
        return self.frames[target]

    # ------------------------------------------------------------------
    # Substitution and evaluation

    def _substitute_parts(self, parts):
        if len(parts) == 1:
            kind, payload = parts[0]
            if kind == _parser.LITERAL:
                return payload
            if kind == _parser.VARSUB:
                name, index_parts = payload
                index = (
                    self._substitute_parts(index_parts)
                    if index_parts is not None
                    else None
                )
                return self.get_var(name, index)
            return self.eval(payload)
        out = []
        for kind, payload in parts:
            if kind == _parser.LITERAL:
                out.append(payload)
            elif kind == _parser.VARSUB:
                name, index_parts = payload
                index = (
                    self._substitute_parts(index_parts)
                    if index_parts is not None
                    else None
                )
                out.append(self.get_var(name, index))
            else:
                out.append(self.eval(payload))
        return "".join(out)

    def compile_script(self, script):
        """The memoised ``script -> Code`` (bytecode) that ``eval`` runs.

        Cached bytecode never observes stale ``proc``/``rename`` state:
        generic commands resolve their name per dispatch and inline
        ops self-check their command bindings per execution.
        """
        compiled = self.bytecode_cache.get(script)
        if compiled is None:
            compiled = self.bytecode_cache.put(
                script,
                _compile.compile_script_bytecode(
                    self.parse_cache.get(script), script, self),
            )
        return compiled

    # -- eval limits ----------------------------------------------------

    def set_recursion_limit(self, limit):
        """``interp recursionlimit``: the Tcl nesting ceiling."""
        if limit < 1:
            raise TclError("recursion limit must be at least 1")
        self.recursion_limit = limit
        _ensure_python_stack(limit)

    def set_eval_limits(self, time_ms=None, commands=None):
        """Configure the watchdog budgets (0 disables either).

        Budgets apply per top-level evaluation and take effect the
        next time one starts; they are enforced with up to
        ``_CHECK_INTERVAL`` work units of slack.
        """
        if time_ms is not None:
            if time_ms < 0:
                raise TclError("time limit must be non-negative")
            self.limit_time_ms = time_ms
        if commands is not None:
            if commands < 0:
                raise TclError("command limit must be non-negative")
            self.limit_commands = commands

    def _arm_limits(self):
        # Arming runs per top-level eval, so it must stay cheap (at
        # bytecode-VM dispatch rates it is a measurable fraction of a
        # short callback): three attribute writes.  The command ceiling
        # and the wall-clock deadline are derived lazily on the first
        # slow-path check -- the arm-time count is recoverable there as
        # ``_next_check - _CHECK_INTERVAL``, and a short script that
        # never reaches a check never pays for either.
        self._next_check = self.cmd_count + _CHECK_INTERVAL
        self._limit_fresh = True
        self._limits_armed = True

    def _disarm_limits(self):
        self._limits_armed = False
        self._next_check = _NO_CHECK

    def _check_limits(self, count):
        """The slow path of the watchdog (reached every
        ``_CHECK_INTERVAL``-th work unit).

        Work units are dispatched commands plus nested eval entries --
        the eval entries matter because a hostile ``while 1 {}``
        re-enters eval for its (empty) body every iteration without
        dispatching a single command.  Both are counted whether the
        watchdog is armed or not, so arming changes nothing on the hot
        path and ``info cmdcount`` is limit-independent.
        """
        if self._limit_fresh:
            # First check since arming: materialise the budgets from
            # the arm-time count (deferred out of the arming hot path).
            self._limit_fresh = False
            base = self._next_check - _CHECK_INTERVAL
            self._limit_cmd_ceiling = (
                base + self.limit_commands
                if self.limit_commands else None)
            self._limit_deadline = -1.0 if self.limit_time_ms else None
        self._next_check = count + _CHECK_INTERVAL
        ceiling = self._limit_cmd_ceiling
        if ceiling is not None and count >= ceiling:
            self._disarm_limits()
            self._note_limit_trip("commands")
            raise TclLimitError(
                "command count limit exceeded (budget %d commands)"
                % self.limit_commands, "commands")
        deadline = self._limit_deadline
        if deadline is not None:
            if deadline < 0:
                # First check since arming: start the clock now.
                self._limit_deadline = (
                    _time.monotonic() + self.limit_time_ms / 1000.0)
            elif _time.monotonic() >= deadline:
                self._disarm_limits()
                self._note_limit_trip("time")
                raise TclLimitError(
                    "time limit exceeded (budget %d ms)"
                    % self.limit_time_ms, "time")

    def _note_limit_trip(self, kind):
        self._limit_trips[kind] += 1
        hook = self.on_limit_trip
        if hook is not None:
            try:
                hook(kind)
            except Exception:  # noqa: BLE001 -- observer must not mask
                pass

    def _recursion_error(self):
        self._note_limit_trip("recursion")
        return TclError("too many nested evaluations (infinite loop?)")

    def _start_errorinfo(self, err, script):
        """Errors with no command frame yet (substitution or parse
        failures) start their traceback from the script excerpt."""
        if not err.info_started:
            excerpt = script[:150] if script else "<script>"
            err.info_started = True
            err.frames += 1
            err.errorinfo = '%s\n    while executing\n"%s"' % (
                err.errorinfo, excerpt)
            self._set_error_globals(err)

    def eval(self, script):
        """Evaluate a script string, returning its result string."""
        nesting = self._nesting
        if nesting >= self.recursion_limit:
            raise self._recursion_error()
        if nesting == 0:
            if self.limit_time_ms or self.limit_commands:
                # _arm_limits inlined: at bytecode-VM speeds a method
                # call per top-level eval is measurable against the <5%
                # armed-overhead budget.
                self._next_check = self.cmd_count + _CHECK_INTERVAL
                self._limit_fresh = True
                self._limits_armed = True
        else:
            # Nested evals count as watchdog work units: an empty loop
            # body re-enters eval every iteration without dispatching
            # any command, and must still trip the budget.  The bump is
            # unconditional (armed or not) so the armed hot path costs
            # only the amortised slow-path check, and ``info cmdcount``
            # is identical either way; unarmed, ``_next_check`` is the
            # never-reached sentinel, so the compare never fires.
            count = self.cmd_count + 1
            self.cmd_count = count
            if count >= self._next_check:
                self._check_limits(count)
        if nesting >= self._peak_nesting:
            self._peak_nesting = nesting + 1
        self._nesting = nesting + 1
        try:
            return self.compile_script(script).execute(self)
        except TclError as err:
            self._start_errorinfo(err, script)
            raise
        except RecursionError:
            raise self._recursion_error()
        except TclReturn as ret:
            # ``return`` at the top level ends the script normally.
            if nesting == 0:
                return ret.result
            raise
        except (TclBreak, TclContinue) as exc:
            if nesting == 0:
                raise TclError(str(exc))
            raise
        finally:
            self._nesting = nesting
            if nesting == 0:
                self._limits_armed = False
                self._next_check = _NO_CHECK

    def call(self, argv, line=None):
        """Invoke a command given an already-substituted argv.

        ``line`` is the 1-based source line of the command in the
        script it came from (threaded by the compiled ops) and feeds
        the ``(procedure ... line N)`` errorInfo markers.
        """
        count = self.cmd_count + 1
        self.cmd_count = count
        if count >= self._next_check:
            self._check_limits(count)
        func = self.commands.get(argv[0])
        if func is None:
            func = self.commands.get("unknown")
            if func is None:
                err = TclError('invalid command name "%s"' % argv[0])
                self._record_error_frame(err, argv, line)
                raise err
            argv = ["unknown"] + argv
        try:
            result = func(self, argv)
        except TclError as err:
            self._record_error_frame(err, argv, line)
            raise
        except (TclReturn, TclBreak, TclContinue):
            raise
        except RecursionError:
            # Handled at the eval boundary (too many nested evaluations).
            raise
        except Exception as exc:
            # The Python-exception firewall: an unexpected exception in
            # a command implementation becomes a Tcl error carrying a
            # one-line summary; the traceback goes to the panic log,
            # never onto the protocol.
            self.firewall_catches += 1
            summary = log_panic('command "%s"' % argv[0], exc)
            err = TclError(
                'internal error in command "%s" (%s)' % (argv[0], summary))
            self._record_error_frame(err, argv, line)
            raise err from None
        return "" if result is None else result

    def _record_error_frame(self, err, argv, line):
        """Append one Tcl-style errorInfo frame while an error unwinds.

        The innermost command contributes ``while executing``, each
        enclosing command ``invoked from within``, exactly like Tcl's
        Tcl_AddErrorInfo discipline; accumulation is capped so deep
        recursions unwind in O(depth), not O(depth^2) string building.
        """
        err.proc_line = line
        if err.skip_frame:
            err.skip_frame = False
        elif err.frames < ERRORINFO_FRAME_LIMIT:
            self._append_error_frame(err, " ".join(argv)[:150])
        self._set_error_globals(err)

    def _record_error_frame_text(self, err, text, line):
        """Like :meth:`_record_error_frame` for a precomputed frame text.

        The bytecode VM's inlined statements know their substituted
        command text without materialising an argv list; this variant
        keeps the frame discipline (skip_frame, the frame cap, the
        elision marker, errorInfo/errorCode globals) byte-identical.
        """
        err.proc_line = line
        if err.skip_frame:
            err.skip_frame = False
        elif err.frames < ERRORINFO_FRAME_LIMIT:
            self._append_error_frame(err, text)
        self._set_error_globals(err)

    def _append_error_frame(self, err, text):
        err.frames += 1
        if err.info_started:
            err.errorinfo = '%s\n    invoked from within\n"%s"' % (
                err.errorinfo, text)
        else:
            err.info_started = True
            err.errorinfo = '%s\n    while executing\n"%s"' % (
                err.errorinfo, text)
        if err.frames == ERRORINFO_FRAME_LIMIT:
            err.errorinfo += "\n    (additional stack frames elided)"

    def _set_error_globals(self, err):
        """Maintain the ``errorInfo``/``errorCode`` globals (keeping any
        traces attached to existing scalar variables)."""
        gvars = self.global_frame.vars
        var = gvars.get("errorInfo")
        if var is not None and var.kind == _SCALAR:
            var.value = err.errorinfo
        else:
            gvars["errorInfo"] = _Var(_SCALAR, err.errorinfo)
        code = err.errorcode if err.errorcode is not None else "NONE"
        var = gvars.get("errorCode")
        if var is not None and var.kind == _SCALAR:
            var.value = code
        else:
            gvars["errorCode"] = _Var(_SCALAR, code)

    def _expr_cond(self, text):
        """The compiled condition for an expr string, memoised in the
        bytecode LRU beside the scripts."""
        key = ("expr", text)
        cond = self.bytecode_cache.get(key)
        if cond is None:
            cond = self.bytecode_cache.put(
                key, _compile.compile_cond(text, self))
        return cond

    def eval_expr_string(self, text):
        """Evaluate an expr string to its Tcl string result."""
        prog = self._expr_cond(text)[0]
        if prog is None:
            compile_expr(text)  # raises the parse error
        return format_number(_vm.run_expr(self, prog))

    def eval_expr_truth(self, text):
        """Evaluate an expr string as a condition (Tcl_ExprBoolean)."""
        return _vm.run_cond(self, self._expr_cond(text))

    # ------------------------------------------------------------------
    # Counter snapshots (the ``tcl.*`` sources of ``info stats``)

    def cache_stats(self):
        """Hit/miss/eviction counters for every evaluation cache.

        ``parse`` and ``bytecode`` are per-interpreter;
        ``expr`` is the process-wide AST cache shared by all
        interpreters.
        """
        return {
            "parse": self.parse_cache.stats(),
            "bytecode": self.bytecode_cache.stats(),
            "expr": _expr_ast_cache.stats(),
        }

    def reset_cache_stats(self):
        self.parse_cache.reset_stats()
        self.bytecode_cache.reset_stats()
        _expr_ast_cache.reset_stats()

    def clear_caches(self):
        """Drop all cached parses/compiles (the expr cache is global)."""
        self.parse_cache.clear()
        self.bytecode_cache.clear()
        _expr_ast_cache.clear()

    def eval_stats(self):
        """Counters for the fault-containment layer.

        ``trips_*`` count watchdog/recursion-limit activations by kind;
        ``firewall_catches`` counts Python exceptions converted to Tcl
        errors; ``peak_nesting`` is the deepest evaluation nesting seen
        since the last reset.
        """
        stats = {
            "cmd_count": self.cmd_count,
            "recursion_limit": self.recursion_limit,
            "peak_nesting": self._peak_nesting,
            "time_limit_ms": self.limit_time_ms,
            "command_limit": self.limit_commands,
            "firewall_catches": self.firewall_catches,
            "hidden_commands": len(self.hidden_commands),
        }
        for kind, count in self._limit_trips.items():
            stats["trips_" + kind] = count
        return stats

    def reset_eval_stats(self):
        self._peak_nesting = 0
        self.firewall_catches = 0
        self._limit_trips.update(dict.fromkeys(self._limit_trips, 0))

    def vm_stats(self):
        """The bytecode compiler's op counters."""
        return dict(self._vm_stats)

    def reset_vm_stats(self):
        self._vm_stats.update(dict.fromkeys(self._vm_stats, 0))

    # ------------------------------------------------------------------
    # Procedures

    def define_proc(self, name, formals, body):
        self.cmds_generation += 1
        self.procs[name] = Proc(name, formals, body)
        self.commands[name] = _call_proc

    def call_proc(self, proc, argv):
        frame = CallFrame(len(self.frames), proc_name=proc.name, argv=argv)
        formals = proc.formals
        args = argv[1:]
        i = 0
        for name, default in formals:
            if name == "args" and (name, default) == formals[-1]:
                from repro.tcl.lists import list_to_string

                frame.vars["args"] = _Var(_SCALAR, list_to_string(args[i:]))
                i = len(args)
                break
            if i < len(args):
                frame.vars[name] = _Var(_SCALAR, args[i])
                i += 1
            elif default is not None:
                frame.vars[name] = _Var(_SCALAR, default)
            else:
                raise TclError(
                    'no value given for parameter "%s" to "%s"' % (name, proc.name)
                )
        if i < len(args):
            raise TclError(
                'called "%s" with too many arguments' % proc.name
            )
        self.frames.append(frame)
        try:
            return self.eval(proc.body)
        except TclError as err:
            if err.frames < ERRORINFO_FRAME_LIMIT:
                err.errorinfo += '\n    (procedure "%s" line %d)' % (
                    proc.name, err.proc_line or 1)
            raise
        except TclReturn as ret:
            return ret.result
        except (TclBreak, TclContinue) as exc:
            raise TclError(str(exc))
        finally:
            self.frames.pop()

    # ------------------------------------------------------------------
    # Misc services

    def output(self, text):
        """Write program output (used by puts/echo)."""
        if self.write_output is not None:
            self.write_output(text)
        else:
            print(text, end="")

    def time_script(self, script, count):
        start = _time.perf_counter()
        for _ in range(count):
            self.eval(script)
        elapsed = _time.perf_counter() - start
        return int(elapsed * 1e6 / max(count, 1))


def _call_proc(interp, argv):
    proc = interp.procs.get(argv[0])
    if proc is None:
        raise TclError('invalid command name "%s"' % argv[0])
    return interp.call_proc(proc, argv)
