"""Flow-sensitive lint rules W012..W017.

These rules run after the lexical passes (W001..W011), over the
basic-block graphs :mod:`repro.lint.cfg` builds and the solvers in
:mod:`repro.lint.dataflow`:

* W012 -- a variable is read on a path where *no* assignment can have
  reached it (forward may-assigned analysis).  Reported as an error:
  the interpreter would raise ``can't read "x": no such variable``.
* W013 -- a command no control-flow path reaches at all (both branches
  of an ``if`` return, say).  W010 already covers the within-block
  case of code following a terminator.
* W014 -- a ``set`` whose value is overwritten on every path before
  anything reads it (backward liveness with definite-kill).
* W015 -- a loop or branch condition that constant propagation proves
  always true or always false; an always-true loop with no reachable
  ``break`` can only stop at the eval limit (the PR-5 watchdog).
* W016 -- a widget handle used on some path after ``destroyWidget``
  (forward may-destroyed analysis, widget argument positions from the
  spec registry).
* W017 -- a user ``proc`` called with an argument count no definition
  of that proc accepts (flow-insensitive over the whole file, so a
  call above the definition still checks).

Every rule is tuned for zero false positives over genuine Wafe
scripts: unknown commands, ``eval``/``uplevel``/``source``, dynamic
variable names, and procs that might ``upvar`` all degrade to havoc
("anything may be assigned / read"), which silences the rule rather
than guessing.  Reads inside ``catch`` are exempt from W012/W016 --
probing with catch is how Wafe scripts legitimately test state.
"""

from repro.lint import cfg, dataflow
from repro.lint.diagnostics import ERROR, WARNING, Diagnostic
from repro.lint.regions import literal as _literal
from repro.tcl.compile import _fold_expr
from repro.tcl.errors import TclError
from repro.tcl.expr import compile_expr, is_true
from repro.tcl.lists import string_to_list
from repro.tcl.parser import CMDSUB, VARSUB, parse_script

#: Variables the runtime itself maintains, visible from the first
#: command of any script (repro.core seeds transferStatus; the
#: interpreter maintains errorInfo/errorCode).
ALWAYS_DEFINED = frozenset(("errorInfo", "errorCode", "transferStatus"))

#: Commands that evaluate dynamically-constructed scripts: anything may
#: be assigned or read behind them.
_HAVOC_COMMANDS = frozenset(("eval", "uplevel", "source", "subst"))

#: Builtins whose variable reads are fully visible in their parse tree
#: (no hidden ``upvar``-style access).  Any command outside this set
#: that is not spec-known is treated as possibly reading everything.
_VISIBLE_READERS = frozenset((
    "set", "unset", "incr", "append", "lappend", "puts", "expr",
    "return", "error", "break", "continue", "global", "upvar", "proc",
    "if", "while", "for", "foreach", "switch", "case", "catch", "time",
    "info", "string", "list", "llength", "lindex", "lrange", "linsert",
    "lsearch", "lsort", "split", "join", "concat", "format", "scan",
    "rename", "trace",
))

#: Structural commands the CFG builder already split into blocks: their
#: script arguments must not be re-walked as part of the statement.
_SPLIT_COMMANDS = frozenset((
    "if", "while", "for", "foreach", "catch", "time", "switch", "proc",
    "addWorkProc", "addTimeOut", "ownSelection",
    "setCommunicationVariable",
))

_MAX_EFFECT_DEPTH = 6


class Effects:
    """What one statement may do to variables.

    ``checked`` reads raise at runtime when the variable is unset
    (plain ``$x`` substitution); ``reads`` additionally includes
    auto-vivifying accesses (``lappend``/``append`` targets) that only
    matter for liveness.  ``writes`` are may-assignments, ``kills``
    are ``unset``s, ``havoc`` means "may assign anything", and
    ``reads_all`` means "may read anything" (kills liveness-based
    conclusions).  ``cmdsub`` records that a command substitution
    appears anywhere in the statement.
    """

    __slots__ = ("checked", "reads", "writes", "kills", "havoc",
                 "reads_all", "cmdsub")

    def __init__(self):
        self.checked = set()
        self.reads = set()
        self.writes = set()
        self.kills = set()
        self.havoc = False
        self.reads_all = False
        self.cmdsub = False

    def read(self, name, checked):
        base = name.split("(", 1)[0]
        self.reads.add(base)
        if checked:
            self.checked.add(base)


class _FlowContext:
    """File-wide facts shared by every graph's rule run."""

    def __init__(self, kb, filename, extra_commands=()):
        self.kb = kb
        self.filename = filename
        self.extra_commands = frozenset(extra_commands)
        #: proc name -> [(min_args, max_args_or_None), ...] per def.
        self.proc_defs = {}
        #: proc name -> (caller_writes, havoc) summary.
        self.proc_summaries = {}
        #: Communication/traced variables: assigned behind the
        #: frontend's back, so always-defined and never const-tracked.
        self.external_vars = set()
        self.rename_seen = False
        self.diagnostics = []
        self._effects = {}

    def report(self, code, message, line, col, severity):
        self.diagnostics.append(Diagnostic(
            code, message, file=self.filename, line=line, col=col,
            severity=severity))

    def always_defined(self):
        return ALWAYS_DEFINED | self.external_vars

    # -- effects extraction --------------------------------------------

    def effects_of(self, stmt):
        eff = self._effects.get(stmt)
        if eff is None:
            eff = self._effects[stmt] = self._compute_effects(stmt)
        return eff

    def _compute_effects(self, stmt):
        eff = Effects()
        if stmt.synthetic is not None:
            kind, payload = stmt.synthetic
            if kind in ("def", "assume"):
                eff.writes.add(payload)
            elif kind == "cond":
                self._expr_effects(payload, eff, 0, checked=True)
            return eff
        if stmt.havoc:
            eff.havoc = True
            eff.reads_all = True
            for word in stmt.words:
                self._word_effects(word, eff, 0, checked=True)
            return eff
        name = stmt.name
        if name in _SPLIT_COMMANDS:
            # Bodies/conds live in their own blocks and synthetic
            # statements; only substitution on the command line counts.
            for word in stmt.words:
                self._word_effects(word, eff, 0, checked=True)
            for i, cond in enumerate(stmt.cond_texts):
                # Only the first condition of an if-chain is evaluated
                # unconditionally on this path.
                self._expr_effects(cond, eff, 0, checked=(i == 0))
            return eff
        self._command_effects(name, stmt.words, eff, 0, checked=True)
        return eff

    def _word_effects(self, word, eff, depth, checked):
        if word.braced:
            return  # braces suppress all substitution
        self._part_effects(word.parts, eff, depth, checked)

    def _part_effects(self, parts, eff, depth, checked):
        for kind, payload in parts:
            if kind == VARSUB:
                name, index_parts = payload
                eff.read(name, checked)
                if index_parts:
                    self._part_effects(index_parts, eff, depth, checked)
            elif kind == CMDSUB:
                eff.cmdsub = True
                self._script_effects(payload, eff, depth + 1, checked)

    def _script_effects(self, script, eff, depth, checked):
        if depth > _MAX_EFFECT_DEPTH:
            eff.havoc = True
            eff.reads_all = True
            return
        try:
            commands = parse_script(script)
        except TclError:
            eff.havoc = True
            eff.reads_all = True
            return
        for command in commands:
            if not command.words:
                continue
            name = _literal(command.words[0])
            self._command_effects(name, command.words, eff, depth,
                                  checked)

    def _expr_effects(self, text, eff, depth, checked):
        try:
            ast = compile_expr(text)
        except TclError:
            return
        self._expr_node_effects(ast, eff, depth, checked)

    def _expr_node_effects(self, node, eff, depth, checked):
        kind = node[0]
        if kind == "varref":
            name, index_parts = node[1]
            if index_parts is None:
                eff.read(name, checked)
            else:
                eff.read(name, checked)
                self._part_effects(index_parts, eff, depth, checked)
        elif kind == "cmdref":
            eff.cmdsub = True
            self._script_effects(node[1], eff, depth + 1, checked)
        elif kind == "quoted":
            for piece in node[1]:
                if isinstance(piece, tuple):
                    self._expr_node_effects(piece, eff, depth, checked)
        elif kind == "unary":
            self._expr_node_effects(node[2], eff, depth, checked)
        elif kind == "binary":
            self._expr_node_effects(node[2], eff, depth, checked)
            self._expr_node_effects(node[3], eff, depth, checked)
        elif kind == "andor":
            self._expr_node_effects(node[2], eff, depth, checked)
            # The right arm may be skipped by short-circuit: a read
            # there is not guaranteed to happen on this path.
            self._expr_node_effects(node[3], eff, depth, False)
        elif kind == "ternary":
            self._expr_node_effects(node[1], eff, depth, checked)
            self._expr_node_effects(node[2], eff, depth, False)
            self._expr_node_effects(node[3], eff, depth, False)
        elif kind == "func":
            for arg in node[2]:
                self._expr_node_effects(arg, eff, depth, checked)

    def _command_effects(self, name, words, eff, depth, checked):
        """One command's effects (top-level statement or nested inside
        a command substitution)."""
        if name is None or name in _HAVOC_COMMANDS:
            eff.havoc = True
            eff.reads_all = True
            for word in words:
                self._word_effects(word, eff, depth, checked)
            return
        if name in _SPLIT_COMMANDS and depth > 0:
            if name == "catch":
                # [catch {...} msg] is the probing idiom: the body's
                # reads never raise, the message variable is assigned.
                for word in words:
                    self._word_effects(word, eff, depth, checked)
                if len(words) >= 2:
                    body = _literal(words[1])
                    if body is not None:
                        self._script_effects(body, eff, depth + 1,
                                             False)
                    else:
                        eff.havoc = True
                        eff.reads_all = True
                if len(words) >= 3:
                    msgvar = _literal(words[2])
                    if msgvar is not None:
                        eff.writes.add(msgvar)
                    else:
                        eff.havoc = True
                return
            # Control flow inside a command substitution: too dynamic
            # to model statement-by-statement.
            eff.havoc = True
            eff.reads_all = True
            for word in words:
                self._word_effects(word, eff, depth, checked)
            return
        for word in words:
            self._word_effects(word, eff, depth, checked)
        if name == "set":
            target = _literal(words[1]) if len(words) >= 2 else None
            if target is None:
                if len(words) >= 2:
                    eff.havoc = True  # dynamic variable name
            elif len(words) >= 3:
                eff.writes.add(target.split("(", 1)[0])
            else:
                eff.read(target, checked)
        elif name == "incr":
            target = _literal(words[1]) if len(words) >= 2 else None
            if target is None:
                eff.havoc = True
            else:
                eff.read(target, checked)
                eff.writes.add(target.split("(", 1)[0])
        elif name in ("append", "lappend"):
            target = _literal(words[1]) if len(words) >= 2 else None
            if target is None:
                eff.havoc = True
            else:
                # Auto-vivifies: a liveness read, never a checked one.
                eff.read(target, False)
                eff.writes.add(target.split("(", 1)[0])
        elif name == "unset":
            for word in words[1:]:
                target = _literal(word)
                if target is not None:
                    eff.kills.add(target.split("(", 1)[0])
        elif name in ("global", "upvar"):
            for word in words[1:]:
                target = _literal(word)
                if target is not None:
                    eff.writes.add(target.split("(", 1)[0])
        elif name == "scan":
            for word in words[3:]:
                target = _literal(word)
                if target is None:
                    eff.havoc = True
                else:
                    eff.writes.add(target)
        elif name in ("getValues", "gV"):
            for word in words[3::2]:
                target = _literal(word)
                if target is None:
                    eff.havoc = True
                else:
                    eff.writes.add(target)
        elif name == "expr":
            if all(word.braced or word.is_literal() for word in words[1:]):
                text = " ".join(_literal(word) for word in words[1:])
                self._expr_effects(text, eff, depth, checked)
        elif name in self.proc_defs:
            summary = self.proc_summaries.get(name)
            if summary is None or summary[1]:
                eff.havoc = True
            else:
                eff.writes.update(summary[0])
            eff.reads_all = True  # the proc may read globals
        elif name in self.extra_commands:
            eff.havoc = True
            eff.reads_all = True
        elif self.kb is not None and self.kb.command_known(name):
            for position in self.kb.out_var_positions(name):
                target = _literal(words[position]) \
                    if position < len(words) else None
                if target is None:
                    eff.havoc = True
                else:
                    eff.writes.add(target)
            if name not in _VISIBLE_READERS \
                    and not self.kb.out_var_positions(name) \
                    and name not in self.kb.wafe_commands \
                    and self.kb.creation_class(name) is None \
                    and self.kb.spec_arity(name) == (None, None):
                # A builtin outside the visible-reader whitelist: be
                # honest about not modeling it.
                eff.reads_all = True
        else:
            # Unknown command (W001's finding): total havoc.
            eff.havoc = True
            eff.reads_all = True


# ----------------------------------------------------------------------
# File-level orchestration


def analyze_flow(chunks, callbacks, kb, filename, extra_commands=()):
    """Run W012..W017 over one file's scripts.

    ``chunks`` are the top-level script regions in source order as
    ``(source, line, col, embedded)`` tuples, ``callbacks`` the
    callback-resource scripts the analyzer found as ``(source, line,
    col)`` tuples.  An ``embedded`` chunk was harvested out of a host
    program which may mutate interpreter state between chunks (pipes,
    ``set_var``), so its entry boundary is "anything may be defined".
    Returns the list of :class:`Diagnostic` findings.
    """
    ctx = _FlowContext(kb, filename, extra_commands)
    chunk_graphs = [cfg.build_graph(text, line, col)
                    for text, line, col, __ in chunks]
    embedded_flags = [embedded for __, __, __, embedded in chunks]
    callback_graphs = [cfg.build_graph(text, line, col,
                                       kind=cfg.CALLBACK,
                                       name="<callback>")
                       for text, line, col in callbacks]
    all_graphs = []
    for root in chunk_graphs + callback_graphs:
        all_graphs.extend(root.walk())

    _prescan(ctx, all_graphs)
    _summarize_procs(ctx, all_graphs)
    _check_proc_arity(ctx, all_graphs)

    assigned_before = set(ctx.always_defined())
    for graph, embedded in zip(chunk_graphs, embedded_flags):
        if embedded:
            boundary = assigned_before | {dataflow.SetUnion.EVERYTHING}
        else:
            boundary = set(assigned_before)
        _check_graph(ctx, graph, boundary=boundary)
        assigned_before |= _possible_defs(ctx, graph)
        for sub in graph.walk():
            if sub.kind == cfg.PROC:
                _check_graph(ctx, sub,
                             boundary=set(sub.params))
            elif sub is not graph:
                _check_graph(
                    ctx, sub,
                    boundary={dataflow.SetUnion.EVERYTHING})
    for graph in callback_graphs:
        for sub in graph.walk():
            if sub.kind == cfg.PROC:
                _check_graph(ctx, sub, boundary=set(sub.params))
            else:
                _check_graph(
                    ctx, sub,
                    boundary={dataflow.SetUnion.EVERYTHING})
    return ctx.diagnostics


def _prescan(ctx, graphs):
    """File-wide facts that must be known before any rule runs."""
    for graph in graphs:
        for stmt in graph.stmts():
            name = stmt.name
            if name == "rename":
                ctx.rename_seen = True
            elif name == "setCommunicationVariable" \
                    and len(stmt.words) >= 2:
                var = _literal(stmt.words[1])
                if var is not None:
                    ctx.external_vars.add(var)
            elif name == "trace" and len(stmt.words) >= 3 \
                    and _literal(stmt.words[1]) in ("variable", "vdelete"):
                var = _literal(stmt.words[2])
                if var is not None:
                    ctx.external_vars.add(var)
            elif name == "proc" and len(stmt.words) == 4:
                pname = _literal(stmt.words[1])
                formals_text = _literal(stmt.words[2])
                if pname is None or formals_text is None:
                    continue
                try:
                    formals = string_to_list(formals_text)
                except TclError:
                    continue
                min_args = 0
                max_args = len(formals)
                for formal in formals:
                    if formal == "args" and formal == formals[-1]:
                        max_args = None
                        continue
                    try:
                        pieces = string_to_list(formal)
                    except TclError:
                        pieces = [formal]
                    if len(pieces) < 2:
                        min_args += 1
                ctx.proc_defs.setdefault(pname, []).append(
                    (min_args, max_args))


def _summarize_procs(ctx, graphs):
    """Which caller/global variables can a proc call assign?

    A proc body that uses ``upvar``/``uplevel``/``eval`` (or calls
    another proc) may write anything in the caller -> havoc summary.
    A body that declares ``global`` may write the globals it assigns;
    everything else writes nothing outside its own frame.
    """
    for graph in graphs:
        if graph.kind != cfg.PROC:
            continue
        writes = set()
        havoc = False
        globals_declared = False
        for stmt in graph.stmts():
            name = stmt.name
            if stmt.havoc or name is None \
                    or name in ("upvar", "uplevel", "eval", "source") \
                    or name in ctx.proc_defs:
                havoc = True
                break
            if name == "global":
                globals_declared = True
                for word in stmt.words[1:]:
                    target = _literal(word)
                    if target is None:
                        havoc = True
                    else:
                        writes.add(target)
            if _has_cmdsub(stmt):
                # A command substitution can run anything.
                havoc = True
                break
        if havoc:
            summary = (set(), True)
        elif globals_declared:
            summary = (writes, False)
        else:
            summary = (set(), False)
        # Multiple defs of one name: merge pessimistically.
        previous = ctx.proc_summaries.get(graph.name)
        if previous is not None:
            summary = (previous[0] | summary[0],
                       previous[1] or summary[1])
        ctx.proc_summaries[graph.name] = summary


def _has_cmdsub(stmt):
    if stmt.words is None:
        return False
    stack = [word.parts for word in stmt.words if not word.braced]
    while stack:
        for kind, payload in stack.pop():
            if kind == CMDSUB:
                return True
            if kind == VARSUB and payload[1]:
                stack.append(payload[1])
    return False


def _possible_defs(ctx, graph):
    """Names a chunk may have assigned once it has run (its deferred
    scripts and callbacks included -- they may fire before the next
    chunk arrives)."""
    defs = set()
    for sub in graph.walk():
        if sub.kind == cfg.PROC:
            continue  # proc bodies only run via calls (summarized)
        for stmt in sub.stmts():
            eff = ctx.effects_of(stmt)
            if eff.havoc:
                return {dataflow.SetUnion.EVERYTHING}
            defs |= eff.writes
    return defs


# ----------------------------------------------------------------------
# W017 -- proc arity (flow-insensitive)


def _check_proc_arity(ctx, graphs):
    if ctx.rename_seen or not ctx.proc_defs:
        return
    for graph in graphs:
        for stmt in graph.stmts():
            defs = ctx.proc_defs.get(stmt.name or "")
            if defs is None:
                continue
            argc = len(stmt.words) - 1
            if any(minimum <= argc
                   and (maximum is None or argc <= maximum)
                   for minimum, maximum in defs):
                continue
            expected = sorted(set(
                _expected_text(minimum, maximum)
                for minimum, maximum in defs))
            ctx.report(
                "W017",
                'proc "%s" called with %d argument%s, expects %s'
                % (stmt.name, argc, "" if argc == 1 else "s",
                   " or ".join(expected)),
                stmt.line, stmt.col, ERROR)


def _expected_text(minimum, maximum):
    if maximum is None:
        return "at least %d" % minimum
    if minimum == maximum:
        return "%d" % minimum
    return "%d to %d" % (minimum, maximum)


# ----------------------------------------------------------------------
# Per-graph rules


def _check_graph(ctx, graph, boundary):
    reachable = dataflow.reachable_blocks(graph)
    _check_unreachable(ctx, graph, reachable)
    _check_use_before_set(ctx, graph, reachable, boundary)
    _check_dead_assignment(ctx, graph, reachable)
    _check_constant_conditions(ctx, graph, reachable)
    _check_destroyed_widgets(ctx, graph, reachable)


def _first_real_stmt(block):
    for stmt in block.stmts:
        if stmt.synthetic is None:
            return stmt
    return None


def _check_unreachable(ctx, graph, reachable):
    """W013: blocks no edge path reaches from the entry."""
    for block in graph.blocks:
        if block in reachable or block.after_terminator:
            continue
        stmt = _first_real_stmt(block)
        if stmt is None:
            continue
        # Suppress cascades: only the first unreachable block of a
        # region is interesting, and within-block followers of a
        # terminator are W010's report.
        covered = False
        for pred in block.preds:
            if pred not in reachable and _first_real_stmt(pred):
                covered = True
            elif pred.after_terminator and pred.stmts:
                covered = True
        if covered:
            continue
        ctx.report(
            "W013",
            'unreachable code: no control-flow path reaches "%s"'
            % (stmt.name or "this command"),
            stmt.line, stmt.col, WARNING)


def _check_use_before_set(ctx, graph, reachable, boundary):
    """W012: a checked read with no reaching assignment on any path."""
    problem = dataflow.SetUnion(
        gen=lambda stmt: ctx.effects_of(stmt).writes,
        kill=lambda stmt: ctx.effects_of(stmt).kills,
        boundary_names=boundary,
        havoc=lambda stmt: ctx.effects_of(stmt).havoc)
    states = dataflow.solve(graph, problem)
    always = ctx.always_defined()
    for block in graph.blocks:
        if block not in reachable or block.in_catch:
            continue
        for stmt, state in dataflow.stmt_states(problem, block,
                                                states[block]):
            eff = ctx.effects_of(stmt)
            for name in sorted(eff.checked):
                if problem.contains(state, name) or name in always:
                    continue
                ctx.report(
                    "W012",
                    'variable "%s" is read here but never assigned on '
                    "any path (can't read \"%s\" at runtime)"
                    % (name, name),
                    stmt.line, stmt.col, ERROR)


def _liveness_uses(ctx, stmt):
    eff = ctx.effects_of(stmt)
    return eff.reads, eff.reads_all or eff.havoc


def _definite_kills(ctx, stmt):
    """Names a statement unconditionally overwrites: only a literal
    scalar ``set name value`` qualifies."""
    if stmt.synthetic is not None or stmt.name != "set" \
            or stmt.havoc or len(stmt.words) != 3:
        return ()
    target = _literal(stmt.words[1])
    if target is None or "(" in target:
        return ()
    return (target,)


def _check_dead_assignment(ctx, graph, reachable):
    """W014: a stored value no path reads before its overwrite."""
    problem = dataflow.Liveness(
        uses=lambda stmt: _liveness_uses(ctx, stmt),
        defs=lambda stmt: _definite_kills(ctx, stmt),
        # Top-level and callback variables outlive the script; only a
        # pure proc frame truly dies at exit.
        boundary_all=not (graph.kind == cfg.PROC
                          and _proc_frame_is_private(ctx, graph)))
    states = dataflow.solve(graph, problem)
    external = ctx.external_vars
    for block in graph.blocks:
        if block not in reachable or block.in_catch:
            continue
        for stmt, state in dataflow.stmt_states(problem, block,
                                                states[block]):
            targets = _definite_kills(ctx, stmt)
            if not targets:
                continue
            target = targets[0]
            if target in external:
                continue  # traces read it behind our back
            eff = ctx.effects_of(stmt)
            if eff.cmdsub or eff.havoc:
                continue  # the value expression has side effects
            # Backward walk: ``state`` is the liveness *after* the
            # statement in program order.
            if not dataflow.Liveness.is_live(state, target):
                ctx.report(
                    "W014",
                    'value assigned to "%s" is never read (overwritten '
                    "or discarded on every path)" % target,
                    stmt.line, stmt.col, WARNING)


def _proc_frame_is_private(ctx, graph):
    """True when nothing can observe a proc's locals after it returns
    (no upvar/global/uplevel aliasing, no havoc, no nested commands)."""
    summary = ctx.proc_summaries.get(graph.name)
    if summary is None or summary[1] or summary[0]:
        return False
    for stmt in graph.stmts():
        if stmt.havoc or stmt.name in ("global", "upvar"):
            return False
    return True


# -- W015 ---------------------------------------------------------------

#: Bare-literal conditions people write deliberately (`if 0 {...}` is
#: the classic Tcl block-comment idiom; `while 1` is handled separately
#: through the no-break check).
_DELIBERATE_CONSTS = frozenset(
    ("0", "1", "true", "false", "yes", "no", "on", "off"))


def _const_effects(ctx, lattice, stmt, state):
    eff = ctx.effects_of(stmt)
    if eff.havoc or eff.cmdsub:
        lattice.wipe(state)
        return
    if eff.reads_all and eff.writes:
        # A command we cannot fully model that writes variables.
        lattice.wipe(state)
        return
    for name in eff.writes | eff.kills:
        state[name] = dataflow.NAC
    value = _simple_set_value(stmt)
    if value is not None and stmt.words is not None:
        target = _literal(stmt.words[1])
        if target not in ctx.external_vars:
            state[target] = value


def _simple_set_value(stmt):
    """The literal value of a plain scalar ``set name value``."""
    if stmt.synthetic is not None or stmt.name != "set" \
            or stmt.havoc or stmt.words is None or len(stmt.words) != 3:
        return None
    target = _literal(stmt.words[1])
    value = _literal(stmt.words[2])
    if target is None or "(" in target or value is None:
        return None
    return value


def _fold_condition(lattice, state, text):
    """Truth value of a condition under proven constants, or None."""
    try:
        ast = compile_expr(text)
    except TclError:
        return None
    folded = _fold_expr(_substitute_consts(lattice, state, ast))
    if folded[0] != "val":
        return None
    value = folded[1]
    if isinstance(value, (int, float)):
        return value != 0
    try:
        return is_true(value)
    except TclError:
        return None


def _substitute_consts(lattice, state, node):
    kind = node[0]
    if kind == "varref":
        name, index_parts = node[1]
        if index_parts is None:
            value = lattice.value_of(state, name)
            if value is not dataflow.NAC:
                return ("val", value)
        return node
    if kind == "unary":
        return (kind, node[1],
                _substitute_consts(lattice, state, node[2]))
    if kind in ("binary", "andor"):
        return (kind, node[1],
                _substitute_consts(lattice, state, node[2]),
                _substitute_consts(lattice, state, node[3]))
    if kind == "ternary":
        return (kind,
                _substitute_consts(lattice, state, node[1]),
                _substitute_consts(lattice, state, node[2]),
                _substitute_consts(lattice, state, node[3]))
    if kind == "func":
        return (kind, node[1],
                [_substitute_consts(lattice, state, arg)
                 for arg in node[2]])
    return node


def _check_constant_conditions(ctx, graph, reachable):
    """W015: conditions proven constant by simple const propagation."""
    if not graph.loops and not graph.branches:
        return
    lattice = dataflow.ConstLattice(
        lambda stmt, state: _const_effects(ctx, lattice, stmt, state))
    states = dataflow.solve(graph, lattice)
    # Expand to per-statement states for the statements that carry
    # conditions (branch statements may sit mid-block).
    cond_states = {}
    interesting = set()
    for info in graph.branches:
        interesting.add(info.stmt)
    for loop in graph.loops:
        interesting.add(loop.head.stmts[0] if loop.head.stmts else None)
    for block in graph.blocks:
        if block not in reachable:
            continue
        if not any(stmt in interesting for stmt in block.stmts):
            continue
        for stmt, state in dataflow.stmt_states(lattice, block,
                                                states[block]):
            if stmt in interesting:
                cond_states[stmt] = dict(state)
    for info in graph.branches:
        state = cond_states.get(info.stmt)
        if state is None:
            continue
        for text, line, col in info.conds:
            if text.strip().lower() in _DELIBERATE_CONSTS:
                continue
            truth = _fold_condition(lattice, state, text)
            if truth is not None:
                ctx.report(
                    "W015",
                    'condition "%s" is always %s'
                    % (text, "true" if truth else "false"),
                    line, col, WARNING)
    for loop in graph.loops:
        if loop.cond_text is None or loop.head not in reachable:
            continue
        head_stmt = loop.head.stmts[0] if loop.head.stmts else None
        state = cond_states.get(head_stmt)
        if state is None:
            continue
        truth = _fold_condition(lattice, state, loop.cond_text)
        if truth is False:
            ctx.report(
                "W015",
                'loop condition "%s" is always false: the body never '
                "runs" % loop.cond_text,
                loop.cond_line, loop.cond_col, WARNING)
        elif truth and not _loop_can_stop(ctx, loop, reachable):
            ctx.report(
                "W015",
                'loop condition "%s" is always true and the loop body '
                "contains no break: it can only stop at the eval limit"
                % loop.cond_text,
                loop.cond_line, loop.cond_col, WARNING)


def _loop_can_stop(ctx, loop, reachable):
    """Conservatively: can this constant-true loop terminate?"""
    for __, block in loop.breaks:
        if block in reachable:
            return True
    for block in loop.body_blocks:
        if block not in reachable:
            continue
        for stmt in block.stmts:
            if stmt.synthetic is not None:
                continue
            if stmt.name in ("return", "error"):
                return True
            eff = ctx.effects_of(stmt)
            if eff.havoc or eff.reads_all or eff.cmdsub:
                # eval/unknown/proc commands may break, return, or
                # raise; give the loop the benefit of the doubt.
                return True
    return False


# -- W016 ---------------------------------------------------------------


def _destroyed_gen(stmt):
    if stmt.name == "destroyWidget" and stmt.words is not None:
        return [name for name in (_literal(word)
                                  for word in stmt.words[1:])
                if name is not None]
    return ()


def _creation_kill(ctx, stmt):
    if stmt.words is None or stmt.name is None:
        return ()
    if ctx.kb is not None \
            and ctx.kb.creation_class(stmt.name) is not None \
            and len(stmt.words) >= 2:
        target = _literal(stmt.words[1])
        if target is not None:
            return (target,)
    return ()


def _check_destroyed_widgets(ctx, graph, reachable):
    """W016: a widget argument that may already be destroyed."""
    if ctx.kb is None:
        return
    problem = dataflow.SetUnion(
        gen=_destroyed_gen,
        kill=lambda stmt: _creation_kill(ctx, stmt))
    states = dataflow.solve(graph, problem)
    for block in graph.blocks:
        if block not in reachable or block.in_catch:
            continue
        for stmt, state in dataflow.stmt_states(problem, block,
                                                states[block]):
            if not state or stmt.name is None or stmt.words is None:
                continue
            for position in ctx.kb.widget_arg_positions(stmt.name):
                if position >= len(stmt.words):
                    continue
                handle = _literal(stmt.words[position])
                if handle is not None and handle in state:
                    ctx.report(
                        "W016",
                        'widget "%s" may already be destroyed when '
                        "used here (destroyWidget on a preceding path)"
                        % handle,
                        stmt.line, stmt.col, WARNING)
