"""Basic-block control-flow graphs for Wafe/Tcl scripts.

The flow-sensitive lint rules (W012..W017) need one structural fact:
*which commands can run before which*, under
``if``/``while``/``for``/``foreach``/``switch`` edges,
``break``/``continue`` loop exits, ``return``/``error`` aborts, and the
``catch`` firewall (which catches *every* abnormal exit code, so all
four terminators flow to the command after the ``catch``).  This
module builds that graph from parse trees without evaluating anything,
the same recursive-descent discipline as the analyzer: loop bodies are
visited once, nested script arguments become nested flow, and anything
not statically known degrades to a conservative havoc statement.

``proc`` bodies and deferred scripts (``addTimeOut``, ``addWorkProc``,
``ownSelection``, ``setCommunicationVariable`` transfer handlers)
execute in their own activation or at an unknown later time, so they
become separate sub-graphs, never edges of the enclosing graph.
"""

import re

from repro.tcl import parser as _parser
from repro.tcl.errors import TclError
from repro.tcl.lists import string_to_list

#: Nesting bound: graph construction on adversarial input terminates.
MAX_DEPTH = 50

#: Graph kinds.
TOPLEVEL = "toplevel"
PROC = "proc"
DEFERRED = "deferred"
CALLBACK = "callback"

_INFO_EXISTS = re.compile(r"\[\s*info\s+exists\s+([A-Za-z0-9_]+)\s*\]")


def _compose(base_line, base_col, rel_line, rel_col):
    if rel_line == 1:
        return base_line, base_col + rel_col - 1
    return base_line + rel_line - 1, rel_col


def _offset_of(text, line, col):
    pos = 0
    for __ in range(line - 1):
        newline = text.find("\n", pos)
        if newline < 0:
            return len(text)
        pos = newline + 1
    return min(pos + col - 1, len(text))


class Region:
    """A piece of script text anchored at an absolute file position."""

    __slots__ = ("text", "line", "col")

    def __init__(self, text, line=1, col=1):
        self.text = text
        self.line = line
        self.col = col

    def position(self, offset):
        rel_line, rel_col = _parser.line_col(self.text, offset)
        return _compose(self.line, self.col, rel_line, rel_col)

    def subregion(self, start, stop):
        line, col = self.position(start)
        return Region(self.text[start:stop], line, col)


class Stmt:
    """One command occurrence inside a basic block.

    ``synthetic`` marks statements the builder injects for effects the
    surrounding construct implies rather than spells out:

    * ``("def", name)`` -- the construct assigns ``name`` here (the
      ``foreach`` loop variable at body entry, a ``catch`` message
      variable after the catch);
    * ``("assume", name)`` -- ``name`` is known to exist on this path
      (the body of an ``if {[info exists name]}`` guard);
    * ``("cond", text)`` -- a loop condition re-evaluated at the loop
      head (``for``), carrying the condition's variable reads.

    ``havoc`` means the statement may run statically invisible code
    (non-literal loop body, ``eval``-family commands): dataflow clients
    must assume it can define or read anything.
    """

    __slots__ = ("words", "region", "pos", "line", "col", "name",
                 "synthetic", "havoc", "cond_texts")

    def __init__(self, words, region, pos, name=None, synthetic=None):
        self.words = words
        self.region = region
        self.pos = pos
        if region is not None:
            self.line, self.col = region.position(pos)
        else:
            self.line, self.col = 1, 1
        self.name = name
        self.synthetic = synthetic
        self.havoc = False
        #: Condition expression texts evaluated by this statement
        #: (``if``/``elseif`` chains, ``while``), for use extraction.
        self.cond_texts = ()

    def __repr__(self):  # pragma: no cover - debugging aid
        if self.synthetic is not None:
            return "Stmt(synthetic=%r)" % (self.synthetic,)
        return "Stmt(%r at %d:%d)" % (self.name, self.line, self.col)


class Block:
    """A basic block: straight-line statements, explicit edges."""

    __slots__ = ("bid", "stmts", "succs", "preds", "after_terminator",
                 "in_catch")

    def __init__(self, bid, in_catch=False):
        self.bid = bid
        self.stmts = []
        self.succs = []
        self.preds = []
        #: True when this block only exists because commands follow a
        #: ``return``/``break``/``continue``/``error`` in the same
        #: linear sequence -- W010's territory, skipped by W013.
        self.after_terminator = False
        self.in_catch = in_catch

    def edge(self, other):
        if other not in self.succs:
            self.succs.append(other)
            other.preds.append(self)


class LoopInfo:
    """One loop occurrence, for the constant-condition rule (W015)."""

    __slots__ = ("stmt", "kind", "cond_text", "cond_line", "cond_col",
                 "head", "after", "breaks", "body_blocks")

    def __init__(self, stmt, kind, cond_text, cond_line, cond_col,
                 head, after):
        self.stmt = stmt
        self.kind = kind
        self.cond_text = cond_text
        self.cond_line = cond_line
        self.cond_col = cond_col
        self.head = head
        self.after = after
        #: (stmt, block) pairs of ``break`` commands bound to this loop.
        self.breaks = []
        #: Blocks built for the loop body (nested flow included).
        self.body_blocks = ()


class BranchInfo:
    """One ``if`` occurrence: (cond_text, line, col) per clause."""

    __slots__ = ("stmt", "block", "conds")

    def __init__(self, stmt, block, conds):
        self.stmt = stmt
        self.block = block
        self.conds = conds


class Graph:
    """One control-flow graph plus its nested sub-graphs."""

    __slots__ = ("kind", "name", "entry", "exit", "blocks", "params",
                 "subgraphs", "loops", "branches", "region", "_next_bid")

    def __init__(self, kind, name, region, params=()):
        self.kind = kind
        self.name = name
        self.region = region
        self.params = tuple(params)
        self.blocks = []
        self.subgraphs = []
        self.loops = []
        self.branches = []
        self._next_bid = 0
        self.entry = self.new_block()
        self.exit = self.new_block()

    def new_block(self, in_catch=False):
        block = Block(self._next_bid, in_catch=in_catch)
        self._next_bid += 1
        self.blocks.append(block)
        return block

    def stmts(self):
        for block in self.blocks:
            for stmt in block.stmts:
                yield stmt

    def walk(self):
        """This graph and every nested sub-graph, depth-first."""
        yield self
        for sub in self.subgraphs:
            yield from sub.walk()


# ----------------------------------------------------------------------
# Construction

#: Abnormal-exit routing: where break/continue/return/error edges go.
#: ``catch`` rebinds all four to its continuation (it catches every
#: non-ok completion code); loops rebind break/continue only.
class _Context:
    __slots__ = ("brk", "cont", "ret", "err", "in_catch", "loop")

    def __init__(self, brk, cont, ret, err, in_catch, loop=None):
        self.brk = brk
        self.cont = cont
        self.ret = ret
        self.err = err
        self.in_catch = in_catch
        self.loop = loop  # the LoopInfo `break` statements bind to


def build_graph(source, line=1, col=1, kind=TOPLEVEL, name="<script>",
                params=()):
    """Build the CFG for a script region; returns a :class:`Graph`."""
    region = Region(source, line, col)
    graph = Graph(kind, name, region, params=params)
    builder = _Builder(graph)
    ctx = _Context(graph.exit, graph.exit, graph.exit, graph.exit, False)
    tail = builder.build_region(region, graph.entry, ctx, 0)
    tail.edge(graph.exit)
    return graph


class _Builder:
    def __init__(self, graph):
        self.graph = graph

    # -- shared parsing helpers (mirror the analyzer's region math) ----

    def _iter_commands(self, region):
        text = region.text
        pos = 0
        n = len(text)
        while pos < n:
            try:
                command, pos = _parser._parse_command(text, pos)
            except TclError as err:
                # Parse errors are W006's job (reported by the
                # analyzer); recover at the next line like it does.
                resume = pos
                if err.line is not None:
                    resume = max(resume,
                                 _offset_of(text, err.line, err.col))
                newline = text.find("\n", resume)
                if newline < 0:
                    return
                pos = newline + 1
                continue
            if command is not None and command.words:
                yield command

    @staticmethod
    def _literal(word):
        return word.literal_value() if word.is_literal() else None

    def _word_region(self, region, word, next_pos):
        text = region.text
        pos = word.pos
        if pos >= len(text):
            return None
        ch = text[pos]
        if ch == "{":
            end = _parser._skip_braces(text, pos)
            return region.subregion(pos + 1, end - 1)
        if ch == '"':
            end = _parser._skip_quotes(text, pos)
            return region.subregion(pos + 1, end - 1)
        return region.subregion(pos, next_pos)

    @staticmethod
    def _word_end(text, word):
        i = word.pos
        n = len(text)
        if i < n and text[i] in "{\"":
            return n
        while i < n and text[i] not in " \t\n;":
            if text[i] == "\\" and i + 1 < n:
                i += 2
            else:
                i += 1
        return i

    def _word_regions(self, region, parsed):
        regions = []
        words = parsed.words
        for i, word in enumerate(words):
            if i + 1 < len(words):
                next_pos = words[i + 1].pos
            else:
                next_pos = self._word_end(region.text, word)
            regions.append(self._word_region(region, word, next_pos))
        return regions

    # -- the recursive builder -----------------------------------------

    def build_region(self, region, current, ctx, depth):
        """Build ``region``'s flow starting in ``current``; returns the
        block control falls off into."""
        for command in self._iter_commands(region):
            words = command.words
            name = self._literal(words[0])
            stmt = Stmt(words, region, command.pos, name=name)
            if depth > MAX_DEPTH:
                stmt.havoc = True
                current.stmts.append(stmt)
                continue
            handler = _STRUCTURAL.get(name)
            if handler is not None:
                current = handler(self, region, command, stmt, current,
                                  ctx, depth)
            else:
                current.stmts.append(stmt)
        return current

    def _subflow(self, sub_region, pred, ctx, depth, in_catch=None):
        """A nested script region as blocks: returns (entry, tail)."""
        entry = self.graph.new_block(
            in_catch=ctx.in_catch if in_catch is None else in_catch)
        pred.edge(entry)
        tail = self.build_region(sub_region, entry, ctx, depth + 1)
        return entry, tail

    def _subgraph(self, sub_region, kind, name, params=()):
        graph = build_graph(sub_region.text, sub_region.line,
                            sub_region.col, kind=kind, name=name,
                            params=params)
        self.graph.subgraphs.append(graph)

    # -- structural command handlers -----------------------------------

    def _handle_if(self, region, command, stmt, current, ctx, depth):
        words = command.words
        regions = self._word_regions(region, command)
        # Walk the clause structure; bail to a havoc statement on any
        # shape the interpreter would have to discover dynamically.
        n = len(words)
        i = 1
        clauses = []      # (cond_text, cond_line, cond_col, body_region)
        else_region = None
        ok = True
        while ok:
            if i >= n:
                ok = False
                break
            cond_text = self._literal(words[i])
            cond_pos = words[i].pos
            i += 1
            if i < n and self._literal(words[i]) == "then":
                i += 1
            if i >= n or cond_text is None:
                ok = False
                break
            body = regions[i] if words[i].braced or words[i].is_literal() \
                else None
            if body is None:
                ok = False
                break
            cline, ccol = region.position(cond_pos)
            clauses.append((cond_text, cline, ccol, body))
            i += 1
            if i >= n:
                break
            keyword = self._literal(words[i])
            if keyword == "elseif":
                i += 1
                continue
            if keyword == "else":
                i += 1
            if i != n - 1:
                ok = False
                break
            else_region = regions[i] if (words[i].braced
                                         or words[i].is_literal()) else None
            if else_region is None:
                ok = False
            break
        if not ok:
            stmt.havoc = True
            current.stmts.append(stmt)
            return current
        stmt.cond_texts = tuple(c[0] for c in clauses)
        current.stmts.append(stmt)
        self.graph.branches.append(BranchInfo(
            stmt, current, [(c[0], c[1], c[2]) for c in clauses]))
        join = self.graph.new_block(in_catch=ctx.in_catch)
        for cond_text, __, __unused, body in clauses:
            entry, tail = self._subflow(body, current, ctx, depth)
            for guarded in _INFO_EXISTS.findall(cond_text):
                entry.stmts.insert(0, Stmt(
                    None, region, command.pos,
                    synthetic=("assume", guarded)))
            tail.edge(join)
        if else_region is not None:
            __, tail = self._subflow(else_region, current, ctx, depth)
            tail.edge(join)
        else:
            current.edge(join)
        return join

    def _handle_while(self, region, command, stmt, current, ctx, depth):
        words = command.words
        regions = self._word_regions(region, command)
        cond_text = self._literal(words[1]) if len(words) == 3 else None
        body = regions[2] if len(words) == 3 and (
            words[2].braced or words[2].is_literal()) else None
        if cond_text is None or body is None:
            stmt.havoc = True
            current.stmts.append(stmt)
            return current
        stmt.cond_texts = (cond_text,)
        head = self.graph.new_block(in_catch=ctx.in_catch)
        current.edge(head)
        head.stmts.append(stmt)  # the condition re-evaluates here
        after = self.graph.new_block(in_catch=ctx.in_catch)
        cline, ccol = region.position(words[1].pos)
        loop = LoopInfo(stmt, "while", cond_text, cline, ccol, head,
                        after)
        self.graph.loops.append(loop)
        body_ctx = _Context(after, head, ctx.ret, ctx.err, ctx.in_catch,
                            loop=loop)
        body_start = len(self.graph.blocks)
        __, tail = self._subflow(body, head, body_ctx, depth)
        loop.body_blocks = tuple(self.graph.blocks[body_start:])
        tail.edge(head)
        head.edge(after)
        return after

    def _handle_for(self, region, command, stmt, current, ctx, depth):
        words = command.words
        regions = self._word_regions(region, command)
        if len(words) != 5 or any(r is None for r in regions[1:]) or \
                not all(w.braced or w.is_literal() for w in words[1:]):
            stmt.havoc = True
            current.stmts.append(stmt)
            return current
        current.stmts.append(stmt)
        # Start script runs once, inline (break/continue propagate out).
        current = self.build_region(regions[1], current, ctx, depth + 1)
        cond_text = regions[2].text
        head = self.graph.new_block(in_catch=ctx.in_catch)
        current.edge(head)
        cond_stmt = Stmt(None, region, words[2].pos,
                         synthetic=("cond", cond_text))
        cond_stmt.cond_texts = (cond_text,)
        head.stmts.append(cond_stmt)
        after = self.graph.new_block(in_catch=ctx.in_catch)
        cline, ccol = region.position(words[2].pos)
        loop = LoopInfo(stmt, "for", cond_text, cline, ccol, head, after)
        self.graph.loops.append(loop)
        body_start = len(self.graph.blocks)
        next_entry = self.graph.new_block(in_catch=ctx.in_catch)
        body_ctx = _Context(after, next_entry, ctx.ret, ctx.err,
                            ctx.in_catch, loop=loop)
        __, body_tail = self._subflow(regions[4], head, body_ctx, depth)
        body_tail.edge(next_entry)
        next_tail = self.build_region(regions[3], next_entry, ctx,
                                      depth + 1)
        loop.body_blocks = tuple(self.graph.blocks[body_start:])
        next_tail.edge(head)
        head.edge(after)
        return after

    def _handle_foreach(self, region, command, stmt, current, ctx,
                        depth):
        words = command.words
        regions = self._word_regions(region, command)
        var = self._literal(words[1]) if len(words) == 4 else None
        body = regions[3] if len(words) == 4 and (
            words[3].braced or words[3].is_literal()) else None
        if var is None or body is None:
            stmt.havoc = True
            current.stmts.append(stmt)
            return current
        current.stmts.append(stmt)  # the list word substitutes once
        head = self.graph.new_block(in_catch=ctx.in_catch)
        current.edge(head)
        after = self.graph.new_block(in_catch=ctx.in_catch)
        loop = LoopInfo(stmt, "foreach", None, stmt.line, stmt.col,
                        head, after)
        self.graph.loops.append(loop)
        body_ctx = _Context(after, head, ctx.ret, ctx.err, ctx.in_catch,
                            loop=loop)
        body_start = len(self.graph.blocks)
        entry, tail = self._subflow(body, head, body_ctx, depth)
        loop.body_blocks = tuple(self.graph.blocks[body_start:])
        # The loop variable is only assigned when the list is non-empty,
        # so the definition sits on the head->body edge, not the head.
        entry.stmts.insert(0, Stmt(None, region, command.pos,
                                   synthetic=("def", var)))
        tail.edge(head)
        head.edge(after)
        return after

    def _handle_catch(self, region, command, stmt, current, ctx, depth):
        words = command.words
        regions = self._word_regions(region, command)
        body = regions[1] if len(words) in (2, 3) and (
            words[1].braced or words[1].is_literal()) else None
        if body is None:
            stmt.havoc = True
            current.stmts.append(stmt)
            return current
        current.stmts.append(stmt)
        after = self.graph.new_block(in_catch=ctx.in_catch)
        # ``catch`` returns the completion code of *any* abnormal exit:
        # break/continue/return/error inside all land here.  The direct
        # current->after edge models "the body aborted at its first
        # command" (any partial prefix joins to a superset of that).
        body_ctx = _Context(after, after, after, after, True)
        __, tail = self._subflow(body, current, body_ctx, depth,
                                 in_catch=True)
        tail.edge(after)
        current.edge(after)
        if len(words) == 3:
            msgvar = self._literal(words[2])
            if msgvar is not None:
                after.stmts.append(Stmt(None, region, command.pos,
                                        synthetic=("def", msgvar)))
        return after

    def _handle_time(self, region, command, stmt, current, ctx, depth):
        words = command.words
        regions = self._word_regions(region, command)
        body = regions[1] if len(words) in (2, 3) and (
            words[1].braced or words[1].is_literal()) else None
        if body is None:
            stmt.havoc = True
            current.stmts.append(stmt)
            return current
        current.stmts.append(stmt)
        after = self.graph.new_block(in_catch=ctx.in_catch)
        entry, tail = self._subflow(body, current, ctx, depth)
        tail.edge(entry)  # the body repeats ``count`` times
        tail.edge(after)
        current.edge(after)  # count may be 0
        return after

    def _handle_switch(self, region, command, stmt, current, ctx, depth):
        words = command.words
        regions = self._word_regions(region, command)
        i = 1
        while i < len(words):
            literal = self._literal(words[i])
            if literal is None or not literal.startswith("-"):
                break
            i += 1
        i += 1  # the string being matched
        bodies = []
        rest = words[i:]
        if len(rest) == 1 and rest[0].braced and regions[i] is not None:
            sub = regions[i]
            try:
                items = string_to_list(sub.text)
            except TclError:
                items = []
            for j in range(1, len(items), 2):
                if items[j] != "-":
                    bodies.append(Region(items[j], sub.line, sub.col))
        else:
            for j in range(i + 1, len(words), 2):
                if j < len(regions) and regions[j] is not None \
                        and self._literal(words[j]) != "-":
                    bodies.append(regions[j])
        current.stmts.append(stmt)
        if not bodies:
            return current
        join = self.graph.new_block(in_catch=ctx.in_catch)
        for body in bodies:
            __, tail = self._subflow(body, current, ctx, depth)
            tail.edge(join)
        # No-match (or non-literal default) falls through.
        current.edge(join)
        return join

    def _handle_proc(self, region, command, stmt, current, ctx, depth):
        words = command.words
        current.stmts.append(stmt)
        if len(words) != 4:
            return current
        name = self._literal(words[1])
        formals_text = self._literal(words[2])
        body = self._word_region(region, words[3],
                                 self._word_end(region.text, words[3]))
        if name is None or formals_text is None or body is None:
            return current
        try:
            formals = string_to_list(formals_text)
        except TclError:
            return current
        params = []
        for formal in formals:
            try:
                pieces = string_to_list(formal)
            except TclError:
                pieces = [formal]
            if pieces:
                params.append(pieces[0])
        self._subgraph(body, PROC, name, params=params)
        return current

    def _terminator(self, stmt, current, ctx, target_attr):
        current.stmts.append(stmt)
        current.edge(getattr(ctx, target_attr))
        if target_attr == "brk" and ctx.loop is not None:
            ctx.loop.breaks.append((stmt, current))
        follower = self.graph.new_block(in_catch=ctx.in_catch)
        follower.after_terminator = True
        return follower

    def _handle_return(self, region, command, stmt, current, ctx, depth):
        return self._terminator(stmt, current, ctx, "ret")

    def _handle_error(self, region, command, stmt, current, ctx, depth):
        return self._terminator(stmt, current, ctx, "err")

    def _handle_break(self, region, command, stmt, current, ctx, depth):
        return self._terminator(stmt, current, ctx, "brk")

    def _handle_continue(self, region, command, stmt, current, ctx,
                         depth):
        return self._terminator(stmt, current, ctx, "cont")

    def _handle_deferred(self, region, command, stmt, current, ctx,
                         depth):
        current.stmts.append(stmt)
        script_index = _DEFERRED_SCRIPT_ARG[stmt.name]
        words = command.words
        if script_index < len(words):
            regions = self._word_regions(region, command)
            sub = regions[script_index]
            if sub is not None and (words[script_index].braced
                                    or words[script_index].is_literal()):
                self._subgraph(sub, DEFERRED, stmt.name)
        return current


#: Commands whose Nth word is a script that runs at an unknown later
#: time (so it becomes a separate graph, never an edge).
_DEFERRED_SCRIPT_ARG = {
    "addWorkProc": 1,
    "addTimeOut": 2,
    "ownSelection": 3,
    "setCommunicationVariable": 3,
}

_STRUCTURAL = {
    "if": _Builder._handle_if,
    "while": _Builder._handle_while,
    "for": _Builder._handle_for,
    "foreach": _Builder._handle_foreach,
    "catch": _Builder._handle_catch,
    "time": _Builder._handle_time,
    "switch": _Builder._handle_switch,
    "proc": _Builder._handle_proc,
    "return": _Builder._handle_return,
    "error": _Builder._handle_error,
    "break": _Builder._handle_break,
    "continue": _Builder._handle_continue,
    "addWorkProc": _Builder._handle_deferred,
    "addTimeOut": _Builder._handle_deferred,
    "ownSelection": _Builder._handle_deferred,
    "setCommunicationVariable": _Builder._handle_deferred,
}
