"""Bytecode representation for the Tcl VM.

The compile layer (``repro.tcl.compile``) lowers a parsed script to a
:class:`Code` object: a flat tuple of statement ops, each a plain tuple
whose first element is an opcode constant.  A command the VM does not
inline is an ``OP_CALL`` whose words use the same ``W_*`` descriptors
as the inlined statements' arguments (a fully-literal command carries
its argv precomputed instead); every inlined op keeps that ``OP_CALL``
as its deopt fallback.  Control constructs carry nested :class:`Code`
blocks (mirroring Tcl's "everything is a script" model), and ``expr``
conditions carry small stack programs.  The VM proper lives in
``repro.tcl.vm``; this module only defines the shapes plus a
disassembler for ``info bytecode disassemble``.

Inline caches
-------------

Statement ops that bind a command name carry a *cell*: a 4-slot mutable
list ``[cmds_generation, var_epoch, frame, var]``.  Slot 0 caches the
interpreter's command-table generation at the last successful binding
check (rename/proc/hide bump it, forcing re-resolution).  Slots 1-3
cache a variable lookup: the cell is valid only while the interp-wide
``var_epoch`` matches (``unset``/``upvar`` bump it) *and* the cached
frame is identical to the current one.  Word-level variable loads use a
3-slot cell ``[var_epoch, frame, var]``.  Cells start with impossible
values (-1 generations, ``None`` frame) so the first execution always
takes the slow path and fills them.
"""

# ----------------------------------------------------------------------
# Statement opcodes

OP_CALL = 0      # (OP_CALL, literal_argv, None, line) or
                 # (OP_CALL, None, words, line)
OP_SET = 1       # (OP_SET, cell, name, word, line, fallback, func)
OP_SETRD = 2     # (OP_SETRD, cell, name, line, fallback, func)
OP_INCR = 3      # (OP_INCR, cell, name, dconst, dword, dlit, line, fb, func)
OP_IF = 4        # (OP_IF, cell, clauses, else_code, text, line, fb, func)
OP_WHILE = 5     # (OP_WHILE, cell, cond, body, text, line, fb, func)
OP_FOR = 6       # (OP_FOR, cell, start, cond, next, body, text, line,
                 #  fb, func)
OP_FOREACH = 7   # (OP_FOREACH, cell, name, items, word, body, text,
                 #  line, fb, func)
OP_EXPR = 8      # (OP_EXPR, cell, prog, text, line, fb, func)

# ----------------------------------------------------------------------
# Word descriptors (OP_CALL words and inlined statements' arguments)

W_CONST = 0      # (W_CONST, value, int_or_None)
W_VAR = 1        # (W_VAR, cell, name) -- plain scalar $name
W_VARIDX = 2     # (W_VARIDX, (name, index_parts))
W_CMD = 3        # (W_CMD, script) -- [script], run through Interp.eval
W_CODE = 4       # (W_CODE, code) -- [script] with embedded Code
W_PARTS = 5      # (W_PARTS, parts) -- general multi-part word

# ----------------------------------------------------------------------
# Expr program opcodes (stack machine)

E_CONST = 0      # (E_CONST, value)
E_LOAD = 1       # (E_LOAD, cell, name) -- plain scalar $name
E_LOADX = 2      # (E_LOADX, (name, index_parts))
E_CMD = 3        # (E_CMD, script)
E_CODE = 4       # (E_CODE, code)
E_QUOTED = 5     # (E_QUOTED, pieces)
E_UNARY = 6      # (E_UNARY, op)
E_BIN = 7        # (E_BIN, op)
E_ADD = 8        # specialised binaries: int fast path, else _binary
E_SUB = 9
E_MUL = 10
E_LT = 11
E_GT = 12
E_LE = 13
E_GE = 14
E_EQ = 15
E_NE = 16
E_AND = 17       # (E_AND, target) -- pop; if false push 0, jump target
E_OR = 18        # (E_OR, target) -- pop; if true push 1, jump target
E_TRUTH = 19     # normalise top of stack to 1/0
E_JFALSE = 20    # (E_JFALSE, target) -- pop; jump if false
E_JUMP = 21      # (E_JUMP, target)
E_FUNC = 22      # (E_FUNC, name, argc)

# Fused condition compare codes (cond tuples carry (cell, name, cmp, const))
CMP_LT = 0
CMP_GT = 1
CMP_LE = 2
CMP_GE = 3
CMP_EQ = 4
CMP_NE = 5


def new_cell():
    """A fresh statement-op inline-cache cell (never valid initially)."""
    return [-1, -1, None, None]


def new_word_cell():
    """A fresh word-level variable cache cell."""
    return [-1, None, None]


class Code:
    """A compiled script: a tuple of statement ops plus provenance.

    ``execute`` runs the ops on the VM; ``Interp.eval`` calls it.
    """

    __slots__ = ("ops", "source", "inline_ops", "generic_ops")

    def __init__(self, ops, source="", inline_ops=0, generic_ops=0):
        self.ops = ops
        self.source = source
        self.inline_ops = inline_ops
        self.generic_ops = generic_ops

    def execute(self, interp):
        return _vm_run(interp, self)

    def __repr__(self):  # pragma: no cover - debugging aid
        return "Code(%d ops, %d inline/%d generic)" % (
            len(self.ops), self.inline_ops, self.generic_ops)


# ----------------------------------------------------------------------
# Disassembler

_OP_NAMES = {
    OP_CALL: "call",
    OP_SET: "set",
    OP_SETRD: "setrd",
    OP_INCR: "incr",
    OP_IF: "if",
    OP_WHILE: "while",
    OP_FOR: "for",
    OP_FOREACH: "foreach",
    OP_EXPR: "expr",
}

_E_NAMES = {
    E_CONST: "const",
    E_LOAD: "load",
    E_LOADX: "loadx",
    E_CMD: "cmdsub",
    E_CODE: "cmdcode",
    E_QUOTED: "quoted",
    E_UNARY: "unary",
    E_BIN: "binop",
    E_ADD: "add",
    E_SUB: "sub",
    E_MUL: "mul",
    E_LT: "lt",
    E_GT: "gt",
    E_LE: "le",
    E_GE: "ge",
    E_EQ: "eq",
    E_NE: "ne",
    E_AND: "and",
    E_OR: "or",
    E_TRUTH: "truth",
    E_JFALSE: "jfalse",
    E_JUMP: "jump",
    E_FUNC: "func",
}


def _describe_word(word):
    kind = word[0]
    if kind == W_CONST:
        return "const %r" % (word[1],)
    if kind == W_VAR:
        return "$%s" % word[2]
    if kind == W_VARIDX:
        return "$%s(...)" % word[1][0]
    if kind == W_CMD:
        return "[%s]" % _clip(word[1])
    if kind == W_CODE:
        return "[<code %d ops>]" % len(word[1].ops)
    return "parts %d" % len(word[1])


def _clip(text, limit=40):
    text = text.replace("\n", "\\n")
    if len(text) > limit:
        return text[: limit - 3] + "..."
    return text


def disassemble_expr(prog, indent=0):
    pad = "    " * indent
    lines = []
    for i, op in enumerate(prog):
        kind = op[0]
        name = _E_NAMES.get(kind, "?%r" % (kind,))
        detail = ""
        if kind in (E_CONST, E_UNARY, E_BIN, E_CMD):
            detail = " %r" % (_clip(op[1]) if isinstance(op[1], str)
                              else op[1],)
        elif kind == E_LOAD:
            detail = " $%s" % op[2]
        elif kind == E_LOADX:
            detail = " $%s(...)" % op[1][0]
        elif kind in (E_AND, E_OR, E_JFALSE, E_JUMP):
            detail = " -> %d" % op[1]
        elif kind == E_FUNC:
            detail = " %s/%d" % (op[1], op[2])
        lines.append(("%s%3d  %-7s%s" % (pad, i, name, detail)).rstrip())
        if kind == E_CODE:
            lines.append(disassemble(op[1], indent + 1))
    return "\n".join(lines)


def _describe_cond(cond, indent):
    prog, text = cond[0], cond[1]
    pad = "    " * indent
    if prog is None:
        return "%scond (uncompiled) %r" % (pad, _clip(text))
    marker = " [fused]" if cond[3] is not None else ""
    header = "%scond %r%s" % (pad, _clip(text), marker)
    return header + "\n" + disassemble_expr(prog, indent + 1)


def disassemble(code, indent=0):
    """Human-readable listing of a :class:`Code` object."""
    pad = "    " * indent
    lines = []
    if indent == 0:
        lines.append("bytecode for %r (%d inline, %d generic)" % (
            _clip(code.source, 60), code.inline_ops, code.generic_ops))
    for i, op in enumerate(code.ops):
        kind = op[0]
        name = _OP_NAMES.get(kind, "?%r" % (kind,))
        if kind == OP_CALL:
            words = op[2] if op[1] is None else [
                (W_CONST, arg, None) for arg in op[1]]
            lines.append("%s%3d  call     %s" % (
                pad, i, ", ".join(_describe_word(w) for w in words)))
        elif kind == OP_SET:
            lines.append("%s%3d  set      %s <- %s" % (
                pad, i, op[2], _describe_word(op[3])))
            if op[3][0] == W_CODE:
                lines.append(disassemble(op[3][1], indent + 1))
        elif kind == OP_SETRD:
            lines.append("%s%3d  set      %s (read)" % (pad, i, op[2]))
        elif kind == OP_INCR:
            if op[3] is not None:
                delta = str(op[3])
            elif op[4] is not None:
                delta = _describe_word(op[4])
            else:
                delta = "1"
            lines.append("%s%3d  incr     %s by %s" % (pad, i, op[2], delta))
        elif kind == OP_IF:
            lines.append("%s%3d  if" % (pad, i))
            for cond, body in op[2]:
                lines.append(_describe_cond(cond, indent + 1))
                lines.append(disassemble(body, indent + 2))
            if op[3] is not None:
                lines.append("%selse" % ("    " * (indent + 1)))
                lines.append(disassemble(op[3], indent + 2))
        elif kind == OP_WHILE:
            lines.append("%s%3d  while" % (pad, i))
            lines.append(_describe_cond(op[2], indent + 1))
            lines.append(disassemble(op[3], indent + 1))
        elif kind == OP_FOR:
            lines.append("%s%3d  for" % (pad, i))
            lines.append(disassemble(op[2], indent + 1))
            lines.append(_describe_cond(op[3], indent + 1))
            lines.append(disassemble(op[4], indent + 1))
            lines.append(disassemble(op[5], indent + 1))
        elif kind == OP_FOREACH:
            lines.append("%s%3d  foreach  %s in %s" % (
                pad, i,
                op[2],
                "const list" if op[3] is not None
                else _describe_word(op[4])))
            lines.append(disassemble(op[5], indent + 1))
        elif kind == OP_EXPR:
            lines.append("%s%3d  expr     %r" % (pad, i, _clip(op[3])))
            lines.append(disassemble_expr(op[2], indent + 1))
        else:  # pragma: no cover - future opcodes
            lines.append("%s%3d  %s" % (pad, i, name))
    return "\n".join(lines)


# Imported at the bottom so ``vm`` can import this module's constants
# first; ``repro.tcl.__init__`` loads ``interp`` (hence this chain)
# before any direct import of ``vm`` can happen.
from repro.tcl.vm import run as _vm_run  # noqa: E402
