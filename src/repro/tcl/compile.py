"""The script -> bytecode compiler (the VM front end).

The parser produces a substitution-free tree; this module lowers it to
a :class:`repro.tcl.bytecode.Code` object.  Two observations drive the
design:

* Most words in real Wafe scripts are pure literals, so most commands
  have a fully-literal argv that can be computed **once** at compile
  time.  Execution then skips word-walking entirely and goes straight
  to dispatch.
* Commands are looked up by name **at call time**, never bound at
  compile time: ``proc`` redefinition, ``rename``, and the ``unknown``
  fallback must behave identically whether or not a script was cached.
  A generic ``OP_CALL`` therefore stores strings and word descriptors,
  not function objects, and routes through :meth:`Interp.call`.

Every command becomes an ``OP_CALL`` unless it is one of the hot
builtins the VM inlines (set/incr/expr and the control constructs);
an inlined op carries its ``OP_CALL`` as the deopt fallback.
``Interp`` memoises whole scripts' bytecode in a per-interp LRU keyed
on the script text (``eval`` of a repeated callback string skips parse
*and* compile).
"""

from repro.tcl import bytecode as _bc
from repro.tcl import parser as _parser
from repro.tcl.errors import TclError
from repro.tcl.expr import (
    _binary,
    _truth,
    call_math_func,
    compile_expr,
    unary_op,
)
from repro.tcl.lists import string_to_list

__all__ = [
    "compile_cond",
    "compile_script_bytecode",
]


def _plain_name(name):
    """True when ``name`` is not an ``a(b)`` array reference.

    Mirrors :func:`repro.tcl.interp.split_varname`'s test so the fast
    paths and the slow paths agree on which names are scalars.
    """
    return not (name.endswith(")") and "(" in name)


def _literal_argv(words):
    argv = []
    for word in words:
        if not word.is_literal():
            return None
        argv.append(word.literal_value())
    return argv


def _try_compile_block(script, interp):
    """Compile a nested body; None when it does not parse (stay lazy)."""
    try:
        parsed = interp.parse_cache.get(script)
    except TclError:
        return None
    return compile_script_bytecode(parsed, script, interp)


def _emit_word(word):
    """The word descriptor of a command word; ``[script]`` stays lazy
    (W_CMD runs through ``Interp.eval`` and its bytecode cache)."""
    parts = word.parts
    if len(parts) == 1:
        kind, payload = parts[0]
        if kind == _parser.LITERAL:
            return (_bc.W_CONST, payload, None)
        if kind == _parser.VARSUB:
            name, index_parts = payload
            if index_parts is not None:
                return (_bc.W_VARIDX, payload)
            if _plain_name(name):
                return (_bc.W_VAR, _bc.new_word_cell(), name)
            return (_bc.W_PARTS, parts)  # ${a(b)}: get_var must split
        return (_bc.W_CMD, payload)
    return (_bc.W_PARTS, parts)


def _emit_call(cmd, line):
    """The generic ``OP_CALL`` for a parsed command.

    A fully-literal command with a non-empty name carries its argv
    precomputed; anything else carries its word descriptors (an empty
    command name then evaluates to "" without dispatch).
    """
    argv = _literal_argv(cmd.words)
    if argv is not None and argv[0]:
        return (_bc.OP_CALL, tuple(argv), None, line)
    return (_bc.OP_CALL, None, tuple(_emit_word(w) for w in cmd.words), line)


def _emit_value_word(word, interp):
    """A word descriptor for an argument position (set value, incr
    delta, foreach list): may be dynamic without blocking inlining.
    Integer literals carry their value and ``[script]`` is compiled in
    place when it parses."""
    desc = _emit_word(word)
    kind = desc[0]
    if kind == _bc.W_CONST:
        payload = desc[1]
        try:
            num = int(payload)
        except ValueError:
            return desc
        if str(num) == payload:
            return (_bc.W_CONST, payload, num)
        return desc
    if kind == _bc.W_CMD:
        code = _try_compile_block(desc[1], interp)
        if code is not None:
            return (_bc.W_CODE, code)
    return desc


# ----------------------------------------------------------------------
# Inline ops
#
# Statement-level compilation for the hot builtins (set/incr/expr and
# the control constructs).  An inline op is emitted only when
#
# * the command name is literal and bound to the expected builtin *at
#   compile time* (a different binding means someone already renamed
#   it; the op would deopt on every execution),
# * the words the construct consumes structurally (variable names,
#   loop bodies, conditions) are literal with the right arity, exactly
#   as the builtin itself would see them, and
# * nested bodies parse -- an unparseable body falls back to the
#   builtin so "a loop that never runs never parses its body" holds.
#
# Every inline op carries its ``OP_CALL`` as the fallback; the VM
# dispatches it whenever the command binding check fails, so ``rename
# set assign`` behaves identically on cached bytecode.

def _scalar_name(words, i):
    """The literal scalar variable name at word ``i``, or None."""
    if not words[i].is_literal():
        return None
    name = words[i].literal_value()
    if not _plain_name(name):
        return None
    return name


def _emit_set(cmd, line, interp, func):
    words = cmd.words
    if len(words) not in (2, 3):
        return None
    name = _scalar_name(words, 1)
    if name is None:
        return None
    fallback = _emit_call(cmd, line)
    if len(words) == 2:
        return (_bc.OP_SETRD, _bc.new_cell(), name, line, fallback, func)
    word = _emit_value_word(words[2], interp)
    return (_bc.OP_SET, _bc.new_cell(), name, word, line, fallback, func)


def _emit_incr(cmd, line, interp, func):
    words = cmd.words
    if len(words) not in (2, 3):
        return None
    name = _scalar_name(words, 1)
    if name is None:
        return None
    dconst = None
    dword = None
    dlit = None
    if len(words) == 3:
        if words[2].is_literal():
            dlit = words[2].literal_value()
            try:
                dconst = int(dlit)
            except ValueError:
                return None  # the OP_CALL raises the exact incr error
        else:
            dword = _emit_value_word(words[2], interp)
    fallback = _emit_call(cmd, line)
    return (_bc.OP_INCR, _bc.new_cell(), name, dconst, dword, dlit,
            line, fallback, func)


def _emit_expr(cmd, line, interp, func):
    argv = _literal_argv(cmd.words)
    if argv is None or len(argv) < 2:
        return None
    text = argv[1] if len(argv) == 2 else " ".join(argv[1:])
    try:
        ast = compile_expr(text)
    except TclError:
        return None  # the OP_CALL reports the parse error per call
    prog = _compile_expr_program(ast, interp)
    fallback = _emit_call(cmd, line)
    frame_text = " ".join(argv)[:150]
    return (_bc.OP_EXPR, _bc.new_cell(), prog, frame_text, line,
            fallback, func)


def _emit_if(cmd, line, interp, func):
    argv = _literal_argv(cmd.words)
    if argv is None:
        return None
    # Mirror cmd_if's argument walk; any shape where the walk could
    # raise wrong-#-args for *some* condition outcome stays generic so
    # the builtin produces its exact (lazily-discovered) errors.
    n = len(argv)
    i = 1
    clauses = []
    else_code = None
    while True:
        if i >= n:
            return None
        condition = argv[i]
        i += 1
        if i < n and argv[i] == "then":
            i += 1
        if i >= n:
            return None
        body = argv[i]
        i += 1
        body_code = _try_compile_block(body, interp)
        if body_code is None:
            return None
        clauses.append((compile_cond(condition, interp), body_code))
        if i >= n:
            break
        if argv[i] == "elseif":
            i += 1
            continue
        if argv[i] == "else":
            i += 1
        if i >= n or i != n - 1:
            return None
        else_code = _try_compile_block(argv[i], interp)
        if else_code is None:
            return None
        break
    fallback = _emit_call(cmd, line)
    text = " ".join(argv)[:150]
    return (_bc.OP_IF, _bc.new_cell(), tuple(clauses), else_code, text,
            line, fallback, func)


def _emit_while(cmd, line, interp, func):
    argv = _literal_argv(cmd.words)
    if argv is None or len(argv) != 3:
        return None
    body_code = _try_compile_block(argv[2], interp)
    if body_code is None:
        return None
    cond = compile_cond(argv[1], interp)
    fallback = _emit_call(cmd, line)
    text = " ".join(argv)[:150]
    return (_bc.OP_WHILE, _bc.new_cell(), cond, body_code, text, line,
            fallback, func)


def _emit_for(cmd, line, interp, func):
    argv = _literal_argv(cmd.words)
    if argv is None or len(argv) != 5:
        return None
    start_code = _try_compile_block(argv[1], interp)
    next_code = _try_compile_block(argv[3], interp)
    body_code = _try_compile_block(argv[4], interp)
    if start_code is None or next_code is None or body_code is None:
        return None
    cond = compile_cond(argv[2], interp)
    fallback = _emit_call(cmd, line)
    text = " ".join(argv)[:150]
    return (_bc.OP_FOR, _bc.new_cell(), start_code, cond, next_code,
            body_code, text, line, fallback, func)


def _emit_foreach(cmd, line, interp, func):
    words = cmd.words
    if len(words) != 4:
        return None
    name = _scalar_name(words, 1)
    if name is None:
        return None
    if not words[3].is_literal():
        return None
    body_code = _try_compile_block(words[3].literal_value(), interp)
    if body_code is None:
        return None
    items = None
    text = None
    if words[2].is_literal():
        literal = words[2].literal_value()
        list_word = (_bc.W_CONST, literal, None)
        try:
            items = tuple(string_to_list(literal))
        except TclError:
            items = None  # the VM re-parses and raises like the builtin
        text = " ".join(
            ("foreach", name, literal, words[3].literal_value()))[:150]
    else:
        list_word = _emit_value_word(words[2], interp)
    fallback = _emit_call(cmd, line)
    return (_bc.OP_FOREACH, _bc.new_cell(), name, items, list_word,
            body_code, text, line, fallback, func)


# ----------------------------------------------------------------------
# Conditions and expr programs

_E_BINOP = {
    "+": _bc.E_ADD,
    "-": _bc.E_SUB,
    "*": _bc.E_MUL,
    "<": _bc.E_LT,
    ">": _bc.E_GT,
    "<=": _bc.E_LE,
    ">=": _bc.E_GE,
    "==": _bc.E_EQ,
    "!=": _bc.E_NE,
}

_CMP_FROM_E = {
    _bc.E_LT: _bc.CMP_LT,
    _bc.E_GT: _bc.CMP_GT,
    _bc.E_LE: _bc.CMP_LE,
    _bc.E_GE: _bc.CMP_GE,
    _bc.E_EQ: _bc.CMP_EQ,
    _bc.E_NE: _bc.CMP_NE,
}


def compile_cond(text, interp):
    """A condition tuple ``(prog, text, fallback_word, fused)``.

    ``fused`` is ``(cell, cmp, intconst)`` when the condition is
    ``$var <cmp> intconst``: ``run_cond`` then compares the variable's
    cached integer directly.  ``prog`` None means the text does not
    parse as an expression; the VM then reproduces the bare-boolean-word
    fallback, or re-raises the parse error, on every evaluation.
    ``Interp.eval_expr_string`` and ``eval_expr_truth`` cache this tuple
    in the bytecode LRU, so inline ops and the ``expr``/``if``/loop
    builtins run one evaluator.
    """
    stripped = text.strip()
    fallback_word = stripped if (stripped and stripped.isalnum()) else None
    try:
        ast = compile_expr(text)
    except TclError:
        return (None, text, fallback_word, None)
    prog = _compile_expr_program(ast, interp)
    fused = None
    if (len(prog) == 3 and prog[0][0] == _bc.E_LOAD
            and prog[1][0] == _bc.E_CONST and type(prog[1][1]) is int):
        cmp = _CMP_FROM_E.get(prog[2][0])
        if cmp is not None:
            fused = (prog[0][1], cmp, prog[1][1])
    return (prog, text, fallback_word, fused)


def _fold_expr(node):
    """Compile-time constant folding over the expr AST.

    Folds only when the operation succeeds; any folding error keeps the
    node so evaluation fails at run time exactly as the tree walker
    does: ``1/0`` must fail per evaluation, not at compile, and a
    Python fault such as the OverflowError of ``1<<(1<<70)`` must reach
    the inline op's firewall, and only if that branch runs.
    Short-circuit folding keeps the lazy semantics: a constant-false
    ``&&`` left arm drops the right arm entirely, just as the walker
    never evaluates it.
    """
    kind = node[0]
    if kind == "unary":
        a = _fold_expr(node[2])
        if a[0] == "val":
            try:
                return ("val", unary_op(node[1], a[1]))
            except Exception:  # noqa: BLE001
                pass
        return ("unary", node[1], a)
    if kind == "binary":
        a = _fold_expr(node[2])
        b = _fold_expr(node[3])
        if a[0] == "val" and b[0] == "val":
            try:
                return ("val", _binary(node[1], a[1], b[1]))
            except Exception:  # noqa: BLE001
                pass
        return ("binary", node[1], a, b)
    if kind == "andor":
        a = _fold_expr(node[2])
        b = _fold_expr(node[3])
        if a[0] == "val":
            try:
                left = _truth(a[1])
            except TclError:
                return ("andor", node[1], a, b)
            if node[1] == "&&" and not left:
                return ("val", 0)
            if node[1] == "||" and left:
                return ("val", 1)
            if b[0] == "val":
                try:
                    return ("val", 1 if _truth(b[1]) else 0)
                except TclError:
                    pass
        return ("andor", node[1], a, b)
    if kind == "ternary":
        c = _fold_expr(node[1])
        a = _fold_expr(node[2])
        b = _fold_expr(node[3])
        if c[0] == "val":
            try:
                truth = _truth(c[1])
            except TclError:
                return ("ternary", c, a, b)
            return a if truth else b
        return ("ternary", c, a, b)
    if kind == "func":
        args = [_fold_expr(arg) for arg in node[2]]
        if all(arg[0] == "val" for arg in args):
            try:
                return ("val", call_math_func(
                    node[1], [arg[1] for arg in args]))
            except Exception:  # noqa: BLE001
                pass
        return ("func", node[1], args)
    if kind == "quoted":
        pieces = node[1]
        if all(isinstance(piece, str) for piece in pieces):
            return ("val", "".join(pieces))
        return node
    return node  # val, varref, cmdref


def _emit_expr_node(node, ops, interp):
    kind = node[0]
    if kind == "val":
        ops.append((_bc.E_CONST, node[1]))
    elif kind == "varref":
        name, index_parts = node[1]
        if index_parts is None and _plain_name(name):
            ops.append((_bc.E_LOAD, _bc.new_word_cell(), name))
        else:
            ops.append((_bc.E_LOADX, node[1]))
    elif kind == "cmdref":
        code = _try_compile_block(node[1], interp)
        if code is not None:
            ops.append((_bc.E_CODE, code))
        else:
            ops.append((_bc.E_CMD, node[1]))
    elif kind == "quoted":
        ops.append((_bc.E_QUOTED, node[1]))
    elif kind == "unary":
        _emit_expr_node(node[2], ops, interp)
        ops.append((_bc.E_UNARY, node[1]))
    elif kind == "binary":
        _emit_expr_node(node[2], ops, interp)
        _emit_expr_node(node[3], ops, interp)
        opcode = _E_BINOP.get(node[1])
        if opcode is not None:
            ops.append((opcode,))
        else:
            ops.append((_bc.E_BIN, node[1]))
    elif kind == "andor":
        _emit_expr_node(node[2], ops, interp)
        jump_at = len(ops)
        ops.append(None)
        _emit_expr_node(node[3], ops, interp)
        ops.append((_bc.E_TRUTH,))
        opcode = _bc.E_AND if node[1] == "&&" else _bc.E_OR
        ops[jump_at] = (opcode, len(ops))
    elif kind == "ternary":
        _emit_expr_node(node[1], ops, interp)
        jfalse_at = len(ops)
        ops.append(None)
        _emit_expr_node(node[2], ops, interp)
        jump_at = len(ops)
        ops.append(None)
        ops[jfalse_at] = (_bc.E_JFALSE, len(ops))
        _emit_expr_node(node[3], ops, interp)
        ops[jump_at] = (_bc.E_JUMP, len(ops))
    elif kind == "func":
        for arg in node[2]:
            _emit_expr_node(arg, ops, interp)
        ops.append((_bc.E_FUNC, node[1], len(node[2])))
    else:  # pragma: no cover - parser produces no other node kinds
        raise TclError("internal expr error: bad node %r" % (kind,))


def _compile_expr_program(ast, interp):
    ops = []
    _emit_expr_node(_fold_expr(ast), ops, interp)
    return tuple(ops)


# ----------------------------------------------------------------------
# The statement dispatcher

_INLINE = None


def _inline_table():
    # Built lazily: cmds_core imports from interp, which imports this
    # module, so a top-level import here would cycle.
    global _INLINE
    if _INLINE is None:
        from repro.tcl import cmds_core
        _INLINE = {
            "set": (cmds_core.cmd_set, _emit_set),
            "incr": (cmds_core.cmd_incr, _emit_incr),
            "expr": (cmds_core.cmd_expr, _emit_expr),
            "if": (cmds_core.cmd_if, _emit_if),
            "while": (cmds_core.cmd_while, _emit_while),
            "for": (cmds_core.cmd_for, _emit_for),
            "foreach": (cmds_core.cmd_foreach, _emit_foreach),
        }
    return _INLINE


def compile_script_bytecode(parsed_commands, source, interp):
    """Compile a parsed script to a :class:`repro.tcl.bytecode.Code`.

    Bytecode is interpreter-*specific*: inline ops embed the expected
    builtin function for their binding check, and cache cells bind to
    the interp's frames.  ``Interp`` therefore memoises these in its
    own ``bytecode_cache``.
    """
    table = _inline_table()
    ops = []
    inline_count = 0
    line = 1
    scan = 0
    commands = interp.commands
    for cmd in parsed_commands:
        pos = cmd.pos
        if source and pos > scan:
            line += source.count("\n", scan, pos)
            scan = pos
        op = None
        first = cmd.words[0]
        if first.is_literal():
            entry = table.get(first.literal_value())
            if entry is not None and commands.get(
                    first.literal_value()) is entry[0]:
                op = entry[1](cmd, line, interp, entry[0])
        if op is None:
            ops.append(_emit_call(cmd, line))
        else:
            inline_count += 1
            ops.append(op)
    generic_count = len(ops) - inline_count
    stats = interp._vm_stats
    stats["scripts"] += 1
    stats["inline_ops"] += inline_count
    stats["generic_ops"] += generic_count
    return _bc.Code(tuple(ops), source, inline_count, generic_count)
