"""The bytecode VM: dispatch loop with inline caches.

``run`` executes a :class:`repro.tcl.bytecode.Code` object against an
interpreter; it is the only way ``Interp.eval`` runs a script, and
``run_expr``/``run_cond`` are the only expression evaluator.  The
design constraint is *semantic invisibility*: the VM must be
byte-identical to the tree walker (``TreeInterp`` in
``tests/oracles/tcl.py``) on results, errorInfo tracebacks, errorCode,
variable traces, and the watchdog's work-unit accounting
(tests/test_tcl_vm_differential.py pins all of this).  Every fast path
therefore mirrors a specific slow path line-for-line:

* command dispatch of an inlined statement costs exactly one
  ``cmd_count`` bump plus the same single ``count >= _next_check``
  compare that ``Interp.call`` does;
* nested block entry (loop bodies, ``if`` arms) mirrors the nested
  branch of ``Interp.eval``: recursion check, unconditional work unit,
  peak-nesting update, ``_start_errorinfo`` on error;
* any condition the fast path cannot prove (variable has traces, is an
  array or link, value is not cached, command was renamed) falls back
  to the op's ``OP_CALL``, i.e. real command dispatch via
  ``Interp.call`` -- never to a reimplementation.

Inline-cache validity (see bytecode.py for cell layout): a command
binding is valid while ``interp.cmds_generation`` is unchanged, and is
re-resolved (not discarded) on mismatch, so a mid-script ``proc``
definition costs one dict lookup per op rather than a recompile.  A
variable slot is valid while ``interp.var_epoch`` is unchanged (bumped
by ``unset``/``upvar``) and the cached frame *is* the current frame;
per-use checks on ``var.kind``/``var.traces`` catch in-place mutation.

Integer fast paths ride on the numeric shadow ``_Var.num``/``num_str``:
the shadow is trusted only when ``var.num_str is var.value`` (object
identity), so any writer that replaces ``var.value`` silently
invalidates it without needing to know shadows exist.
"""

from repro.tcl.bytecode import (
    CMP_EQ,
    CMP_GE,
    CMP_GT,
    CMP_LE,
    CMP_LT,
    E_ADD,
    E_AND,
    E_BIN,
    E_CMD,
    E_CODE,
    E_CONST,
    E_EQ,
    E_FUNC,
    E_GE,
    E_GT,
    E_JFALSE,
    E_JUMP,
    E_LE,
    E_LOAD,
    E_LOADX,
    E_LT,
    E_MUL,
    E_NE,
    E_OR,
    E_QUOTED,
    E_SUB,
    E_TRUTH,
    E_UNARY,
    OP_CALL,
    OP_EXPR,
    OP_FOR,
    OP_FOREACH,
    OP_IF,
    OP_INCR,
    OP_SET,
    OP_SETRD,
    OP_WHILE,
    W_CMD,
    W_CODE,
    W_CONST,
    W_VAR,
    W_VARIDX,
)
from repro.tcl.errors import (
    TclBreak,
    TclContinue,
    TclError,
    TclReturn,
    log_panic,
)
from repro.tcl.expr import (
    _binary,
    _truth,
    call_math_func,
    compile_expr,
    format_number,
    is_true,
    unary_op,
)
from repro.tcl.lists import string_to_list


# ----------------------------------------------------------------------
# Cell helpers

def _fill_op_cell(interp, cell, name):
    """Refill a statement cell's variable slots after a slow-path run."""
    frame = interp.frames[-1]
    try:
        tframe, tname = interp._resolve(frame, name)
    except TclError:
        return
    var = tframe.vars.get(tname)
    if var is not None and var.kind == 0 and var.traces is None:
        cell[1] = interp.var_epoch
        cell[2] = frame
        cell[3] = var


def _fill_word_cell(interp, cell, name):
    frame = interp.frames[-1]
    try:
        tframe, tname = interp._resolve(frame, name)
    except TclError:
        return
    var = tframe.vars.get(tname)
    if var is not None and var.kind == 0 and var.traces is None:
        cell[0] = interp.var_epoch
        cell[1] = frame
        cell[2] = var


def _load(interp, word):
    """Evaluate a W_VAR word: cached scalar read or full get_var."""
    cell = word[1]
    if cell[1] is interp.frames[-1] and cell[0] == interp.var_epoch:
        var = cell[2]
        if var.kind == 0 and var.traces is None:
            value = var.value
            if value is not None:
                return value
    value = interp.get_var(word[2])
    _fill_word_cell(interp, cell, word[2])
    return value


def _word(interp, word):
    """Evaluate any word descriptor to its string value."""
    kind = word[0]
    if kind == W_CONST:
        return word[1]
    if kind == W_VAR:
        return _load(interp, word)
    if kind == W_CODE:
        return _run_block(interp, word[1])
    if kind == W_CMD:
        return interp.eval(word[1])
    if kind == W_VARIDX:
        name, index_parts = word[1]
        return interp.get_var(name, interp._substitute_parts(index_parts))
    return interp._substitute_parts(word[1])


def _call(interp, op):
    """Dispatch an ``OP_CALL``: its literal argv, or its words.

    The literal argv is copied so a command implementation that
    mutates its argv cannot corrupt the cached op; the command *name*
    is re-resolved inside ``Interp.call`` on every dispatch.
    """
    argv = op[1]
    if argv is not None:
        return interp.call(list(argv), op[3])
    argv = [_word(interp, word) for word in op[2]]
    if argv[0] == "":
        return ""
    return interp.call(argv, op[3])


def _firewall(interp, cmdname, exc, text, line):
    """Convert a Python exception exactly as ``Interp.call`` would."""
    interp.firewall_catches += 1
    summary = log_panic('command "%s"' % cmdname, exc)
    err = TclError(
        'internal error in command "%s" (%s)' % (cmdname, summary))
    interp._record_error_frame_text(err, text, line)
    return err


# ----------------------------------------------------------------------
# Nested block execution (loop bodies, if arms, [cmd] words)

def _run_block(interp, code):
    """Run a nested Code block; mirrors the nested path of ``Interp.eval``."""
    nesting = interp._nesting
    if nesting >= interp.recursion_limit:
        raise interp._recursion_error()
    count = interp.cmd_count + 1
    interp.cmd_count = count
    if count >= interp._next_check:
        interp._check_limits(count)
    if nesting >= interp._peak_nesting:
        interp._peak_nesting = nesting + 1
    interp._nesting = nesting + 1
    try:
        return run(interp, code)
    except TclError as err:
        interp._start_errorinfo(err, code.source)
        raise
    except RecursionError:
        raise interp._recursion_error()
    finally:
        interp._nesting = nesting


# ----------------------------------------------------------------------
# Expr stack programs

def run_expr(interp, prog):
    """Execute a compiled expr program; returns int/float/str."""
    stack = []
    push = stack.append
    ip = 0
    n = len(prog)
    while ip < n:
        op = prog[ip]
        kind = op[0]
        if kind == E_LOAD:
            cell = op[1]
            if cell[1] is interp.frames[-1] and cell[0] == interp.var_epoch:
                var = cell[2]
                value = var.value
                if var.kind == 0 and var.traces is None and value is not None:
                    push(var.num if var.num_str is value else value)
                    ip += 1
                    continue
            value = interp.get_var(op[2])
            _fill_word_cell(interp, cell, op[2])
            push(value)
        elif kind == E_CONST:
            push(op[1])
        elif kind == E_ADD:
            b = stack.pop()
            a = stack[-1]
            if type(a) is int and type(b) is int:
                stack[-1] = a + b
            else:
                stack[-1] = _binary("+", a, b)
        elif kind == E_SUB:
            b = stack.pop()
            a = stack[-1]
            if type(a) is int and type(b) is int:
                stack[-1] = a - b
            else:
                stack[-1] = _binary("-", a, b)
        elif kind == E_MUL:
            b = stack.pop()
            a = stack[-1]
            if type(a) is int and type(b) is int:
                stack[-1] = a * b
            else:
                stack[-1] = _binary("*", a, b)
        elif kind == E_LT:
            b = stack.pop()
            a = stack[-1]
            if type(a) is int and type(b) is int:
                stack[-1] = 1 if a < b else 0
            else:
                stack[-1] = _binary("<", a, b)
        elif kind == E_GT:
            b = stack.pop()
            a = stack[-1]
            if type(a) is int and type(b) is int:
                stack[-1] = 1 if a > b else 0
            else:
                stack[-1] = _binary(">", a, b)
        elif kind == E_LE:
            b = stack.pop()
            a = stack[-1]
            if type(a) is int and type(b) is int:
                stack[-1] = 1 if a <= b else 0
            else:
                stack[-1] = _binary("<=", a, b)
        elif kind == E_GE:
            b = stack.pop()
            a = stack[-1]
            if type(a) is int and type(b) is int:
                stack[-1] = 1 if a >= b else 0
            else:
                stack[-1] = _binary(">=", a, b)
        elif kind == E_EQ:
            b = stack.pop()
            a = stack[-1]
            if type(a) is int and type(b) is int:
                stack[-1] = 1 if a == b else 0
            else:
                stack[-1] = _binary("==", a, b)
        elif kind == E_NE:
            b = stack.pop()
            a = stack[-1]
            if type(a) is int and type(b) is int:
                stack[-1] = 1 if a != b else 0
            else:
                stack[-1] = _binary("!=", a, b)
        elif kind == E_BIN:
            b = stack.pop()
            stack[-1] = _binary(op[1], stack[-1], b)
        elif kind == E_UNARY:
            stack[-1] = unary_op(op[1], stack[-1])
        elif kind == E_AND:
            a = stack.pop()
            if not (a != 0 if type(a) is int else _truth(a)):
                push(0)
                ip = op[1]
                continue
        elif kind == E_OR:
            a = stack.pop()
            if a != 0 if type(a) is int else _truth(a):
                push(1)
                ip = op[1]
                continue
        elif kind == E_TRUTH:
            a = stack[-1]
            stack[-1] = 1 if (a != 0 if type(a) is int else _truth(a)) else 0
        elif kind == E_JFALSE:
            a = stack.pop()
            if not (a != 0 if type(a) is int else _truth(a)):
                ip = op[1]
                continue
        elif kind == E_JUMP:
            ip = op[1]
            continue
        elif kind == E_CODE:
            push(_run_block(interp, op[1]))
        elif kind == E_CMD:
            push(interp.eval(op[1]))
        elif kind == E_LOADX:
            name, index_parts = op[1]
            index = (interp._substitute_parts(index_parts)
                     if index_parts is not None else None)
            push(interp.get_var(name, index))
        elif kind == E_QUOTED:
            out = []
            for piece in op[1]:
                if isinstance(piece, str):
                    out.append(piece)
                elif piece[0] == "varref":
                    name, index_parts = piece[1]
                    index = (interp._substitute_parts(index_parts)
                             if index_parts is not None else None)
                    out.append(interp.get_var(name, index))
                else:
                    out.append(interp.eval(piece[1]))
            push("".join(out))
        elif kind == E_FUNC:
            argc = op[2]
            if argc:
                args = stack[-argc:]
                del stack[-argc:]
            else:
                args = []
            push(call_math_func(op[1], args))
        else:  # pragma: no cover - emitter never produces unknown ops
            raise TclError("internal expr error: bad opcode %r" % (kind,))
        ip += 1
    return stack[-1]


def run_cond(interp, cond):
    """Evaluate a compiled condition (``compile_cond``) to a truth value.

    Tcl_ExprBoolean's rules: a bare boolean word (``yes``, ``off``,
    ...) that is not expr syntax is accepted on TclError, and a string
    result is coerced with ``is_true``.
    """
    fused = cond[3]
    if fused is not None:
        cell = fused[0]
        if cell[1] is interp.frames[-1] and cell[0] == interp.var_epoch:
            var = cell[2]
            value = var.value
            if (var.kind == 0 and var.traces is None
                    and value is not None and var.num_str is value):
                a = var.num
                cmp = fused[1]
                const = fused[2]
                if cmp == CMP_LT:
                    return a < const
                if cmp == CMP_GT:
                    return a > const
                if cmp == CMP_LE:
                    return a <= const
                if cmp == CMP_GE:
                    return a >= const
                if cmp == CMP_EQ:
                    return a == const
                return a != const
    prog = cond[0]
    if prog is None:
        if cond[2] is not None:
            return is_true(cond[2])
        compile_expr(cond[1])  # raises the parse error
    try:
        value = run_expr(interp, prog)
    except TclError:
        fallback_word = cond[2]
        if fallback_word is not None:
            return is_true(fallback_word)
        raise
    if type(value) is int:
        return value != 0
    if isinstance(value, str):
        return is_true(value)
    return value != 0


# ----------------------------------------------------------------------
# The dispatch loop

def run(interp, code):
    """Execute a Code object; the VM's statement dispatch loop."""
    result = ""
    frames = interp.frames
    for op in code.ops:
        kind = op[0]

        if kind == OP_CALL:
            result = _call(interp, op)
            continue

        if kind == OP_INCR:
            _k, cell, name, dconst, dword, dlit, line, fallback, func = op
            if cell[0] != interp.cmds_generation:
                if interp.commands.get("incr") is func:
                    cell[0] = interp.cmds_generation
                else:
                    interp._vm_stats["deopts"] += 1
                    result = _call(interp, fallback)
                    continue
            if dconst is not None:
                delta = dconst
                dstr = dlit
            elif dword is None:
                delta = 1
                dstr = None
            else:
                delta = None
                dstr = None
                if dword[0] == W_VAR:
                    wcell = dword[1]
                    if (wcell[1] is frames[-1]
                            and wcell[0] == interp.var_epoch):
                        wvar = wcell[2]
                        value = wvar.value
                        if (wvar.kind == 0 and wvar.traces is None
                                and value is not None
                                and wvar.num_str is value):
                            delta = wvar.num
                            dstr = value
                if delta is None:
                    dstr = _word(interp, dword)
                    try:
                        delta = int(dstr)
                    except ValueError:
                        result = interp.call(["incr", name, dstr], line)
                        _fill_op_cell(interp, cell, name)
                        continue
            if cell[2] is frames[-1] and cell[1] == interp.var_epoch:
                var = cell[3]
                value = var.value
                if var.kind == 0 and var.traces is None and value is not None:
                    if var.num_str is value:
                        current = var.num
                    else:
                        try:
                            current = int(value)
                        except ValueError:
                            current = None
                    if current is not None:
                        count = interp.cmd_count + 1
                        interp.cmd_count = count
                        if count >= interp._next_check:
                            interp._check_limits(count)
                        new = current + delta
                        text = str(new)
                        var.value = text
                        var.num = new
                        var.num_str = text
                        result = text
                        continue
            if dstr is None:
                argv = ["incr", name]
            else:
                argv = ["incr", name, dstr]
            result = interp.call(argv, line)
            _fill_op_cell(interp, cell, name)
            continue

        if kind == OP_SET:
            _k, cell, name, word, line, fallback, func = op
            if cell[0] != interp.cmds_generation:
                if interp.commands.get("set") is func:
                    cell[0] = interp.cmds_generation
                else:
                    interp._vm_stats["deopts"] += 1
                    result = _call(interp, fallback)
                    continue
            if word[0] == W_CONST:
                value = word[1]
                num = word[2]
            else:
                value = _word(interp, word)
                if value is interp._vm_num_str:
                    num = interp._vm_num
                else:
                    num = None
            if cell[2] is frames[-1] and cell[1] == interp.var_epoch:
                var = cell[3]
                if var.kind == 0 and var.traces is None:
                    count = interp.cmd_count + 1
                    interp.cmd_count = count
                    if count >= interp._next_check:
                        interp._check_limits(count)
                    var.value = value
                    if num is not None:
                        var.num = num
                        var.num_str = value
                    result = value
                    continue
            result = interp.call(["set", name, value], line)
            _fill_op_cell(interp, cell, name)
            continue

        if kind == OP_SETRD:
            _k, cell, name, line, fallback, func = op
            if cell[0] != interp.cmds_generation:
                if interp.commands.get("set") is func:
                    cell[0] = interp.cmds_generation
                else:
                    interp._vm_stats["deopts"] += 1
                    result = _call(interp, fallback)
                    continue
            if cell[2] is frames[-1] and cell[1] == interp.var_epoch:
                var = cell[3]
                value = var.value
                if var.kind == 0 and var.traces is None and value is not None:
                    count = interp.cmd_count + 1
                    interp.cmd_count = count
                    if count >= interp._next_check:
                        interp._check_limits(count)
                    result = value
                    continue
            result = interp.call(["set", name], line)
            _fill_op_cell(interp, cell, name)
            continue

        if kind == OP_EXPR:
            _k, cell, prog, text, line, fallback, func = op
            if cell[0] != interp.cmds_generation:
                if interp.commands.get("expr") is func:
                    cell[0] = interp.cmds_generation
                else:
                    interp._vm_stats["deopts"] += 1
                    result = _call(interp, fallback)
                    continue
            count = interp.cmd_count + 1
            interp.cmd_count = count
            if count >= interp._next_check:
                interp._check_limits(count)
            try:
                value = run_expr(interp, prog)
                if type(value) is int:
                    # Hand the integer to a downstream ``set`` without a
                    # reparse: the consumer trusts the pair only while
                    # ``_vm_num_str`` is (identity) the string it holds,
                    # so no invalidation is ever needed.
                    result = str(value)
                    interp._vm_num = value
                    interp._vm_num_str = result
                else:
                    result = format_number(value)
            except TclError as err:
                interp._record_error_frame_text(err, text, line)
                raise
            except (TclReturn, TclBreak, TclContinue):
                raise
            except RecursionError:
                raise
            except Exception as exc:
                raise _firewall(interp, "expr", exc, text, line) from None
            continue

        if kind == OP_IF:
            _k, cell, clauses, else_code, text, line, fallback, func = op
            if cell[0] != interp.cmds_generation:
                if interp.commands.get("if") is func:
                    cell[0] = interp.cmds_generation
                else:
                    interp._vm_stats["deopts"] += 1
                    result = _call(interp, fallback)
                    continue
            count = interp.cmd_count + 1
            interp.cmd_count = count
            if count >= interp._next_check:
                interp._check_limits(count)
            try:
                result = ""
                for cond, body in clauses:
                    if run_cond(interp, cond):
                        result = _run_block(interp, body)
                        break
                else:
                    if else_code is not None:
                        result = _run_block(interp, else_code)
            except TclError as err:
                interp._record_error_frame_text(err, text, line)
                raise
            except (TclReturn, TclBreak, TclContinue):
                raise
            except RecursionError:
                raise
            except Exception as exc:
                raise _firewall(interp, "if", exc, text, line) from None
            continue

        if kind == OP_WHILE:
            _k, cell, cond, body, text, line, fallback, func = op
            if cell[0] != interp.cmds_generation:
                if interp.commands.get("while") is func:
                    cell[0] = interp.cmds_generation
                else:
                    interp._vm_stats["deopts"] += 1
                    result = _call(interp, fallback)
                    continue
            count = interp.cmd_count + 1
            interp.cmd_count = count
            if count >= interp._next_check:
                interp._check_limits(count)
            try:
                # Hoisted loop state for the inlined _run_block below
                # (neither can change during one loop execution).
                nesting1 = interp._nesting
                rlimit = interp.recursion_limit
                body_source = body.source
                while run_cond(interp, cond):
                    # Inlined _run_block for the loop body.
                    if nesting1 >= rlimit:
                        raise interp._recursion_error()
                    count = interp.cmd_count + 1
                    interp.cmd_count = count
                    if count >= interp._next_check:
                        interp._check_limits(count)
                    if nesting1 >= interp._peak_nesting:
                        interp._peak_nesting = nesting1 + 1
                    interp._nesting = nesting1 + 1
                    try:
                        run(interp, body)
                    except TclBreak:
                        break
                    except TclContinue:
                        continue
                    except TclError as err:
                        interp._start_errorinfo(err, body_source)
                        raise
                    except RecursionError:
                        raise interp._recursion_error()
                    finally:
                        interp._nesting = nesting1
                result = ""
            except TclError as err:
                interp._record_error_frame_text(err, text, line)
                raise
            except (TclReturn, TclBreak, TclContinue):
                raise
            except RecursionError:
                raise
            except Exception as exc:
                raise _firewall(interp, "while", exc, text, line) from None
            continue

        if kind == OP_FOR:
            _k, cell, start, cond, nxt, body, text, line, fallback, \
                func = op
            if cell[0] != interp.cmds_generation:
                if interp.commands.get("for") is func:
                    cell[0] = interp.cmds_generation
                else:
                    interp._vm_stats["deopts"] += 1
                    result = _call(interp, fallback)
                    continue
            count = interp.cmd_count + 1
            interp.cmd_count = count
            if count >= interp._next_check:
                interp._check_limits(count)
            try:
                nesting1 = interp._nesting
                rlimit = interp.recursion_limit
                body_source = body.source
                next_source = nxt.source
                # Start block (cmd_for evaluates it as a full script).
                if nesting1 >= rlimit:
                    raise interp._recursion_error()
                count = interp.cmd_count + 1
                interp.cmd_count = count
                if count >= interp._next_check:
                    interp._check_limits(count)
                if nesting1 >= interp._peak_nesting:
                    interp._peak_nesting = nesting1 + 1
                interp._nesting = nesting1 + 1
                try:
                    run(interp, start)
                except TclError as err:
                    interp._start_errorinfo(err, start.source)
                    raise
                except RecursionError:
                    raise interp._recursion_error()
                finally:
                    interp._nesting = nesting1

                while run_cond(interp, cond):
                    # Body block.
                    if nesting1 >= rlimit:
                        raise interp._recursion_error()
                    count = interp.cmd_count + 1
                    interp.cmd_count = count
                    if count >= interp._next_check:
                        interp._check_limits(count)
                    if nesting1 >= interp._peak_nesting:
                        interp._peak_nesting = nesting1 + 1
                    interp._nesting = nesting1 + 1
                    try:
                        run(interp, body)
                    except TclBreak:
                        break
                    except TclContinue:
                        pass  # cmd_for still runs the next block
                    except TclError as err:
                        interp._start_errorinfo(err, body_source)
                        raise
                    except RecursionError:
                        raise interp._recursion_error()
                    finally:
                        interp._nesting = nesting1
                    # Next block: no break/continue handling, as in
                    # cmd_for where nxt() runs outside the catch.
                    if nesting1 >= rlimit:
                        raise interp._recursion_error()
                    count = interp.cmd_count + 1
                    interp.cmd_count = count
                    if count >= interp._next_check:
                        interp._check_limits(count)
                    if nesting1 >= interp._peak_nesting:
                        interp._peak_nesting = nesting1 + 1
                    interp._nesting = nesting1 + 1
                    try:
                        run(interp, nxt)
                    except TclError as err:
                        interp._start_errorinfo(err, next_source)
                        raise
                    except RecursionError:
                        raise interp._recursion_error()
                    finally:
                        interp._nesting = nesting1
                result = ""
            except TclError as err:
                interp._record_error_frame_text(err, text, line)
                raise
            except (TclReturn, TclBreak, TclContinue):
                raise
            except RecursionError:
                raise
            except Exception as exc:
                raise _firewall(interp, "for", exc, text, line) from None
            continue

        if kind == OP_FOREACH:
            _k, cell, name, items, list_word, body, text, line, \
                fallback, func = op
            if cell[0] != interp.cmds_generation:
                if interp.commands.get("foreach") is func:
                    cell[0] = interp.cmds_generation
                else:
                    interp._vm_stats["deopts"] += 1
                    result = _call(interp, fallback)
                    continue
            if items is None:
                list_value = _word(interp, list_word)
            else:
                list_value = None
            count = interp.cmd_count + 1
            interp.cmd_count = count
            if count >= interp._next_check:
                interp._check_limits(count)
            try:
                if items is None:
                    items = string_to_list(list_value)
                nesting1 = interp._nesting
                rlimit = interp.recursion_limit
                body_source = body.source
                epoch = interp.var_epoch
                for item in items:
                    # Loop-variable write: cached scalar slot or the
                    # full set_var (traces, arrays, links).
                    if cell[2] is frames[-1] and cell[1] == epoch:
                        var = cell[3]
                        if var.kind == 0 and var.traces is None:
                            var.value = item
                        else:
                            interp.set_var(name, item)
                    else:
                        interp.set_var(name, item)
                        _fill_op_cell(interp, cell, name)
                        epoch = interp.var_epoch
                    if nesting1 >= rlimit:
                        raise interp._recursion_error()
                    count = interp.cmd_count + 1
                    interp.cmd_count = count
                    if count >= interp._next_check:
                        interp._check_limits(count)
                    if nesting1 >= interp._peak_nesting:
                        interp._peak_nesting = nesting1 + 1
                    interp._nesting = nesting1 + 1
                    try:
                        run(interp, body)
                    except TclBreak:
                        break
                    except TclContinue:
                        continue
                    except TclError as err:
                        interp._start_errorinfo(err, body_source)
                        raise
                    except RecursionError:
                        raise interp._recursion_error()
                    finally:
                        interp._nesting = nesting1
                    epoch = interp.var_epoch
                result = ""
            except TclError as err:
                if text is None:
                    # Dynamic list word: the tree walker records the
                    # substituted argv, so build the frame text now.
                    text = " ".join(
                        ("foreach", name, list_value, body.source))[:150]
                interp._record_error_frame_text(err, text, line)
                raise
            except (TclReturn, TclBreak, TclContinue):
                raise
            except RecursionError:
                raise
            except Exception as exc:
                if text is None:
                    text = " ".join(
                        ("foreach", name, list_value, body.source))[:150]
                raise _firewall(interp, "foreach", exc, text, line) from None
            continue

        raise TclError(  # pragma: no cover - emitter never produces these
            "internal vm error: bad opcode %r" % (kind,))
    return result

