"""Core Tcl commands: variables, control flow, procedures, errors."""

from repro.tcl.errors import (
    TclBreak,
    TclContinue,
    TclError,
    TclLimitError,
    TclReturn,
)
from repro.tcl.interp import split_varname
from repro.tcl.lists import list_to_string, string_to_list


def _wrong_args(usage):
    raise TclError('wrong # args: should be "%s"' % usage)


def cmd_set(interp, argv):
    if len(argv) == 2:
        return interp.get_var(argv[1])
    if len(argv) == 3:
        return interp.set_var(argv[1], argv[2])
    _wrong_args("set varName ?newValue?")


def cmd_unset(interp, argv):
    if len(argv) < 2:
        _wrong_args("unset varName ?varName ...?")
    for name in argv[1:]:
        interp.unset_var(name)
    return ""


def cmd_incr(interp, argv):
    if len(argv) not in (2, 3):
        _wrong_args("incr varName ?increment?")
    name = argv[1]
    try:
        current = int(interp.get_var(name))
    except ValueError:
        raise TclError(
            'expected integer but got "%s"' % interp.get_var(name)
        )
    amount = 1
    if len(argv) == 3:
        try:
            amount = int(argv[2])
        except ValueError:
            raise TclError('expected integer but got "%s"' % argv[2])
    return interp.set_var(name, str(current + amount))


def cmd_append(interp, argv):
    if len(argv) < 2:
        _wrong_args("append varName ?value value ...?")
    name = argv[1]
    value = interp.get_var(name) if interp.var_exists(name) else ""
    value += "".join(argv[2:])
    return interp.set_var(name, value)


def cmd_proc(interp, argv):
    if len(argv) != 4:
        _wrong_args("proc name args body")
    name, args_spec, body = argv[1], argv[2], argv[3]
    formals = []
    for element in string_to_list(args_spec):
        pieces = string_to_list(element)
        if len(pieces) == 1:
            formals.append((pieces[0], None))
        elif len(pieces) == 2:
            formals.append((pieces[0], pieces[1]))
        else:
            raise TclError(
                'too many fields in argument specifier "%s"' % element
            )
    interp.define_proc(name, formals, body)
    return ""


def cmd_return(interp, argv):
    if len(argv) > 2 and argv[1] == "-code":
        # Minimal -code support: error/return/break/continue/ok
        code = argv[2]
        value = argv[3] if len(argv) > 3 else ""
        if code == "error":
            raise TclError(value)
        if code == "break":
            raise TclBreak()
        if code == "continue":
            raise TclContinue()
        raise TclReturn(value)
    raise TclReturn(argv[1] if len(argv) > 1 else "")


def cmd_global(interp, argv):
    if len(argv) < 2:
        _wrong_args("global varName ?varName ...?")
    if interp.current_frame is not interp.global_frame:
        for name in argv[1:]:
            interp.link_var(name, interp.global_frame, name)
    return ""


def cmd_upvar(interp, argv):
    args = argv[1:]
    if not args:
        _wrong_args("upvar ?level? otherVar localVar ?otherVar localVar ...?")
    if args[0].startswith("#") or args[0].isdigit():
        level = args[0]
        args = args[1:]
    else:
        level = "1"
    if not args or len(args) % 2 != 0:
        _wrong_args("upvar ?level? otherVar localVar ?otherVar localVar ...?")
    target = interp.frame_at_level(level)
    for i in range(0, len(args), 2):
        other, local = args[i], args[i + 1]
        interp.link_var(local, target, other)
    return ""


def cmd_uplevel(interp, argv):
    args = argv[1:]
    if not args:
        _wrong_args("uplevel ?level? command ?arg ...?")
    if args[0].startswith("#") or args[0].isdigit():
        level = args[0]
        args = args[1:]
    else:
        level = "1"
    if not args:
        _wrong_args("uplevel ?level? command ?arg ...?")
    target = interp.frame_at_level(level)
    script = args[0] if len(args) == 1 else " ".join(args)
    saved = interp.frames
    index = interp.frames.index(target)
    interp.frames = interp.frames[: index + 1]
    try:
        return interp.eval(script)
    finally:
        interp.frames = saved


def cmd_catch(interp, argv):
    if len(argv) not in (2, 3):
        _wrong_args("catch command ?varName?")
    code = 0
    result = ""
    try:
        result = interp.eval(argv[1])
    except TclLimitError:
        # Resource-limit trips are not catchable: a hostile
        # ``catch {while 1 {}}`` must not defeat the watchdog.  The
        # error keeps unwinding to the top-level eval boundary.
        raise
    except TclError as err:
        code, result = 1, err.result
    except TclReturn as ret:
        code, result = 2, ret.result
    except TclBreak:
        code = 3
    except TclContinue:
        code = 4
    if len(argv) == 3:
        interp.set_var(argv[2], result)
    return str(code)


def cmd_error(interp, argv):
    """``error message ?errorInfo? ?errorCode?`` (Tcl semantics).

    A non-empty *errorInfo* argument seeds the stack trace: it is used
    as the initial errorInfo and the interpreter skips adding the
    ``while executing`` frame for the ``error`` command itself (the
    caller is re-raising a previously reported error).  *errorCode*
    travels on the exception and lands in the ``errorCode`` global
    when the error is recorded -- not eagerly, and never from the
    wrong argument.
    """
    if len(argv) < 2 or len(argv) > 4:
        _wrong_args("error message ?errorInfo? ?errorCode?")
    err = TclError(argv[1])
    if len(argv) > 2 and argv[2]:
        err.errorinfo = argv[2]
        err.info_started = True
        err.skip_frame = True
        err.frames = 1
    if len(argv) > 3:
        err.errorcode = argv[3]
    raise err


def cmd_eval(interp, argv):
    if len(argv) < 2:
        _wrong_args("eval arg ?arg ...?")
    script = argv[1] if len(argv) == 2 else " ".join(argv[1:])
    return interp.eval(script)


def cmd_expr(interp, argv):
    if len(argv) < 2:
        _wrong_args("expr arg ?arg ...?")
    text = argv[1] if len(argv) == 2 else " ".join(argv[1:])
    return interp.eval_expr_string(text)


def cmd_if(interp, argv):
    i = 1
    n = len(argv)
    while True:
        if i >= n:
            _wrong_args("if condition ?then? body ?elseif ...? ?else? ?body?")
        condition = argv[i]
        i += 1
        if i < n and argv[i] == "then":
            i += 1
        if i >= n:
            raise TclError(
                'wrong # args: no script following "%s" argument' % condition
            )
        body = argv[i]
        i += 1
        if interp.eval_expr_truth(condition):
            return interp.eval(body)
        if i >= n:
            return ""
        if argv[i] == "elseif":
            i += 1
            continue
        if argv[i] == "else":
            i += 1
        if i >= n:
            raise TclError("wrong # args: no script following \"else\" argument")
        if i != n - 1:
            raise TclError("wrong # args: extra words after \"else\" clause in \"if\" command")
        return interp.eval(argv[i])


def cmd_while(interp, argv):
    if len(argv) != 3:
        _wrong_args("while test command")
    test, body = argv[1], argv[2]
    while interp.eval_expr_truth(test):
        try:
            interp.eval(body)
        except TclBreak:
            break
        except TclContinue:
            continue
    return ""


def cmd_for(interp, argv):
    if len(argv) != 5:
        _wrong_args("for start test next command")
    test, nxt, body = argv[2], argv[3], argv[4]
    interp.eval(argv[1])
    while interp.eval_expr_truth(test):
        try:
            interp.eval(body)
        except TclBreak:
            break
        except TclContinue:
            pass
        interp.eval(nxt)
    return ""


def cmd_foreach(interp, argv):
    if len(argv) != 4:
        _wrong_args("foreach varName list command")
    name, items, body = argv[1], string_to_list(argv[2]), argv[3]
    for item in items:
        interp.set_var(name, item)
        try:
            interp.eval(body)
        except TclBreak:
            break
        except TclContinue:
            continue
    return ""


def cmd_break(interp, argv):
    raise TclBreak()


def cmd_continue(interp, argv):
    raise TclContinue()


def _match_glob(pattern, text):
    from repro.tcl.cmds_string import glob_match

    return glob_match(pattern, text)


def cmd_switch(interp, argv):
    import re

    args = argv[1:]
    mode = "exact"
    while args and args[0].startswith("-"):
        flag = args[0]
        if flag == "--":
            args = args[1:]
            break
        if flag == "-exact":
            mode = "exact"
        elif flag == "-glob":
            mode = "glob"
        elif flag == "-regexp":
            mode = "regexp"
        else:
            raise TclError(
                'bad option "%s": should be -exact, -glob, -regexp, or --' % flag
            )
        args = args[1:]
    if len(args) < 2:
        _wrong_args("switch ?switches? string pattern body ... ?default body?")
    string = args[0]
    if len(args) == 2:
        pairs = string_to_list(args[1])
    else:
        pairs = args[1:]
    if len(pairs) % 2 != 0:
        raise TclError("extra switch pattern with no body")
    matched = None
    for i in range(0, len(pairs), 2):
        pattern, body = pairs[i], pairs[i + 1]
        hit = False
        if matched is None:
            if pattern == "default" and i == len(pairs) - 2:
                hit = True
            elif mode == "exact":
                hit = pattern == string
            elif mode == "glob":
                hit = _match_glob(pattern, string)
            else:
                hit = re.search(pattern, string) is not None
        if matched is not None or hit:
            if body == "-":
                matched = True
                continue
            return interp.eval(body)
    return ""


def cmd_case(interp, argv):
    """Old-style ``case`` (Tcl 6), used by period scripts: glob matching."""
    args = argv[1:]
    if not args:
        _wrong_args("case string ?in? patList body ?patList body ...?")
    string = args[0]
    args = args[1:]
    if args and args[0] == "in":
        args = args[1:]
    if len(args) == 1:
        args = string_to_list(args[0])
    if len(args) % 2 != 0:
        raise TclError("extra case pattern with no body")
    default_body = None
    for i in range(0, len(args), 2):
        patterns, body = args[i], args[i + 1]
        if patterns == "default":
            default_body = body
            continue
        for pattern in string_to_list(patterns):
            if _match_glob(pattern, string):
                return interp.eval(body)
    if default_body is not None:
        return interp.eval(default_body)
    return ""


def cmd_source(interp, argv):
    if len(argv) != 2:
        _wrong_args("source fileName")
    try:
        with open(argv[1], "r") as handle:
            script = handle.read()
    except OSError as err:
        raise TclError('couldn\'t read file "%s": %s' % (argv[1], err.strerror))
    return interp.eval(script)


def cmd_time(interp, argv):
    if len(argv) not in (2, 3):
        _wrong_args("time command ?count?")
    count = 1
    if len(argv) == 3:
        try:
            count = int(argv[2])
        except ValueError:
            raise TclError('expected integer but got "%s"' % argv[2])
    micros = interp.time_script(argv[1], count)
    return "%d microseconds per iteration" % micros


def cmd_rename(interp, argv):
    if len(argv) != 3:
        _wrong_args("rename oldName newName")
    interp.rename(argv[1], argv[2])
    return ""


def cmd_puts(interp, argv):
    args = argv[1:]
    newline = True
    if args and args[0] == "-nonewline":
        newline = False
        args = args[1:]
    if args and args[0] in ("stdout", "stderr"):
        args = args[1:]
    if len(args) != 1:
        _wrong_args("puts ?-nonewline? ?fileId? string")
    interp.output(args[0] + ("\n" if newline else ""))
    return ""


def cmd_subst(interp, argv):
    """``subst``: run substitutions over a string without execution."""
    from repro.tcl import parser as _parser

    args = argv[1:]
    novars = nocommands = nobackslashes = False
    while args and args[0].startswith("-"):
        if args[0] == "-novariables":
            novars = True
        elif args[0] == "-nocommands":
            nocommands = True
        elif args[0] == "-nobackslashes":
            nobackslashes = True
        else:
            break
        args = args[1:]
    if len(args) != 1:
        _wrong_args("subst ?-nobackslashes? ?-nocommands? ?-novariables? string")
    text = args[0]
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and not nobackslashes:
            piece, i = _parser.backslash_char(text, i)
            out.append(piece)
        elif ch == "$" and not novars:
            part, nxt = _parser.parse_varsub(text, i)
            if part is None:
                out.append("$")
                i = nxt
            else:
                name, index_parts = part[1]
                index = (
                    interp._substitute_parts(index_parts)
                    if index_parts is not None
                    else None
                )
                out.append(interp.get_var(name, index))
                i = nxt
        elif ch == "[" and not nocommands:
            end = _parser._find_matching_bracket(text, i)
            out.append(interp.eval(text[i + 1 : end]))
            i = end + 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def cmd_trace(interp, argv):
    """``trace variable|vdelete|vinfo`` -- variable traces (Tcl 7)."""
    if len(argv) < 3:
        _wrong_args("trace option [arg arg ...]")
    option = argv[1]
    if option in ("variable", "var"):
        if len(argv) != 5:
            _wrong_args("trace variable name ops command")
        name, ops, command = argv[2], argv[3], argv[4]
        if not ops or any(ch not in "rwu" for ch in ops):
            raise TclError(
                'bad operations "%s": should be one or more of rwu' % ops)
        interp.add_trace(name, ops, command)
        return ""
    if option == "vdelete":
        if len(argv) != 5:
            _wrong_args("trace vdelete name ops command")
        interp.remove_trace(argv[2], argv[3], argv[4])
        return ""
    if option == "vinfo":
        if len(argv) != 3:
            _wrong_args("trace vinfo name")
        return list_to_string(
            [list_to_string([ops, command])
             for ops, command in interp.trace_info(argv[2])])
    raise TclError(
        'bad option "%s": should be variable, vdelete, or vinfo' % option)


def cmd_unknown_default(interp, argv):
    raise TclError('invalid command name "%s"' % argv[1])


def register(interp):
    interp.register("set", cmd_set)
    interp.register("unset", cmd_unset)
    interp.register("incr", cmd_incr)
    interp.register("append", cmd_append)
    interp.register("proc", cmd_proc)
    interp.register("return", cmd_return)
    interp.register("global", cmd_global)
    interp.register("upvar", cmd_upvar)
    interp.register("uplevel", cmd_uplevel)
    interp.register("catch", cmd_catch)
    interp.register("error", cmd_error)
    interp.register("eval", cmd_eval)
    interp.register("expr", cmd_expr)
    interp.register("if", cmd_if)
    interp.register("while", cmd_while)
    interp.register("for", cmd_for)
    interp.register("foreach", cmd_foreach)
    interp.register("break", cmd_break)
    interp.register("continue", cmd_continue)
    interp.register("switch", cmd_switch)
    interp.register("case", cmd_case)
    interp.register("source", cmd_source)
    interp.register("time", cmd_time)
    interp.register("rename", cmd_rename)
    interp.register("puts", cmd_puts)
    interp.register("subst", cmd_subst)
    interp.register("trace", cmd_trace)
