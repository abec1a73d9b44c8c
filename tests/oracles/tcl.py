"""The Tcl tree walker: the reference semantics of the bytecode VM.

``TreeInterp`` evaluates every script by walking its parse tree, with
per-eval word substitution, and every expression by walking an AST
parsed afresh on each evaluation.  It uses the parse cache but neither
the bytecode LRU nor the expr AST cache.  The builtins are the
production ones: ``while``/``for``/``foreach`` call ``interp.eval`` and
``interp.eval_expr_truth`` on every iteration, which here land on the
walker.

tests/test_tcl_vm_differential.py runs every script on both engines
and demands identical results, errorInfo, errorCode, ``info cmdcount``
and budget trips; benchmarks/bench_tcl_cost.py measures the VM's
speedup over this walker.
"""

from repro.tcl.errors import TclError
from repro.tcl.expr import (
    _Lexer,
    _Parser,
    _binary,
    _truth,
    call_math_func,
    format_number,
    is_true,
    unary_op,
)
from repro.tcl.interp import Interp


class TreeInterp(Interp):
    """An ``Interp`` that walks parse trees instead of running bytecode."""

    def compile_script(self, script):
        return _TreeScript(script, self.parse_cache.get(script))

    def eval_expr_string(self, text):
        return format_number(_eval_expr(self, text))

    def eval_expr_truth(self, text):
        try:
            value = _eval_expr(self, text)
        except TclError:
            # Bare boolean words ("yes", "off", ...) are not expr syntax
            # but Tcl_ExprBoolean accepts them; mirror that.
            stripped = text.strip()
            if stripped and all(c.isalnum() for c in stripped):
                return is_true(stripped)
            raise
        if isinstance(value, str):
            return is_true(value)
        return value != 0


class _TreeScript:
    """A parsed script whose ``execute`` substitutes and dispatches
    each command in turn, threading its source line to ``call``."""

    __slots__ = ("source", "commands")

    def __init__(self, source, commands):
        self.source = source
        self.commands = commands

    def execute(self, interp):
        script = self.source
        result = ""
        line = 1
        scan = 0
        for command in self.commands:
            pos = command.pos
            if pos > scan:
                line += script.count("\n", scan, pos)
                scan = pos
            argv = [interp._substitute_parts(word.parts)
                    for word in command.words]
            if not argv or argv[0] == "":
                result = ""
            else:
                result = interp.call(argv, line)
        return result


def _eval_expr(interp, text):
    return _Evaluator(interp).eval(_Parser(_Lexer(text)).parse())


class _Evaluator:
    """Walks an expr AST; lazy ``&&``/``||``/``?:`` operands are only
    evaluated when reached."""

    def __init__(self, interp):
        self.interp = interp

    def var(self, payload):
        name, index_parts = payload
        index = None
        if index_parts is not None:
            index = self.interp._substitute_parts(index_parts)
        return self.interp.get_var(name, index)

    def eval(self, node):
        kind = node[0]
        if kind == "val":
            return node[1]
        if kind == "varref":
            return self.var(node[1])
        if kind == "cmdref":
            return self.interp.eval(node[1])
        if kind == "quoted":
            out = []
            for piece in node[1]:
                if isinstance(piece, str):
                    out.append(piece)
                elif piece[0] == "varref":
                    out.append(self.var(piece[1]))
                else:
                    out.append(self.interp.eval(piece[1]))
            return "".join(out)
        if kind == "unary":
            return unary_op(node[1], self.eval(node[2]))
        if kind == "binary":
            return _binary(node[1], self.eval(node[2]), self.eval(node[3]))
        if kind == "andor":
            left = _truth(self.eval(node[2]))
            if node[1] == "&&":
                if not left:
                    return 0
                return 1 if _truth(self.eval(node[3])) else 0
            if left:
                return 1
            return 1 if _truth(self.eval(node[3])) else 0
        if kind == "ternary":
            if _truth(self.eval(node[1])):
                return self.eval(node[2])
            return self.eval(node[3])
        if kind == "func":
            return call_math_func(node[1], [self.eval(a) for a in node[2]])
        raise TclError("internal expr error: bad node %r" % (kind,))
