"""The ``expr`` expression language.

Implements Tcl's C-like expression evaluator: integer, floating point
and string operands; the full operator set with C precedence including
the ternary conditional; lazy ``&&``/``||`` and lazy ternary branches;
math functions; and inline ``$variable`` and ``[command]`` substitution
(needed when expressions are passed in braces, which is the idiomatic
form in loop conditions).

This module parses to a small AST; ``repro.tcl.compile`` lowers the
AST to a stack program that the VM (``repro.tcl.vm.run_expr``) runs,
with jumps around short-circuited operands, so those are neither
substituted nor executed -- Tcl's documented behaviour, and what makes
``expr {$i < $n && [step]}`` safe.

Numbers follow Tcl's reading rules: leading ``0x`` is hex, a leading
``0`` is octal, and anything with ``.``, ``e`` or ``E`` is a double.
Results are rendered back to strings with ``%.12g`` for doubles (the
modern ``tcl_precision`` default), plain decimal for integers.
"""

import math

from repro.tcl.cache import LRUCache
from repro.tcl.errors import TclError
from repro.tcl.parser import backslash_char, parse_varsub, VARSUB


def format_number(value):
    """Render a Python number as Tcl's expr would."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            raise TclError("domain error: argument not in valid range")
        text = "%.12g" % value
        # Tcl always renders doubles recognisably as doubles.
        if "." not in text and "e" not in text and "n" not in text and "i" not in text:
            text += ".0"
        return text
    return value


def parse_number(text):
    """Parse a string into int or float per Tcl rules, or return None."""
    s = text.strip()
    if not s:
        return None
    try:
        negate = False
        body = s
        if body[0] in "+-":
            negate = body[0] == "-"
            body = body[1:]
        if body[:2].lower() == "0x":
            value = int(body[2:], 16)
            return -value if negate else value
        if (
            body.startswith("0")
            and len(body) > 1
            and all(c in "01234567" for c in body[1:])
        ):
            value = int(body, 8)
            return -value if negate else value
        return int(s, 10)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return None


def is_true(value):
    """Tcl boolean coercion: numbers, plus yes/no/true/false/on/off."""
    if isinstance(value, (int, float)):
        return value != 0
    number = parse_number(value)
    if number is not None:
        return number != 0
    lowered = value.lower()
    if lowered in ("yes", "true", "on"):
        return True
    if lowered in ("no", "false", "off"):
        return False
    raise TclError('expected boolean value but got "%s"' % value)


_OPERATOR_CHARS = "+-*/%<>=!&|^~?:(),"
_TWO_CHAR_OPS = ("<<", ">>", "<=", ">=", "==", "!=", "&&", "||")


class _Lexer:
    """Tokenizer.  Substitutions become deferred AST leaves, not values."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.token = None
        self.advance()

    def error(self, message=None):
        raise TclError(
            'syntax error in expression "%s"%s'
            % (self.text, ": " + message if message else "")
        )

    def advance(self):
        text = self.text
        n = len(text)
        i = self.pos
        while i < n and text[i] in " \t\n\r":
            i += 1
        if i >= n:
            self.token = (None, None)
            self.pos = i
            return
        ch = text[i]
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            self._lex_number(i)
            return
        if ch == "$":
            part, nxt = parse_varsub(text, i)
            if part is None or part[0] != VARSUB:
                self.error("lone $")
            self.token = ("varref", part[1])
            self.pos = nxt
            return
        if ch == "[":
            end = self._matching_bracket(i)
            self.token = ("cmdref", text[i + 1 : end])
            self.pos = end + 1
            return
        if ch == '"':
            self._lex_quoted(i)
            return
        if ch == "{":
            depth = 0
            j = i
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == "{":
                    depth += 1
                elif text[j] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if j >= n:
                self.error("missing close brace")
            self.token = ("str", text[i + 1 : j])
            self.pos = j + 1
            return
        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            self.token = ("op", two)
            self.pos = i + 2
            return
        if ch in _OPERATOR_CHARS:
            self.token = ("op", ch)
            self.pos = i + 1
            return
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            self.token = ("name", text[i:j])
            self.pos = j
            return
        self.error("unexpected character %r" % ch)

    def _lex_number(self, i):
        text = self.text
        n = len(text)
        j = i
        is_float = False
        if text[j : j + 2].lower() == "0x":
            j += 2
            while j < n and text[j] in "0123456789abcdefABCDEF":
                j += 1
        else:
            while j < n and (text[j].isdigit() or text[j] == "."):
                if text[j] == ".":
                    is_float = True
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    is_float = True
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
        raw = text[i:j]
        value = float(raw) if is_float else parse_number(raw)
        if value is None:
            self.error("bad number %r" % raw)
        self.token = ("num", value)
        self.pos = j

    def _lex_quoted(self, i):
        """A double-quoted operand: list of literal/varref/cmdref pieces."""
        text = self.text
        n = len(text)
        pieces = []
        buf = []
        j = i + 1
        while j < n and text[j] != '"':
            if text[j] == "\\":
                out, j = backslash_char(text, j)
                buf.append(out)
            elif text[j] == "$":
                part, nxt = parse_varsub(text, j)
                if part is None:
                    buf.append("$")
                    j = nxt
                else:
                    if buf:
                        pieces.append("".join(buf))
                        buf = []
                    pieces.append(("varref", part[1]))
                    j = nxt
            elif text[j] == "[":
                end = self._matching_bracket(j)
                if buf:
                    pieces.append("".join(buf))
                    buf = []
                pieces.append(("cmdref", text[j + 1 : end]))
                j = end + 1
            else:
                buf.append(text[j])
                j += 1
        if j >= n:
            self.error("unterminated string")
        if buf or not pieces:
            pieces.append("".join(buf))
        self.token = ("quoted", pieces)
        self.pos = j + 1

    def _matching_bracket(self, pos):
        depth = 0
        text = self.text
        j = pos
        n = len(text)
        while j < n:
            ch = text[j]
            if ch == "\\":
                j += 2
                continue
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
                if depth == 0:
                    return j
            j += 1
        self.error("missing close bracket")


class _Parser:
    """Recursive descent to an AST of tuples.

    Node shapes: ``("val", v)``, ``("varref", payload)``,
    ``("cmdref", script)``, ``("quoted", pieces)``, ``("unary", op, a)``,
    ``("binary", op, a, b)``, ``("andor", op, a, b)``,
    ``("ternary", c, a, b)``, ``("func", name, args)``.
    """

    _BINARY_LEVELS = [
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    def __init__(self, lexer):
        self.lex = lexer

    def parse(self):
        node = self.parse_ternary()
        if self.lex.token != (None, None):
            self.lex.error("extra tokens at end")
        return node

    def parse_ternary(self):
        cond = self.parse_or()
        if self.lex.token == ("op", "?"):
            self.lex.advance()
            then_node = self.parse_ternary()
            if self.lex.token != ("op", ":"):
                self.lex.error("expected : in ?:")
            self.lex.advance()
            else_node = self.parse_ternary()
            return ("ternary", cond, then_node, else_node)
        return cond

    def parse_or(self):
        node = self.parse_and()
        while self.lex.token == ("op", "||"):
            self.lex.advance()
            node = ("andor", "||", node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_binary(0)
        while self.lex.token == ("op", "&&"):
            self.lex.advance()
            node = ("andor", "&&", node, self.parse_binary(0))
        return node

    def parse_binary(self, level):
        if level >= len(self._BINARY_LEVELS):
            return self.parse_unary()
        ops = self._BINARY_LEVELS[level]
        node = self.parse_binary(level + 1)
        while self.lex.token[0] == "op" and self.lex.token[1] in ops:
            op = self.lex.token[1]
            self.lex.advance()
            node = ("binary", op, node, self.parse_binary(level + 1))
        return node

    def parse_unary(self):
        kind, value = self.lex.token
        if kind == "op" and value in ("-", "+", "!", "~"):
            self.lex.advance()
            return ("unary", value, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        kind, value = self.lex.token
        if kind == "num":
            self.lex.advance()
            return ("val", value)
        if kind in ("str",):
            self.lex.advance()
            return ("val", value)
        if kind in ("varref", "cmdref", "quoted"):
            self.lex.advance()
            return (kind, value)
        if kind == "op" and value == "(":
            self.lex.advance()
            inner = self.parse_ternary()
            if self.lex.token != ("op", ")"):
                self.lex.error("expected )")
            self.lex.advance()
            return inner
        if kind == "name":
            name = value
            self.lex.advance()
            if self.lex.token == ("op", "("):
                self.lex.advance()
                args = []
                if self.lex.token != ("op", ")"):
                    args.append(self.parse_ternary())
                    while self.lex.token == ("op", ","):
                        self.lex.advance()
                        args.append(self.parse_ternary())
                if self.lex.token != ("op", ")"):
                    self.lex.error("expected )")
                self.lex.advance()
                return ("func", name, args)
            lowered = name.lower()
            if lowered in ("true", "yes", "on"):
                return ("val", 1)
            if lowered in ("false", "no", "off"):
                return ("val", 0)
            self.lex.error('unknown operand "%s"' % name)
        if kind is None:
            self.lex.error("premature end of expression")
        self.lex.error("unexpected token %r" % (value,))


_MATH_FUNCS = {
    "abs": (1, abs),
    "acos": (1, math.acos),
    "asin": (1, math.asin),
    "atan": (1, math.atan),
    "atan2": (2, math.atan2),
    "ceil": (1, lambda x: float(math.ceil(x))),
    "cos": (1, math.cos),
    "cosh": (1, math.cosh),
    "double": (1, float),
    "exp": (1, math.exp),
    "floor": (1, lambda x: float(math.floor(x))),
    "fmod": (2, math.fmod),
    "hypot": (2, math.hypot),
    "int": (1, int),
    "log": (1, math.log),
    "log10": (1, math.log10),
    "pow": (2, lambda x, y: float(x) ** float(y)
            if isinstance(x, float) or isinstance(y, float) or y < 0
            else int(x) ** int(y)),
    "round": (1, lambda x: int(math.floor(x + 0.5)) if x >= 0
              else -int(math.floor(-x + 0.5))),
    "sin": (1, math.sin),
    "sinh": (1, math.sinh),
    "sqrt": (1, math.sqrt),
    "tan": (1, math.tan),
    "tanh": (1, math.tanh),
}

# Functions whose arguments keep their integer-ness.
_INT_PRESERVING = frozenset(("abs", "int", "round", "double", "pow"))


def unary_op(op, operand):
    """Apply a unary expr operator (``-``, ``+``, ``!``, ``~``)."""
    if op == "-":
        return -_num(operand)
    if op == "+":
        return _num(operand)
    if op == "!":
        return 0 if _truth(operand) else 1
    number = _num(operand)
    if isinstance(number, float):
        raise TclError("can't use floating-point value as operand of \"~\"")
    return ~number


def call_math_func(name, args):
    """Invoke an expr math function with Tcl arity/domain errors."""
    spec = _MATH_FUNCS.get(name)
    if spec is None:
        raise TclError('unknown math function "%s"' % name)
    arity, func = spec
    if len(args) != arity:
        raise TclError(
            "too %s arguments for math function"
            % ("few" if len(args) < arity else "many")
        )
    numeric = [_num(a) for a in args]
    if name not in _INT_PRESERVING:
        numeric = [float(a) for a in numeric]
    try:
        return func(*numeric)
    except (ValueError, OverflowError):
        raise TclError("domain error: argument not in valid range")
    except ZeroDivisionError:
        raise TclError("divide by zero")


def _num(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    number = parse_number(value)
    if number is None:
        raise TclError("can't use non-numeric string as operand")
    return number


def _truth(value):
    if isinstance(value, (int, float)):
        return value != 0
    return is_true(value)


def _binary(op, left, right):
    if op in ("==", "!=", "<", ">", "<=", ">="):
        result = _compare(left, right)
        if op == "==":
            return 1 if result == 0 else 0
        if op == "!=":
            return 1 if result != 0 else 0
        if op == "<":
            return 1 if result < 0 else 0
        if op == ">":
            return 1 if result > 0 else 0
        if op == "<=":
            return 1 if result <= 0 else 0
        return 1 if result >= 0 else 0
    a, b = _num(left), _num(right)
    if op in ("|", "^", "&", "<<", ">>"):
        if isinstance(a, float) or isinstance(b, float):
            raise TclError(
                "can't use floating-point value as operand of integer operator"
            )
        if op == "|":
            return a | b
        if op == "^":
            return a ^ b
        if op == "&":
            return a & b
        if op == "<<":
            return a << b
        return a >> b
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise TclError("divide by zero")
        if isinstance(a, int) and isinstance(b, int):
            # C-style truncation toward zero, as Tcl documents.
            quotient = abs(a) // abs(b)
            return quotient if (a >= 0) == (b >= 0) else -quotient
        return a / b
    if op == "%":
        if isinstance(a, float) or isinstance(b, float):
            raise TclError("can't use floating-point value as operand of \"%\"")
        if b == 0:
            raise TclError("divide by zero")
        remainder = abs(a) % abs(b)
        return -remainder if a < 0 else remainder
    raise TclError("unknown operator %s" % op)


def _compare(left, right):
    """Three-way compare, numeric when both operands look numeric."""
    ln = parse_number(left) if isinstance(left, str) else left
    rn = parse_number(right) if isinstance(right, str) else right
    if ln is not None and rn is not None:
        if ln < rn:
            return -1
        if ln > rn:
            return 1
        return 0
    ls = format_number(left) if isinstance(left, (int, float)) else left
    rs = format_number(right) if isinstance(right, (int, float)) else right
    if ls < rs:
        return -1
    if ls > rs:
        return 1
    return 0


# ----------------------------------------------------------------------
# AST cache
#
# The compiler lowers every literal expr word and condition from its
# AST, and Wafe's one-shot lines and callbacks repeat the same
# expression texts (`if {$i < $n}`, translation actions) in scripts
# that are compiled anew.  The AST is immutable and
# environment-independent (variable and command references are
# deferred leaves resolved per evaluation), so a single module-level
# LRU keyed by the expression text is shared by every interpreter in
# the process.  Parse errors are *not* cached: they are rare, and
# caching exceptions would complicate eviction for no measurable win.

ast_cache = LRUCache(maxsize=1024)


def compile_expr(text):
    """Parse an expression to its AST, memoised on the expression text."""
    ast = ast_cache.get(text)
    if ast is None:
        ast = ast_cache.put(text, _Parser(_Lexer(text)).parse())
    return ast
